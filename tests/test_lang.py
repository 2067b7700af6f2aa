"""Tests for the embedded layout language: parameterized cells."""

import pytest

from repro.lang.parameters import Parameter, ParameterError, ParameterizedCell
from repro.layout.cell import Cell
from repro.technology import NMOS, Technology


class TestParameterizedCell:
    class Demo(ParameterizedCell):
        name_prefix = "demo"
        width = Parameter(kind=int, default=4, minimum=2, maximum=10)
        flavour = Parameter(kind=str, default="plain", choices=["plain", "fancy"])

        def build(self):
            cell = Cell(self.cell_name())
            cell.add_box("metal", 0, 0, self.width, 4)
            return cell

    def test_defaults_and_overrides(self):
        gen = self.Demo(NMOS)
        assert gen.width == 4
        assert self.Demo(NMOS, width=6).width == 6

    def test_validation(self):
        with pytest.raises(ParameterError):
            self.Demo(NMOS, width=1)
        with pytest.raises(ParameterError):
            self.Demo(NMOS, width=99)
        with pytest.raises(ParameterError):
            self.Demo(NMOS, flavour="weird")
        with pytest.raises(ParameterError):
            self.Demo(NMOS, nonsense=3)

    def test_cell_is_cached_and_shared(self):
        a = self.Demo(NMOS, width=6).cell()
        b = self.Demo(NMOS, width=6).cell()
        assert a is b
        c = self.Demo(NMOS, width=8).cell()
        assert c is not a

    def test_different_technology_not_shared(self):
        second_source = Technology(name="nmos-second-source",
                                   lambda_nm=NMOS.lambda_nm,
                                   layers=NMOS.layers, rules=NMOS.rules)
        a = self.Demo(NMOS).cell()
        b = self.Demo(second_source).cell()
        assert a is not b

    def test_cell_name_encodes_parameters(self):
        assert "width6" in self.Demo(NMOS, width=6).cell_name()

    def test_declared_parameters(self):
        assert set(self.Demo.declared_parameters()) == {"width", "flavour"}
