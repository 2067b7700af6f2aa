"""Tests for the embedded layout language: parameters and composition."""

import pytest

from repro.geometry.point import Point
from repro.lang.composition import (
    abut_horizontal,
    abut_vertical,
    array_cell,
    column_of,
    mirror_cell,
    row_of,
    stack_cells,
)
from repro.lang.parameters import Parameter, ParameterError, ParameterizedCell
from repro.layout.cell import Cell
from repro.technology import CMOS, NMOS


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
        a = self.Demo(NMOS).cell()
        b = self.Demo(CMOS).cell()
        assert a is not b

    def test_cell_name_encodes_parameters(self):
        assert "width6" in self.Demo(NMOS, width=6).cell_name()

    def test_declared_parameters(self):
        assert set(self.Demo.declared_parameters()) == {"width", "flavour"}


class TestComposition:
    def make_block(self, name="blk", w=10, h=6):
        cell = Cell(name)
        cell.add_box("metal", 0, 0, w, h)
        cell.add_port("p", Point(w - 1, h // 2), "metal")
        return cell

    def test_abut_horizontal_widths_add(self):
        a, b = self.make_block("a", 10, 6), self.make_block("b", 14, 8)
        row = abut_horizontal("row", [a, b])
        assert row.width == 24
        assert row.height == 8

    def test_abut_vertical_heights_add(self):
        a, b = self.make_block("a", 10, 6), self.make_block("b", 14, 8)
        column = abut_vertical("col", [a, b])
        assert column.height == 14

    def test_abut_spacing(self):
        a, b = self.make_block("a"), self.make_block("b")
        assert abut_horizontal("row", [a, b], spacing=5).width == 25

    def test_abut_reexports_ports(self):
        a, b = self.make_block("a"), self.make_block("b")
        row = abut_horizontal("row", [a, b])
        assert "a_0.p" in row.port_names() and "b_1.p" in row.port_names()

    def test_stack_cells_dispatch(self):
        a, b = self.make_block("a"), self.make_block("b")
        assert stack_cells("s", [a, b], "horizontal").width == 20
        assert stack_cells("s2", [a, b], "vertical").height == 12
        with pytest.raises(ValueError):
            stack_cells("s3", [a, b], "diagonal")

    def test_array_counts(self):
        unit = self.make_block("unit")
        arr = array_cell("arr", unit, columns=3, rows=2)
        assert arr.instance_count() == 6
        assert arr.width == 30 and arr.height == 12

    def test_array_invalid_dimensions(self):
        with pytest.raises(ValueError):
            array_cell("arr", self.make_block(), columns=0, rows=1)

    def test_row_and_column_helpers(self):
        unit = self.make_block("unit")
        assert row_of("r", unit, 4).width == 40
        assert column_of("c", unit, 3).height == 18

    def test_mirror_preserves_bbox_and_ports(self):
        unit = self.make_block("unit")
        mirrored = mirror_cell("m", unit, axis="x")
        assert mirrored.width == unit.width
        # The port moves to the opposite side.
        assert mirrored.port("p").position.x == unit.bbox().x1 + 1

    def test_alignment_options(self):
        a, b = self.make_block("a", 10, 6), self.make_block("b", 10, 12)
        top_aligned = abut_horizontal("r", [a, b], align="top")
        assert top_aligned.bbox().y2 == 0
        with pytest.raises(ValueError):
            abut_horizontal("r2", [a, b], align="middle-ish")
