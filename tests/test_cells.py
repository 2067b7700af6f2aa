"""Tests for the leaf-cell library: geometry, DRC cleanliness, extraction."""

import pytest

from repro.cells import (
    BondingPadCell,
    InverterCell,
    NandCell,
    NorCell,
    PassTransistorCell,
    RegisterBitCell,
    ShiftRegisterCell,
)
from repro.drc import check_cell
from repro.extract import extract_cell
from repro.lang.parameters import ParameterError
from repro.netlist.switch_sim import SwitchLevelSimulator
from repro.technology import NMOS


class TestInverter:
    def test_ports(self):
        cell = InverterCell(NMOS).cell()
        assert set(cell.port_names()) == {"in", "out", "vdd", "gnd"}

    def test_drc_clean(self):
        assert check_cell(InverterCell(NMOS).cell(), NMOS) == []

    def test_extracts_to_two_transistors(self):
        extracted = extract_cell(InverterCell(NMOS).cell(), NMOS)
        assert extracted.transistor_count == 2
        assert extracted.depletion_count == 1

    def test_switch_level_truth_table(self):
        extracted = extract_cell(InverterCell(NMOS).cell(), NMOS)
        for value in (0, 1):
            sim = SwitchLevelSimulator(extracted.network)
            assert sim.evaluate({"in": value})["out"] == 1 - value

    def test_ratio_parameter_changes_pullup(self):
        lean = InverterCell(NMOS, ratio=4).cell()
        strong = InverterCell(NMOS, ratio=8).cell()
        assert strong.height > lean.height

    def test_invalid_ratio(self):
        with pytest.raises(ParameterError):
            InverterCell(NMOS, ratio=5)


class TestGates:
    @pytest.mark.parametrize("inputs", [2, 3])
    def test_nand_truth_table(self, inputs):
        cell = NandCell(NMOS, inputs=inputs).cell()
        extracted = extract_cell(cell, NMOS)
        assert extracted.transistor_count == inputs + 1
        for minterm in range(2 ** inputs):
            sim = SwitchLevelSimulator(extracted.network)
            assignment = {f"in{i}": (minterm >> i) & 1 for i in range(inputs)}
            expected = 0 if all(assignment.values()) else 1
            assert sim.evaluate(assignment)["out"] == expected, assignment

    @pytest.mark.parametrize("inputs", [2, 3])
    def test_nor_truth_table(self, inputs):
        cell = NorCell(NMOS, inputs=inputs).cell()
        extracted = extract_cell(cell, NMOS)
        assert extracted.transistor_count == inputs + 1
        for minterm in range(2 ** inputs):
            sim = SwitchLevelSimulator(extracted.network)
            assignment = {f"in{i}": (minterm >> i) & 1 for i in range(inputs)}
            expected = 0 if any(assignment.values()) else 1
            assert sim.evaluate(assignment)["out"] == expected, assignment

    def test_gates_drc_clean(self):
        assert check_cell(NandCell(NMOS, inputs=2).cell(), NMOS) == []
        assert check_cell(NorCell(NMOS, inputs=2).cell(), NMOS) == []

    def test_nand_port_count_follows_inputs(self):
        cell = NandCell(NMOS, inputs=3).cell()
        assert {"in0", "in1", "in2"} <= set(cell.port_names())

    def test_pass_transistor(self):
        cell = PassTransistorCell(NMOS).cell()
        extracted = extract_cell(cell, NMOS)
        assert extracted.transistor_count == 1
        assert set(cell.port_names()) == {"left", "right", "gate"}

    def test_pass_transistor_conducts_when_gate_high(self):
        extracted = extract_cell(PassTransistorCell(NMOS).cell(), NMOS)
        sim = SwitchLevelSimulator(extracted.network)
        sim.set_inputs({"gate": 1, "left": 1})
        assert sim.evaluate()["right"] == 1
        sim2 = SwitchLevelSimulator(extracted.network)
        sim2.set_inputs({"gate": 0, "left": 1})
        # With the gate off the right side keeps its (unknown) stored value.
        assert sim2.evaluate()["right"] in (None, 0)


class TestRegistersAndPads:
    def test_shift_register_half_ports(self):
        cell = ShiftRegisterCell(NMOS).cell()
        assert {"in", "out", "clock", "vdd", "gnd"} <= set(cell.port_names())

    def test_register_bit_composes_two_halves(self):
        cell = RegisterBitCell(NMOS).cell()
        assert {"in", "out", "phi1", "phi2"} <= set(cell.port_names())
        assert len(cell.instances) == 2

    def test_register_bit_transistor_budget(self):
        assert RegisterBitCell(NMOS).transistor_count == 6

    def test_pad_has_overglass_opening(self):
        cell = BondingPadCell(NMOS).cell()
        layers = {s.layer for s in cell.shapes}
        assert "overglass" in layers and "metal" in layers

    def test_pad_kinds(self):
        input_pad = BondingPadCell(NMOS, kind="input").cell()
        output_pad = BondingPadCell(NMOS, kind="output").cell()
        assert input_pad is not output_pad
        assert {"pad", "core"} <= set(input_pad.port_names())

    def test_pad_opening_must_fit(self):
        with pytest.raises(ValueError):
            BondingPadCell(NMOS, size=100, opening=100).cell()

    def test_pad_minimum_size_rule(self):
        with pytest.raises(ParameterError):
            BondingPadCell(NMOS, size=50)
