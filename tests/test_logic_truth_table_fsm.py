"""Tests for truth tables and finite-state machines."""

import pytest

from repro.diagnostics import Severity
from repro.logic.expr import parse_expr
from repro.logic.fsm import FSM, StateEncoding, encode_fsm
from repro.logic.truth_table import TruthTable


class TestTruthTable:
    def test_from_expressions(self):
        table = TruthTable.from_expressions({"s": parse_expr("a ^ b")})
        assert table.output(0b01, "s") == 1
        assert table.output(0b11, "s") == 0

    def test_from_function(self):
        table = TruthTable.from_function(
            ["a", "b"], ["carry"],
            lambda env: {"carry": env["a"] & env["b"]},
        )
        assert table.on_set("carry") == [3]

    def test_from_values(self):
        table = TruthTable.from_values(["a"], ["f", "g"], [[0, 1], [1, 0]])
        assert table.output(0, "g") == 1 and table.output(1, "f") == 1

    def test_from_values_wrong_row_count(self):
        with pytest.raises(ValueError):
            TruthTable.from_values(["a"], ["f"], [[0]])

    def test_dont_cares(self):
        table = TruthTable(["a", "b"], ["f"])
        table.set_output(2, "f", None)
        assert table.dc_set("f") == [2]
        assert 2 not in table.on_set("f")

    def test_invalid_output_value(self):
        table = TruthTable(["a"], ["f"])
        with pytest.raises(ValueError):
            table.set_output(0, "f", 3)

    def test_assignment_for_msb_first(self):
        table = TruthTable(["x", "y", "z"], ["f"])
        assert table.assignment_for(0b100) == {"x": 1, "y": 0, "z": 0}

    def test_to_cover_merges_shared_minterms(self):
        table = TruthTable(["a"], ["f", "g"])
        table.set_row(1, [1, 1])
        cover = table.to_cover()
        assert cover.num_terms == 1
        assert cover.cubes[0].outputs == "11"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(["a", "a"], ["f"])
        with pytest.raises(ValueError):
            TruthTable(["a"], ["f", "f"])

    def test_str_renders_rows(self):
        text = str(TruthTable(["a"], ["f"]))
        assert "a | f" in text


def traffic_light():
    fsm = FSM("tl", inputs=["car"], outputs=["green", "yellow", "red"])
    fsm.add_state("G", {"green": 1}, reset=True)
    fsm.add_state("Y", {"yellow": 1})
    fsm.add_state("R", {"red": 1})
    fsm.add_transition("G", "Y", {"car": 1})
    fsm.add_transition("G", "G", {"car": 0})
    fsm.add_transition("Y", "R")
    fsm.add_transition("R", "G")
    return fsm


class TestFsm:
    def test_construction_checks(self):
        fsm = FSM("m", inputs=["x"], outputs=["y"])
        fsm.add_state("A")
        with pytest.raises(ValueError):
            fsm.add_state("A")
        with pytest.raises(KeyError):
            fsm.add_transition("A", "B")
        with pytest.raises(ValueError):
            fsm.add_state("B", {"nope": 1})

    def test_unknown_input_in_condition(self):
        fsm = FSM("m", inputs=["x"], outputs=[])
        fsm.add_state("A")
        fsm.add_state("B")
        with pytest.raises(ValueError):
            fsm.add_transition("A", "B", {"zz": 1})

    def test_validate_unreachable_state(self):
        fsm = FSM("m", inputs=[], outputs=[])
        fsm.add_state("A", reset=True)
        fsm.add_state("B")
        assert [d.code for d in fsm.validate()] == ["FSM002"]
        with pytest.raises(ValueError, match="unreachable"):
            encode_fsm(fsm)

    def test_overlapping_conditions_warn_but_encode(self):
        fsm = FSM("m", inputs=["x", "y"], outputs=[])
        fsm.add_state("A", reset=True)
        fsm.add_state("B")
        fsm.add_transition("A", "B", {"x": 1})
        fsm.add_transition("A", "A", {"y": 1})      # x=1, y=1 matches both
        fsm.add_transition("B", "A")
        [warning] = fsm.validate()
        assert (warning.code, warning.severity) == ("FSM003", Severity.WARNING)
        assert encode_fsm(fsm).num_state_bits == 1

    def test_simulation_sequence(self):
        fsm = traffic_light()
        trace = fsm.simulate([{"car": 0}, {"car": 1}, {"car": 0}, {"car": 0}])
        assert [t["__state__"] for t in trace] == ["G", "Y", "R", "G"]
        assert trace[0]["green"] == 1 and trace[1]["green"] == 1

    def test_encoding_binary_width(self):
        encoded = encode_fsm(traffic_light(), StateEncoding.BINARY)
        assert encoded.num_state_bits == 2
        assert encoded.state_codes[traffic_light().reset_state] == "00"

    def test_encoding_one_hot_width(self):
        encoded = encode_fsm(traffic_light(), StateEncoding.ONE_HOT)
        assert encoded.num_state_bits == 3
        codes = set(encoded.state_codes.values())
        assert all(code.count("1") == 1 for code in codes)

    def test_encoding_gray_adjacent(self):
        encoded = encode_fsm(traffic_light(), StateEncoding.GRAY)
        assert len(set(encoded.state_codes.values())) == 3

    def test_encoded_cover_signature(self):
        encoded = encode_fsm(traffic_light())
        cover = encoded.cover
        assert cover.num_inputs == 2 + 1               # state bits + car
        assert cover.num_outputs == 2 + 3              # next-state bits + outputs
        assert cover.num_terms >= 3

    def test_encoded_cover_behaviour_matches_simulation(self):
        fsm = traffic_light()
        encoded = encode_fsm(fsm)
        # From reset (G = 00) with car=1 the next state must be Y's code and
        # green must be asserted (Moore output of the current state).
        values = {f"tl_s0": 0, f"tl_s1": 0, "car": 1}
        out = encoded.cover.evaluate(values)
        y_code = encoded.state_codes["Y"]
        assert out["tl_n0"] == int(y_code[0])
        assert out["tl_n1"] == int(y_code[1])
        assert out["green"] == 1

    def test_encode_requires_reset(self):
        fsm = FSM("m", inputs=[], outputs=[])
        with pytest.raises(ValueError):
            encode_fsm(fsm)
