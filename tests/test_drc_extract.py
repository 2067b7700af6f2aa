"""Tests for design-rule checking and circuit extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import HierAnalyzer, hier
from repro.cells import InverterCell, NandCell
from repro.drc import DrcChecker, check_cell
from repro.drc.checker import enclosure_verdicts, enclosure_violation
from repro.extract import Extractor, compose, extract_cell
from repro.geometry.index import BruteForceIndex, GridIndex
from repro.geometry.merge import merge_group
from repro.geometry.point import Point
from repro.geometry.rect import Rect, merged_area
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.netlist.switch_sim import SwitchLevelSimulator, TransistorKind
from repro.technology import NMOS
from repro.technology.rules import DesignRule, RuleKind


class TestDrcWidth:
    def test_narrow_metal_flagged(self):
        cell = Cell("narrow")
        cell.add_box("metal", 0, 0, 2, 20)      # metal must be 3 wide
        violations = check_cell(cell, NMOS)
        assert any(v.kind is RuleKind.MIN_WIDTH and "metal" in v.layers for v in violations)

    def test_wide_metal_clean(self):
        cell = Cell("wide")
        cell.add_box("metal", 0, 0, 3, 20)
        assert not [v for v in check_cell(cell, NMOS) if v.kind is RuleKind.MIN_WIDTH]

    def test_region_built_from_pieces_not_flagged(self):
        # Two 2-wide metal strips abutting form a 4-wide region: legal.
        cell = Cell("pieces")
        cell.add_box("metal", 0, 0, 2, 20)
        cell.add_box("metal", 2, 0, 4, 20)
        assert not [v for v in check_cell(cell, NMOS) if v.kind is RuleKind.MIN_WIDTH]


class TestDrcSpacing:
    def test_close_metal_flagged(self):
        cell = Cell("close")
        cell.add_box("metal", 0, 0, 4, 10)
        cell.add_box("metal", 6, 0, 10, 10)      # gap 2 < 3
        violations = check_cell(cell, NMOS)
        assert any(v.kind is RuleKind.MIN_SPACING for v in violations)

    def test_spaced_metal_clean(self):
        cell = Cell("spaced")
        cell.add_box("metal", 0, 0, 4, 10)
        cell.add_box("metal", 7, 0, 11, 10)
        assert not [v for v in check_cell(cell, NMOS) if v.kind is RuleKind.MIN_SPACING]

    def test_touching_shapes_are_connected_not_spaced(self):
        cell = Cell("touch")
        cell.add_box("poly", 0, 0, 4, 4)
        cell.add_box("poly", 4, 0, 8, 4)
        assert not [v for v in check_cell(cell, NMOS) if v.kind is RuleKind.MIN_SPACING]

    def test_poly_to_diffusion_spacing(self):
        cell = Cell("pd")
        cell.add_box("poly", 0, 0, 2, 10)
        cell.add_box("diffusion", 2, 0, 6, 10)   # abutting: fine (they touch)
        cell.add_box("diffusion", 12, 0, 16, 10)
        clean = check_cell(cell, NMOS)
        assert not [v for v in clean if v.kind is RuleKind.MIN_SPACING]


class TestDrcContactsAndEnclosure:
    def test_contact_exact_size(self):
        cell = Cell("cut")
        cell.add_box("contact", 0, 0, 3, 3)
        cell.add_box("metal", -2, -2, 5, 5)
        violations = check_cell(cell, NMOS)
        assert any(v.kind is RuleKind.EXACT_SIZE for v in violations)

    def test_contact_enclosure_violation(self):
        cell = Cell("enc")
        cell.add_box("contact", 0, 0, 2, 2)
        cell.add_box("metal", 0, 0, 2, 2)        # zero surround
        violations = check_cell(cell, NMOS)
        assert any(v.kind is RuleKind.MIN_ENCLOSURE for v in violations)

    def test_contact_properly_enclosed(self):
        cell = Cell("ok")
        cell.add_box("contact", 0, 0, 2, 2)
        cell.add_box("metal", -1, -1, 3, 3)
        cell.add_box("diffusion", -1, -1, 3, 3)
        assert check_cell(cell, NMOS) == []

    def test_violation_string_mentions_rule(self):
        cell = Cell("v")
        cell.add_box("metal", 0, 0, 2, 20)
        violation = check_cell(cell, NMOS)[0]
        assert "min_width" in str(violation)

    def test_library_cells_are_clean(self):
        assert check_cell(InverterCell(NMOS).cell(), NMOS) == []
        assert check_cell(NandCell(NMOS, inputs=3).cell(), NMOS) == []


small_rects = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                        st.integers(-12, 12), st.integers(-12, 12),
                        st.integers(0, 8), st.integers(0, 8))


class TestVerdictLoopsKeepTheRule:
    """``merge_group`` and ``enclosure_verdicts`` take shortcuts (one
    bounding-box pass, containment tested inline); the flat
    checker, the composer and the brute-force oracle all share them, so
    each is held here to the rule written out directly."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_rects, min_size=1, max_size=6))
    def test_merge_group_is_the_bounding_box_exactly_when_covered(self, group):
        bounding = group[0]
        for rect in group[1:]:
            bounding = bounding.union(rect)
        covered = merged_area(group) == bounding.area
        expected = [bounding] if covered and len(group) > 1 else group
        assert list(merge_group(group)) == list(expected)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_rects, max_size=8), st.lists(small_rects, max_size=5),
           st.integers(0, 3))
    def test_enclosure_verdicts_equal_the_rule_per_inner_rect(self, outer,
                                                              inner, value):
        rule = DesignRule(RuleKind.MIN_ENCLOSURE, ("metal", "contact"), value)
        expected = []
        for rect_id, rect in enumerate(inner):
            grown = rect.expanded(value)
            nearby = [out for out in outer if out.touches(grown)]
            triggered = any(out.overlaps(rect, strict=True) for out in nearby)
            violation = enclosure_violation(rule, rect, nearby, triggered)
            if violation is not None:
                expected.append(((rect_id,), violation))
        for index in (BruteForceIndex(outer), GridIndex(outer)):
            assert enclosure_verdicts(rule, outer, index, inner) == expected


class TestExtraction:
    def test_inverter_devices(self):
        extracted = extract_cell(InverterCell(NMOS).cell(), NMOS)
        assert extracted.transistor_count == 2
        assert extracted.enhancement_count == 1
        assert extracted.depletion_count == 1
        assert {"in", "out", "vdd", "gnd"} <= set(extracted.node_names)

    def test_extracted_inverter_simulates_correctly(self):
        extracted = extract_cell(InverterCell(NMOS).cell(), NMOS)
        for value in (0, 1):
            sim = SwitchLevelSimulator(extracted.network)
            assert sim.evaluate({"in": value})["out"] == 1 - value

    def test_hand_drawn_transistor(self):
        cell = Cell("fet")
        cell.add_box("diffusion", 4, 0, 8, 12)
        cell.add_box("poly", 0, 4, 12, 6)
        cell.add_port("g", Point(1, 5), "poly", "input")
        cell.add_port("s", Point(6, 1), "diffusion", "inout")
        cell.add_port("d", Point(6, 11), "diffusion", "inout")
        extracted = extract_cell(cell, NMOS)
        assert extracted.transistor_count == 1
        device = extracted.network.transistors[0]
        assert device.kind is TransistorKind.ENHANCEMENT
        assert device.gate == "g"
        assert {device.source, device.drain} == {"s", "d"}

    def test_buried_contact_suppresses_channel(self):
        cell = Cell("buried")
        cell.add_box("diffusion", 4, 0, 8, 12)
        cell.add_box("poly", 0, 4, 12, 6)
        cell.add_box("buried", 0, 3, 12, 7)      # covers the crossing
        extracted = extract_cell(cell, NMOS)
        assert extracted.transistor_count == 0

    def test_implant_makes_depletion_device(self):
        cell = Cell("dep")
        cell.add_box("diffusion", 4, 0, 8, 12)
        cell.add_box("poly", 0, 4, 12, 6)
        cell.add_box("implant", -2, 2, 14, 8)
        extracted = extract_cell(cell, NMOS)
        assert extracted.depletion_count == 1

    def test_contact_joins_layers(self):
        cell = Cell("join")
        cell.add_box("metal", 0, 0, 10, 4)
        cell.add_box("diffusion", 0, 0, 4, 10)
        cell.add_port("m", Point(9, 2), "metal")
        cell.add_port("d", Point(2, 9), "diffusion")
        # Without a contact these are separate nodes.
        separate = extract_cell(cell, NMOS)
        assert len(separate.node_names) == 2
        cell.add_box("contact", 1, 1, 3, 3)
        joined = extract_cell(cell, NMOS)
        assert len(joined.node_names) == 1

    def test_nand_series_chain_extracted(self):
        extracted = extract_cell(NandCell(NMOS, inputs=2).cell(), NMOS)
        assert extracted.transistor_count == 3
        assert extracted.summary()["depletion"] == 1

    def test_extraction_through_hierarchy(self):
        inverter = InverterCell(NMOS).cell()
        parent = Cell("two_inverters")
        parent.place(inverter, 0, 0)
        parent.place(inverter, 40, 0)
        extracted = extract_cell(parent, NMOS)
        assert extracted.transistor_count == 4


class TestComposedExtractionStages:
    """The composer recomputes suspect elements with the flat extractor's own
    per-element rules: each is called on the composed path."""

    STAGES = ("diffusion_crossings", "covers", "gate_item",
              "adjacent_piece_ids", "label_item_hits")

    def test_composed_extraction_calls_every_stage_function(self, monkeypatch):
        calls = dict.fromkeys(self.STAGES, 0)

        def counted(name):
            function = getattr(compose, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        for name in self.STAGES:
            monkeypatch.setattr(compose, name, counted(name))
        monkeypatch.setattr(hier, "_DIRECT_THRESHOLD", 0)

        nand = NandCell(NMOS, inputs=2).cell()
        top = Cell("stage_top")
        top.place(nand, 0, 0)
        top.place(nand, nand.width + 10, 0)
        # Own geometry is always recomputed: a depletion device with a
        # labelled gate, and a crossing under a buried contact.
        top.add_box("diffusion", -20, 0, -16, 12)
        top.add_box("poly", -22, 5, -14, 7)
        top.add_box("implant", -23, 3, -13, 9)
        top.add_label("own_gate", Point(-21, 6), "poly")
        top.add_box("diffusion", -40, 0, -36, 12)
        top.add_box("poly", -42, 5, -34, 7)
        top.add_box("buried", -42, 4, -34, 8)

        analyzer = HierAnalyzer(NMOS)
        composed = analyzer.extract(top)
        view = analyzer.store.get(analyzer._key("view", top, Orientation.R0))
        assert len(view.sources) > 1
        flat = Extractor(NMOS).extract(top)
        assert composed.network.transistors == flat.network.transistors
        assert composed.node_names == flat.node_names
        assert "own_gate" in composed.node_names
        assert all(calls.values()), calls
