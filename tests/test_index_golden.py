"""Golden equivalence: indexed analysis passes == all-pairs reference.

DRC and extraction were rewritten on top of the spatial index; these tests
assemble a real (small) chip and verify that the indexed paths produce the
*identical* violation list and extracted netlist as the all-pairs oracles
in :mod:`repro.reference`, and that the memoized flatten cache is invalidated correctly
by cell mutation.
"""

import pytest

from repro.assembly import ChipAssembler
from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.generators import DatapathColumn, DatapathGenerator, PlaGenerator
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.logic import TruthTable, parse_expr
from repro.reference import BruteDrcChecker, BruteExtractor
from repro.technology import nmos_technology


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


@pytest.fixture(scope="module")
def chip(technology):
    """A small but complete assembled chip (pads, datapath, control PLA)."""
    table = TruthTable.from_expressions(
        {"sum": parse_expr("a ^ b ^ cin"),
         "carry": parse_expr("a & b | a & cin | b & cin")},
        input_names=["a", "b", "cin"])
    assembler = ChipAssembler("golden_chip", technology)
    assembler.add_block("adder", PlaGenerator(technology, table, name="golden_pla").cell())
    assembler.add_block("datapath", DatapathGenerator(
        technology,
        [DatapathColumn("register", "acc"), DatapathColumn("adder", "alu")],
        bits=4).cell())
    assembler.add_supply_pads()
    for name in ("a", "b", "cin"):
        assembler.add_pad(name, "input", connect_to=("adder", name))
    assembler.add_pad("sum", "output", connect_to=("adder", "sum"))
    return assembler.assemble()


def netlist_signature(circuit):
    return (
        sorted(circuit.node_names),
        circuit.summary(),
        sorted((t.name, t.gate, t.source, t.drain, t.kind.value)
               for t in circuit.network.transistors),
        sorted(circuit.network.inputs),
        sorted(circuit.network.outputs),
    )


class TestGoldenEquivalence:
    def test_drc_violations_identical(self, chip, technology):
        indexed = DrcChecker(technology).check(chip)
        brute = BruteDrcChecker(technology).check(chip)
        assert [str(v) for v in indexed] == [str(v) for v in brute]

    def test_extracted_netlist_identical(self, chip, technology):
        indexed = Extractor(technology).extract(chip)
        brute = BruteExtractor(technology).extract(chip)
        assert netlist_signature(indexed) == netlist_signature(brute)


class TestFlattenCache:
    def make_hierarchy(self):
        leaf = Cell("leaf")
        leaf.add_box("metal", 0, 0, 10, 4)
        mid = Cell("mid")
        mid.place(leaf, 0, 0)
        mid.place(leaf, 0, 10)
        top = Cell("top")
        top.place(mid, 0, 0)
        top.place(mid, 100, 0)
        return leaf, mid, top

    def test_repeated_flatten_is_cached(self):
        _, _, top = self.make_hierarchy()
        first = flatten_cell(top)
        second = flatten_cell(top)
        assert first is second
        assert len(first.shapes) == 4

    def test_mutating_leaf_invalidates_ancestors(self):
        leaf, _, top = self.make_hierarchy()
        before = flatten_cell(top)
        leaf.add_box("poly", 0, 0, 2, 2)
        after = flatten_cell(top)
        assert after is not before
        assert len(after.shapes) == 8
        assert len(after.rects_by_layer()["poly"]) == 4

    def test_mutating_top_only_rebuilds_top_view(self):
        leaf, mid, top = self.make_hierarchy()
        flatten_cell(top)
        mid_view = flatten_cell(mid)
        top.add_box("diffusion", 0, 0, 3, 3)
        assert flatten_cell(mid) is mid_view          # subtree untouched
        assert len(flatten_cell(top).shapes) == 5

    def test_layer_buckets_match_shape_list(self):
        _, _, top = self.make_hierarchy()
        flat = flatten_cell(top)
        assert [s for s in flat.shapes if s.layer == "metal"] == \
            flat.shapes_on_layer("metal")
        assert flat.layers() == ["metal"]
        rects = flat.rects_by_layer()
        assert sorted(rects.keys()) == ["metal"]
        assert len(rects["metal"]) == 4

    def test_depth_limited_flatten_bypasses_cache(self):
        _, _, top = self.make_hierarchy()
        flatten_cell(top)
        shallow = flatten_cell(top, max_depth=1)
        assert shallow.unexpanded_instances == 4      # 2 mids x 2 leaf instances
        assert len(shallow.shapes) == 0

    def test_labels_follow_cache_invalidation(self):
        leaf, _, top = self.make_hierarchy()
        assert len(flatten_cell(top).labels) == 0
        leaf.add_label("net", Point(1, 1), "metal")
        assert len(flatten_cell(top).labels) == 4
