"""``Cell.bbox`` memo, the memoized flat view and the single-layer walker
against uncached oracles.

All ride on the mutation counter: ``Cell.bbox()`` keeps its result until
``_mutated()`` clears it (here: at any depth, through every mutating method,
across a pickle round-trip), and ``flat_layer_rects`` must list exactly what
the memoized flat view lists for one layer, in the same order — the maze
router's obstacle ids, and with them every routed point, depend on it.  The
memoized view itself (translated, transformed or shared per placement) must
equal ``repro.reference.flatten_walk``, which composes every transform from
the top.
"""

import os
import pickle
import sys
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drc import DrcChecker
from repro.extract import Extractor
from repro.geometry.index import BruteForceIndex, build_index
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect, merged_area
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.layout.flatten import flat_layer_rects, flatten_cell
from repro.layout.stats import cell_statistics
from repro.metrics import measure_cell
from repro.obs import metrics
from repro.reference import BruteDrcChecker, BruteExtractor, flatten_walk
from repro.technology import NMOS
from repro.technology.rules import RuleKind

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402
from tile_array import TileArray  # noqa: E402

LAYERS = ("metal", "poly", "diffusion")

coords = st.integers(-12, 12)
sizes = st.integers(1, 9)
orientations = st.sampled_from(list(Orientation))


def recomputed_extent(cell):
    """``Cell.bbox`` as it was before the memo: the whole subtree, every time."""
    xs, ys = [], []
    for shape in cell.shapes:
        xs += [shape.bbox.x1, shape.bbox.x2]
        ys += [shape.bbox.y1, shape.bbox.y2]
    for label in cell.labels:
        xs.append(label.position.x)
        ys.append(label.position.y)
    for instance in cell.instances:
        child = recomputed_extent(instance.cell)
        if child is not None:
            placed = child.transformed(instance.transform)
            xs += [placed.x1, placed.x2]
            ys += [placed.y1, placed.y2]
    return Rect(min(xs), min(ys), max(xs), max(ys)) if xs else None


def assert_extents_fresh(cells):
    for cell in cells:
        expected = recomputed_extent(cell)
        assert cell.bbox() == expected, cell.name
        assert cell.width == (0 if expected is None else expected.width)
        assert cell.height == (0 if expected is None else expected.height)
        for instance in cell.instances:
            child = recomputed_extent(instance.cell)
            assert instance.bbox == (
                None if child is None
                else child.transformed(instance.transform))


def assert_walker_matches_flat_view(cell):
    by_layer = flatten_cell(cell).rects_by_layer()
    for layer in LAYERS + ("no_such_layer",):
        assert flat_layer_rects(cell, layer) == by_layer.get(layer, [])


@st.composite
def edits(draw):
    """One mutation, as ``(method name, drawn arguments)``."""
    kind = draw(st.sampled_from((
        "add_box", "add_rect", "add_shape", "add_polygon", "add_wire",
        "add_label", "add_port", "place", "add_instance", "remove_shape",
        "pickle")))
    layer, x, y = draw(st.sampled_from(LAYERS)), draw(coords), draw(coords)
    w, h = draw(sizes), draw(sizes)
    return (kind, layer, x, y, w, h, draw(orientations),
            draw(st.integers(0, 99)))


def apply_edit(cells, which, edit, serial):
    """Apply ``edit`` to ``cells[which]``; returns the (possibly reloaded)
    cell list, bottom-up, top last."""
    kind, layer, x, y, w, h, orientation, pick = edit
    cell = cells[which % len(cells)]
    if kind == "add_box":
        cell.add_box(layer, x, y, x + w, y + h)
    elif kind in ("add_rect", "add_shape"):
        shape = cell.add_rect(layer, Rect(x, y, x + w, y + h))
        if kind == "add_shape":
            cell.add_shape(shape.translated(w, h))
    elif kind == "add_polygon":
        # An L: decomposes into two rectangles, differently per orientation.
        cell.add_polygon(layer, Polygon([
            Point(x, y), Point(x + w + 2, y), Point(x + w + 2, y + 1),
            Point(x + 1, y + 1), Point(x + 1, y + h + 2),
            Point(x, y + h + 2)]))
    elif kind == "add_wire":
        # Width 3 is asymmetric about the centre line (1 below, 2 above).
        cell.add_wire(layer, [Point(x, y), Point(x + w, y),
                              Point(x + w, y + h)], 3)
    elif kind == "add_label":
        cell.add_label("net", Point(x - 20, y + 20), layer)
    elif kind == "add_port":
        cell.add_port(f"p{serial}", Point(x + 20, y - 20), layer)
    elif kind in ("place", "add_instance"):
        # Only cells earlier in the bottom-up list: no cycles.
        below = cells[:cells.index(cell)]
        if below:
            child = below[pick % len(below)]
            if kind == "place":
                cell.place(child, x, y, orientation)
            else:
                cell.add_instance(child)
    elif kind == "remove_shape":
        if cell.shapes:
            cell.remove_shape(cell.shapes[pick % len(cell.shapes)])
    else:
        top = pickle.loads(pickle.dumps(cells[-1]))
        by_name = {c.name: c for c in top.descendants() + [top]}
        # Cells the top does not reach did not travel; keep the originals
        # (they share no parent with the loaded copies).
        return [by_name.get(c.name, c) for c in cells]
    return cells


@st.composite
def hierarchies(draw):
    """3-5 cells, bottom-up, each placing earlier ones (so shared children
    and diamonds are common) under random orientations; top last."""
    cells = []
    for index in range(draw(st.integers(3, 5))):
        cell = Cell(f"memo_{index}")
        for _ in range(draw(st.integers(0 if cells else 1, 3))):
            layer, x, y = (draw(st.sampled_from(LAYERS)), draw(coords),
                           draw(coords))
            cell.add_box(layer, x, y, x + draw(sizes), y + draw(sizes))
        for _ in range(draw(st.integers(0, 3)) if cells else 0):
            cell.place(cells[draw(st.integers(0, len(cells) - 1))],
                       draw(coords), draw(coords), draw(orientations))
        cells.append(cell)
    top = cells[-1]
    for child in cells[:-1]:        # everything reachable, so pickles carry it
        if not top.references(child):
            top.place(child, draw(coords), draw(coords), draw(orientations))
    return cells


def assert_flat_view_matches_walk(top):
    """The memoized view equals the composed-transform walk, in order."""
    flat = flatten_cell(top)
    walked = flatten_walk(top)
    assert flat.shapes == walked.shapes
    assert flat.labels == walked.labels
    assert flat.bbox() == (reduce(Rect.union, [s.bbox for s in walked.shapes])
                           if walked.shapes else None)
    by_layer = flat.rects_by_layer()
    for layer in LAYERS:
        assert flat_layer_rects(top, layer) == by_layer.get(layer, [])


@st.composite
def every_placement(draw):
    """``hierarchies()`` whose cells also carry wires, L polygons and labels,
    and whose top places the bottom cell once under each of the eight
    orientations, by a pure translation along each axis and as the
    identity."""
    cells = draw(hierarchies())
    for which in range(len(cells)):
        for serial in range(draw(st.integers(1, 3))):
            edit = (draw(st.sampled_from(("add_wire", "add_polygon",
                                          "add_label", "add_rect"))),
                    draw(st.sampled_from(LAYERS)), draw(coords), draw(coords),
                    draw(sizes), draw(sizes), Orientation.R0, 0)
            apply_edit(cells, which, edit, serial)
    top, bottom = cells[-1], cells[0]
    for orientation in Orientation:
        top.place(bottom, draw(coords), draw(coords), orientation)
    top.place(bottom, draw(sizes), 0)
    top.place(bottom, 0, -draw(sizes))
    top.add_instance(bottom)
    return cells


class TestFlatViewEqualsTheWalk:
    @settings(max_examples=30, deadline=None)
    @given(cells=every_placement())
    def test_memoized_view_equals_composed_transforms(self, cells):
        assert_flat_view_matches_walk(cells[-1])
        # A middle cell's view, built for the top, is the same when asked
        # for directly.
        assert_flat_view_matches_walk(cells[len(cells) // 2])


class TestExtentMemo:
    @settings(max_examples=120, deadline=None)
    @given(cells=hierarchies(),
           script=st.lists(st.tuples(st.integers(0, 9), edits()),
                           min_size=1, max_size=8))
    def test_bbox_equals_recomputation_after_every_edit(self, cells, script):
        assert_extents_fresh(cells)           # fills every memo
        for serial, (which, edit) in enumerate(script):
            cells = apply_edit(cells, which, edit, serial)
            assert_extents_fresh(cells)
            assert_walker_matches_flat_view(cells[-1])

    def test_the_memo_is_kept_until_a_mutation_and_not_pickled(self):
        leaf = Cell("memo_leaf")
        leaf.add_box("metal", 0, 0, 4, 4)
        top = Cell("memo_top")
        top.place(leaf, 10, 0)
        assert top.bbox() is top.bbox()                  # one Rect, kept
        assert top._bbox_cache == (Rect(10, 0, 14, 4),)
        assert pickle.loads(pickle.dumps(top))._bbox_cache is None
        shape = leaf.add_box("poly", -5, 0, 0, 1)
        assert top._bbox_cache is None and leaf._bbox_cache is None
        assert top.bbox() == Rect(5, 0, 14, 4)
        leaf.remove_shape(shape)
        assert top.bbox() == Rect(10, 0, 14, 4)
        with pytest.raises(ValueError):
            leaf.remove_shape(shape)
        empty = Cell("memo_empty")
        assert empty.bbox() is None and empty._bbox_cache == (None,)
        assert (empty.width, empty.height) == (0, 0)


class TestSingleLayerWalker:
    """Order-exact equality on the four example chips is in
    ``test_pnr.py::TestSignOffGoldens``; on random hierarchies, above."""

    def test_builds_no_flat_view(self):
        _assembler, chip = build_chip("memo_family_cold", 4, 0)
        cells = chip.descendants() + [chip]
        for cell in cells:
            cell._flat_cache = None
        assert len(flat_layer_rects(chip, "metal")) > 100
        assert all(cell._flat_cache is None for cell in cells)


class TestLayerMergeMemo:
    """The flat DRC, the flat extractor and ``measure_cell`` share one
    touching-merge per flat view and layer; the all-pairs oracles, keyed by
    their own index factory, build and read their own."""

    def test_each_layer_is_merged_once_and_the_oracles_merge_their_own(self):
        top = TileArray(NMOS, "memo_merges", rom_grid=(1, 1),
                        pla_grid=(1, 1)).top
        builds = metrics.counter("layout.flat.merges")
        flat = flatten_cell(top)
        layers = flat.layers()
        # Width and spacing rules merge their layers, drawn or not.
        ruled = {layer for rule in NMOS.rules
                 if rule.kind in (RuleKind.MIN_WIDTH, RuleKind.MIN_SPACING)
                 for layer in rule.layers}
        start = builds.value
        violations = DrcChecker(NMOS).check(top)
        assert builds.value - start == len(ruled)
        circuit = Extractor(NMOS).extract(top)
        # Poly and metal carry width rules: DRC merged them already.
        assert {"poly", "metal"} <= ruled
        assert builds.value - start == len(ruled)
        # Every drawn layer is ruled: the mask areas are DRC's merges' too.
        assert set(layers) <= ruled
        measured = measure_cell(top, NMOS)
        merges = {layer: flat.layer_merge(layer, build_index)
                  for layer in layers}
        built = builds.value - start
        assert built == len(ruled)
        assert cell_statistics(top).mask_area_by_layer == {
            layer: merged_area(rects)
            for layer, rects in flat.rects_by_layer().items()}

        # Again: every pass reads the memo.
        assert DrcChecker(NMOS).check(top) == violations
        assert Extractor(NMOS).extract(top).summary() == circuit.summary()
        assert measure_cell(top, NMOS) == measured
        assert builds.value - start == built

        assert BruteDrcChecker(NMOS).check(top) == violations
        by_brute_drc = builds.value - start - built
        assert by_brute_drc == len(ruled)
        assert BruteExtractor(NMOS).extract(top).summary() == \
            circuit.summary()
        assert builds.value - start == built + by_brute_drc
        for layer in ("poly", "metal"):
            brute = flat.layer_merge(layer, BruteForceIndex)
            assert brute is not merges[layer]
            assert brute.components == merges[layer].components
            assert brute.area == merges[layer].area

    def test_flat_bbox_is_computed_once(self):
        _assembler, chip = build_chip("memo_family_bbox", 4, 0)
        flat = flatten_cell(chip)
        box = flat.bbox()
        assert flat.bbox() is box
        assert box == Rect(min(s.bbox.x1 for s in flat.shapes),
                           min(s.bbox.y1 for s in flat.shapes),
                           max(s.bbox.x2 for s in flat.shapes),
                           max(s.bbox.y2 for s in flat.shapes))
