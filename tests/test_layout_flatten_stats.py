"""Tests for flattening and layout statistics (regularity, density)."""

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell, flattened_shapes_by_layer
from repro.layout.stats import cell_statistics, hierarchy_depth, regularity_index
from repro.lang.composition import array_cell


def make_unit():
    cell = Cell("unit")
    cell.add_box("metal", 0, 0, 4, 4)
    cell.add_box("poly", 1, 1, 3, 3)
    return cell


class TestFlatten:
    def test_flatten_leaf(self):
        flat = flatten_cell(make_unit())
        assert len(flat.shapes) == 2
        assert flat.unexpanded_instances == 0

    def test_flatten_hierarchy_translates_geometry(self):
        unit = make_unit()
        parent = Cell("p")
        parent.place(unit, 10, 20)
        flat = flatten_cell(parent)
        metal = [s for s in flat.shapes if s.layer == "metal"][0]
        assert metal.bbox == Rect(10, 20, 14, 24)

    def test_flatten_depth_limit(self):
        unit = make_unit()
        mid = Cell("mid")
        mid.place(unit, 0, 0)
        top = Cell("top")
        top.place(mid, 0, 0)
        flat = flatten_cell(top, max_depth=1)
        # Only mid's own geometry (none) is expanded; unit remains unexpanded.
        assert len(flat.shapes) == 0
        assert flat.unexpanded_instances == 1

    def test_rects_by_layer(self):
        unit = make_unit()
        parent = Cell("p")
        parent.place(unit, 0, 0)
        parent.place(unit, 10, 0)
        rects = flattened_shapes_by_layer(parent)
        assert len(rects["metal"]) == 2
        assert len(rects["poly"]) == 2

    def test_labels_flattened(self):
        unit = make_unit()
        unit.add_label("x", Point(2, 2), "metal")
        parent = Cell("p")
        parent.place(unit, 100, 0)
        flat = flatten_cell(parent)
        assert flat.labels[0].position == Point(102, 2)

    def test_flat_layers_and_bbox(self):
        flat = flatten_cell(make_unit())
        assert set(flat.layers()) == {"metal", "poly"}
        assert flat.bbox() == Rect(0, 0, 4, 4)


class TestStatistics:
    def test_leaf_statistics(self):
        stats = cell_statistics(make_unit())
        assert stats.flattened_shape_count == 2
        assert stats.distinct_shape_count == 2
        assert stats.regularity == 1.0
        assert stats.hierarchy_depth == 1
        assert stats.mask_area_by_layer["metal"] == 16

    def test_array_regularity_scales_with_copies(self):
        unit = make_unit()
        arr = array_cell("arr", unit, columns=4, rows=4)
        stats = cell_statistics(arr)
        assert stats.flattened_shape_count == 32
        assert stats.regularity == 16.0
        assert regularity_index(arr) == 16.0

    def test_hierarchy_depth(self):
        unit = make_unit()
        mid = Cell("mid")
        mid.place(unit, 0, 0)
        top = Cell("top")
        top.place(mid, 0, 0)
        assert hierarchy_depth(top) == 3

    def test_density_between_zero_and_one(self):
        stats = cell_statistics(make_unit())
        assert 0.0 < stats.density() <= 1.0

    def test_mask_area_overlapping_layers_counted_per_layer(self):
        cell = Cell("c")
        cell.add_box("metal", 0, 0, 4, 4)
        cell.add_box("metal", 2, 0, 6, 4)   # overlaps the first
        stats = cell_statistics(cell)
        assert stats.mask_area_by_layer["metal"] == 24

    def test_empty_cell(self):
        stats = cell_statistics(Cell("empty"))
        assert stats.bbox_area == 0
        assert stats.density() == 0.0
        assert stats.regularity == 1.0


class TestTransitiveInvalidation:
    """A mutation anywhere below a cell must invalidate every ancestor.

    Regression for the memoized flat views and the hierarchical analysis
    caches (repro.analysis.hier): both key on a single per-cell version
    counter, so a grandchild edit that fails to propagate would silently
    serve stale geometry and stale DRC results.
    """

    def make_three_levels(self):
        grandchild = Cell("ti_grandchild")
        grandchild.add_box("metal", 0, 0, 4, 4)
        child = Cell("ti_child")
        child.place(grandchild, 0, 0)
        child.place(grandchild, 10, 0)
        top = Cell("ti_top")
        top.place(child, 0, 0)
        top.place(child, 0, 20)
        return grandchild, child, top

    def test_grandchild_mutation_bumps_every_ancestor(self):
        grandchild, child, top = self.make_three_levels()
        versions = (grandchild.subtree_version, child.subtree_version,
                    top.subtree_version)
        grandchild.add_box("poly", 1, 1, 3, 3)
        assert grandchild.subtree_version > versions[0]
        assert child.subtree_version > versions[1]
        assert top.subtree_version > versions[2]

    def test_diamond_hierarchy_bumps_each_ancestor_once(self):
        leaf = Cell("ti_leaf")
        leaf.add_box("metal", 0, 0, 2, 2)
        left = Cell("ti_left")
        left.place(leaf, 0, 0)
        right = Cell("ti_right")
        right.place(leaf, 0, 0)
        top = Cell("ti_diamond")
        top.place(left, 0, 0)
        top.place(right, 20, 0)
        before = top.subtree_version
        leaf.add_box("poly", 0, 0, 1, 1)
        assert top.subtree_version == before + 1

    def test_grandchild_mutation_refreshes_memoized_flat_view(self):
        grandchild, _child, top = self.make_three_levels()
        before = flatten_cell(top)
        assert len(before.shapes) == 4
        grandchild.add_box("poly", 0, 0, 2, 2)
        after = flatten_cell(top)
        assert after is not before
        assert len(after.shapes) == 8

    def test_grandchild_mutation_refreshes_memoized_extent(self):
        grandchild, child, top = self.make_three_levels()
        assert top.bbox() is top.bbox() == Rect(0, 0, 14, 24)
        assert (child.width, child.height) == (14, 4)
        grandchild.add_box("poly", -3, 0, 2, 9)
        assert child.bbox() == Rect(-3, 0, 14, 9)
        assert top.bbox() == flatten_cell(top).bbox() == Rect(-3, 0, 14, 29)
        assert (top.width, top.height) == (17, 29)

    def test_grandchild_mutation_changes_drc_and_hier_cache(self):
        from repro.analysis import HierAnalyzer
        from repro.drc import DrcChecker
        from repro.technology import nmos_technology

        technology = nmos_technology()
        grandchild, _child, top = self.make_three_levels()
        checker = DrcChecker(technology)
        analyzer = HierAnalyzer(technology)
        assert checker.check(top) == analyzer.drc(top) == []
        # A 1-lambda metal sliver violates the metal width rule (W.M = 3)
        # in every placement of the grandchild.
        grandchild.add_box("metal", 6, 0, 7, 4)
        flat_violations = checker.check(top)
        hier_violations = analyzer.drc(top)   # same analyzer: caches stale?
        assert hier_violations == flat_violations
        # Width + spacing per placement: 2 child placements x 2 top each.
        assert len(hier_violations) == 8
        assert {v.rule_name for v in hier_violations} == {"W.M", "S.M.M"}
