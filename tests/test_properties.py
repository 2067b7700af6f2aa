"""Property-based tests (hypothesis) on core data structures and invariants."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.cif import parse_cif, write_cif
from repro.geometry.index import BruteForceIndex, build_index
from repro.geometry.merge import MergedLayer
from repro.geometry.path import Path
from repro.geometry.point import Point, manhattan_distance
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect, merged_area
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.library import Library
from repro.layout.shapes import Shape
from repro.logic.cube import Cover, Cube
from repro.logic.minimize import minimize_exact, minimize_heuristic
from repro.logic.truth_table import TruthTable
from repro.reference.geometry import column_merged_area
from repro.technology import NMOS

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)
orientations = st.sampled_from(list(Orientation))
transforms = st.builds(Transform, orientations, points)


def rects(max_size=200):
    return st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        coords, coords,
        st.integers(min_value=1, max_value=max_size),
        st.integers(min_value=1, max_value=max_size),
    )


class TestGeometryProperties:
    @given(points, points)
    def test_manhattan_distance_symmetric_and_nonnegative(self, a, b):
        assert manhattan_distance(a, b) == manhattan_distance(b, a) >= 0

    @given(points, points, points)
    def test_manhattan_triangle_inequality(self, a, b, c):
        assert manhattan_distance(a, c) <= manhattan_distance(a, b) + manhattan_distance(b, c)

    @given(transforms, points)
    def test_transform_inverse_roundtrip(self, transform, point):
        assert transform.inverse().apply(transform.apply(point)) == point

    @given(transforms, transforms, points)
    def test_transform_composition_associativity_of_application(self, t1, t2, point):
        assert t1.then(t2).apply(point) == t2.apply(t1.apply(point))

    @given(rects(), transforms)
    def test_orthogonal_transform_preserves_rect_area(self, rect, transform):
        assert rect.transformed(transform).area == rect.area

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            assert a.contains_rect(overlap) and b.contains_rect(overlap)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_rect(a) and union.contains_rect(b)

    @given(rects(), rects())
    def test_subtract_area_conservation(self, a, b):
        pieces = a.subtract(b)
        overlap = a.intersection(b)
        overlap_area = 0 if overlap is None else overlap.area
        assert sum(p.area for p in pieces) == a.area - overlap_area

    @given(st.lists(rects(max_size=60), max_size=8))
    def test_merged_area_bounds(self, rect_list):
        area = merged_area(rect_list)
        assert area <= sum(r.area for r in rect_list)
        if rect_list:
            assert area >= max(r.area for r in rect_list)

    @settings(max_examples=300)
    @given(st.lists(st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        st.integers(-20, 20), st.integers(-20, 20),
        st.integers(0, 12), st.integers(0, 12)), max_size=30))
    def test_merged_area_sweep_equals_column_scan(self, rect_list):
        # Dense small coordinates: overlaps, abutments, shared edges and
        # degenerate rects are all common.
        assert merged_area(rect_list) == column_merged_area(rect_list)

    @settings(max_examples=200)
    @given(st.lists(st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        st.integers(-20, 20), st.integers(-20, 20),
        st.integers(0, 12), st.integers(0, 12)), max_size=30),
        st.sampled_from((build_index, BruteForceIndex)))
    def test_layer_merge_area_equals_merged_area(self, rect_list, index):
        # Touching components share no area, so the components' areas add
        # up to the layer's; zero-area rects are left out of the merge.
        merge = MergedLayer(rect_list, index)
        assert merge.area == merged_area(rect_list)
        assert merge.inputs == [r for r in rect_list if not r.is_degenerate]
        assert sorted(i for c in merge.components for i in c) == \
            list(range(len(merge.inputs)))

    @settings(max_examples=200)
    @given(st.tuples(*[st.integers(-3, 3)] * 4),
           st.tuples(*[st.integers(-3, 3)] * 4))
    def test_rect_order_is_corner_tuple_order(self, a, b):
        # Small corner ranges, so ties on leading fields are common.
        rect_a = Rect(min(a[0], a[2]), min(a[1], a[3]),
                      max(a[0], a[2]), max(a[1], a[3]))
        rect_b = Rect(min(b[0], b[2]), min(b[1], b[3]),
                      max(b[0], b[2]), max(b[1], b[3]))
        key_a = (rect_a.x1, rect_a.y1, rect_a.x2, rect_a.y2)
        key_b = (rect_b.x1, rect_b.y1, rect_b.x2, rect_b.y2)
        assert (rect_a < rect_b) == (key_a < key_b)
        assert (rect_a <= rect_b) == (key_a <= key_b)
        assert (rect_a > rect_b) == (key_a > key_b)
        assert (rect_a >= rect_b) == (key_a >= key_b)
        for compare in (Rect.__lt__, Rect.__le__, Rect.__gt__, Rect.__ge__):
            assert compare(rect_a, key_b) is NotImplemented
        with pytest.raises(TypeError):
            rect_a < key_b


def _same_value(moved, built):
    """``moved`` is indistinguishable from the constructor's ``built``."""
    assert type(moved) is type(built)
    assert moved == built and hash(moved) == hash(built)
    assert repr(moved) == repr(built)
    assert pickle.dumps(moved) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(moved)) == built


class TestTranslatedWithoutTheConstructor:
    """``Rect.translated`` and ``Shape.translated`` fill the slots of a new
    object directly; the result must be the constructor's, frozen alike."""

    @settings(max_examples=60)
    @given(rects(), coords, coords)
    def test_rect(self, rect, dx, dy):
        moved = rect.translated(dx, dy)
        _same_value(moved, Rect(rect.x1 + dx, rect.y1 + dy,
                                rect.x2 + dx, rect.y2 + dy))
        with pytest.raises(FrozenInstanceError):
            moved.x1 = 0

    @settings(max_examples=60)
    @given(rects(), st.sampled_from(("rect", "polygon", "wire")), coords,
           coords)
    def test_shape(self, rect, kind, dx, dy):
        geometry = {"rect": rect, "polygon": Polygon.from_rect(rect),
                    "wire": Path([rect.lower_left, rect.lower_right,
                                  rect.upper_right], 3)}[kind]
        shape = Shape("metal", geometry)
        moved = shape.translated(dx, dy)
        _same_value(moved, Shape("metal", geometry.translated(dx, dy)))
        assert moved.as_rects() == \
            [r.translated(dx, dy) for r in shape.as_rects()]
        with pytest.raises(FrozenInstanceError):
            moved.layer = "poly"


class TestLogicProperties:
    @st.composite
    def truth_tables(draw, max_inputs=4):
        num_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
        num_outputs = draw(st.integers(min_value=1, max_value=2))
        input_names = [f"i{k}" for k in range(num_inputs)]
        output_names = [f"o{k}" for k in range(num_outputs)]
        table = TruthTable(input_names, output_names)
        for row in range(2 ** num_inputs):
            for name in output_names:
                table.set_output(row, name, draw(st.integers(min_value=0, max_value=1)))
        return table

    @given(truth_tables())
    @settings(max_examples=30, deadline=None)
    def test_exact_minimisation_preserves_function(self, table):
        canonical = table.to_cover()
        reduced = minimize_exact(table)
        assert reduced.is_equivalent_to(canonical)
        assert reduced.num_terms <= max(1, canonical.num_terms)

    @given(truth_tables())
    @settings(max_examples=30, deadline=None)
    def test_heuristic_minimisation_preserves_function(self, table):
        canonical = table.to_cover()
        reduced = minimize_heuristic(table)
        assert reduced.is_equivalent_to(canonical)

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cube_minterm_membership_consistency(self, width, data):
        characters = data.draw(st.lists(st.sampled_from("01-"), min_size=width, max_size=width))
        inputs = "".join(characters)
        cube = Cube(inputs, "1")
        members = set(cube.minterms())
        for minterm in range(2 ** width):
            assert cube.covers_minterm(minterm) == (minterm in members)


class TestCifProperties:
    layer_names = st.sampled_from(["diffusion", "poly", "metal", "contact", "implant"])

    @given(st.lists(st.tuples(layer_names, rects(max_size=100)), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_cif_roundtrip_preserves_flat_geometry(self, shapes):
        library = Library("prop", NMOS)
        cell = library.new_cell("cell_under_test")
        for layer, rect in shapes:
            cell.add_rect(layer, rect)
        parsed = parse_cif(write_cif(library))
        original = {layer: sorted(r) for layer, r in
                    flatten_cell(cell).rects_by_layer().items()}
        recovered = {layer: sorted(r) for layer, r in
                     flatten_cell(parsed.cell("cell_under_test")).rects_by_layer().items()}
        assert original == recovered

    @given(st.lists(st.tuples(st.sampled_from(list(Orientation)), points), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_cif_roundtrip_preserves_instance_transforms(self, placements):
        library = Library("prop", NMOS)
        leaf = library.new_cell("leaf")
        leaf.add_rect("metal", Rect(0, 0, 7, 3))
        leaf.add_rect("poly", Rect(2, 1, 4, 2))
        top = library.new_cell("top")
        for orientation, offset in placements:
            top.add_instance(leaf, Transform(orientation, offset))
        parsed = parse_cif(write_cif(library))
        original = {layer: sorted(r) for layer, r in
                    flatten_cell(top).rects_by_layer().items()}
        recovered = {layer: sorted(r) for layer, r in
                     flatten_cell(parsed.cell("top")).rects_by_layer().items()}
        assert original == recovered
