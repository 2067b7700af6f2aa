"""Tests for rectangles: construction, predicates, decomposition, area,
and the columnar form rect lists are pickled in."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect, merged_area, pack_rects, unpack_rects
from repro.geometry.transform import Orientation, Transform


class TestRectConstruction:
    def test_basic_properties(self):
        r = Rect(1, 2, 5, 8)
        assert (r.width, r.height, r.area) == (4, 6, 24)

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 2)

    def test_from_points_any_corner_order(self):
        assert Rect.from_points(Point(5, 8), Point(1, 2)) == Rect(1, 2, 5, 8)

    def test_from_center(self):
        r = Rect.from_center(Point(10, 10), 4, 6)
        assert r == Rect(8, 7, 12, 13)
        assert r.center == Point(10, 10)

    def test_from_center_odd_size_raises(self):
        with pytest.raises(ValueError):
            Rect.from_center(Point(0, 0), 3, 2)

    def test_from_size(self):
        assert Rect.from_size(Point(2, 3), 5, 7) == Rect(2, 3, 7, 10)

    def test_corners_counterclockwise(self):
        r = Rect(0, 0, 2, 3)
        assert r.corners() == [Point(0, 0), Point(2, 0), Point(2, 3), Point(0, 3)]

    def test_degenerate(self):
        assert Rect(1, 1, 1, 5).is_degenerate
        assert not Rect(1, 1, 2, 5).is_degenerate


class TestRectPredicates:
    def test_contains_point_boundary(self):
        r = Rect(0, 0, 4, 4)
        assert r.contains_point(Point(0, 4))
        assert not r.contains_point(Point(0, 4), strict=True)

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 8, 8))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 12, 8))

    def test_overlaps_strict_vs_touching(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(4, 0, 8, 4)
        assert not a.overlaps(b)
        assert a.touches(b)

    def test_intersection(self):
        a = Rect(0, 0, 6, 6)
        b = Rect(4, 4, 10, 10)
        assert a.intersection(b) == Rect(4, 4, 6, 6)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_distance_to(self):
        assert Rect(0, 0, 2, 2).distance_to(Rect(5, 0, 7, 2)) == 3
        assert Rect(0, 0, 2, 2).distance_to(Rect(1, 1, 3, 3)) == 0
        # Diagonal separation adds both components.
        assert Rect(0, 0, 2, 2).distance_to(Rect(5, 6, 7, 8)) == 7


class TestRectDerivation:
    def test_translated(self):
        assert Rect(0, 0, 2, 2).translated(3, 4) == Rect(3, 4, 5, 6)

    def test_expanded(self):
        assert Rect(2, 2, 4, 4).expanded(1) == Rect(1, 1, 5, 5)

    def test_shrink_too_much_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 2, 2).expanded(-2)

    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(5, 5, 6, 7)) == Rect(0, 0, 6, 7)

    def test_transformed_r90(self):
        r = Rect(0, 0, 4, 2).transformed(Transform.rotate90())
        assert (r.width, r.height) == (2, 4)

    def test_transformed_preserves_area(self):
        r = Rect(1, 2, 7, 5)
        for orientation in Orientation:
            transformed = r.transformed(Transform(orientation, Point(11, -3)))
            assert transformed.area == r.area

    def test_snapped(self):
        assert Rect(1, 1, 9, 9).snapped(5) == Rect(0, 0, 10, 10)


class TestSubtractAndMergedArea:
    def test_subtract_hole_in_middle_gives_four_pieces(self):
        outer = Rect(0, 0, 10, 10)
        pieces = outer.subtract(Rect(4, 4, 6, 6))
        assert len(pieces) == 4
        assert sum(p.area for p in pieces) == outer.area - 4

    def test_subtract_disjoint_returns_original(self):
        r = Rect(0, 0, 2, 2)
        assert r.subtract(Rect(10, 10, 12, 12)) == [r]

    def test_subtract_covering_returns_empty(self):
        assert Rect(1, 1, 2, 2).subtract(Rect(0, 0, 5, 5)) == []

    def test_merged_area_disjoint(self):
        assert merged_area([Rect(0, 0, 2, 2), Rect(5, 5, 7, 7)]) == 8

    def test_merged_area_overlapping_counts_once(self):
        assert merged_area([Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)]) == 28

    def test_merged_area_nested(self):
        assert merged_area([Rect(0, 0, 10, 10), Rect(2, 2, 4, 4)]) == 100

    def test_merged_area_empty(self):
        assert merged_area([]) == 0


def rects(bound):
    """Rects with corners in ``[-bound, bound]``; degenerate ones included."""
    coordinate = st.integers(-bound, bound)
    return st.builds(lambda a, b, c, d: Rect(min(a, c), min(b, d),
                                             max(a, c), max(b, d)),
                     coordinate, coordinate, coordinate, coordinate)


class TestColumnarRects:
    @given(st.lists(rects(2 ** 31 - 1), max_size=40))
    def test_round_trip_in_c_ints(self, rect_list):
        packed = pack_rects(rect_list)
        assert packed.typecode == "i" and len(packed) == 4 * len(rect_list)
        assert unpack_rects(pickle.loads(pickle.dumps(packed))) == rect_list

    @given(st.lists(rects(2 ** 31 - 1), max_size=10), rects(2 ** 62),
           st.integers(0, 10))
    def test_a_corner_beyond_32_bits_widens_the_column(self, rect_list, wide,
                                                       position):
        if max(map(abs, (wide.x1, wide.y1, wide.x2, wide.y2))) < 2 ** 31:
            wide = Rect(wide.x1, wide.y1, wide.x2, 2 ** 31)
        rect_list.insert(position, wide)
        packed = pack_rects(rect_list)
        assert packed.typecode == "q"
        assert unpack_rects(pickle.loads(pickle.dumps(packed))) == rect_list

    def test_empty_and_fresh(self):
        assert unpack_rects(pack_rects([])) == []
        original = [Rect(0, 0, 0, 0), Rect(-3, -3, -3, 9)]
        copy = unpack_rects(pack_rects(iter(original)))
        assert copy == original and copy[0] is not original[0]

    def test_no_reduce_per_rect(self):
        rect_list = [Rect(i, -i, i + 3, i) for i in range(1000)]
        columnar = pickle.dumps(pack_rects(rect_list), pickle.HIGHEST_PROTOCOL)
        assert b"Rect" not in columnar
        assert len(columnar) < len(pickle.dumps(rect_list,
                                                pickle.HIGHEST_PROTOCOL))
