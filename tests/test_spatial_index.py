"""The spatial index must agree exactly with the all-pairs reference.

The grid index is pure optimisation: for any rectangle soup, ``query``,
``neighbors`` and ``connected_components`` must return byte-identical
results to :class:`BruteForceIndex`.  Randomised soups (hypothesis) probe
the general case; railed soups probe the banded sweep (rails stay active
across the whole sweep, verticals cover every band); far-apart clusters
probe the bin layout; the unit tests pin the touch/overlap edge semantics
the DRC and extractor depend on.
"""

from hypothesis import example, given, settings, strategies as st

from repro.geometry.index import BruteForceIndex, GridIndex, build_index
from repro.geometry.rect import Rect

coords = st.integers(min_value=-300, max_value=300)


def rect_soups(max_rects=40, max_size=60):
    rect = st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        coords, coords,
        st.integers(min_value=0, max_value=max_size),
        st.integers(min_value=0, max_value=max_size),
    )
    return st.lists(rect, max_size=max_rects)


probes = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    coords, coords,
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=0, max_value=120),
)


#: Five 10 x 10 rects in a row: mean side 10, so a 40-unit pitch.
ROW = [Rect(20 * i, 0, 20 * i + 10, 10) for i in range(5)]


class TestIndexAgreesWithBruteForce:
    @given(rect_soups(), probes, st.integers(min_value=0, max_value=20))
    @settings(max_examples=80, deadline=None)
    # One bin (x 0..39 at pitch 40): one bucket, nothing to deduplicate.
    @example(soup=ROW, probe=Rect(8, 2, 21, 8), margin=1)
    # Three bins: buckets gathered, hits deduplicated and sorted.
    @example(soup=ROW, probe=Rect(8, 2, 81, 8), margin=1)
    def test_query_matches(self, soup, probe, margin):
        grid = GridIndex(soup)
        brute = BruteForceIndex(soup)
        assert grid.query(probe, margin) == brute.query(probe, margin)
        assert grid.query(probe, margin, strict=True) == \
            brute.query(probe, margin, strict=True)

    @given(rect_soups(), probes, st.integers(min_value=0, max_value=25))
    @settings(max_examples=80, deadline=None)
    def test_neighbors_matches(self, soup, probe, margin):
        grid = GridIndex(soup)
        brute = BruteForceIndex(soup)
        assert grid.neighbors(probe, margin) == brute.neighbors(probe, margin)

    @given(rect_soups())
    @settings(max_examples=80, deadline=None)
    def test_connected_components_match(self, soup):
        grid = GridIndex(soup)
        brute = BruteForceIndex(soup)
        assert grid.connected_components() == brute.connected_components()

    @given(rect_soups(max_rects=15), st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_huge_margins_terminate_and_match(self, soup, margin):
        # Regression: margins far beyond the geometry extent must clamp to
        # the occupied bins, not walk a billion empty grid cells.
        probe = Rect(0, 0, 4, 4)
        grid = GridIndex(soup)
        brute = BruteForceIndex(soup)
        assert grid.neighbors(probe, margin) == brute.neighbors(probe, margin)
        assert grid.query(probe, margin) == brute.query(probe, margin)

    @given(rect_soups(max_rects=25), st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_cell_size_does_not_change_results(self, soup, cell_size):
        brute = BruteForceIndex(soup)
        grid = GridIndex(soup, cell_size=cell_size)
        assert grid.connected_components() == brute.connected_components()
        if soup:
            assert grid.query(soup[0]) == brute.query(soup[0])


@st.composite
def railed_soups(draw):
    """``(soup, cell_size)``: short rects, some with edges on multiples of
    the cell size (the sweep's band), among full-width rails and full-height
    verticals; coordinates run negative and zero-area rects are allowed."""
    cell_size = draw(st.integers(min_value=1, max_value=16))
    coord = st.one_of(st.integers(min_value=-120, max_value=120),
                      st.integers(min_value=-8, max_value=8).map(
                          lambda k: k * cell_size))
    side = st.integers(min_value=0, max_value=12)
    soup = draw(st.lists(st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                                   coord, coord, side, side), max_size=30))
    low, high = -140, 140
    soup += [Rect(low, y, high, y + h) for y, h in
             draw(st.lists(st.tuples(coord, side), max_size=3))]
    soup += [Rect(x, low, x + w, high) for x, w in
             draw(st.lists(st.tuples(coord, side), max_size=3))]
    return draw(st.permutations(soup)), cell_size


class TestRailedSoups:
    @given(railed_soups())
    @settings(max_examples=50, deadline=None)
    def test_components_match_at_default_and_explicit_cell_size(self, drawn):
        soup, cell_size = drawn
        expected = BruteForceIndex(soup).connected_components()
        assert GridIndex(soup).connected_components() == expected
        assert GridIndex(soup, cell_size).connected_components() == expected

    def test_touch_on_a_band_edge_connects(self):
        # Cell 10, band one cell: the short rects end and start exactly on
        # y = 10, x = 10, and the rail spans the whole soup on band 0 only.
        soup = [Rect(-50, 0, 50, 2), Rect(3, 2, 5, 10), Rect(4, 10, 10, 20),
                Rect(10, 20, 12, 30), Rect(40, 30, 41, 30), Rect(41, 30, 41, 40)]
        expected = [[0, 1, 2, 3], [4, 5]]
        assert BruteForceIndex(soup).connected_components() == expected
        assert GridIndex(soup, 10).connected_components() == expected

    def test_default_pitch_is_four_mean_sides_and_the_band_one_cell(self):
        # Sides 2 and 8: mean 5, pitch and band 20.  The touches sit on
        # y = 20 and y = 40, a band edge each, and x = 20, a bin edge.
        soup = [Rect(0, 18, 8, 20), Rect(6, 20, 8, 28), Rect(12, 38, 20, 40),
                Rect(18, 40, 20, 48), Rect(20, 42, 28, 44)]
        grid = GridIndex(soup)
        assert grid.cell_size == 20
        expected = [[0, 1], [2, 3, 4]]
        assert BruteForceIndex(soup).connected_components() == expected
        assert grid.connected_components() == expected
        assert grid.query(Rect(20, 40, 20, 42)) == [2, 3, 4]


class TestSparseLayouts:
    """Two clusters a million lambda and more apart: bin memory must follow
    the rectangles, not the extent between them."""

    @given(rect_soups(max_rects=15), st.sampled_from((10 ** 6, 3 * 10 ** 6)),
           probes, st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_far_clusters_match_and_bins_stay_linear(self, soup, gap, probe,
                                                     margin):
        far = soup + [r.translated(gap, -gap) for r in soup]
        grid, brute = GridIndex(far), BruteForceIndex(far)
        spanning = Rect(0, -gap, gap, 0)
        for window in (probe, probe.translated(gap, -gap), spanning):
            assert grid.query(window, margin) == brute.query(window, margin)
            assert grid.query(window, margin, strict=True) == \
                brute.query(window, margin, strict=True)
            assert grid.neighbors(window, margin) == \
                brute.neighbors(window, margin)
        assert grid.connected_components() == brute.connected_components()
        # Each rect is in at most the bins its box covers: the gap between
        # the clusters costs no bin at all.
        size = grid.cell_size
        covered = sum((r.x2 // size - r.x1 // size + 1)
                      * (r.y2 // size - r.y1 // size + 1) for r in far)
        assert len(grid._bins) <= covered


class TestIndexSemantics:
    def test_empty_index(self):
        index = GridIndex([])
        assert index.query(Rect(0, 0, 5, 5)) == []
        assert index.neighbors(Rect(0, 0, 5, 5), 10) == []
        assert index.connected_components() == []

    def test_abutting_rects_touch_and_connect(self):
        soup = [Rect(0, 0, 10, 10), Rect(10, 0, 20, 10), Rect(40, 0, 50, 10)]
        index = GridIndex(soup)
        # Closed overlap: the shared edge counts as touching...
        assert index.query(Rect(10, 0, 10, 10)) == [0, 1]
        # ... but not as interior overlap.
        assert index.query(Rect(9, 1, 11, 9), strict=True) == [0, 1]
        assert index.query(Rect(10, 0, 10, 10), strict=True) == []
        assert index.connected_components() == [[0, 1], [2]]

    def test_neighbors_uses_rectilinear_gap(self):
        soup = [Rect(0, 0, 10, 10), Rect(13, 0, 20, 10), Rect(13, 13, 20, 20)]
        index = GridIndex(soup)
        # Straight-across gap of 3 to rect 1; diagonal gap of 3+3 to rect 2.
        assert index.neighbors(Rect(0, 0, 10, 10), 3) == [0, 1]
        assert index.neighbors(Rect(0, 0, 10, 10), 6) == [0, 1, 2]
        assert index.neighbors(Rect(0, 0, 10, 10), 2) == [0]

    def test_components_ordered_by_smallest_member(self):
        soup = [Rect(100, 0, 110, 10), Rect(0, 0, 10, 10),
                Rect(105, 5, 115, 15), Rect(5, 5, 8, 8)]
        expected = [[0, 2], [1, 3]]
        assert GridIndex(soup).connected_components() == expected
        assert BruteForceIndex(soup).connected_components() == expected

    def test_build_index_selects_implementation(self):
        small = [Rect(0, 0, 1, 1)]
        large = [Rect(i * 3, 0, i * 3 + 1, 1) for i in range(20)]
        assert isinstance(build_index(small), BruteForceIndex)
        assert isinstance(build_index(large), GridIndex)
