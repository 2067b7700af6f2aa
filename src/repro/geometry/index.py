"""Spatial indexing over rectangles.

Every analysis pass of the compiler (DRC, extraction, mask metrics) asks the
same three questions about large soups of rectangles:

* which rectangles touch / overlap a probe rectangle (``query``);
* which rectangles lie within some rectilinear distance of a probe
  (``neighbors`` — the spacing-rule question);
* which groups of rectangles are mutually connected by touching
  (``connected_components`` — the node-extraction / region-merge question).

Answering them with all-pairs scans is O(n^2) and dominates the runtime on
chip-scale layouts.  This module provides a uniform-grid bin index
(:class:`GridIndex`) that answers point queries in expected O(k) for k local
candidates, plus a banded sweep-line merge for connectivity, and a deliberately
naive :class:`BruteForceIndex` with identical semantics that serves as the
golden reference for equivalence tests.

Both implementations return candidate **ids** (positions in the indexed
rectangle list) in ascending order, so consumers that care about the exact
iteration order of the historical all-pairs loops get identical results.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect

__all__ = ["SpatialIndex", "GridIndex", "BruteForceIndex", "UnionFind",
           "IndexFactory", "build_index", "layer_indexes"]


class SpatialIndex:
    """Common interface of the rectangle indexes.

    ``rects`` is the indexed list; ids returned by the query methods are
    positions in that list.  The index holds a reference to (not a copy of)
    the rectangles, which must not change while the index is alive.
    """

    def __init__(self, rects: Sequence[Rect]):
        self.rects: Sequence[Rect] = rects

    def __len__(self) -> int:
        return len(self.rects)

    # -- queries (implemented by subclasses) --------------------------------

    def query(self, rect: Rect, margin: int = 0, strict: bool = False) -> List[int]:
        """Ids of rectangles that touch ``rect`` grown by ``margin``.

        With ``strict=True`` only rectangles sharing interior area with the
        grown probe are returned (overlap, not mere abutment).
        """
        raise NotImplementedError

    def neighbors(self, rect: Rect, margin: int) -> List[int]:
        """Ids of rectangles whose rectilinear gap to ``rect`` is <= margin.

        Touching/overlapping rectangles have gap 0 and are included.
        """
        raise NotImplementedError

    def connected_components(self) -> List[List[int]]:
        """Groups of ids connected transitively by touching (closed overlap).

        Components are ordered by their smallest member and each component
        lists its members in ascending order, so the result is deterministic
        and independent of the index implementation.
        """
        raise NotImplementedError


class BruteForceIndex(SpatialIndex):
    """All-pairs reference implementation (the pre-index behaviour)."""

    def query(self, rect: Rect, margin: int = 0, strict: bool = False) -> List[int]:
        probe = rect.expanded(margin) if margin else rect
        return [i for i, r in enumerate(self.rects) if probe.overlaps(r, strict=strict)]

    def neighbors(self, rect: Rect, margin: int) -> List[int]:
        return [i for i, r in enumerate(self.rects) if rect.distance_to(r) <= margin]

    def connected_components(self) -> List[List[int]]:
        finder = UnionFind(len(self.rects))
        rects = self.rects
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if rects[i].touches(rects[j]):
                    finder.union(i, j)
        return finder.components()


class GridIndex(SpatialIndex):
    """Uniform-grid bin index over rectangles.

    Every rectangle is registered in the grid cells its bounding box covers;
    queries gather candidates from the cells covered by the (grown) probe and
    then filter precisely.  The cell size defaults to about four mean
    rectangle sides (:func:`_pick_cell_size`), which keeps the
    cells-per-rectangle count near two and most probes inside one cell,
    while the rectangles-per-cell count stays small for layout-shaped data.

    The bins are filled on the first query (an index only asked for its
    connected components never fills them) into a dict keyed by one integer
    per occupied bin, ``bx * stride + (by - min_by)``, so bin memory is one
    entry per (rectangle, covered bin) however far apart the geometry lies.
    A query costs O(b + c) for b bins under the probe window (clamped to the
    occupied extent; the occupied bins instead, when they are fewer) and c
    candidates in them.
    """

    def __init__(self, rects: Sequence[Rect], cell_size: Optional[int] = None):
        super().__init__(rects)
        if cell_size is None:
            cell_size = _pick_cell_size(rects)
        if cell_size < 1:
            raise ValueError("grid cell size must be >= 1")
        self.cell_size = cell_size
        self._bins: Optional[Dict[int, List[int]]] = None

    def _fill_bins(self) -> None:
        rects = self.rects
        size = self.cell_size
        bins: Dict[int, List[int]] = {}
        # Occupied bin extent: probe windows are clamped to it so that a
        # query with a huge margin cannot walk billions of empty bins.
        if rects:
            min_bx = min([r.x1 for r in rects]) // size
            max_bx = max([r.x2 for r in rects]) // size
            min_by = min([r.y1 for r in rects]) // size
            max_by = max([r.y2 for r in rects]) // size
        else:
            min_bx = max_bx = min_by = max_by = 0
        stride = max_by - min_by + 1
        for index, r in enumerate(rects):
            by1 = r.y1 // size - min_by
            by2 = r.y2 // size - min_by + 1
            for base in range(r.x1 // size * stride, r.x2 // size * stride + 1,
                              stride):
                for key in range(base + by1, base + by2):
                    bucket = bins.get(key)
                    if bucket is None:
                        bins[key] = [index]
                    else:
                        bucket.append(index)
        self._bins = bins
        self._extent = (min_bx, max_bx, min_by, max_by, stride)

    def _buckets(self, x1: int, y1: int, x2: int, y2: int) -> List[List[int]]:
        """The occupied buckets whose bin meets the coordinate window.

        A bucket lists each id once, in ascending order, so the hits of a
        one-bucket window are the answer as they come; hits gathered from
        several buckets are deduplicated and sorted by the caller.
        """
        if self._bins is None:
            self._fill_bins()
        bins = self._bins
        size = self.cell_size
        min_bx, max_bx, min_by, max_by, stride = self._extent
        bx1, bx2 = x1 // size, x2 // size
        by1, by2 = y1 // size, y2 // size
        if bx1 < min_bx:
            bx1 = min_bx
        if bx2 > max_bx:
            bx2 = max_bx
        if by1 < min_by:
            by1 = min_by
        if by2 > max_by:
            by2 = max_by
        if bx1 > bx2 or by1 > by2:
            return []
        by1 -= min_by
        by2 -= min_by
        if bx1 == bx2 and by1 == by2:
            bucket = bins.get(bx1 * stride + by1)
            return [] if bucket is None else [bucket]
        if (bx2 - bx1 + 1) * (by2 - by1 + 1) >= len(bins):
            # Window covers most of the grid: walking the occupied bins is
            # cheaper than scanning the (possibly enormous) window.
            return [bucket for key, bucket in bins.items()
                    if bx1 <= key // stride <= bx2
                    and by1 <= key % stride <= by2]
        buckets = []
        for base in range(bx1 * stride, bx2 * stride + 1, stride):
            for key in range(base + by1, base + by2 + 1):
                bucket = bins.get(key)
                if bucket is not None:
                    buckets.append(bucket)
        return buckets

    def query(self, rect: Rect, margin: int = 0, strict: bool = False) -> List[int]:
        x1, y1 = rect.x1 - margin, rect.y1 - margin
        x2, y2 = rect.x2 + margin, rect.y2 + margin
        rects = self.rects
        buckets = self._buckets(x1, y1, x2, y2)
        if strict:
            found = [index for bucket in buckets for index in bucket
                     if x1 < (r := rects[index]).x2 and r.x1 < x2
                     and y1 < r.y2 and r.y1 < y2]
        else:
            found = [index for bucket in buckets for index in bucket
                     if x1 <= (r := rects[index]).x2 and r.x1 <= x2
                     and y1 <= r.y2 and r.y1 <= y2]
        if len(buckets) > 1 and len(found) > 1:
            found = sorted(set(found))
        return found

    def neighbors(self, rect: Rect, margin: int) -> List[int]:
        x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
        rects = self.rects
        buckets = self._buckets(x1 - margin, y1 - margin,
                                x2 + margin, y2 + margin)
        found: List[int] = []
        for bucket in buckets:
            for index in bucket:
                # Rect.distance_to, inline: the gap is dx + dy (one of them
                # is 0 unless the rectangles are diagonal to each other).
                r = rects[index]
                dx = (r.x1 - x2 if r.x1 > x2
                      else x1 - r.x2 if x1 > r.x2 else 0)
                dy = (r.y1 - y2 if r.y1 > y2
                      else y1 - r.y2 if y1 > r.y2 else 0)
                if dx + dy <= margin:
                    found.append(index)
        if len(buckets) > 1 and len(found) > 1:
            found = sorted(set(found))
        return found

    def connected_components(self) -> List[List[int]]:
        # The sweep's bands are one cell tall.  On the 64-tile array and the
        # 8-bit family chip bands of four mean rect sides are no slower than
        # two on any layer and faster on poly and contacts; eight double
        # diffusion's time.
        return _sweep_components(self.rects, self.cell_size)


def build_index(rects: Sequence[Rect]) -> SpatialIndex:
    """Build the appropriate index for a rectangle list.

    Tiny lists get the all-pairs index because the grid bookkeeping costs
    more than it saves.
    """
    if len(rects) <= 4:
        return BruteForceIndex(rects)
    return GridIndex(rects)


#: Anything that indexes a rectangle list: :func:`build_index` in production,
#: :class:`BruteForceIndex` in the ``repro.reference`` oracles.
IndexFactory = Callable[[Sequence[Rect]], SpatialIndex]


def layer_indexes(rects_by_layer: Dict[str, Sequence[Rect]],
                  index: IndexFactory) -> Callable[[str], SpatialIndex]:
    """A memoised ``layer_index(layer)``: the index over
    ``rects_by_layer[layer]`` (an absent layer's list is empty), built by
    ``index`` the first time ``layer`` is asked for."""
    built: Dict[str, SpatialIndex] = {}

    def layer_index(layer: str) -> SpatialIndex:
        found = built.get(layer)
        if found is None:
            found = built[layer] = index(rects_by_layer.get(layer, []))
        return found
    return layer_index


# -- connectivity helpers -----------------------------------------------------------


class UnionFind:
    """Union-find with path halving; components come out deterministically.

    Shared by the sweep-line merge here, the layer merge of
    :mod:`repro.layout.view`, the node builders of :mod:`repro.extract` and
    the channel partition every switch-level analysis reads
    (:meth:`repro.netlist.switch_lowering.LoweredSwitchNetwork.channel_groups`),
    so there is exactly one union-find in production code
    (``tests/test_reference_isolation.py`` scans for a second); the
    switch-simulator oracle in :mod:`repro.reference` keeps its own name-keyed
    one on purpose.
    """

    __slots__ = ("parent",)

    def __init__(self, count: int = 0):
        self.parent = list(range(count))

    def add(self) -> int:
        """Append a fresh singleton element and return its index."""
        index = len(self.parent)
        self.parent.append(index)
        return index

    def find(self, index: int) -> int:
        parent = self.parent
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self.parent[root_a] = root_b

    def components(self) -> List[List[int]]:
        groups: Dict[int, List[int]] = {}
        for index in range(len(self.parent)):
            groups.setdefault(self.find(index), []).append(index)
        # Scanning ids in ascending order inserts each group when its smallest
        # member is reached, so insertion order == order by smallest member.
        return list(groups.values())


def _sweep_components(rects: Sequence[Rect], band: int) -> List[List[int]]:
    """Connected components of touching rectangles via a banded plane sweep.

    Rectangles enter in order of their left edge.  The active set is split
    into horizontal bands ``band`` units tall: each rectangle is listed in
    every band its closed y-interval covers, and an entering rectangle is
    tested only against the bands it covers itself (two touching closed
    intervals share a point, hence a band).  A rectangle whose right edge
    the sweep has passed is dropped from a band the next time that band is
    read.  So a long rail meets only the rectangles of its own bands, not
    every rectangle that enters while it is active.  Expected cost is
    O(n log n + m + n * k) for m (rectangle, band) entries and k active
    rectangles per band, against O(n^2) for the all-pairs scan.
    """
    count = len(rects)
    finder = UnionFind(count)
    parent, find = finder.parent, finder.find
    order = sorted(range(count), key=[r.x1 for r in rects].__getitem__)
    bands: Dict[int, List[Tuple[int, int, int, int]]] = {}
    # stamp[i] == index: rect i was already tested against rect index.
    stamp = [-1] * count
    for index in order:
        r = rects[index]
        x1, y1, y2 = r.x1, r.y1, r.y2
        entry = (r.x2, y1, y2, index)
        # Nothing was united with ``index`` before it entered, so it is a
        # root, and the root of every active rect it touches goes under it.
        for key in range(y1 // band, y2 // band + 1):
            members = bands.get(key)
            if members is None:
                bands[key] = [entry]
                continue
            expired = False
            for other_x2, other_y1, other_y2, other in members:
                if other_x2 < x1:
                    expired = True
                elif stamp[other] != index:
                    stamp[other] = index
                    if other_y1 <= y2 and y1 <= other_y2:
                        root = find(other)
                        if root != index:
                            parent[root] = index
            if expired:
                members[:] = [kept for kept in members if kept[0] >= x1]
            members.append(entry)
    return finder.components()


def _pick_cell_size(rects: Sequence[Rect]) -> int:
    """Heuristic grid pitch: about four times the mean rectangle side length.

    At four mean sides most probes — a rect grown by a rule margin — fall in
    one bin (54 % of the flat DRC and extraction lookups of the 64-tile
    array, against 30 % at two sides), the bins are fewer (97 k against
    262 k) and so are the bin entries of long thin wires, for ~8 candidates
    per lookup instead of ~4.5.
    """
    if not rects:
        return 1
    total = 0
    for r in rects:
        total += (r.x2 - r.x1) + (r.y2 - r.y1)
    mean_side = total // (2 * len(rects))
    return max(1, mean_side * 4)
