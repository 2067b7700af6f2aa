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
candidates, plus a sweep-line merge for connectivity, and a deliberately
naive :class:`BruteForceIndex` with identical semantics that serves as the
golden reference for equivalence tests.

Both implementations return candidate **ids** (positions in the indexed
rectangle list) in ascending order, so consumers that care about the exact
iteration order of the historical all-pairs loops get identical results.
"""

from __future__ import annotations

import heapq
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
    then filter precisely.  The cell size defaults to roughly the mean
    rectangle side length, which keeps both the cells-per-rectangle and the
    rectangles-per-cell counts small for layout-shaped data.  The bins
    are filled on the first query: an index only asked for its connected
    components (a plane sweep) never fills them.
    """

    def __init__(self, rects: Sequence[Rect], cell_size: Optional[int] = None):
        super().__init__(rects)
        if cell_size is None:
            cell_size = _pick_cell_size(rects)
        if cell_size < 1:
            raise ValueError("grid cell size must be >= 1")
        self.cell_size = cell_size
        self._bins: Optional[Dict[Tuple[int, int], List[int]]] = None

    def _fill_bins(self) -> None:
        rects = self.rects
        bins: Dict[Tuple[int, int], List[int]] = {}
        size = self.cell_size
        for index, r in enumerate(rects):
            for bx in range(r.x1 // size, r.x2 // size + 1):
                for by in range(r.y1 // size, r.y2 // size + 1):
                    bucket = bins.get((bx, by))
                    if bucket is None:
                        bins[(bx, by)] = [index]
                    else:
                        bucket.append(index)
        self._bins = bins
        # Occupied bin extent: probe windows are clamped to it so that a
        # query with a huge margin cannot walk billions of empty bins.
        if bins:
            self._min_bx = min(bx for bx, _ in bins)
            self._max_bx = max(bx for bx, _ in bins)
            self._min_by = min(by for _, by in bins)
            self._max_by = max(by for _, by in bins)
        else:
            self._min_bx = self._max_bx = self._min_by = self._max_by = 0
        # Epoch-stamped dedupe scratchpad, reused across queries so a query
        # costs O(local candidates), not O(total rectangles).
        self._stamp = [0] * len(rects)
        self._epoch = 0

    def _buckets_in(self, x1: int, y1: int, x2: int, y2: int):
        """Occupied buckets whose bin intersects the coordinate window."""
        size = self.cell_size
        bins = self._bins
        bx1 = max(x1 // size, self._min_bx)
        bx2 = min(x2 // size, self._max_bx)
        by1 = max(y1 // size, self._min_by)
        by2 = min(y2 // size, self._max_by)
        if bx1 > bx2 or by1 > by2:
            return
        if (bx2 - bx1 + 1) * (by2 - by1 + 1) >= len(bins):
            # Window covers most of the grid: walking the occupied bins is
            # cheaper than scanning the (possibly enormous) window.
            for (bx, by), bucket in bins.items():
                if bx1 <= bx <= bx2 and by1 <= by <= by2:
                    yield bucket
            return
        for bx in range(bx1, bx2 + 1):
            for by in range(by1, by2 + 1):
                bucket = bins.get((bx, by))
                if bucket is not None:
                    yield bucket

    def query(self, rect: Rect, margin: int = 0, strict: bool = False) -> List[int]:
        if self._bins is None:
            self._fill_bins()
        x1, y1 = rect.x1 - margin, rect.y1 - margin
        x2, y2 = rect.x2 + margin, rect.y2 + margin
        rects = self.rects
        stamp = self._stamp
        self._epoch += 1
        epoch = self._epoch
        found: List[int] = []
        for bucket in self._buckets_in(x1, y1, x2, y2):
            for index in bucket:
                if stamp[index] == epoch:
                    continue
                stamp[index] = epoch
                r = rects[index]
                if strict:
                    if x1 < r.x2 and r.x1 < x2 and y1 < r.y2 and r.y1 < y2:
                        found.append(index)
                elif x1 <= r.x2 and r.x1 <= x2 and y1 <= r.y2 and r.y1 <= y2:
                    found.append(index)
        found.sort()
        return found

    def neighbors(self, rect: Rect, margin: int) -> List[int]:
        if self._bins is None:
            self._fill_bins()
        x1, y1 = rect.x1 - margin, rect.y1 - margin
        x2, y2 = rect.x2 + margin, rect.y2 + margin
        rects = self.rects
        stamp = self._stamp
        self._epoch += 1
        epoch = self._epoch
        found: List[int] = []
        for bucket in self._buckets_in(x1, y1, x2, y2):
            for index in bucket:
                if stamp[index] == epoch:
                    continue
                stamp[index] = epoch
                if rect.distance_to(rects[index]) <= margin:
                    found.append(index)
        found.sort()
        return found

    def connected_components(self) -> List[List[int]]:
        return _sweep_components(self.rects)


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


def _sweep_components(rects: Sequence[Rect]) -> List[List[int]]:
    """Connected components of touching rectangles via a plane sweep.

    Rectangles enter the active set in order of their left edge and are
    evicted once the sweep passes their right edge; each entering rectangle
    is united with every active rectangle whose y-interval touches its own.
    Expected cost is O(n log n + n * k) for k simultaneously active
    neighbours, against O(n^2) for the all-pairs scan.
    """
    count = len(rects)
    finder = UnionFind(count)
    order = sorted(range(count), key=lambda i: rects[i].x1)
    # Heap of (x2, id) so eviction is O(log n); active maps id -> (y1, y2).
    expiry: List[Tuple[int, int]] = []
    active: Dict[int, Tuple[int, int]] = {}
    for index in order:
        r = rects[index]
        x1 = r.x1
        while expiry and expiry[0][0] < x1:
            _, expired = heapq.heappop(expiry)
            active.pop(expired, None)
        y1, y2 = r.y1, r.y2
        for other, (other_y1, other_y2) in active.items():
            if other_y1 <= y2 and y1 <= other_y2:
                finder.union(index, other)
        active[index] = (y1, y2)
        heapq.heappush(expiry, (r.x2, index))
    return finder.components()


def _pick_cell_size(rects: Sequence[Rect]) -> int:
    """Heuristic grid pitch: about twice the mean rectangle side length.

    Doubling the mean side keeps long thin wires from being registered in an
    excessive number of bins while typical contact/gate-sized rectangles
    still map to a handful of cells.
    """
    if not rects:
        return 1
    total = 0
    for r in rects:
        total += (r.x2 - r.x1) + (r.y2 - r.y1)
    mean_side = total // (2 * len(rects))
    return max(1, mean_side * 2)
