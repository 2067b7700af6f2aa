"""Hierarchy flattening.

The DRC, extractor and mask-area metrics operate on a flat view of the
layout: every shape of every instance expanded into top-level coordinates.
Flattening is also how we measure the leverage of hierarchy (experiment E6):
the ratio of flattened geometry to hierarchical description size.

Flat views are **memoized per cell**: each distinct cell's flat view is
built once and composed into its parents under the instance transforms,
instead of re-walking the whole hierarchy on every call.  The cache is
invalidated by the cell mutation counter (see :meth:`Cell._mutated`), so
editing any cell — at any depth — transparently rebuilds exactly the views
that depend on it.  Callers must treat a returned :class:`FlatLayout` as
read-only; the shape and label objects are shared with the cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geometry.index import IndexFactory
from repro.geometry.merge import MergedLayer
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.layout.shapes import Geometry, Label, Shape
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused


def flatten_cell(cell: Cell) -> "FlatLayout":
    """Flatten a cell (and its instance hierarchy) into top-level shapes.

    Served from the per-cell cache.  Each call is one ``layout.flatten``
    trace span saying how many ``shapes`` the view has and whether it was
    ``cached``.
    """
    with gc_paused(), obs_trace.span("layout.flatten", cat="layout",
                                     cell=cell.name) as span:
        cached = _is_current(cell)
        flat = _flat_view(cell)
        span.set(shapes=len(flat.shapes), cached=cached)
        return flat


# -- memoized flat views ------------------------------------------------------


def _is_current(cell: Cell) -> bool:
    cached = cell._flat_cache
    return cached is not None and cached[0] == cell._version


def _flat_view(cell: Cell) -> "FlatLayout":
    """The cached flat view of ``cell``, rebuilt if any subtree cell mutated.

    The cache key is the cell's :attr:`~repro.layout.cell.Cell.subtree_version`
    counter, which mutation propagation keeps in sync with the whole subtree.
    An unrotated placement moves its child's shapes and labels by
    ``translated``; only the other seven orientations pay for a transform.
    """
    if _is_current(cell):
        return cell._flat_cache[1]
    flat = FlatLayout(cell.name)
    shapes, labels = flat.shapes, flat.labels
    shapes.extend(cell.shapes)
    labels.extend(cell.labels)
    for instance in cell.instances:
        child = _flat_view(instance.cell)
        transform = instance.transform
        if transform.orientation is Orientation.R0:
            dx, dy = transform.translation.x, transform.translation.y
            if dx or dy:
                shapes.extend([shape.translated(dx, dy)
                               for shape in child.shapes])
                labels.extend([label.translated(dx, dy)
                               for label in child.labels])
            else:
                shapes.extend(child.shapes)
                labels.extend(child.labels)
        else:
            shapes.extend(shape.transformed(transform) for shape in child.shapes)
            labels.extend(label.transformed(transform) for label in child.labels)
    cell._flat_cache = (cell._version, flat)
    return flat


def flat_layer_rects(cell: Cell, layer: str) -> List[Rect]:
    """The rectangles of one layer of the fully flattened ``cell``.

    Equal, in order, to ``flatten_cell(cell).rects_by_layer().get(layer,
    [])``, but only the geometry drawn on ``layer`` is carried up through
    the instance transforms: no :class:`Shape` is built for any other layer
    and no flat view is cached.  For the one-off question "what is already
    on the routing layer" of a chip about to be edited.
    """
    rects: List[Rect] = []
    for geometry in _layer_geometry(cell, layer, {}):
        if isinstance(geometry, Rect):
            rects.append(geometry)
        else:
            rects.extend(Shape(layer, geometry).as_rects())
    return rects


def _layer_geometry(cell: Cell, layer: str,
                    memo: Dict[int, List[Geometry]]) -> List[Geometry]:
    """Geometry on ``layer`` below ``cell``, in :func:`_flat_view`'s order
    (own shapes, then each instance's), in ``cell``'s coordinates.  Wires
    and polygons stay whole until the top: their rectangles depend on the
    orientation they end up in."""
    found = memo.get(id(cell))
    if found is None:
        found = [shape.geometry for shape in cell.shapes
                 if shape.layer == layer]
        for instance in cell.instances:
            child = _layer_geometry(instance.cell, layer, memo)
            transform = instance.transform
            if transform.orientation is Orientation.R0:
                dx, dy = transform.translation.x, transform.translation.y
                if dx or dy:
                    found.extend([geometry.translated(dx, dy)
                                  for geometry in child])
                else:
                    found.extend(child)
            else:
                found.extend(geometry.transformed(transform)
                             for geometry in child)
        memo[id(cell)] = found
    return found


class FlatLayout:
    """The result of flattening: shapes and labels in one coordinate system.

    Layer lookups are served from buckets built once per view on first use
    and cached, so ``shapes_on_layer`` / ``rects_by_layer`` are cheap no
    matter how often the analysis passes ask; so are the bounding box and
    each layer's touching-merge (:meth:`layer_merge`), which the flat DRC,
    the flat extractor and the mask-area statistic share.  A
    ``FlatLayout`` is **read-only after construction**: instances returned
    by :func:`flatten_cell` may be shared by the cache, and mutating
    ``shapes``/``labels`` after the first layer query would serve stale
    buckets.
    """

    def __init__(self, name: str):
        self.name = name
        self.shapes: List[Shape] = []
        self.labels: List[Label] = []
        self._shapes_by_layer: Optional[Dict[str, List[Shape]]] = None
        self._rects_by_layer: Optional[Dict[str, List[Rect]]] = None
        self._bbox: Optional[Tuple[Optional[Rect]]] = None
        self._merges: Dict[Tuple[str, IndexFactory], MergedLayer] = {}

    # -- layer buckets ------------------------------------------------------

    def _buckets(self) -> Dict[str, List[Shape]]:
        buckets = self._shapes_by_layer
        if buckets is None:
            buckets = {}
            for shape in self.shapes:
                bucket = buckets.get(shape.layer)
                if bucket is None:
                    buckets[shape.layer] = [shape]
                else:
                    bucket.append(shape)
            self._shapes_by_layer = buckets
        return buckets

    def shapes_on_layer(self, layer: str) -> List[Shape]:
        return list(self._buckets().get(layer, ()))

    def _layer_rects(self) -> Dict[str, List[Rect]]:
        """The cached rectangle decomposition itself (not to be mutated)."""
        rects = self._rects_by_layer
        if rects is None:
            rects = {}
            for layer, bucket in self._buckets().items():
                layer_rects: List[Rect] = []
                for shape in bucket:
                    layer_rects.extend(shape.as_rects())
                rects[layer] = layer_rects
            self._rects_by_layer = rects
        return rects

    def rects_by_layer(self) -> Dict[str, List[Rect]]:
        """All geometry reduced to rectangles, grouped by layer.

        The rectangle decomposition is cached; callers get fresh dict/list
        containers (sharing the immutable ``Rect`` values), so mutating the
        result cannot corrupt the cached view.
        """
        return {layer: list(layer_rects)
                for layer, layer_rects in self._layer_rects().items()}

    def layer_merge(self, layer: str, index: IndexFactory) -> MergedLayer:
        """The :class:`~repro.geometry.merge.MergedLayer` of ``layer``'s
        rects (an absent layer's is empty), built with ``index`` once per
        view and index factory; each build counts ``layout.flat.merges``.

        Keyed by the factory too, so an all-pairs oracle never reads the
        merge production's grid index built.  The merge holds no index.
        """
        key = (layer, index)
        merge = self._merges.get(key)
        if merge is None:
            merge = self._merges[key] = MergedLayer(
                self._layer_rects().get(layer, []), index)
            obs_metrics.counter("layout.flat.merges").inc()
        return merge

    def layers(self) -> List[str]:
        return list(self._buckets().keys())

    def bbox(self) -> Optional[Rect]:
        cached = self._bbox
        if cached is None:
            extent = None
            if self.shapes:
                boxes = [shape.bbox for shape in self.shapes]
                extent = Rect(min([box.x1 for box in boxes]),
                              min([box.y1 for box in boxes]),
                              max([box.x2 for box in boxes]),
                              max([box.y2 for box in boxes]))
            cached = self._bbox = (extent,)
        return cached[0]

    def __len__(self) -> int:
        return len(self.shapes)
