"""Oriented flat views: the geometry hierarchical analysis composes over.

A :class:`_View` is the flat geometry of one cell in one orientation's
frame, remembered as *blocks*: the cell's own shapes first, then one block
per instance, each a translated copy of the child's view.  Two ideas make
exact composition of per-cell analysis results possible on top of it:

1.  **Oriented frames.**  A child's view is built in the instance's
    *oriented frame* (the child's flat geometry transformed by the placement
    orientation about the origin), so composition into the parent is a pure
    translation — and translation commutes with every geometric operation
    the engines perform, including order-sensitive ones like
    :meth:`Rect.subtract` piece enumeration and path-to-rectangle
    decomposition of odd-width wires, which do *not* commute with mirrors
    and rotations.

2.  **Offset id maps.**  A parent's flat rectangle list per layer is the
    concatenation of its own geometry and each instance's oriented list, in
    order.  Child element ids therefore map to parent ids by block offsets,
    and cached per-element verdicts (violations, channel crossings, contact
    hits, ...) are replayed by translating their locations and re-basing
    their ids.

This module owns the view, its builder (with the collapse rule for tiling
arrays of tiny cells), the per-source probes the composers' interface passes
use, the shared touching-partition composition, and the pickled form every
composable artifact shares (:class:`_StoredSlots`).  The composers live
beside their flat engines: :mod:`repro.drc.compose`,
:mod:`repro.extract.compose`; the scheduler that caches what they build is
:mod:`repro.analysis.hier`.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.geometry.index import SpatialIndex, UnionFind, build_index
from repro.geometry.path import Path
from repro.geometry.point import Point
from repro.geometry.rect import Rect, merged_area, pack_rects, unpack_rects
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.shapes import Label

_ORIGIN = Point(0, 0)

#: :meth:`_StoredSlots.weight`'s bytes per packed rect and per element of any
#: other list / dict slot; :meth:`_View.weight`'s per pickled ``Label``.
_RECT_BYTES = 16
_ELEMENT_BYTES = 8
_LABEL_BYTES = 32


class _StoredSlots:
    """Pickled form of a slotted artifact, as the disk store writes it.

    ``_TRANSIENT`` slots (lazily built indexes, cheap to rebuild) stay
    behind and come back ``None``; ``_RECT_LISTS`` slots — a list of
    ``Rect``, or a dict of such lists — travel as integer columns
    (:func:`pack_rects`) and come back as fresh lists, because a list of
    ``Rect`` costs a Python-level ``__getstate__`` call per element and that
    was ~85 % of every ``dumps``.  A loaded blob therefore shares no ``Rect``
    objects between its lists.
    """

    __slots__ = ("__weakref__",)
    _TRANSIENT: Tuple[str, ...] = ()
    _RECT_LISTS: Tuple[str, ...] = ()

    def weight(self) -> int:
        """Estimated pickled size in bytes, read off the slot lengths.

        What a byte-budgeted store charges for this artifact without
        serialising it: a packed rect is four C ints, and the other list /
        dict slots (id maps, partitions, offsets) average a machine word per
        element.  O(slots) — no element is visited.
        """
        total = 0
        for slot in self.__slots__:
            if slot in self._TRANSIENT:
                continue
            value = getattr(self, slot)
            if slot in self._RECT_LISTS:
                total += _RECT_BYTES * (
                    sum(map(len, value.values())) if isinstance(value, dict)
                    else len(value))
            elif isinstance(value, (list, dict)):
                total += _ELEMENT_BYTES * len(value)
        return total

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__
                 if slot not in self._TRANSIENT}
        for slot in self._RECT_LISTS:
            state[slot] = _columns(state[slot], pack_rects)
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        for slot in self._RECT_LISTS:
            setattr(self, slot, _columns(state[slot], unpack_rects))
        for slot in self._TRANSIENT:
            setattr(self, slot, None)


def _columns(value, convert):
    if isinstance(value, dict):
        return {key: convert(rects) for key, rects in value.items()}
    return convert(value)


class _View(_StoredSlots):
    """Flat geometry of one cell in one orientation's frame.

    ``rects[layer]`` lists every rectangle of the fully flattened cell,
    transformed by the orientation about the origin, in exactly the order
    the flat path's ``FlatLayout.rects_by_layer`` would produce after the
    same transform: the cell's own shapes first, then each instance's block.
    ``offsets[layer]`` gives the per-source block starts (source 0 is the
    cell's own geometry, source ``k`` is instance ``k``); ``sources`` holds
    the child views and their translations inside this frame.
    """

    __slots__ = ("name", "rects", "offsets", "labels", "label_offsets",
                 "sources", "bbox", "shape_count", "path_length", "_indexes",
                 "_layer_bboxes")
    _TRANSIENT = ("_indexes", "_layer_bboxes")
    _RECT_LISTS = ("rects",)

    def __init__(self, name: str):
        self.name = name
        self.rects: Dict[str, List[Rect]] = {}
        self.offsets: Dict[str, List[int]] = {}
        self.labels: List[Label] = []
        self.label_offsets: List[int] = [0]
        self.sources: List["_Source"] = []
        self.bbox: Optional[Rect] = None
        self.shape_count = 0
        self.path_length = 0
        self._indexes: Optional[Dict[str, SpatialIndex]] = None
        self._layer_bboxes: Optional[Dict[str, Optional[Rect]]] = None

    def weight(self) -> int:
        """Its slots' estimate plus that of every distinct view below it:
        a view's pickle embeds its sources' views, each once.  A ``Label``
        (text, layer, position) is charged as what it is, not as a word."""
        total = 0
        seen = {id(self)}
        pending = [self]
        while pending:
            view = pending.pop()
            total += (_StoredSlots.weight(view)
                      + (_LABEL_BYTES - _ELEMENT_BYTES) * len(view.labels))
            for source in view.sources:
                child = source.view
                if id(child) not in seen:
                    seen.add(id(child))
                    pending.append(child)
        return total

    def layer(self, layer: str) -> List[Rect]:
        return self.rects.get(layer, [])

    def layer_offsets(self, layer: str) -> List[int]:
        """Block starts of ``layer`` per source (all zero for an absent one)."""
        offsets = self.offsets.get(layer)
        return [0] * (len(self.sources) + 1) if offsets is None else offsets

    def index(self, layer: str) -> SpatialIndex:
        indexes = self._indexes
        if indexes is None:
            indexes = self._indexes = {}
        index = indexes.get(layer)
        if index is None:
            index = indexes[layer] = build_index(self.layer(layer))
        return index

    def layer_bbox(self, layer: str) -> Optional[Rect]:
        boxes = self._layer_bboxes
        if boxes is None:
            boxes = self._layer_bboxes = {}
        if layer not in boxes:
            boxes[layer] = _bounding(self.layer(layer))
        return boxes[layer]


def _bounding(rects: Sequence[Rect]) -> Optional[Rect]:
    box: Optional[Rect] = None
    for rect in rects:
        box = rect if box is None else box.union(rect)
    return box


class _Source:
    """One geometry source of a view: the cell's own shapes or an instance."""

    __slots__ = ("view", "dx", "dy", "cell", "orientation")

    def __init__(self, view: _View, dx: int, dy: int,
                 cell: Optional[Cell], orientation: Optional[Orientation]):
        self.view = view
        self.dx = dx
        self.dy = dy
        self.cell = cell                 # None for the own-geometry source
        self.orientation = orientation

    def probe(self, layer: str, region: Rect, margin: int = 0,
              strict: bool = False) -> Sequence[int]:
        """Query this source's layer index with a parent-frame region."""
        if self.dx or self.dy:
            region = region.translated(-self.dx, -self.dy)
        return self.view.index(layer).query(region, margin=margin, strict=strict)

    def placed(self, box: Optional[Rect]) -> Optional[Rect]:
        """A rect of this source's frame (or ``None``), in the parent frame."""
        if box is None or not (self.dx or self.dy):
            return box
        return box.translated(self.dx, self.dy)

    def bbox(self) -> Optional[Rect]:
        return self.placed(self.view.bbox)

    def layer_bbox(self, layer: str) -> Optional[Rect]:
        """Bounding box of this source's ``layer`` rects, in the parent frame."""
        return self.placed(self.view.layer_bbox(layer))

    def global_rect(self, layer: str, local_id: int) -> Rect:
        return self.placed(self.view.layer(layer)[local_id])


class _OwnSource(_Source):
    """The single source of a collapsed view: the view's own flat geometry.

    Holds its owner weakly.  A strong reference would make every collapsed
    view a cycle, and every evicted generation of an edited leaf — its rect
    lists and spatial indexes — garbage that only the cyclic collector can
    free, which the build path runs without (:func:`repro.runtime.gc_paused`).
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: _View):
        self._owner = weakref.ref(owner)
        self.dx = self.dy = 0
        self.cell = self.orientation = None

    @property
    def view(self) -> _View:
        return self._owner()

    def __reduce__(self):
        return (_OwnSource, (self._owner(),))


def _translated(rects: Sequence[Rect], dx: int, dy: int) -> List[Rect]:
    if not (dx or dy):
        return list(rects)
    return [r.translated(dx, dy) for r in rects]


class _BoxIndex:
    """Index over per-source bounding boxes: which sources are near a rect?

    Replaces O(sources) distance scans in the per-element composition loops
    with one localized query; sources with no geometry are skipped.
    """

    __slots__ = ("ids", "index")

    def __init__(self, boxes: Sequence[Optional[Rect]], skip_first: bool = False):
        start = 1 if skip_first else 0
        self.ids = [i for i in range(start, len(boxes)) if boxes[i] is not None]
        self.index = build_index([boxes[i] for i in self.ids])

    def near(self, region: Rect, margin: int = 0,
             strict: bool = False) -> List[int]:
        ids = self.ids
        return [ids[p] for p in self.index.query(region, margin=margin,
                                                 strict=strict)]


# -- the view builder ---------------------------------------------------------


def build_view(cell: Cell, orientation: Orientation,
               child_view: Callable[[Cell, Orientation], _View],
               collapse_below: int) -> _View:
    """The oriented view of ``cell``, over its instances' ``child_view``\\ s.

    A cell whose instances average fewer than ``collapse_below`` rectangles
    is *collapsed* to one own-geometry source, so the analysis artifacts are
    computed directly on its flat view (the composers treat own geometry
    exactly like the flat engines): tiling arrays of tiny cells (ROM/PLA bit
    cells, register slices) abut everywhere, so composition would be all
    interface pass and no reuse.  The collapsed artifact still composes into
    *its* parents, which is where the big instances-per-unique-cell reuse
    lives.
    """
    transform = Transform(orientation, _ORIGIN)
    identity = orientation is Orientation.R0

    own = _View(cell.name)
    for shape in cell.shapes:
        if not identity:
            shape = shape.transformed(transform)
        own.rects.setdefault(shape.layer, []).extend(shape.as_rects())
        box = shape.bbox
        own.bbox = box if own.bbox is None else own.bbox.union(box)
        own.shape_count += 1
        if isinstance(shape.geometry, Path):
            own.path_length += shape.geometry.length
    own.labels = (list(cell.labels) if identity
                  else [label.transformed(transform) for label in cell.labels])

    view = _View(cell.name)
    view.sources = sources = [_Source(own, 0, 0, None, None)]
    for instance in cell.instances:
        child_orientation = instance.transform.orientation.then(orientation)
        translation = orientation.apply(instance.transform.translation)
        sources.append(_Source(child_view(instance.cell, child_orientation),
                               translation.x, translation.y,
                               instance.cell, child_orientation))

    layers: List[str] = []
    for source in sources:
        for layer in source.view.rects:
            if layer not in layers:
                layers.append(layer)
    for layer in layers:
        buffer: List[Rect] = []
        offsets = [0]
        for source in sources:
            buffer.extend(_translated(source.view.layer(layer),
                                      source.dx, source.dy))
            offsets.append(len(buffer))
        view.rects[layer] = buffer
        view.offsets[layer] = offsets
    for source in sources:
        if source.dx or source.dy:
            view.labels.extend(label.translated(source.dx, source.dy)
                               for label in source.view.labels)
        else:
            view.labels.extend(source.view.labels)
        view.label_offsets.append(len(view.labels))
    view.shape_count = sum(source.view.shape_count for source in sources)
    view.path_length = sum(source.view.path_length for source in sources)
    for source in sources:
        box = source.bbox()
        if box is not None:
            view.bbox = box if view.bbox is None else view.bbox.union(box)

    instance_count = len(sources) - 1
    if instance_count:
        child_rects = sum(offs[-1] - offs[1] for offs in view.offsets.values())
        if child_rects < collapse_below * instance_count:
            view.sources = [_OwnSource(view)]
            view.offsets = {layer: [0, len(rects)]
                            for layer, rects in view.rects.items()}
            view.label_offsets = [0, len(view.labels)]
    return view


def compose_areas(view: _View,
                  child_areas: Sequence[Optional[Dict[str, int]]]
                  ) -> Dict[str, int]:
    """Per-layer merged mask areas, identical to the flat computation.

    Merged area is additive across sources whose layer bounding boxes do
    not share interior (abutting edges have measure zero); where source
    extents genuinely overlap, the layer falls back to a global sweep.
    """
    areas: Dict[str, int] = {}
    for layer, rects in view.rects.items():
        boxes = [box for box in (source.layer_bbox(layer)
                                 for source in view.sources) if box is not None]
        disjoint = not any(boxes[i].overlaps(boxes[j], strict=True)
                           for i in range(len(boxes))
                           for j in range(i + 1, len(boxes)))
        if disjoint:
            total = merged_area(view.sources[0].view.layer(layer))
            for areas_k in child_areas[1:]:
                total += areas_k.get(layer, 0)
            areas[layer] = total
        else:
            areas[layer] = merged_area(rects)
    return areas


# -- shared component composition ---------------------------------------------


def _cross_block_pairs(offsets: Sequence[int], items: Sequence[Rect],
                       block_indexes: Sequence[SpatialIndex],
                       block_moves: Sequence[Tuple[int, int]],
                       block_bboxes: Sequence[Optional[Rect]]
                       ) -> List[Tuple[int, int]]:
    """Touching pairs that span two blocks, by localized index probes.

    For every rect of block *i* near block *j*'s bbox, block *j* is probed
    with that rect; touching is intrinsic to the pair, so the result is
    exactly the set of cross-block edges of the global touching graph.
    """
    pairs: List[Tuple[int, int]] = []
    blocks = len(block_indexes)
    for i in range(blocks):
        box_i = block_bboxes[i]
        if box_i is None:
            continue
        for j in range(i + 1, blocks):
            box_j = block_bboxes[j]
            if box_j is None or not box_i.touches(box_j):
                continue
            dx_i, dy_i = block_moves[i]
            dx_j, dy_j = block_moves[j]
            probe_region = box_j.translated(-dx_i, -dy_i)
            index_j = block_indexes[j]
            for ci in block_indexes[i].query(probe_region):
                rect = items[offsets[i] + ci]
                local = rect.translated(-dx_j, -dy_j)
                for cj in index_j.query(local):
                    pairs.append((offsets[i] + ci, offsets[j] + cj))
    return pairs


def compose_components(items: Sequence[Rect], offsets: Sequence[int],
                       block_comps: Sequence[Sequence[Sequence[int]]],
                       block_indexes: Sequence[SpatialIndex],
                       block_moves: Sequence[Tuple[int, int]],
                       block_bboxes: Sequence[Optional[Rect]]
                       ) -> Tuple[List[List[int]], bool]:
    """Touching-closure partition of ``items`` from per-block partitions.

    Returns the components (ordered by smallest member, as the flat
    all-pairs partition is) and whether any edge crossed two blocks.  With
    no cross-block edge the global partition is the concatenation of the
    block partitions in block order (own ids precede every instance block,
    so smallest-member order holds) and the union-find replay — the bulk of
    composition time for well-separated placements — is skipped.  Otherwise
    each block's partition is replayed under its id offset with the cross
    edges unioned on top; replayed unions are always valid (rect existence
    and touching are intrinsic), so the closure equals the flat one.
    """
    cross_pairs = _cross_block_pairs(offsets, items, block_indexes,
                                     block_moves, block_bboxes)
    if not cross_pairs:
        components: List[List[int]] = []
        for offset, comps in zip(offsets, block_comps):
            if offset:
                components.extend([m + offset for m in comp] for comp in comps)
            else:
                components.extend(list(comp) for comp in comps)
        return components, False
    finder = UnionFind(len(items))
    union = finder.union
    for offset, comps in zip(offsets, block_comps):
        for comp in comps:
            for first, second in zip(comp, comp[1:]):
                union(offset + first, offset + second)
    for a, b in cross_pairs:
        union(a, b)
    return finder.components(), True
