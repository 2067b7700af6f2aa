"""Oriented flat views: the geometry hierarchical analysis composes over.

A :class:`_View` is the flat geometry of one cell in one orientation's
frame, remembered as *blocks*: the cell's own shapes first, then one block
per instance, each the child's view placed by a translation.  Three ideas
make exact composition of per-cell analysis results possible on top of it:

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

3.  **Blocks by reference.**  Every rect list of a view or a composable
    artifact is a :class:`_Blocks`, one block (:class:`_Part`) per source —
    a single block for a leaf or collapsed view.  An instance's block holds
    the child's lists themselves plus the translation, and builds the
    translated copy only the first time one of its rects is read by id.
    The view decides once which instances are *isolated*
    (:func:`isolated_sources`): nothing else comes within the technology's
    interaction reach of them, so every composer replays them as one
    block — ids re-based in bulk, rects never placed — and runs its
    interface pass over the rest.

This module owns the view, its builder (with the collapse rule for tiling
arrays of tiny cells), the block lists, the per-source probes the composers'
interface passes use, the shared touching-partition composition, and the
pickled form every composable artifact shares (:class:`_StoredSlots`).  The
composers live beside their flat engines: :mod:`repro.drc.compose`,
:mod:`repro.extract.compose`; the scheduler that caches what they build is
:mod:`repro.analysis.hier`.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.geometry.index import SpatialIndex, UnionFind, build_index
from repro.geometry.path import Path
from repro.geometry.point import Point
from repro.geometry.rect import Rect, merged_area, pack_rects, unpack_rects
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.shapes import Label
from repro.obs import metrics as obs_metrics
from repro.technology.rules import RuleKind
from repro.technology.technology import Technology

_ORIGIN = Point(0, 0)
_X1, _Y1, _X2, _Y2 = (attrgetter(corner) for corner in ("x1", "y1", "x2", "y2"))

#: :meth:`_StoredSlots.weight`'s bytes per packed rect, per run of a
#: :class:`_Part` and per element of any other list / dict slot;
#: :meth:`_View.weight`'s per pickled ``Label``.
_RECT_BYTES = 16
_RUN_BYTES = 24
_ELEMENT_BYTES = 8
_LABEL_BYTES = 32


# -- block lists --------------------------------------------------------------

#: One run of a block: a rect list in the frame it was built in and the
#: translation that places it in the owner's.
_Run = Tuple[List[Rect], int, int]


class _Part:
    """One block of a :class:`_Blocks` list, as runs.

    A block computed in its owner is one unmoved run (:meth:`of`); an
    instance's block is the child's whole list (:meth:`_Blocks.moved`): the
    child's runs, shared, each with the instance's translation added.
    Nothing is copied until something reads one of the block's rects by id:
    :meth:`placed` then builds the translated list once and keeps it.
    """

    __slots__ = ("runs", "size", "_placed")

    def __init__(self, runs: List[_Run]):
        self.runs = runs
        self._placed: Optional[List[Rect]] = None
        if len(runs) == 1:
            rects, dx, dy = runs[0]
            self.size = len(rects)
            if not (dx or dy):
                self._placed = rects
        else:
            self.size = sum(len(rects) for rects, _dx, _dy in runs)
            if not runs:
                self._placed = []

    @staticmethod
    def of(rects: List[Rect]) -> "_Part":
        """A block of ``rects`` as they are (already in the owner's frame)."""
        return _Part([(rects, 0, 0)])

    def placed(self) -> List[Rect]:
        """This block's rects in the owner's frame, built on first use."""
        placed = self._placed
        if placed is None:
            placed = self._placed = _laid_out(self.runs)
            obs_metrics.counter("hier.compose.placed").inc()
        return placed

    def __reduce__(self):
        return (_Part, ([(_packed(rects), dx, dy)
                         for rects, dx, dy in self.runs],))


#: The block of a source that has no rects on a layer.
_NO_RECTS = _Part([])


def _laid_out(runs: Iterable[_Run]) -> List[Rect]:
    """The rects of ``runs``, each translated by its run's move, in order."""
    out: List[Rect] = []
    for rects, dx, dy in runs:
        out.extend([rect.translated(dx, dy) for rect in rects]
                   if dx or dy else rects)
    return out


class _Blocks:
    """A rect list held as blocks, one per geometry source, by reference.

    Reads by id (``blocks[i]``, or a slice) place only the blocks they
    touch; :meth:`part` hands a hot loop one block's placed list at once;
    :meth:`frame_free_lists` reads every rect without placing any, for the
    consumers that need only sizes.  ``starts[k]`` is block ``k``'s first id.
    Integer ids are non-negative.
    """

    __slots__ = ("parts", "starts")

    def __init__(self, parts: List[_Part]):
        self.parts = parts
        starts = [0]
        for part in parts:
            starts.append(starts[-1] + part.size)
        self.starts = starts

    @staticmethod
    def of(rects: List[Rect]) -> "_Blocks":
        """``rects`` as a one-block list (a leaf's, or a collapsed view's)."""
        return _Blocks([_Part.of(rects)])

    def moved(self, dx: int, dy: int) -> _Part:
        """This whole list as one block of an owner that places it at
        ``(dx, dy)``: its runs by reference, no rect translated."""
        return _Part([(rects, run_dx + dx, run_dy + dy)
                      for part in self.parts
                      for rects, run_dx, run_dy in part.runs if rects])

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, index):
        starts = self.starts
        if len(starts) == 2:            # one block: read it directly
            return self.parts[0].placed()[index]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        k = bisect_right(starts, index) - 1
        return self.parts[k].placed()[index - starts[k]]

    def __iter__(self):
        for part in self.parts:
            yield from part.placed()

    def __eq__(self, other) -> bool:
        """The same rects in the same order (blocks placed to compare)."""
        if not isinstance(other, (_Blocks, list)):
            return NotImplemented
        return self.flat() == list(other)

    def part(self, k: int) -> List[Rect]:
        """Block ``k``'s rects in this list's frame (placed on first use)."""
        return self.parts[k].placed()

    def flat(self) -> List[Rect]:
        """Every rect in this list's frame, in order (places every block).
        A one-block list hands over its block (not a copy)."""
        if len(self.parts) == 1:
            return self.parts[0].placed()
        return [rect for part in self.parts for rect in part.placed()]

    def frame_free_lists(self) -> List[List[Rect]]:
        """The lists holding these rects, in order, each in the frame it
        was built in: exactly these rects up to translation.

        For consumers of (layer, width, height) only — parasitics, device
        sizes — which must not place a block to read it.
        """
        return [rects for part in self.parts for rects, _dx, _dy in part.runs]

    def __reduce__(self):
        return (_Blocks, (self.parts,))


class _Packed:
    """Pickling stand-in for one shared rect list: an integer array.

    A rect list referenced by many blocks (a ROM's geometry, placed forty
    times) is one object; :func:`_packed` hands every reference to it the
    same stand-in while a pickle is being written, so the pickler's memo
    writes it once per blob.  It loads back as a plain list.
    """

    __slots__ = ("rects", "__weakref__")

    def __init__(self, rects: Sequence[Rect]):
        self.rects = rects

    def __reduce__(self):
        return (unpack_rects, (pack_rects(self.rects),))


#: Live stand-ins by the id of the list they stand for.  A stand-in lives
#: as long as some pickler's memo holds it (it holds its list, so the id
#: cannot be reused meanwhile) and drops out of the table when freed.
_PACKED: "weakref.WeakValueDictionary[int, _Packed]" = weakref.WeakValueDictionary()


def _packed(rects: List[Rect]) -> _Packed:
    """What a run's rect list pickles as: its one shared stand-in."""
    proxy = _PACKED.get(id(rects))
    if proxy is None:
        proxy = _PACKED[id(rects)] = _Packed(rects)
    return proxy


def _rects_weight(blocks: _Blocks, seen: Set[int]) -> int:
    """Pickled bytes of one block list: its runs, and each of their rect
    lists not yet counted in ``seen``."""
    total = 0
    for part in blocks.parts:
        for rects, _dx, _dy in part.runs:
            total += _RUN_BYTES
            if id(rects) not in seen:
                seen.add(id(rects))
                total += _RECT_BYTES * len(rects)
    return total


# -- the pickled form ---------------------------------------------------------


class _StoredSlots:
    """Pickled form of a slotted artifact, as the disk store writes it.

    ``_TRANSIENT`` slots (lazily built indexes, cheap to rebuild) stay
    behind and come back ``None``; ``_RECT_LISTS`` slots — a
    :class:`_Blocks`, or a dict of them — travel as integer columns
    (:func:`pack_rects`), because a list of ``Rect`` costs a Python-level
    ``__getstate__`` call per element and that was ~85 % of every ``dumps``.
    A list shared by several slots or blocks travels once per blob and loads
    back shared; the translated copies of placed blocks are not stored.
    """

    __slots__ = ("__weakref__",)
    _TRANSIENT: Tuple[str, ...] = ()
    _RECT_LISTS: Tuple[str, ...] = ()

    def weight(self, seen: Optional[Set[int]] = None) -> int:
        """Estimated pickled size in bytes, read off the slot lengths.

        What a byte-budgeted store charges for this artifact without
        serialising it: a packed rect is four C ints, counted once per
        distinct list (``seen`` carries the lists already counted in this
        blob), a run is its translation, the other list / dict slots (id
        maps, partitions) average a machine word per element, and a slot
        value with a ``weight()`` of its own (a packed node partition) states
        it.  No rect is visited.
        """
        if seen is None:
            seen = set()
        total = 0
        for slot in self.__slots__:
            if slot in self._TRANSIENT:
                continue
            value = getattr(self, slot)
            if slot in self._RECT_LISTS:
                for rects in (value.values() if isinstance(value, dict)
                              else (value,)):
                    total += _rects_weight(rects, seen)
            elif isinstance(value, (list, dict)):
                total += _ELEMENT_BYTES * len(value)
            elif hasattr(value, "weight"):
                total += value.weight()
        return total

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot not in self._TRANSIENT}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        for slot in self._TRANSIENT:
            setattr(self, slot, None)


class _View(_StoredSlots):
    """Flat geometry of one cell in one orientation's frame.

    ``rects[layer]`` lists every rectangle of the fully flattened cell,
    transformed by the orientation about the origin, in exactly the order
    the flat path's ``FlatLayout.rects_by_layer`` would produce after the
    same transform: the cell's own shapes first, then each instance's.  It
    is a :class:`_Blocks` with one block per source (source 0 is the cell's
    own geometry, source ``k`` is instance ``k``), so ``starts`` gives the
    per-source id offsets; ``sources`` holds the child views and their
    translations inside this frame (a leaf or collapsed view has one
    source, itself); ``isolated[k]`` says whether source ``k`` is replayed
    as one block (:func:`isolated_sources`; never the own source).
    """

    __slots__ = ("name", "rects", "labels", "label_offsets",
                 "sources", "isolated", "bbox", "shape_count", "path_length",
                 "_indexes", "_layer_bboxes", "_extent")
    _TRANSIENT = ("_indexes", "_layer_bboxes", "_extent")
    _RECT_LISTS = ("rects",)

    def __init__(self, name: str):
        self.name = name
        self.rects: Dict[str, _Blocks] = {}
        self.labels: List[Label] = []
        self.label_offsets: List[int] = [0]
        self.sources: List["_Source"] = []
        self.isolated: List[bool] = [False]
        self.bbox: Optional[Rect] = None
        self.shape_count = 0
        self.path_length = 0
        self._indexes: Optional[Dict[str, SpatialIndex]] = None
        self._layer_bboxes: Optional[Dict[str, Optional[Rect]]] = None
        self._extent: Optional[Tuple[Optional[Rect]]] = None

    def weight(self, seen: Optional[Set[int]] = None) -> int:
        """Its slots' estimate plus that of every distinct view below it:
        a view's pickle embeds its sources' views, each once, and a rect
        list they share with this view's blocks once.  A ``Label`` (text,
        layer, position) is charged as what it is, not as a word."""
        if seen is None:
            seen = set()
        total = 0
        done = {id(self)}
        pending = [self]
        while pending:
            view = pending.pop()
            total += (_StoredSlots.weight(view, seen)
                      + (_LABEL_BYTES - _ELEMENT_BYTES) * len(view.labels))
            for source in view.sources:
                child = source.view
                if id(child) not in done:
                    done.add(id(child))
                    pending.append(child)
        return total

    def layer(self, layer: str) -> _Blocks:
        """``layer``'s rects (an absent layer: an empty block per source)."""
        rects = self.rects.get(layer)
        if rects is None:
            rects = _Blocks([_NO_RECTS] * len(self.sources))
        return rects

    def index(self, layer: str) -> SpatialIndex:
        indexes = self._indexes
        if indexes is None:
            indexes = self._indexes = {}
        index = indexes.get(layer)
        if index is None:
            index = indexes[layer] = build_index(self.layer(layer).flat())
        return index

    def layer_bbox(self, layer: str) -> Optional[Rect]:
        """Bounding box of ``layer``'s rects: the union of the sources'
        cached boxes when composed, else read off the rects."""
        boxes = self._layer_bboxes
        if boxes is None:
            boxes = self._layer_bboxes = {}
        if layer not in boxes:
            boxes[layer] = (_union_all(source.layer_bbox(layer)
                                       for source in self.sources)
                            if len(self.sources) > 1
                            else _bounding(self.layer(layer)))
        return boxes[layer]

    def extent(self) -> Optional[Rect]:
        """Bounding box of the shapes *and* the labels (``bbox`` spans the
        shapes only, and a label may lie outside them)."""
        if self._extent is None:
            self._extent = (_union_all([self.bbox] + [
                Rect(label.position.x, label.position.y,
                     label.position.x, label.position.y)
                for label in self.labels]),)
        return self._extent[0]


def _bounding(rects: Sequence[Rect]) -> Optional[Rect]:
    """Bounding box of ``rects``: ``None`` if there are none, the rect
    itself if there is one."""
    if len(rects) <= 1:
        return rects[0] if rects else None
    return Rect(min(map(_X1, rects)), min(map(_Y1, rects)),
                max(map(_X2, rects)), max(map(_Y2, rects)))


def _union_all(boxes: Iterable[Optional[Rect]]) -> Optional[Rect]:
    """Union of the boxes that are not ``None`` (``None`` if none is)."""
    return _bounding([box for box in boxes if box is not None])


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

    def extent(self) -> Optional[Rect]:
        """Shapes and labels of this source, bounded in the parent frame."""
        return self.placed(self.view.extent())

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
    """Spatial index over some rects, answering the caller's ids for them
    (ascending when ``ids`` is, like any index query).

    Over per-source bounding boxes (:meth:`of_boxes`) it says which sources
    are near a rect, replacing O(sources) distance scans in the composers'
    per-element loops with one localized query; over some blocks of a list
    (:meth:`of_blocks`) it indexes those blocks only, so the others — the
    replayed instances — are never placed.
    """

    __slots__ = ("ids", "index")

    def __init__(self, ids: List[int], rects: Sequence[Rect]):
        self.ids = ids
        self.index = build_index(rects)

    @classmethod
    def of_boxes(cls, boxes: Sequence[Optional[Rect]],
                 skip_first: bool = False) -> "_BoxIndex":
        """Sources by bounding box; one with no geometry (``None``) — and
        with ``skip_first`` the own source — is never near anything."""
        start = 1 if skip_first else 0
        ids = [i for i in range(start, len(boxes)) if boxes[i] is not None]
        return cls(ids, [boxes[i] for i in ids])

    @classmethod
    def of_blocks(cls, rects: _Blocks, blocks: Iterable[int]) -> "_BoxIndex":
        """Blocks ``blocks`` of ``rects``, answering ids into ``rects``."""
        ids: List[int] = []
        members: List[Rect] = []
        for k in blocks:
            placed = rects.part(k)
            members.extend(placed)
            ids.extend(range(rects.starts[k], rects.starts[k] + len(placed)))
        return cls(ids, members)

    def near(self, region: Rect, margin: int = 0,
             strict: bool = False) -> List[int]:
        ids = self.ids
        return [ids[p] for p in self.index.query(region, margin=margin,
                                                 strict=strict)]


# -- the view builder ---------------------------------------------------------


def interaction_reach(technology: Technology) -> int:
    """How far apart two shapes can be and still change a check's verdict.

    Connectivity, channels, contacts and labels need contact (reach 0);
    a spacing rule sees gaps up to ``value - 1``, an enclosure rule
    neighbours up to ``value`` away.  2 λ for the NMOS rules.
    """
    reach = 0
    for rule in technology.rules:
        if rule.kind is RuleKind.MIN_SPACING:
            reach = max(reach, rule.value - 1)
        elif rule.kind is RuleKind.MIN_ENCLOSURE:
            reach = max(reach, rule.value)
    return reach


def build_view(cell: Cell, orientation: Orientation,
               child_view: Callable[[Cell, Orientation], _View],
               collapse_below: int, reach: int) -> _View:
    """The oriented view of ``cell``, over its instances' ``child_view``\\ s.

    A cell whose instances average fewer than ``collapse_below`` rectangles
    is *collapsed* to one own-geometry source, so the analysis artifacts are
    computed directly on its flat view (the composers run the flat engines'
    own loops on a one-source view): tiling arrays of tiny cells (ROM/PLA bit
    cells, register slices) abut everywhere, so composition would be all
    interface pass and no reuse.  The collapsed artifact still composes into
    *its* parents, which is where the big instances-per-unique-cell reuse
    lives.  A composed view holds its instances' lists by reference and
    marks which instances are isolated at ``reach``
    (:func:`interaction_reach`).
    """
    transform = Transform(orientation, _ORIGIN)
    identity = orientation is Orientation.R0

    # The cell's own geometry, as a one-source view of its own.
    own = _View(cell.name)
    own_rects: Dict[str, List[Rect]] = {}
    for shape in cell.shapes:
        if not identity:
            shape = shape.transformed(transform)
        own_rects.setdefault(shape.layer, []).extend(shape.as_rects())
        box = shape.bbox
        own.bbox = box if own.bbox is None else own.bbox.union(box)
        own.shape_count += 1
        if isinstance(shape.geometry, Path):
            own.path_length += shape.geometry.length
    own.rects = {layer: _Blocks.of(rects) for layer, rects in own_rects.items()}
    own.labels = (list(cell.labels) if identity
                  else [label.transformed(transform) for label in cell.labels])
    own.sources = [_OwnSource(own)]
    own.label_offsets = [0, len(own.labels)]
    if not cell.instances:
        return own

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
        view.rects[layer] = _Blocks([
            _NO_RECTS if rects is None else rects.moved(source.dx, source.dy)
            for source in sources
            for rects in (source.view.rects.get(layer),)])
    for source in sources:
        if source.dx or source.dy:
            view.labels.extend(label.translated(source.dx, source.dy)
                               for label in source.view.labels)
        else:
            view.labels.extend(source.view.labels)
        view.label_offsets.append(len(view.labels))
    view.shape_count = sum(source.view.shape_count for source in sources)
    view.path_length = sum(source.view.path_length for source in sources)
    view.bbox = _union_all(source.bbox() for source in sources)

    instance_count = len(sources) - 1
    child_rects = sum(len(rects) - rects.starts[1]
                      for rects in view.rects.values())
    if child_rects < collapse_below * instance_count:
        view.rects = {layer: _Blocks.of(_laid_out(
                          run for part in rects.parts for run in part.runs))
                      for layer, rects in view.rects.items()}
        view.sources = [_OwnSource(view)]
        view.label_offsets = [0, len(view.labels)]
        return view
    view.isolated = isolated_sources(view, reach)
    count_sources(view)
    return view


def isolated_sources(view: _View, reach: int) -> List[bool]:
    """Per source of a composed view: is it replayed as one block?

    Instance ``k`` is isolated when no other instance's extent and no own
    rect of any layer comes within ``reach`` of its own extent.  Extents
    span shapes *and* labels, because a label may lie outside its cell's
    shapes: an instance's label landing on foreign geometry, or a foreign
    label on its geometry, makes it an interface instance.  Then no check
    can see across its border, and every composer replays its cached
    results, re-basing ids in bulk.  The cell's own labels do not count:
    their hits are always resolved in this cell, by probing the instances'
    cached indexes, which places nothing.  The own source is never
    isolated.
    """
    sources = view.sources
    extents = [None] + [source.extent() for source in sources[1:]]
    near = _BoxIndex.of_boxes(extents, skip_first=True)
    own = sources[0].view
    own_indexes = [own.index(layer) for layer, rects in own.rects.items()
                   if rects]
    isolated = [False]
    for k in range(1, len(sources)):
        box = extents[k]
        isolated.append(box is None or (
            near.near(box, margin=reach) == [k]
            and not any(index.query(box, margin=reach)
                        for index in own_indexes)))
    return isolated


def count_sources(view: _View) -> None:
    """Add one composable build's replayed and interface instances to the
    ``hier.compose.replayed`` / ``hier.compose.interface`` counters."""
    replayed = sum(view.isolated)
    obs_metrics.counter("hier.compose.replayed").inc(replayed)
    obs_metrics.counter("hier.compose.interface").inc(
        len(view.sources) - 1 - replayed)


def compose_areas(view: _View,
                  child_areas: Sequence[Optional[Dict[str, int]]]
                  ) -> Dict[str, int]:
    """Per-layer merged mask areas, identical to the flat computation.

    Merged area is additive across sources whose layer bounding boxes share
    no interior with any other source's (abutting edges have measure zero):
    those add their own cached area.  The sources whose extents genuinely
    overlap are swept together.
    """
    sources = view.sources
    if len(sources) > 1:
        count_sources(view)
    areas: Dict[str, int] = {}
    for layer, rects in view.rects.items():
        boxes = [source.layer_bbox(layer) for source in sources]
        box_index = _BoxIndex.of_boxes(boxes)
        total = 0
        overlapping: List[int] = []
        for k, box in enumerate(boxes):
            if box is None:
                continue
            if box_index.near(box, strict=True) != [k]:
                overlapping.append(k)
            elif k:
                total += child_areas[k].get(layer, 0)
            else:
                total += merged_area(rects.part(0))
        if overlapping:
            total += merged_area(rect for k in overlapping
                                 for rect in rects.part(k))
        areas[layer] = total
    return areas


# -- shared component composition ---------------------------------------------


def _cross_block_pairs(items: _Blocks,
                       block_indexes: Sequence[Optional[SpatialIndex]],
                       block_moves: Sequence[Tuple[int, int]],
                       block_bboxes: Sequence[Optional[Rect]],
                       isolated: Sequence[bool]
                       ) -> List[Tuple[int, int, int, int]]:
    """Touching pairs ``(i, ci, j, cj)`` that span two blocks ``i < j``.

    Blocks whose bboxes touch are found by a box index over the blocks that
    are not isolated (an isolated block touches nothing); for every rect of
    block *i* near block *j*'s bbox, block *j* is probed with that rect.
    Touching is intrinsic to the pair, so the result is exactly the set of
    cross-block edges of the global touching graph.
    """
    boxes = _BoxIndex.of_boxes([None if isolated[k] else box
                                for k, box in enumerate(block_bboxes)])
    pairs: List[Tuple[int, int, int, int]] = []
    for i in boxes.ids:
        dx_i, dy_i = block_moves[i]
        part_i: Optional[Sequence[Rect]] = None
        for j in boxes.near(block_bboxes[i]):
            if j <= i:
                continue
            if part_i is None:
                part_i = items.part(i)
            dx_j, dy_j = block_moves[j]
            index_j = block_indexes[j]
            for ci in block_indexes[i].query(
                    block_bboxes[j].translated(-dx_i, -dy_i)):
                local = part_i[ci].translated(-dx_j, -dy_j)
                for cj in index_j.query(local):
                    pairs.append((i, ci, j, cj))
    return pairs


def compose_components(items: _Blocks,
                       block_comps: Sequence[Sequence[Sequence[int]]],
                       block_indexes: Sequence[Optional[SpatialIndex]],
                       block_moves: Sequence[Tuple[int, int]],
                       block_bboxes: Sequence[Optional[Rect]],
                       isolated: Sequence[bool]
                       ) -> Tuple[List[List[int]], List[List[int]], bool]:
    """Touching-closure partition of ``items`` from per-block partitions.

    Returns the components (ordered by smallest member, as the flat
    all-pairs partition is), those of them over the blocks that are not
    isolated, and whether any edge crossed two blocks.  With no cross-block
    edge the global partition is the concatenation of the block partitions
    in block order (own ids precede every instance block, so smallest-member
    order holds).  Otherwise the blocks that are not isolated replay their
    partitions into one union-find with the cross edges on top (replayed
    unions are always valid: rect existence and touching are intrinsic, so
    the closure equals the flat one), and each isolated block's partition is
    spliced in, re-based, at its place in smallest-member order.  ``items``
    has one block per partition; ``block_indexes`` may be ``None`` for
    isolated blocks.
    """
    offsets = items.starts
    cross_pairs = (_cross_block_pairs(items, block_indexes, block_moves,
                                      block_bboxes, isolated)
                   if len(block_comps) > 1 else [])
    interface = [k for k in range(len(block_comps)) if not isolated[k]]
    if not cross_pairs:
        components = _rebased(offsets, block_comps, range(len(block_comps)))
        if len(interface) < len(block_comps):
            return components, _rebased(offsets, block_comps, interface), False
        return components, components, False
    # Union-find ids: the interface blocks' items, packed in block order
    # (the global ids themselves when no block is isolated).
    to_global: Optional[List[int]] = None
    shift: Sequence[int] = offsets
    if len(interface) < len(block_comps):
        to_global, shift = [], [0] * len(block_comps)
        for k in interface:
            shift[k] = len(to_global)
            to_global.extend(range(offsets[k], offsets[k + 1]))
    finder = UnionFind(len(items) if to_global is None else len(to_global))
    union = finder.union
    for k in interface:
        base = shift[k]
        for comp in block_comps[k]:
            for first, second in zip(comp, comp[1:]):
                union(base + first, base + second)
    for i, ci, j, cj in cross_pairs:
        union(shift[i] + ci, shift[j] + cj)
    if to_global is None:
        components = finder.components()
        return components, components, True
    joined = [[to_global[member] for member in comp]
              for comp in finder.components()]
    components = []
    position = 0
    for k in range(len(block_comps)):
        if isolated[k]:
            components.extend(_rebased(offsets, block_comps, (k,)))
            continue
        end = offsets[k + 1]
        while position < len(joined) and joined[position][0] < end:
            components.append(joined[position])
            position += 1
    return components, joined, True


def _rebased(offsets: Sequence[int],
             block_comps: Sequence[Sequence[Sequence[int]]],
             blocks: Iterable[int]) -> List[List[int]]:
    """The partitions of ``blocks``, concatenated under their id offsets."""
    components: List[List[int]] = []
    for k in blocks:
        offset = offsets[k]
        if offset:
            components.extend([m + offset for m in comp]
                              for comp in block_comps[k])
        else:
            components.extend(list(comp) for comp in block_comps[k])
    return components
