"""Hierarchical incremental DRC / extraction / metrics.

The flat engines (:class:`repro.drc.checker.DrcChecker`,
:class:`repro.extract.extractor.Extractor`) flatten the whole hierarchy and
examine every rectangle of every instance.  This module analyzes each
*unique* cell once and composes whole-chip results from the cached per-cell
artifacts, so repeated instances cost id bookkeeping instead of geometry
work.  The composed output is **byte-identical** to the flat reference —
violation objects, netlist node names, transistor order, metrics — which the
differential suite in ``tests/test_hier_golden.py`` pins against the
all-pairs oracles in :mod:`repro.reference`.

Three ideas make exact composition possible:

1.  **Orientation-keyed artifacts.**  Artifacts are cached per
    ``(cell, mutation_version, orientation)`` and built in the instance's
    *oriented frame* (the cell's flat geometry transformed by the placement
    orientation about the origin).  Composition into the parent is then a
    pure translation — and translation commutes with every geometric
    operation the engines perform, including order-sensitive ones like
    :meth:`Rect.subtract` piece enumeration and path-to-rectangle
    decomposition of odd-width wires, which do *not* commute with mirrors
    and rotations.

2.  **Offset id maps.**  A parent's flat rectangle list per layer is the
    concatenation of its own geometry and each instance's oriented list,
    in order.  Child element ids therefore map to parent ids by block
    offsets, and cached per-element verdicts (violations, channel
    crossings, contact hits, ...) are replayed by translating their
    locations and re-basing their ids.

3.  **Halo interface pass.**  A cached verdict is only invalid if foreign
    geometry enters the element's interaction halo (the rule's reach).
    Elements near another source's geometry are conservatively marked
    *suspect* and recomputed in the parent's context with spatial-index
    queries against every source; over-marking a suspect costs time, never
    correctness, because recomputation always yields the flat answer.

Artifacts live in a content-addressed store (:mod:`repro.store`): keys are
derived from the cell subtree's Merkle content digest plus the orientation,
the technology digest and the composition threshold — never from object
identity — so identical subtrees share artifacts across distinct ``Cell``
objects, across designs, and (with a ``REPRO_STORE`` directory configured)
across *processes*.  Invalidation is automatic and exact: editing any cell
at any depth changes its digest and the digest of every ancestor
(:meth:`repro.layout.cell.Cell._mutated` bumps the transitive mutation
counter that gates the digest memo), so exactly the artifacts that depend
on the edit are rebuilt and every other key keeps hitting.

Two layers of kinds share that store.  The *composable artifacts* (``view``,
``drc``, ``extract``, ``areas``) are what a parent cell is built from.  The
*results* (``violations``, ``circuit``, ``extent``, ``erc``, ``timing``) are
what the five public passes return: a pass reads its result first and
touches a composable artifact only on a miss, so a warm sign-off — by this
analyzer or by a fresh process over the disk tier — loads a handful of
small blobs and no geometry, and node naming runs once per analysed cell.

**Blob layout (key scheme 3).**  In memory every artifact holds plain lists
of :class:`Rect`; pickled, each such list is one integer column
(:func:`repro.geometry.rect.pack_rects`: ``_View.rects``,
``_LayerMerge.inputs`` / ``merged``, ``_ExtractArtifact.diffusion`` /
``channels`` / ``pieces``), because a list of ``Rect`` costs a Python-level
``__getstate__`` call per element and that was ~85 % of every ``dumps``.
A loaded blob therefore shares no ``Rect`` objects between its lists, and
the two composition fast paths that recognise "the child's output *is* its
input" compare by value.  (``crossings`` keeps its per-poly tuples: 12 k
rects on a 64-tile top, ~20 ms of a 0.6 s pass.)

**Builds run with the cyclic collector paused.**  :meth:`HierAnalyzer._artifact`
wraps a *miss* — the build and its put — in :func:`repro.runtime.gc_paused`:
a build allocates ~1 M acyclic objects and frees almost none, so the
collector's ~1 100 runs per incremental sign-off (six of them full, 0.27 s)
found nothing.  Hits, warm passes and disk loads never enter the pause.  Two
extensions were measured and left out: pausing around hits and loads as
well moves the deferred young collection into the warm-from-disk pass
(0.034 → 0.039 s), and never storing the query root's ``drc`` / ``extract``
artifacts saves another 0.10 s and 50 MiB but shifts a full collection into
that same pass (0.036 → 0.063 s) and breaks the "a damaged result is rebuilt
from the intact composable artifact" contract.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.erc.checker import ErcChecker, ErcReport
from repro.drc.checker import (
    DrcViolation,
    enclosure_violation,
    exact_size_violation,
    spacing_violation,
    width_violation,
)
from repro.extract.extractor import (
    ExtractedCircuit,
    apply_label,
    dedupe_nodes,
    emit_transistor,
    resolve_node_names,
    split_by_channels,
)
from repro.geometry.index import SpatialIndex, UnionFind, build_index
from repro.geometry.point import Point
from repro.geometry.rect import Rect, merged_area, pack_rects, unpack_rects
from repro.geometry.path import Path
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.shapes import Label
from repro.layout.stats import CellStatistics, hierarchy_depth
from repro.metrics.report import DesignMetrics, metrics_from_stats
from repro.netlist.switch_sim import SwitchNetwork
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused
from repro.store.artifact import ArtifactStore, default_store
from repro.store.hashing import cell_digest, technology_hash
from repro.technology.rules import RuleKind
from repro.technology.technology import Technology
from repro.timing.parasitics import ParasiticModel, annotate_parasitics
from repro.timing.switch import BlockTiming, SwitchTimingAnalyzer

_ORIGIN = Point(0, 0)

#: Generation of the store-key scheme (:meth:`HierAnalyzer._key`), bumped
#: when a kind's payload changes shape — 2: ``drc`` / ``extract`` artifacts
#: no longer embed their view; 3: rect lists pickle as columns.  Blobs of an
#: older generation are never addressed: they miss and wait for ``gc``,
#: where bumping the store's envelope format would make every one of them an
#: ``STO002`` (fatal under ``REPRO_STRICT=1``).
_KEY_SCHEME = 3


# -- oriented flat views ------------------------------------------------------


class _View:
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
                 "_layer_bboxes", "__weakref__")

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
        self._indexes: Dict[str, SpatialIndex] = {}
        self._layer_bboxes: Dict[str, Optional[Rect]] = {}

    def layer(self, layer: str) -> List[Rect]:
        return self.rects.get(layer, [])

    def index(self, layer: str) -> SpatialIndex:
        index = self._indexes.get(layer)
        if index is None:
            index = build_index(self.layer(layer))
            self._indexes[layer] = index
        return index

    def layer_bbox(self, layer: str) -> Optional[Rect]:
        if layer not in self._layer_bboxes:
            box: Optional[Rect] = None
            for rect in self.layer(layer):
                box = rect if box is None else box.union(rect)
            self._layer_bboxes[layer] = box
        return self._layer_bboxes[layer]

    _TRANSIENT = ("_indexes", "_layer_bboxes", "__weakref__")

    # Views are pickled into the disk store: rect lists as columns
    # (:func:`pack_rects`); the lazily built spatial indexes are cheap to
    # rebuild and stay behind.
    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__
                 if slot not in self._TRANSIENT}
        state["rects"] = {layer: pack_rects(rects)
                          for layer, rects in self.rects.items()}
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self.rects = {layer: unpack_rects(packed)
                      for layer, packed in state["rects"].items()}
        self._indexes = {}
        self._layer_bboxes = {}


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

    def bbox(self) -> Optional[Rect]:
        box = self.view.bbox
        if box is None:
            return None
        return box.translated(self.dx, self.dy) if (self.dx or self.dy) else box

    def global_rect(self, layer: str, local_id: int) -> Rect:
        rect = self.view.layer(layer)[local_id]
        return rect.translated(self.dx, self.dy) if (self.dx or self.dy) else rect


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


def _moved_viol(viol: DrcViolation, dx: int, dy: int) -> DrcViolation:
    if not (dx or dy):
        return viol
    return DrcViolation(viol.rule_name, viol.kind, viol.layers, viol.required,
                        viol.actual, viol.location.translated(dx, dy))


def _chain(finder: UnionFind, ids: Sequence[int]) -> None:
    for first, second in zip(ids, ids[1:]):
        finder.union(first, second)


def _source_of(offsets: Sequence[int], gid: int) -> int:
    return bisect_right(offsets, gid) - 1


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


class _StoredSlots:
    """Pickled form of a slotted artifact, as the disk store writes it.

    ``_TRANSIENT`` slots (lazily built indexes, cheap to rebuild) stay
    behind and come back ``None``; ``_RECT_LISTS`` slots travel as integer
    columns (:func:`pack_rects`) and come back as fresh lists of ``Rect``.
    """

    __slots__ = ()
    _TRANSIENT: Tuple[str, ...] = ()
    _RECT_LISTS: Tuple[str, ...] = ()

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__
                 if slot not in self._TRANSIENT}
        for slot in self._RECT_LISTS:
            state[slot] = pack_rects(state[slot])
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        for slot in self._RECT_LISTS:
            setattr(self, slot, unpack_rects(state[slot]))
        for slot in self._TRANSIENT:
            setattr(self, slot, None)


# -- per-layer merge artifact (DRC width/spacing run on merged regions) -------


class _LayerMerge(_StoredSlots):
    """The composed ``_merge_touching`` result of one layer.

    ``inputs`` is the non-degenerate rectangle list in flat order (the merge
    operates on filtered rects), ``components`` its touching-closure
    partition, ``merged`` the merge output in flat order.  ``child_maps[k]``
    re-bases instance ``k``'s merged ids into this cell's merged id space
    (-1 where the child component was merged across sources and its output
    no longer exists as such).
    """

    __slots__ = ("inputs", "offsets", "components", "comp_of_input",
                 "comp_slices", "comp_source", "merged", "merged_source",
                 "child_maps", "block_bboxes", "_input_index", "_merged_index",
                 "_bbox", "_box_index")

    def __init__(self) -> None:
        self.inputs: List[Rect] = []
        self.offsets: List[int] = [0]
        self.components: List[List[int]] = []
        self.comp_of_input: List[int] = []
        self.comp_slices: List[Tuple[int, int]] = []
        self.comp_source: List[int] = []
        self.merged: List[Rect] = []
        self.merged_source: List[int] = []
        self.child_maps: List[Optional[List[int]]] = []
        # Per-source bbox of that source's merge inputs, in this cell's
        # frame (None for empty blocks) — the prefilter for interface probes.
        self.block_bboxes: List[Optional[Rect]] = []
        self._input_index: Optional[SpatialIndex] = None
        self._merged_index: Optional[SpatialIndex] = None
        self._bbox: Optional[Tuple[Optional[Rect]]] = None
        self._box_index: Optional["_BoxIndex"] = None

    def box_index(self) -> "_BoxIndex":
        """Index over instance-block bboxes (own block excluded)."""
        if self._box_index is None:
            self._box_index = _BoxIndex(self.block_bboxes, skip_first=True)
        return self._box_index

    def input_index(self) -> SpatialIndex:
        if self._input_index is None:
            self._input_index = build_index(self.inputs)
        return self._input_index

    def merged_index(self) -> SpatialIndex:
        if self._merged_index is None:
            self._merged_index = build_index(self.merged)
        return self._merged_index

    def bbox(self) -> Optional[Rect]:
        if self._bbox is None:
            box: Optional[Rect] = None
            for rect in self.inputs:
                box = rect if box is None else box.union(rect)
            self._bbox = (box,)
        return self._bbox[0]

    _TRANSIENT = ("_input_index", "_merged_index", "_bbox", "_box_index")
    _RECT_LISTS = ("inputs", "merged")


class _DrcArtifact:
    """Cached DRC result of one (cell, orientation): merges + id'd verdicts.

    Like :class:`_ExtractArtifact` it holds no reference to the cell's
    :class:`_View`: the view is stored (and pickled) once, under its own key.
    """

    __slots__ = ("merges", "viols")

    def __init__(self) -> None:
        self.merges: Dict[str, _LayerMerge] = {}
        # Per rule index: list of ((element ids...), violation), in the flat
        # checker's emission order for that rule.
        self.viols: List[List[Tuple[Tuple[int, ...], DrcViolation]]] = []


# -- extraction artifact ------------------------------------------------------


class _ExtractArtifact(_StoredSlots):
    """Cached extraction structure of one (cell, orientation).

    Holds everything the flat pipeline derives from geometry *before* node
    naming: channels, diffusion pieces, same-layer connectivity, contact and
    label resolutions, per-channel device data.  Node naming and port
    declaration are global (anonymous names follow the whole-chip group
    order), so they cannot be *composed* from the children's: they run once
    per analysed cell, in :meth:`HierAnalyzer._finish_extract` — linear,
    query-free work whose result is cached as the ``circuit`` kind.
    """

    __slots__ = ("diffusion", "diff_offsets", "crossings",
                 "chan_of_poly", "channels", "chan_x_diff", "pieces",
                 "piece_slices", "piece_edges", "poly_comps", "metal_comps",
                 "contact_touch", "buried_touch", "label_hits", "gates",
                 "terminals", "depletion", "_diff_index", "_piece_index")

    def __init__(self) -> None:
        self.diffusion: List[Rect] = []
        self.diff_offsets: List[int] = [0]     # per (layer, source) blocks
        # Per poly rect: [(global diffusion id, overlap, covered)] ascending.
        self.crossings: List[List[Tuple[int, Rect, bool]]] = []
        # Per poly rect: channel id per crossing (-1 where buried-covered).
        self.chan_of_poly: List[List[int]] = []
        self.channels: List[Rect] = []
        self.chan_x_diff: List[List[int]] = []  # per diffusion id, ascending
        self.pieces: List[Rect] = []
        self.piece_slices: List[Tuple[int, int]] = []
        self.piece_edges: List[Tuple[int, int]] = []
        self.poly_comps: List[List[int]] = []
        self.metal_comps: List[List[int]] = []
        self.contact_touch: List[List[int]] = []
        self.buried_touch: List[List[int]] = []
        self.label_hits: List[List[int]] = []
        self.gates: List[Optional[int]] = []
        self.terminals: List[List[int]] = []
        self.depletion: List[bool] = []
        self._diff_index: Optional[SpatialIndex] = None
        self._piece_index: Optional[SpatialIndex] = None

    def diff_index(self) -> SpatialIndex:
        if self._diff_index is None:
            self._diff_index = build_index(self.diffusion)
        return self._diff_index

    def piece_index(self) -> SpatialIndex:
        if self._piece_index is None:
            self._piece_index = build_index(self.pieces)
        return self._piece_index

    _TRANSIENT = ("_diff_index", "_piece_index")
    _RECT_LISTS = ("diffusion", "channels", "pieces")


# -- the analyzer -------------------------------------------------------------


class HierAnalyzer:
    """Hierarchical, caching DRC / extraction / metrics engine.

    One analyzer keys its artifacts by design *content* for one technology;
    reuse the same instance across calls (and across designs sharing
    cells — even independently rebuilt identical cells) to benefit from
    caching.  Results are byte-identical to
    ``DrcChecker(technology).check``, ``Extractor(technology).extract`` and
    ``measure_cell``; all five passes (:meth:`drc`, :meth:`extract`,
    :meth:`measure`, :meth:`timing`, :meth:`erc`) cache what they return
    under the content key, and the objects they return are shared.

    ``store`` is the :class:`repro.store.ArtifactStore` the artifacts live
    in; by default a fresh in-memory LRU, tiered over a durable on-disk
    store when the ``REPRO_STORE`` directory is configured — which is what
    makes warm starts survive process restarts.  Pass one store to several
    analyzers (or rely on a shared ``REPRO_STORE``) to share artifacts
    between them.
    """

    #: Kinds whose payloads embed the cell's *name*
    #: (``ExtractedCircuit.cell_name``, ``ErcReport.name``,
    #: ``BlockTiming.name``): their store keys append the name so a renamed
    #: cell gets a correctly-named result, while the name-free geometric
    #: kinds stay fully rename-invariant.
    _NAME_KINDS = frozenset({"circuit", "erc", "timing"})

    #: Every kind :meth:`_artifact` caches, with the trace category of its
    #: ``hier.build.<kind>`` span: the flat engine the build belongs to, so
    #: per-category folds attribute it there.  ``drc`` and ``extract`` are
    #: the *composable* artifacts a parent cell is built from; the other
    #: five are the *results* the public passes return.
    _BUILD_SPAN_CAT = {"drc": "drc", "extract": "extract",
                       "violations": "drc", "circuit": "extract",
                       "erc": "erc", "timing": "sta", "extent": "hier"}

    def __init__(self, technology: Technology, direct_threshold: int = 96,
                 store: Optional[ArtifactStore] = None):
        self.technology = technology
        # Cells whose instances average fewer rectangles than this are
        # analyzed directly on their flat view instead of composed from
        # per-instance artifacts: tiling arrays of tiny cells (ROM/PLA bit
        # cells, register slices) abut everywhere, so composition would be
        # all interface pass and no reuse.  The direct artifact is still
        # cached and composed into *its* parents, which is where the big
        # instances-per-unique-cell reuse lives.
        self.direct_threshold = direct_threshold
        self._diffusion_layers = [
            name for name in ("diffusion", "active") if technology.has_layer(name)
        ]
        # Layers whose rules run on merged regions.
        self._merge_layers: List[str] = []
        seen: Set[str] = set()
        for rule in technology.rules:
            layers: Tuple[str, ...] = ()
            if rule.kind is RuleKind.MIN_WIDTH:
                layers = (rule.layers[0],)
            elif rule.kind is RuleKind.MIN_SPACING:
                layers = rule.layers
            for layer in layers:
                if layer not in seen:
                    seen.add(layer)
                    self._merge_layers.append(layer)
        self.store = store if store is not None else default_store()
        # The technology digest participates in every store key; one
        # analyzer serves one technology, so compute it once.
        self._tech_hash = technology_hash(technology)
        # Per-cell store-key memo: cell -> [subtree_version, {(kind,
        # orientation): key}].  Weakly keyed (dead designs drop their
        # memos); on a version mismatch the *old generation's* keys are
        # evicted from the store's memory tier before the memo resets, so
        # editing a cell N times retains one artifact generation, not N.
        self._keys: ("weakref.WeakKeyDictionary"
                     "[Cell, List]")
        self._keys = weakref.WeakKeyDictionary()
        self.stats = {"views": 0}
        for kind in self._BUILD_SPAN_CAT:
            self.stats[f"{kind}_artifacts"] = self.stats[f"{kind}_hits"] = 0

    # -- public API ---------------------------------------------------------

    def drc(self, cell: Cell) -> List[DrcViolation]:
        """All design-rule violations, identical to the flat checker's list.

        The cached result is a tuple; every call returns a fresh ``list`` of
        it, so a caller may sort or extend what it gets.
        """
        with obs_trace.span("hier.drc", cat="hier", cell=cell.name):
            return list(self._artifact("violations", cell, Orientation.R0,
                                       self._build_violations))

    def _build_violations(self, cell: Cell, orientation: Orientation
                          ) -> Tuple[DrcViolation, ...]:
        artifact = self._drc_artifact(cell, orientation)
        return tuple(viol for rule_viols in artifact.viols
                     for _ids, viol in rule_viols)

    def extract(self, cell: Cell) -> ExtractedCircuit:
        """Extracted netlist, identical to the flat extractor's output.

        Cached per cell version like :meth:`timing` and :meth:`erc`, and like
        theirs the returned object is **shared and read-only**: every caller
        (and the timing and ERC builds) gets the same ``ExtractedCircuit``.
        """
        with obs_trace.span("hier.extract", cat="hier", cell=cell.name):
            return self._circuit(cell, Orientation.R0)

    def _circuit(self, cell: Cell, orientation: Orientation) -> ExtractedCircuit:
        return self._artifact("circuit", cell, orientation,
                              self._finish_extract)

    def timing(self, cell: Cell) -> BlockTiming:
        """Static timing of the cell's extracted circuit, cached per cell.

        Artifacts are keyed by ``(content digest, orientation)`` exactly
        like the DRC/extraction artifacts: re-timing after an edit
        recomputes only the mutated cell and its ancestors (every other
        cell's artifact is a cache hit, visible in ``stats``), and the
        result is float-identical to a cold run because the analysis is a
        pure function of the (incrementally composed) extracted circuit.
        The returned object is shared and read-only.
        """
        with obs_trace.span("hier.timing", cat="hier", cell=cell.name):
            return self._timing_artifact(cell, Orientation.R0)

    def _artifact(self, kind: str, cell: Cell, orientation: Orientation, build):
        """Get-or-build of one cached kind: store hit, else ``build`` + put.

        Counted in ``stats`` and mirrored into the metrics registry as
        ``hier.<kind>.hits`` / ``hier.<kind>.builds``, so a sign-off's
        ``flow_metrics`` shows which kind missed.
        """
        hit = self._cached(kind, cell, orientation)
        if hit is not None:
            self.stats[f"{kind}_hits"] += 1
            obs_metrics.counter(f"hier.{kind}.hits").inc()
            return hit
        self.stats[f"{kind}_artifacts"] += 1
        obs_metrics.counter(f"hier.{kind}.builds").inc()
        # A miss only: hits, warm passes and disk loads never pause, and a
        # child's build inside its parent's finds the collector already off.
        with gc_paused(), obs_trace.span(
                f"hier.build.{kind}", cat=self._BUILD_SPAN_CAT[kind],
                cell=cell.name, orientation=orientation.name, gc_paused=True):
            return self._store(kind, cell, orientation,
                               build(cell, orientation))

    def _timing_artifact(self, cell: Cell, orientation: Orientation) -> BlockTiming:
        return self._artifact("timing", cell, orientation,
                              self._build_timing_artifact)

    def _build_timing_artifact(self, cell: Cell,
                               orientation: Orientation) -> BlockTiming:
        view = self._view(cell, orientation)
        # Children first: their artifacts are shared across every chip of a
        # family that instantiates the same generator cells (and across
        # repeated placements within one chip).
        for source in view.sources[1:]:
            self._timing_artifact(source.cell, source.orientation)
        return SwitchTimingAnalyzer(self.technology).analyze(
            self._circuit(cell, orientation))

    def erc(self, cell: Cell) -> ErcReport:
        """Electrical rule check of the cell's extracted circuit, cached.

        Artifacts follow the timing pattern: keyed by ``(content digest,
        orientation)``, children prewarmed first so a family of
        chips shares every generator block's report, and the result is a
        pure function of the composed extracted circuit.  The returned
        object is shared and read-only.
        """
        with obs_trace.span("hier.erc", cat="hier", cell=cell.name):
            return self._erc_artifact(cell, Orientation.R0)

    def _erc_artifact(self, cell: Cell, orientation: Orientation) -> ErcReport:
        return self._artifact("erc", cell, orientation,
                              self._build_erc_artifact)

    def _build_erc_artifact(self, cell: Cell,
                            orientation: Orientation) -> ErcReport:
        view = self._view(cell, orientation)
        for source in view.sources[1:]:
            self._erc_artifact(source.cell, source.orientation)
        return ErcChecker().check_circuit(self._circuit(cell, orientation))

    def measure(self, cell: Cell) -> DesignMetrics:
        """Design metrics, identical to :func:`repro.metrics.measure_cell`."""
        with obs_trace.span("hier.measure", cat="hier", cell=cell.name):
            return self._measure(cell)

    def _measure(self, cell: Cell) -> DesignMetrics:
        # The geometric part is cached by content; the hierarchy counts are
        # read off the live cell, because a content digest cannot tell one
        # shared child object from two identical copies and the metrics can.
        bbox, shape_count, path_length = self._artifact(
            "extent", cell, Orientation.R0, self._build_extent)
        distinct_cells = cell.descendants() + [cell]
        stats = CellStatistics(
            name=cell.name,
            bbox_width=0 if bbox is None else bbox.width,
            bbox_height=0 if bbox is None else bbox.height,
            bbox_area=0 if bbox is None else bbox.area,
            flattened_shape_count=shape_count,
            distinct_shape_count=sum(len(c.shapes) for c in distinct_cells),
            distinct_cell_count=len(distinct_cells),
            instance_count=cell.instance_count(),
            hierarchy_depth=hierarchy_depth(cell),
            mask_area_by_layer=self._areas(cell, Orientation.R0),
        )
        return metrics_from_stats(stats, self.technology,
                                  wire_length=path_length)

    def _build_extent(self, cell: Cell, orientation: Orientation
                      ) -> Tuple[Optional[Rect], int, int]:
        view = self._view(cell, orientation)
        return view.bbox, view.shape_count, view.path_length

    # -- oriented views -----------------------------------------------------

    def _key(self, kind: str, cell: Cell, orientation: Orientation) -> str:
        """The store key of one artifact: pure content, no object identity.

        ``kind : key scheme : orientation : cell digest : technology
        digest : composition threshold`` (the threshold shapes the view
        structure, so artifacts built under different thresholds must not
        collide), plus the cell name for the result kinds that embed it.
        Keys are memoized per cell and validated against the transitive
        mutation counter; a mutated cell evicts its previous generation's
        keys from the memory tier on the way through, which bounds the
        store to one live generation per cell however often the design is
        edited.
        """
        version = cell.subtree_version
        memo = self._keys.get(cell)
        if memo is None:
            memo = [version, {}]
            self._keys[cell] = memo
        elif memo[0] != version:
            for stale in memo[1].values():
                self.store.evict(stale)
            memo[0] = version
            memo[1].clear()
        key = memo[1].get((kind, orientation))
        if key is None:
            key = (f"{kind}:{_KEY_SCHEME}:{orientation.name}:"
                   f"{cell_digest(cell)}:{self._tech_hash}:"
                   f"{self.direct_threshold}")
            if kind in self._NAME_KINDS:
                key += ":" + cell.name
            memo[1][(kind, orientation)] = key
        return key

    def _cached(self, kind: str, cell: Cell, orientation: Orientation):
        with obs_trace.span("store.get", cat="store", kind=kind,
                            cell=cell.name) as span:
            value = self.store.get(self._key(kind, cell, orientation))
            span.set(hit=value is not None)
            return value

    def _store(self, kind: str, cell: Cell, orientation: Orientation, value):
        with obs_trace.span("store.put", cat="store", kind=kind,
                            cell=cell.name):
            self.store.put(self._key(kind, cell, orientation), value)
        return value

    def _view(self, cell: Cell, orientation: Orientation) -> _View:
        hit = self._cached("view", cell, orientation)
        if hit is not None:
            return hit
        self.stats["views"] += 1
        transform = Transform(orientation, _ORIGIN)
        identity = orientation is Orientation.R0

        own = _View(cell.name)
        own_bbox: Optional[Rect] = None
        for shape in cell.shapes:
            if not identity:
                shape = shape.transformed(transform)
            own.rects.setdefault(shape.layer, []).extend(shape.as_rects())
            box = shape.bbox
            own_bbox = box if own_bbox is None else own_bbox.union(box)
            own.shape_count += 1
            if isinstance(shape.geometry, Path):
                own.path_length += shape.geometry.length
        own.labels = (list(cell.labels) if identity
                      else [label.transformed(transform) for label in cell.labels])
        own.bbox = own_bbox

        view = _View(cell.name)
        view.sources = [_Source(own, 0, 0, None, None)]
        for instance in cell.instances:
            child_orientation = instance.transform.orientation.then(orientation)
            translation = orientation.apply(instance.transform.translation)
            child = self._view(instance.cell, child_orientation)
            view.sources.append(_Source(child, translation.x, translation.y,
                                        instance.cell, child_orientation))

        layers: List[str] = []
        for source in view.sources:
            for layer in source.view.rects:
                if layer not in layers:
                    layers.append(layer)
        for layer in layers:
            buffer: List[Rect] = []
            offsets = [0]
            for source in view.sources:
                buffer.extend(_translated(source.view.layer(layer),
                                          source.dx, source.dy))
                offsets.append(len(buffer))
            view.rects[layer] = buffer
            view.offsets[layer] = offsets
        for source in view.sources:
            if source.dx or source.dy:
                view.labels.extend(label.translated(source.dx, source.dy)
                                   for label in source.view.labels)
            else:
                view.labels.extend(source.view.labels)
            view.label_offsets.append(len(view.labels))
        view.shape_count = sum(source.view.shape_count for source in view.sources)
        view.path_length = sum(source.view.path_length for source in view.sources)
        bbox: Optional[Rect] = None
        for source in view.sources:
            box = source.bbox()
            if box is not None:
                bbox = box if bbox is None else bbox.union(box)
        view.bbox = bbox

        # Tiling arrays of tiny cells: collapse to one "own" source so the
        # analysis artifacts are computed directly on the flat view (the
        # composition paths treat own geometry exactly like the flat
        # engines).  The collapsed artifact composes into parents normally.
        instance_count = len(view.sources) - 1
        if instance_count:
            child_rects = sum(offs[-1] - offs[1]
                              for offs in view.offsets.values())
            if child_rects < self.direct_threshold * instance_count:
                view.sources = [_OwnSource(view)]
                view.offsets = {layer: [0, len(rects)]
                                for layer, rects in view.rects.items()}
                view.label_offsets = [0, len(view.labels)]
        return self._store("view", cell, orientation, view)

    # -- shared component composition ---------------------------------------

    def _cross_block_pairs(self, offsets: Sequence[int], items: Sequence[Rect],
                           block_indexes: Sequence[SpatialIndex],
                           block_moves: Sequence[Tuple[int, int]],
                           block_bboxes: Sequence[Optional[Rect]]
                           ) -> List[Tuple[int, int]]:
        """Touching pairs that span two blocks, by localized index probes.

        For every rect of block *i* near block *j*'s bbox, block *j* is
        probed with that rect; touching is intrinsic to the pair, so the
        result is exactly the set of cross-block edges of the global
        touching graph.
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

    def _compose_partition(self, count: int, offsets: Sequence[int],
                           block_comps: Sequence[Sequence[Sequence[int]]],
                           cross_pairs: Sequence[Tuple[int, int]]) -> UnionFind:
        """Touching-closure partition from per-block partitions + edges.

        Each block's internal partition is replayed under its id offset and
        the cross-block edges are unioned on top; replayed unions are always
        valid (rect existence and touching are intrinsic), so the closure
        equals the flat all-pairs partition.
        """
        finder = UnionFind(count)
        for block, comps in enumerate(block_comps):
            offset = offsets[block]
            for comp in comps:
                if len(comp) > 1:
                    for first, second in zip(comp, comp[1:]):
                        finder.union(offset + first, offset + second)
        for a, b in cross_pairs:
            finder.union(a, b)
        return finder

    # -- DRC ----------------------------------------------------------------

    def _drc_artifact(self, cell: Cell, orientation: Orientation) -> _DrcArtifact:
        return self._artifact("drc", cell, orientation,
                              self._build_drc_artifact)

    def _build_drc_artifact(self, cell: Cell,
                            orientation: Orientation) -> _DrcArtifact:
        view = self._view(cell, orientation)
        children: List[Optional[_DrcArtifact]] = [None]
        for source in view.sources[1:]:
            children.append(self._drc_artifact(source.cell, source.orientation))

        artifact = _DrcArtifact()
        for layer in self._merge_layers:
            artifact.merges[layer] = self._compose_merge(view, children, layer)

        for rule_index, rule in enumerate(self.technology.rules):
            if rule.kind is RuleKind.MIN_WIDTH:
                composed = self._compose_width(
                    rule, rule_index, view, children,
                    artifact.merges[rule.layers[0]])
            elif rule.kind is RuleKind.MIN_SPACING:
                composed = self._compose_spacing(
                    rule, rule_index, view, children,
                    artifact.merges[rule.layers[0]],
                    artifact.merges[rule.layers[1]])
            elif rule.kind is RuleKind.MIN_ENCLOSURE:
                if self._is_implant(rule.layers[0]):
                    # Device-formation rule: validated by the extractor, as
                    # in the flat checker.
                    composed = []
                else:
                    composed = self._compose_enclosure(rule, rule_index, view,
                                                       children)
            elif rule.kind is RuleKind.EXACT_SIZE:
                composed = self._compose_exact(rule, rule_index, view, children)
            else:
                # MIN_EXTENSION / MIN_OVERLAP: device-formation rules, not
                # checked geometrically (matches the flat checker).
                composed = []
            artifact.viols.append(composed)
        return artifact

    def _is_implant(self, layer_name: str) -> bool:
        layer = self.technology.layers.get(layer_name)
        if layer is None:
            return False
        return layer.purpose.name in ("IMPLANT", "WELL")

    def _compose_merge(self, view: _View, children: Sequence[Optional[_DrcArtifact]],
                       layer: str) -> _LayerMerge:
        merge = _LayerMerge()
        # The filtered list shares the view's rect objects: filtering
        # commutes with translation, so the slice per source equals the
        # child's filtered inputs translated.
        merge.inputs = inputs = [r for r in view.layer(layer)
                                 if not r.is_degenerate]
        block_comps: List[Sequence[Sequence[int]]] = []
        block_indexes: List[SpatialIndex] = []
        block_moves: List[Tuple[int, int]] = []
        block_bboxes: List[Optional[Rect]] = []

        own_count = 0
        raw_offsets = view.offsets.get(layer)
        if raw_offsets is not None:
            own_count = sum(1 for r in view.layer(layer)[:raw_offsets[1]]
                            if not r.is_degenerate)
        own_filtered = inputs[:own_count]
        own_index = build_index(own_filtered)
        merge.offsets.append(own_count)
        block_comps.append(own_index.connected_components())
        block_indexes.append(own_index)
        block_moves.append((0, 0))
        own_box: Optional[Rect] = None
        for rect in own_filtered:
            own_box = rect if own_box is None else own_box.union(rect)
        block_bboxes.append(own_box)

        for k, source in enumerate(view.sources[1:], 1):
            child = children[k].merges[layer]
            merge.offsets.append(merge.offsets[-1] + len(child.inputs))
            block_comps.append(child.components)
            block_indexes.append(child.input_index())
            block_moves.append((source.dx, source.dy))
            box = child.bbox()
            block_bboxes.append(None if box is None
                                else box.translated(source.dx, source.dy))

        merge.block_bboxes = block_bboxes
        cross_pairs = self._cross_block_pairs(merge.offsets, inputs,
                                              block_indexes, block_moves,
                                              block_bboxes)
        if not cross_pairs:
            # No geometry touches across blocks: the global partition is the
            # concatenation of the block partitions, in block order (own ids
            # precede every instance block, so smallest-member order holds).
            self._concat_merge(merge, view, children, layer, block_comps[0])
            return merge
        finder = self._compose_partition(len(inputs), merge.offsets,
                                         block_comps, cross_pairs)
        merge.components = finder.components()
        merge.comp_of_input = [0] * len(inputs)
        merge.child_maps = [None] + [
            [-1] * len(children[k].merges[layer].merged)
            for k in range(1, len(view.sources))
        ]
        offsets = merge.offsets
        for comp_index, comp in enumerate(merge.components):
            for member in comp:
                merge.comp_of_input[member] = comp_index
            src = _source_of(offsets, comp[0])
            single = src >= 1 and comp[-1] < offsets[src + 1]
            start = len(merge.merged)
            if single:
                child = children[src].merges[layer]
                source = view.sources[src]
                child_comp = child.comp_of_input[comp[0] - offsets[src]]
                child_start, child_len = child.comp_slices[child_comp]
                child_map = merge.child_maps[src]
                for position in range(child_len):
                    child_map[child_start + position] = start + position
                if (child_len == 1 and len(comp) == 1
                        and child.merged[child_start] == child.inputs[comp[0] - offsets[src]]):
                    # Singleton component: the merge output is the input
                    # rect, already materialized in this frame.  (Equality,
                    # not identity: a blob loaded from the store does not
                    # share objects between its rect lists.)
                    merge.merged.append(inputs[comp[0]])
                else:
                    merge.merged.extend(_translated(
                        child.merged[child_start:child_start + child_len],
                        source.dx, source.dy))
                merge.comp_source.append(src)
            else:
                group = [inputs[i] for i in comp]
                bounding = group[0]
                for rect in group[1:]:
                    bounding = bounding.union(rect)
                if merged_area(group) == bounding.area:
                    merge.merged.append(bounding)
                else:
                    merge.merged.extend(group)
                merge.comp_source.append(-1)
            length = len(merge.merged) - start
            merge.comp_slices.append((start, length))
            merge.merged_source.extend([merge.comp_source[-1]] * length)
        return merge

    def _concat_merge(self, merge: _LayerMerge, view: _View, children,
                      layer: str, own_comps) -> None:
        """Fill a :class:`_LayerMerge` for a layer with no cross-block edges.

        Every block's cached partition and merge output carries over under
        offset arithmetic; only the cell's own components need the merge
        computation.  This skips the whole union-find replay, which is the
        bulk of composition time for well-separated placements.
        """
        inputs = merge.inputs
        offsets = merge.offsets
        components = merge.components
        merged = merge.merged
        merge.child_maps = [None] * len(view.sources)
        own_comp_of_input = [0] * offsets[1]
        for comp_index, comp in enumerate(own_comps):
            for member in comp:
                own_comp_of_input[member] = comp_index
            start = len(merged)
            if len(comp) == 1:
                merged.append(inputs[comp[0]])
            else:
                group = [inputs[i] for i in comp]
                bounding = group[0]
                for rect in group[1:]:
                    bounding = bounding.union(rect)
                if merged_area(group) == bounding.area:
                    merged.append(bounding)
                else:
                    merged.extend(group)
            length = len(merged) - start
            merge.comp_slices.append((start, length))
            merge.comp_source.append(-1)
            merge.merged_source.extend([-1] * length)
            components.append(list(comp))
        merge.comp_of_input = own_comp_of_input
        for k, source in enumerate(view.sources[1:], 1):
            child = children[k].merges[layer]
            comp_base = len(components)
            offset = offsets[k]
            if offset:
                components.extend([m + offset for m in comp]
                                  for comp in child.components)
            else:
                components.extend(list(comp) for comp in child.components)
            merge.comp_of_input.extend(c + comp_base
                                       for c in child.comp_of_input)
            merged_base = len(merged)
            merged.extend(_translated(child.merged, source.dx, source.dy))
            merge.merged_source.extend([k] * len(child.merged))
            merge.comp_slices.extend((s + merged_base, length)
                                     for s, length in child.comp_slices)
            merge.comp_source.extend([k] * len(child.components))
            merge.child_maps[k] = list(range(merged_base,
                                             merged_base + len(child.merged)))

    def _compose_width(self, rule, rule_index: int, view: _View,
                       children, merge: _LayerMerge):
        out = []
        for k, source in enumerate(view.sources[1:], 1):
            child_map = merge.child_maps[k]
            for ids, viol in children[k].viols[rule_index]:
                gid = child_map[ids[0]]
                if gid >= 0:
                    out.append(((gid,), _moved_viol(viol, source.dx, source.dy)))
        for comp_index, comp_source in enumerate(merge.comp_source):
            if comp_source != -1:
                continue
            start, length = merge.comp_slices[comp_index]
            for gid in range(start, start + length):
                viol = width_violation(rule, merge.merged[gid])
                if viol is not None:
                    out.append(((gid,), viol))
        out.sort(key=lambda entry: entry[0])
        return out

    def _merged_candidates(self, view: _View, children, layer: str,
                           merge: _LayerMerge, new_ids: List[int],
                           new_index: SpatialIndex, rect: Rect,
                           reach: int) -> List[int]:
        """Global merged ids of ``layer`` possibly within ``reach`` of rect."""
        found: List[int] = []
        for k in merge.box_index().near(rect, margin=reach):
            source = view.sources[k]
            child = children[k].merges[layer]
            child_map = merge.child_maps[k]
            local = rect.translated(-source.dx, -source.dy)
            for cid in child.merged_index().query(local, margin=reach):
                gid = child_map[cid]
                if gid >= 0:
                    found.append(gid)
        for position in new_index.query(rect, margin=reach):
            found.append(new_ids[position])
        return found

    def _compose_spacing(self, rule, rule_index: int, view: _View,
                         children, merge_a: _LayerMerge, merge_b: _LayerMerge):
        same_layer = merge_a is merge_b
        reach = rule.value - 1
        out = []
        for k, source in enumerate(view.sources[1:], 1):
            map_a = merge_a.child_maps[k]
            map_b = merge_b.child_maps[k]
            for ids, viol in children[k].viols[rule_index]:
                ga = map_a[ids[0]]
                gb = map_b[ids[1]]
                if ga >= 0 and gb >= 0:
                    out.append(((ga, gb), _moved_viol(viol, source.dx, source.dy)))

        layer_a, layer_b = rule.layers[0], rule.layers[1]
        new_a = [g for g, s in enumerate(merge_a.merged_source) if s == -1]
        new_index_a = build_index([merge_a.merged[g] for g in new_a])
        if same_layer:
            new_b, new_index_b = new_a, new_index_a
        else:
            new_b = [g for g, s in enumerate(merge_b.merged_source) if s == -1]
            new_index_b = build_index([merge_b.merged[g] for g in new_b])

        def suspects(merge_from: _LayerMerge, layer_from: str,
                     merge_other: _LayerMerge, layer_other: str,
                     new_other: List[int]) -> Set[int]:
            """Reused elements of one layer near foreign other-layer stuff."""
            found: Set[int] = set()
            from_index = merge_from.box_index()
            other_boxes = merge_other.block_bboxes
            for j in range(1, len(view.sources)):
                other_box = other_boxes[j]
                if other_box is None:
                    continue
                for k in from_index.near(other_box, margin=reach):
                    if k == j:
                        continue
                    source = view.sources[k]
                    child = children[k].merges[layer_from]
                    child_map = merge_from.child_maps[k]
                    local = other_box.translated(-source.dx, -source.dy)
                    for cid in child.merged_index().query(local, margin=reach):
                        gid = child_map[cid]
                        if gid >= 0:
                            found.add(gid)
            # Near the computed (own / cross-merged) other-layer elements.
            for gid_other in new_other:
                rect = merge_other.merged[gid_other]
                for k in from_index.near(rect, margin=reach):
                    source = view.sources[k]
                    child = children[k].merges[layer_from]
                    child_map = merge_from.child_maps[k]
                    local = rect.translated(-source.dx, -source.dy)
                    for cid in child.merged_index().query(local, margin=reach):
                        gid = child_map[cid]
                        if gid >= 0:
                            found.add(gid)
            return found

        suspects_a = suspects(merge_a, layer_a, merge_b, layer_b, new_b)
        pairs: Set[Tuple[int, int]] = set()

        def collect(a_ids: Iterable[int]) -> None:
            for a in a_ids:
                rect = merge_a.merged[a]
                for b in self._merged_candidates(view, children, layer_b,
                                                 merge_b, new_b, new_index_b,
                                                 rect, reach):
                    if same_layer:
                        if a == b:
                            continue
                        pairs.add((a, b) if a < b else (b, a))
                    else:
                        pairs.add((a, b))

        collect(new_a)
        collect(suspects_a)
        if same_layer:
            pass  # the a-side sweep covered both directions
        else:
            suspects_b = suspects(merge_b, layer_b, merge_a, layer_a, new_a)
            for b in list(new_b) + sorted(suspects_b):
                rect = merge_b.merged[b]
                for a in self._merged_candidates(view, children, layer_a,
                                                 merge_a, new_a, new_index_a,
                                                 rect, reach):
                    pairs.add((a, b))

        for a, b in pairs:
            source_a = merge_a.merged_source[a]
            if source_a != -1 and source_a == merge_b.merged_source[b]:
                continue  # same-instance pair: the child artifact covered it
            viol = spacing_violation(rule, merge_a.merged[a], merge_b.merged[b])
            if viol is not None:
                out.append(((a, b), viol))
        out.sort(key=lambda entry: entry[0])
        return out

    def _compose_enclosure(self, rule, rule_index: int, view: _View, children):
        outer_layer, inner_layer = rule.layers[0], rule.layers[1]
        inner = view.layer(inner_layer)
        inner_offsets = view.offsets.get(inner_layer, [0] * (len(view.sources) + 1))
        margin = rule.value
        suspect: Set[int] = set(range(inner_offsets[0], inner_offsets[1]))

        own_view = view.sources[0].view
        own_outer_index = own_view.index(outer_layer)
        own_outer = own_view.layer(outer_layer)
        inner_boxes: List[Optional[Rect]] = []
        outer_boxes: List[Optional[Rect]] = []
        for source in view.sources:
            for table, layer in ((inner_boxes, inner_layer),
                                 (outer_boxes, outer_layer)):
                box = source.view.layer_bbox(layer)
                table.append(None if box is None
                             else box.translated(source.dx, source.dy))
        for k, source in enumerate(view.sources[1:], 1):
            box_k = inner_boxes[k]
            if box_k is None:
                continue
            offset = inner_offsets[k]
            # Foreign instances' outer geometry.
            for j in range(1, len(view.sources)):
                if j == k:
                    continue
                other_box = outer_boxes[j]
                if other_box is None or box_k.distance_to(other_box) > margin:
                    continue
                for cid in source.probe(inner_layer, other_box, margin=margin):
                    suspect.add(offset + cid)
            # The cell's own outer geometry near this instance.
            if own_outer:
                for oid in own_outer_index.query(box_k, margin=margin):
                    for cid in source.probe(inner_layer, own_outer[oid],
                                            margin=margin):
                        suspect.add(offset + cid)

        out = []
        for k, source in enumerate(view.sources[1:], 1):
            offset = inner_offsets[k]
            for ids, viol in children[k].viols[rule_index]:
                gid = offset + ids[0]
                if gid not in suspect:
                    out.append(((gid,), _moved_viol(viol, source.dx, source.dy)))

        for gid in sorted(suspect):
            rect = inner[gid]
            grown = rect.expanded(margin)
            triggered = False
            nearby: List[Rect] = []
            for k, source in enumerate(view.sources):
                box = outer_boxes[k]
                if box is None or not grown.touches(box):
                    continue
                if not triggered and source.probe(outer_layer, rect, strict=True):
                    triggered = True
                for oid in source.probe(outer_layer, rect, margin=margin):
                    nearby.append(source.global_rect(outer_layer, oid))
            viol = enclosure_violation(rule, rect, nearby, triggered)
            if viol is not None:
                out.append(((gid,), viol))
        out.sort(key=lambda entry: entry[0])
        return out

    def _compose_exact(self, rule, rule_index: int, view: _View, children):
        layer = rule.layers[0]
        offsets = view.offsets.get(layer, [0] * (len(view.sources) + 1))
        out = []
        for k, source in enumerate(view.sources[1:], 1):
            offset = offsets[k]
            for ids, viol in children[k].viols[rule_index]:
                out.append(((offset + ids[0],),
                            _moved_viol(viol, source.dx, source.dy)))
        for gid in range(offsets[0], offsets[1]):
            viol = exact_size_violation(rule, view.layer(layer)[gid])
            if viol is not None:
                out.append(((gid,), viol))
        out.sort(key=lambda entry: entry[0])
        return out

    # -- extraction ---------------------------------------------------------

    def _extract_artifact(self, cell: Cell, orientation: Orientation) -> _ExtractArtifact:
        return self._artifact("extract", cell, orientation,
                              self._build_extract_artifact)

    def _build_extract_artifact(self, cell: Cell, orientation: Orientation
                                ) -> "_ExtractArtifact":
        view = self._view(cell, orientation)
        sources = view.sources
        children: List[Optional[_ExtractArtifact]] = [None]
        for source in sources[1:]:
            children.append(self._extract_artifact(source.cell, source.orientation))
        art = _ExtractArtifact()
        DL = self._diffusion_layers
        own_view = sources[0].view

        src_bbox: List[Optional[Rect]] = [s.bbox() for s in sources]

        # Global diffusion list: layer-major, source blocks within a layer —
        # exactly the flat extractor's `[r for layer in DL for r in rects]`.
        diff_map: List[Optional[List[int]]] = [None] + [
            [0] * len(children[k].diffusion) for k in range(1, len(sources))
        ]
        own_diff_ids: List[int] = []
        child_layer_counts = [None] + [
            [len(sources[k].view.layer(layer)) for layer in DL]
            for k in range(1, len(sources))
        ]
        for layer_pos, layer in enumerate(DL):
            # The concat shares the view's already-materialized rect lists.
            rects = view.layer(layer)
            offs = view.offsets.get(layer, [0] * (len(sources) + 1))
            base = len(art.diffusion)
            art.diffusion.extend(rects)
            for k in range(len(sources)):
                art.diff_offsets.append(base + offs[k + 1])
                if k == 0:
                    own_diff_ids.extend(range(base, base + offs[1]))
                else:
                    # Child diffusion ids are layer-major too; re-base this
                    # layer's block.
                    child_start = sum(child_layer_counts[k][:layer_pos])
                    start = base + offs[k]
                    cmap = diff_map[k]
                    for position in range(offs[k + 1] - offs[k]):
                        cmap[child_start + position] = start + position

        poly = view.layer("poly")
        poly_offsets = view.offsets.get("poly", [0] * (len(sources) + 1))
        metal = view.layer("metal")
        metal_offsets = view.offsets.get("metal", [0] * (len(sources) + 1))

        # --- stage 1: channels (poly x diffusion minus buried) -------------
        def layer_boxes(layer: str) -> List[Optional[Rect]]:
            boxes: List[Optional[Rect]] = []
            for source in sources:
                box = source.view.layer_bbox(layer)
                boxes.append(None if box is None
                             else box.translated(source.dx, source.dy))
            return boxes

        diff_boxes: List[Optional[Rect]] = []
        for source in sources:
            diff_box: Optional[Rect] = None
            for layer in DL:
                box = source.view.layer_bbox(layer)
                if box is not None:
                    diff_box = box if diff_box is None else diff_box.union(box)
            diff_boxes.append(None if diff_box is None
                              else diff_box.translated(source.dx, source.dy))
        poly_boxes = layer_boxes("poly")
        metal_boxes = layer_boxes("metal")
        buried_boxes = layer_boxes("buried")
        implant_boxes = layer_boxes("implant")
        diff_box_index = _BoxIndex(diff_boxes)
        child_diff_box_index = _BoxIndex(diff_boxes, skip_first=True)
        poly_box_index = _BoxIndex(poly_boxes)
        metal_box_index = _BoxIndex(metal_boxes)
        buried_box_index = _BoxIndex(buried_boxes)
        implant_box_index = _BoxIndex(implant_boxes)
        # Channels of an instance lie inside poly ∩ diffusion of that
        # instance; devices reference poly, diffusion pieces and implant.
        chan_boxes: List[Optional[Rect]] = [None]
        device_boxes: List[Optional[Rect]] = [None]
        for k in range(1, len(sources)):
            pb, db, ib = poly_boxes[k], diff_boxes[k], implant_boxes[k]
            chan_boxes.append(None if pb is None or db is None
                              else pb.intersection(db))
            box = pb
            for other in (db, ib):
                if other is not None:
                    box = other if box is None else box.union(other)
            device_boxes.append(box)
        chan_box_index = _BoxIndex(chan_boxes, skip_first=True)
        device_box_index = _BoxIndex(device_boxes, skip_first=True)
        suspect_poly: Set[int] = set(range(poly_offsets[0], poly_offsets[1]))
        for k, source in enumerate(sources[1:], 1):
            box_k = poly_boxes[k]
            if box_k is None:
                continue
            offset = poly_offsets[k]
            for j, other in enumerate(sources):
                if j == k:
                    continue
                diff_box = diff_boxes[j]
                if diff_box is None or not box_k.overlaps(diff_box, strict=True):
                    continue
                for cid in source.probe("poly", diff_box, strict=True):
                    suspect_poly.add(offset + cid)

        def diffusion_candidates(region: Rect, strict: bool) -> List[int]:
            found: List[int] = []
            for k in diff_box_index.near(region, strict=strict):
                source = sources[k]
                for layer_pos, layer in enumerate(DL):
                    block_start = art.diff_offsets[layer_pos * len(sources) + k]
                    for cid in source.probe(layer, region, strict=strict):
                        found.append(block_start + cid)
            found.sort()
            return found

        def buried_covered_global(overlap: Rect) -> bool:
            for k in buried_box_index.near(overlap):
                source = sources[k]
                for cid in source.probe("buried", overlap):
                    if source.global_rect("buried", cid).contains_rect(overlap):
                        return True
            return False
        seen_channels: Dict[Rect, int] = {}
        fresh_channels: Set[int] = set()
        chan_map: List[Optional[List[int]]] = [None] + [
            [-1] * len(children[k].channels) for k in range(1, len(sources))
        ]
        # Per-block interface flags: a block well clear of every other
        # source's relevant geometry skips the per-element checks entirely.
        buried_foreign = [False] * len(sources)
        chan_foreign = [False] * len(sources)
        for k in range(1, len(sources)):
            box = src_bbox[k]
            if box is None:
                continue
            buried_foreign[k] = any(j != k for j in buried_box_index.near(box))
            diff_box = diff_boxes[k]
            if diff_box is not None:
                chan_foreign[k] = any(
                    j != k for j in chan_box_index.near(diff_box, strict=True))

        for src in range(len(sources)):
            source = sources[src]
            child = children[src]
            cmap = diff_map[src]
            check_buried = src == 0 or buried_foreign[src]
            moves = src > 0 and (source.dx or source.dy)
            for p_gid in range(poly_offsets[src], poly_offsets[src + 1]):
                crossings: List[Tuple[int, Rect, bool]] = []
                channel_ids: List[int] = []
                if src == 0 or p_gid in suspect_poly:
                    poly_rect = poly[p_gid]
                    for d_gid in diffusion_candidates(poly_rect, strict=True):
                        overlap = poly_rect.intersection(art.diffusion[d_gid])
                        if overlap is None or overlap.is_degenerate:
                            continue
                        crossings.append((d_gid, overlap,
                                          buried_covered_global(overlap)))
                    reused_from = -1
                else:
                    local_p = p_gid - poly_offsets[src]
                    for d_local, overlap, covered in child.crossings[local_p]:
                        if moves:
                            overlap = overlap.translated(source.dx, source.dy)
                        # The buried-cover verdict can flip if foreign buried
                        # material reaches the crossing.
                        if check_buried and any(
                                j != src for j in buried_box_index.near(overlap)):
                            covered = buried_covered_global(overlap)
                        crossings.append((cmap[d_local], overlap, covered))
                    reused_from = src
                for cross_pos, (d_gid, overlap, covered) in enumerate(crossings):
                    if covered:
                        channel_ids.append(-1)
                        continue
                    cid = seen_channels.get(overlap)
                    if cid is None:
                        cid = len(art.channels)
                        art.channels.append(overlap)
                        seen_channels[overlap] = cid
                    channel_ids.append(cid)
                    if reused_from >= 0:
                        child_cid = child.chan_of_poly[
                            p_gid - poly_offsets[src]][cross_pos]
                        if child_cid >= 0:
                            chan_map[src][child_cid] = cid
                    else:
                        fresh_channels.add(cid)
                art.crossings.append(crossings)
                art.chan_of_poly.append(channel_ids)

        # --- stage 2: split diffusion by crossing channels ------------------
        suspect_diff: Set[int] = set(own_diff_ids)
        for layer_pos in range(len(DL)):
            for src in range(1, len(sources)):
                if not chan_foreign[src]:
                    # Reused channels of other instances lie inside their
                    # poly ∩ diffusion extents, none of which reach this
                    # block; fresh channels are handled below.
                    continue
                block = layer_pos * len(sources) + src
                for d_gid in range(art.diff_offsets[block],
                                   art.diff_offsets[block + 1]):
                    rect = art.diffusion[d_gid]
                    if any(j != src
                           for j in chan_box_index.near(rect, strict=True)):
                        suspect_diff.add(d_gid)
        for cid in fresh_channels:
            for d_gid in diffusion_candidates(art.channels[cid], strict=True):
                suspect_diff.add(d_gid)

        channel_index = build_index(art.channels)
        piece_map: List[Optional[List[int]]] = [None] + [
            [-1] * len(children[k].pieces) for k in range(1, len(sources))
        ]
        for layer_pos in range(len(DL)):
            for src in range(len(sources)):
                block = layer_pos * len(sources) + src
                source = sources[src]
                child = children[src]
                cmap = chan_map[src]
                pmap = piece_map[src]
                local_base = (child_layer_counts[src][:layer_pos]
                              if src else None)
                local_start = sum(local_base) if src else 0
                block_start = art.diff_offsets[block]
                for d_gid in range(block_start, art.diff_offsets[block + 1]):
                    d_rect = art.diffusion[d_gid]
                    if src >= 1 and d_gid not in suspect_diff:
                        d_local = local_start + (d_gid - block_start)
                        child_cross = child.chan_x_diff[d_local]
                        if all(cmap[c] >= 0 for c in child_cross):
                            crossing_ids = sorted(cmap[c] for c in child_cross)
                            start = len(art.pieces)
                            p_start, p_len = child.piece_slices[d_local]
                            if (p_len == 1 and child.pieces[p_start]
                                    == child.diffusion[d_local]):
                                # Unsplit rectangle: the piece is the
                                # diffusion rect, already materialized
                                # in this frame.
                                art.pieces.append(d_rect)
                                pmap[p_start] = start
                            else:
                                art.pieces.extend(_translated(
                                    child.pieces[p_start:p_start + p_len],
                                    source.dx, source.dy))
                                for position in range(p_len):
                                    pmap[p_start + position] = start + position
                            art.piece_slices.append((start, p_len))
                            art.chan_x_diff.append(crossing_ids)
                            continue
                    crossing_ids = channel_index.query(d_rect, strict=True)
                    start = len(art.pieces)
                    art.pieces.extend(split_by_channels(
                        d_rect, [art.channels[i] for i in crossing_ids]))
                    art.piece_slices.append((start, len(art.pieces) - start))
                    art.chan_x_diff.append(list(crossing_ids))

        new_pieces = [g for g in range(len(art.pieces))]
        mapped: Set[int] = set()
        for k in range(1, len(sources)):
            for gid in piece_map[k]:
                if gid >= 0:
                    mapped.add(gid)
        new_pieces = [g for g in new_pieces if g not in mapped]
        new_piece_rects = [art.pieces[g] for g in new_pieces]
        new_piece_index = build_index(new_piece_rects)

        def piece_candidates(region: Rect, strict: bool = False) -> List[int]:
            found: List[int] = []
            for k in child_diff_box_index.near(region, strict=strict):
                child = children[k]
                if not child.pieces:
                    continue
                source = sources[k]
                pmap = piece_map[k]
                local = region.translated(-source.dx, -source.dy)
                for cid in child.piece_index().query(local, strict=strict):
                    gid = pmap[cid]
                    if gid >= 0:
                        found.append(gid)
            for position in new_piece_index.query(region, strict=strict):
                found.append(new_pieces[position])
            found.sort()
            return found

        # --- stage 3: same-layer connectivity -------------------------------
        edge_set: Set[Tuple[int, int]] = set()
        for k, source in enumerate(sources[1:], 1):
            pmap = piece_map[k]
            for i, j in children[k].piece_edges:
                gi, gj = pmap[i], pmap[j]
                if gi >= 0 and gj >= 0:
                    edge_set.add((gi, gj) if gi < gj else (gj, gi))
        for gid in new_pieces:
            rect = art.pieces[gid]
            for other in piece_candidates(rect):
                if other != gid:
                    edge_set.add((gid, other) if gid < other else (other, gid))
        # Cross-instance abutments between reused pieces.
        for k in range(1, len(sources)):
            child_k = children[k]
            if not child_k.pieces:
                continue
            pmap_k = piece_map[k]
            source_k = sources[k]
            for j in range(k + 1, len(sources)):
                child_j = children[j]
                if not child_j.pieces:
                    continue
                box_j = src_bbox[j]
                box_k = src_bbox[k]
                if box_j is None or box_k is None or not box_k.touches(box_j):
                    continue
                pmap_j = piece_map[j]
                source_j = sources[j]
                local_k = box_j.translated(-source_k.dx, -source_k.dy)
                for ck in child_k.piece_index().query(local_k):
                    gk = pmap_k[ck]
                    if gk < 0:
                        continue
                    rect = art.pieces[gk]
                    local_j = rect.translated(-source_j.dx, -source_j.dy)
                    for cj in child_j.piece_index().query(local_j):
                        gj = pmap_j[cj]
                        if gj >= 0:
                            edge_set.add((gk, gj) if gk < gj else (gj, gk))
        art.piece_edges = sorted(edge_set)

        art.poly_comps = self._compose_layer_components(view, "poly",
                                                        [c.poly_comps if c else None
                                                         for c in children])
        art.metal_comps = self._compose_layer_components(view, "metal",
                                                        [c.metal_comps if c else None
                                                         for c in children])

        # --- stage 4: contacts, buried straps, labels -----------------------
        P = len(art.pieces)
        Y = len(poly)
        metal_start = P + Y

        def map_item(k: int, item: int) -> int:
            child = children[k]
            child_pieces = len(child.pieces)
            if item < child_pieces:
                return piece_map[k][item]
            child_poly = len(sources[k].view.layer("poly"))
            if item < child_pieces + child_poly:
                return P + poly_offsets[k] + (item - child_pieces)
            return (metal_start + metal_offsets[k]
                    + (item - child_pieces - child_poly))

        def conducting_candidates(region: Rect, strict: bool = False,
                                  include_metal: bool = True) -> List[int]:
            found = piece_candidates(region, strict=strict)
            for k in poly_box_index.near(region, strict=strict):
                source = sources[k]
                base = P + poly_offsets[k]
                for cid in source.probe("poly", region, strict=strict):
                    found.append(base + cid)
            if include_metal:
                for k in metal_box_index.near(region, strict=strict):
                    source = sources[k]
                    base = metal_start + metal_offsets[k]
                    for cid in source.probe("metal", region, strict=strict):
                        found.append(base + cid)
            found.sort()
            return found

        own_cond_layers = [layer for layer in (DL + ["poly", "metal"])
                          if own_view.layer(layer)]

        def compose_touch(layer: str, strict: bool, include_metal: bool):
            rects = view.layer(layer)
            offsets = view.offsets.get(layer, [0] * (len(sources) + 1))
            suspect: Set[int] = set(range(offsets[0], offsets[1]))
            for k, source in enumerate(sources[1:], 1):
                if not source.view.layer(layer):
                    continue
                box_k = src_bbox[k]
                offset = offsets[k]
                for j, other in enumerate(sources):
                    if j == k:
                        continue
                    if j == 0:
                        # Probe instance-side with the cell's own conducting
                        # rects near this instance.
                        if box_k is None:
                            continue
                        for own_layer in own_cond_layers:
                            own_index = own_view.index(own_layer)
                            own_rects = own_view.layer(own_layer)
                            for oid in own_index.query(box_k):
                                for cid in source.probe(layer, own_rects[oid],
                                                        strict=strict):
                                    suspect.add(offset + cid)
                        continue
                    box = src_bbox[j]
                    if box is None or box_k is None or not box_k.touches(box):
                        continue
                    for cid in source.probe(layer, box, strict=strict):
                        suspect.add(offset + cid)
            result: List[List[int]] = []
            for gid, rect in enumerate(rects):
                src = _source_of(offsets, gid)
                if src >= 1 and gid not in suspect:
                    child = children[src]
                    child_touch = (child.contact_touch if layer == "contact"
                                   else child.buried_touch)
                    local = gid - offsets[src]
                    touch = [map_item(src, item) for item in child_touch[local]]
                    if all(g >= 0 for g in touch):
                        result.append(touch)
                        continue
                found = conducting_candidates(rect, strict=strict,
                                              include_metal=include_metal)
                result.append(found)
            return result

        art.contact_touch = compose_touch("contact", strict=False,
                                          include_metal=True)
        art.buried_touch = compose_touch("buried", strict=True,
                                         include_metal=False)

        label_offsets = view.label_offsets
        # Which other sources could a block's labels land on?  Usually none.
        foreign_near = [[j for j in range(len(sources))
                         if j != k and src_bbox[j] is not None
                         and src_bbox[k] is not None
                         and src_bbox[k].touches(src_bbox[j])]
                        for k in range(len(sources))]
        for src in range(len(sources)):
            near = foreign_near[src]
            child = children[src]
            offset = label_offsets[src]
            for l_gid in range(offset, label_offsets[src + 1]):
                label = view.labels[l_gid]
                recompute = src == 0
                if not recompute and near:
                    position = label.position
                    for j in near:
                        if src_bbox[j].contains_point(position):
                            recompute = True
                            break
                hits: Optional[List[int]] = None
                if not recompute:
                    mapped_hits = [map_item(src, item)
                                   for item in child.label_hits[l_gid - offset]]
                    if all(g >= 0 for g in mapped_hits):
                        hits = mapped_hits
                if hits is None:
                    position = label.position
                    probe = Rect(position.x, position.y, position.x, position.y)
                    hits = []
                    for item in conducting_candidates(probe):
                        member_layer = self._item_layer(item, P, metal_start)
                        if label.layer and label.layer != member_layer and not (
                            label.layer in DL and member_layer == "diffusion"
                        ):
                            continue
                        hits.append(item)
                art.label_hits.append(sorted(hits))

        # --- stage 5: per-channel device data -------------------------------
        own_probe_layers = [layer for layer in (DL + ["poly", "implant"])
                           if own_view.layer(layer)]
        reverse_chan: List[int] = [-1] * len(art.channels)
        reverse_local: List[int] = [-1] * len(art.channels)
        for k in range(1, len(sources)):
            cmap = chan_map[k]
            for child_cid, gid in enumerate(cmap):
                if gid >= 0 and reverse_chan[gid] == -1:
                    reverse_chan[gid] = k
                    reverse_local[gid] = child_cid

        def implant_contains(region: Rect) -> bool:
            for k in implant_box_index.near(region):
                source = sources[k]
                for cid in source.probe("implant", region):
                    if source.global_rect("implant", cid).contains_rect(region):
                        return True
            return False

        # Per-block fast path: a block with no foreign device geometry and
        # no own-cell poly/diffusion/implant near it keeps every reused
        # channel's verdicts without any per-channel probing.
        block_isolated = [False] * len(sources)
        for k in range(1, len(sources)):
            box = src_bbox[k]
            if box is None:
                continue
            if any(j != k for j in device_box_index.near(box)):
                continue
            if any(own_view.index(layer).query(box)
                   for layer in own_probe_layers):
                continue
            block_isolated[k] = True

        for cid, channel in enumerate(art.channels):
            src = reverse_chan[cid]
            valid = src >= 1 and cid not in fresh_channels
            if valid and not block_isolated[src]:
                if any(j != src for j in device_box_index.near(channel)):
                    valid = False
                else:
                    # The cell's own poly/diffusion/implant can also supply a
                    # gate, terminal or implant cover; probe precisely (own
                    # extents often span the whole cell).
                    for layer in own_probe_layers:
                        if own_view.index(layer).query(channel):
                            valid = False
                            break
            gate_gid: Optional[int] = None
            terminals: Optional[List[int]] = None
            depletion = False
            if valid:
                child = children[src]
                child_cid = reverse_local[cid]
                child_gate = child.gates[child_cid]
                if child_gate is not None:
                    gate_gid = poly_offsets[src] + child_gate
                pmap = piece_map[src]
                mapped_terms = [pmap[p] for p in child.terminals[child_cid]]
                if all(g >= 0 for g in mapped_terms):
                    terminals = mapped_terms
                    depletion = child.depletion[child_cid]
                else:
                    valid = False
            if not valid:
                gate_gid = None
                candidates: List[int] = []
                for k in poly_box_index.near(channel):
                    source = sources[k]
                    base = poly_offsets[k]
                    for local in source.probe("poly", channel):
                        candidates.append(base + local)
                candidates.sort()
                for candidate in candidates:
                    rect = poly[candidate]
                    if rect.contains_rect(channel) or rect.overlaps(channel, strict=True):
                        gate_gid = candidate
                        break
                terminals = [g for g in piece_candidates(channel)
                             if not art.pieces[g].overlaps(channel, strict=True)]
                depletion = implant_contains(channel)
            art.gates.append(gate_gid)
            art.terminals.append(terminals)
            art.depletion.append(depletion)
        return art

    @staticmethod
    def _item_layer(item: int, pieces_end: int, metal_start: int) -> str:
        if item < pieces_end:
            return "diffusion"
        if item < metal_start:
            return "poly"
        return "metal"

    def _compose_layer_components(self, view: _View, layer: str,
                                  child_comps: Sequence[Optional[List[List[int]]]]
                                  ) -> List[List[int]]:
        rects = view.layer(layer)
        offsets = view.offsets.get(layer, [0] * (len(view.sources) + 1))
        own_view = view.sources[0].view
        own_index = own_view.index(layer)
        block_comps: List[Sequence[Sequence[int]]] = [own_index.connected_components()]
        block_indexes: List[SpatialIndex] = [own_index]
        block_moves: List[Tuple[int, int]] = [(0, 0)]
        block_bboxes: List[Optional[Rect]] = [own_view.layer_bbox(layer)]
        for k, source in enumerate(view.sources[1:], 1):
            block_comps.append(child_comps[k])
            block_indexes.append(source.view.index(layer))
            block_moves.append((source.dx, source.dy))
            box = source.view.layer_bbox(layer)
            block_bboxes.append(None if box is None
                                else box.translated(source.dx, source.dy))
        cross_pairs = self._cross_block_pairs(offsets, rects, block_indexes,
                                              block_moves, block_bboxes)
        if not cross_pairs:
            components: List[List[int]] = [list(c) for c in block_comps[0]]
            for k in range(1, len(view.sources)):
                offset = offsets[k]
                if offset:
                    components.extend([m + offset for m in comp]
                                      for comp in block_comps[k])
                else:
                    components.extend(list(comp) for comp in block_comps[k])
            return components
        finder = self._compose_partition(len(rects), offsets, block_comps,
                                         cross_pairs)
        return finder.components()

    def _finish_extract(self, cell: Cell,
                        orientation: Orientation) -> ExtractedCircuit:
        """Node naming, device emission and port declaration: the ``circuit``.

        Anonymous node names (``n0``, ``n1``, ...) and device names follow
        the analysed cell's own group and channel enumeration, so this stage
        cannot be *composed* from the children's circuits — it is linear,
        query-free bookkeeping over the composed artifact, run once per
        analysed (cell, orientation) and cached like every other result.
        """
        view = self._view(cell, orientation)
        art = self._extract_artifact(cell, orientation)
        P = len(art.pieces)
        Y = len(view.layer("poly"))
        M = len(view.layer("metal"))
        metal_start = P + Y
        finder = UnionFind(P + Y + M)
        for i, j in art.piece_edges:
            finder.union(i, j)
        for comp in art.poly_comps:
            for first, second in zip(comp, comp[1:]):
                finder.union(P + first, P + second)
        for comp in art.metal_comps:
            for first, second in zip(comp, comp[1:]):
                finder.union(metal_start + first, metal_start + second)
        for touching in art.contact_touch:
            _chain(finder, touching)
        for touching in art.buried_touch:
            _chain(finder, touching)

        first_hit: Dict[int, str] = {}
        supply_hit: Dict[int, str] = {}
        for l_gid, label in enumerate(view.labels):
            apply_label(label, art.label_hits[l_gid], finder.find,
                        supply_hit, first_hit)
        groups: Dict[int, List[int]] = {}
        for item in range(P + Y + M):
            groups.setdefault(finder.find(item), []).append(item)
        names, node_of_item = resolve_node_names(groups, supply_hit, first_hit)

        network = SwitchNetwork(cell.name)
        enhancement = depletion = 0
        device_channels: List[Rect] = []
        for cid, channel in enumerate(art.channels):
            gate_gid = art.gates[cid]
            gate_node = None if gate_gid is None else node_of_item[P + gate_gid]
            terminals = dedupe_nodes(art.terminals[cid], node_of_item)
            device = emit_transistor(network, cid, channel, gate_node,
                                     terminals, art.depletion[cid])
            if device is not None:
                device_channels.append(channel)
                if art.depletion[cid]:
                    depletion += 1
                else:
                    enhancement += 1

        from repro.extract.extractor import declare_ports

        declare_ports(network, cell.ports, set(names.values()), view.labels)
        # The item enumeration mirrors the flat extractor's builder items
        # exactly (diffusion pieces, then poly, then metal, same layer
        # names), so the parasitic annotation is identical whenever the
        # netlists are.
        items = ([("diffusion", rect) for rect in art.pieces]
                 + [("poly", rect) for rect in view.layer("poly")]
                 + [("metal", rect) for rect in view.layer("metal")])
        return ExtractedCircuit(
            cell_name=cell.name,
            network=network,
            node_names=sorted(set(names.values())),
            transistor_count=len(network.transistors),
            enhancement_count=enhancement,
            depletion_count=depletion,
            parasitics=annotate_parasitics(
                ParasiticModel(self.technology), items, node_of_item,
                network.transistors, device_channels),
        )

    # -- metrics ------------------------------------------------------------

    def _areas(self, cell: Cell, orientation: Orientation) -> Dict[str, int]:
        """Per-layer merged mask areas, identical to the flat computation.

        Merged area is additive across sources whose layer bounding boxes do
        not share interior (abutting edges have measure zero); where source
        extents genuinely overlap, the layer falls back to a global sweep.
        """
        hit = self._cached("areas", cell, orientation)
        if hit is not None:
            return hit
        view = self._view(cell, orientation)
        child_areas = [None] + [self._areas(s.cell, s.orientation)
                                for s in view.sources[1:]]
        areas: Dict[str, int] = {}
        for layer, rects in view.rects.items():
            boxes = []
            for source in view.sources:
                box = source.view.layer_bbox(layer)
                boxes.append(None if box is None
                             else box.translated(source.dx, source.dy))
            disjoint = True
            for i in range(len(boxes)):
                if boxes[i] is None:
                    continue
                for j in range(i + 1, len(boxes)):
                    if boxes[j] is not None and boxes[i].overlaps(boxes[j], strict=True):
                        disjoint = False
                        break
                if not disjoint:
                    break
            if disjoint:
                total = merged_area(view.sources[0].view.layer(layer))
                for k in range(1, len(view.sources)):
                    total += child_areas[k].get(layer, 0)
                areas[layer] = total
            else:
                areas[layer] = merged_area(rects)
        return self._store("areas", cell, orientation, areas)


# -- convenience wrappers -----------------------------------------------------


def hier_check_cell(cell: Cell, technology: Technology) -> List[DrcViolation]:
    """One-shot hierarchical DRC (build a :class:`HierAnalyzer` to cache)."""
    return HierAnalyzer(technology).drc(cell)


def hier_extract_cell(cell: Cell, technology: Technology) -> ExtractedCircuit:
    """One-shot hierarchical extraction."""
    return HierAnalyzer(technology).extract(cell)


def hier_measure_cell(cell: Cell, technology: Technology) -> DesignMetrics:
    """One-shot hierarchical metrics."""
    return HierAnalyzer(technology).measure(cell)
