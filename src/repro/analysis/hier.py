"""Hierarchical incremental analysis: the scheduler.

The flat engines (:class:`repro.drc.checker.DrcChecker`,
:class:`repro.extract.extractor.Extractor`) flatten the whole hierarchy and
examine every rectangle of every instance.  :class:`HierAnalyzer` analyzes
each *unique* cell once and composes whole-chip results from the cached
per-cell artifacts, so repeated instances cost id bookkeeping instead of
geometry work.  The composed output is **byte-identical** to the flat
reference — violation objects, netlist node names, transistor order,
metrics — which ``tests/test_hier_golden.py`` pins against the all-pairs
oracles in :mod:`repro.reference`.

This module decides *what is built when* and nothing else: one get-or-build
(:meth:`HierAnalyzer._get`) over one table of kinds (:data:`_KINDS`).  The
geometry lives beside the flat engines it must agree with — oriented views
and the collapse rule in :mod:`repro.layout.view`, rule composition in
:mod:`repro.drc.compose`, extraction composition and the circuit finisher in
:mod:`repro.extract.compose` — and those composers receive the technology,
a view and their children's artifacts, never the store.

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

**Builds run with the cyclic collector paused.**  A *miss* — the build and
its put — runs inside :func:`repro.runtime.gc_paused`: a build allocates
~1 M acyclic objects and frees almost none, so the collector's ~1 100 runs
per incremental sign-off (six of them full, 0.27 s) found nothing.  Hits
and warm passes never enter the pause; a disk load pauses only while it
unpickles (:class:`repro.store.DiskStore`), for the same reason — since
composed artifacts hold their instances' lists by reference the process
holds ~40 % fewer objects, and a warm-from-disk pass's unpickled results
then tipped a full collection into it (0.024 → 0.045 s).  Never storing the
query root's ``drc`` / ``extract`` artifacts was measured and left out: it
saved 0.10 s and 50 MiB but shifted a full collection into that same pass
(0.036 → 0.063 s) and breaks the "a damaged result is rebuilt from the
intact composable artifact" contract.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Dict, List, Optional

from repro.drc.checker import DrcViolation
from repro.drc.compose import compose_drc
from repro.erc.checker import ErcChecker, ErcReport
from repro.extract.compose import circuit_of, compose_extract
from repro.extract.extractor import ExtractedCircuit
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.layout.stats import CellStatistics, hierarchy_counts
from repro.layout.view import (_View, build_view, compose_areas,
                               interaction_reach)
from repro.metrics.report import DesignMetrics, metrics_from_stats
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused
from repro.store.artifact import ArtifactStore, default_store
from repro.store.hashing import cell_digest, technology_hash
from repro.technology.technology import Technology
from repro.timing.switch import BlockTiming, SwitchTimingAnalyzer

#: Generation of the store-key scheme (:meth:`HierAnalyzer._key`), bumped
#: when a kind's payload changes shape — 2: ``drc`` / ``extract`` artifacts
#: no longer embed their view; 3: rect lists pickle as integer columns
#: (:class:`repro.layout.view._StoredSlots`); 4: the artifact classes moved
#: module, so an older pickle names classes that no longer exist; 5: composed
#: rect lists are blocks by reference (:class:`repro.layout.view._Blocks`),
#: each distinct child list packed once per blob; 6: ``extract`` artifacts
#: carry their node partition (:class:`repro.extract.extractor.NodePartition`);
#: 7: a ``circuit`` pickles its devices and parasitics as columns; 8: a net
#: several nodes carry sums its nodes' wire sums, so its results' floats moved;
#: 9: an ``erc`` report pickles its findings as columns
#: (:class:`repro.erc.checker.ErcReport`).
#: Blobs of an older generation are never addressed: they miss and wait for
#: ``gc``, where bumping the store's envelope format would make every one of
#: them an ``STO002`` (fatal under ``REPRO_STRICT=1``).
_KEY_SCHEME = 9

#: Cells whose instances average fewer rectangles than this are analyzed
#: directly on their flat view instead of composed from per-instance
#: artifacts (:func:`repro.layout.view.build_view` has the reasoning).  The
#: value shapes the view structure, so it is part of every store key.
_DIRECT_THRESHOLD = 96


# -- the kinds ----------------------------------------------------------------
#
# One build function per kind, each ``build(analyzer, cell, orientation,
# span)``: fetch the inputs through ``analyzer._get`` (children first, so
# their artifacts are shared by every parent that instantiates them) and hand
# them to the engine that owns the work.  ``span`` is the build's
# ``hier.build.<kind>`` span, for what only the build sees.


def _build_view(analyzer: "HierAnalyzer", cell: Cell,
                orientation: Orientation, _span) -> _View:
    return build_view(cell, orientation, partial(analyzer._get, "view"),
                      _DIRECT_THRESHOLD, interaction_reach(analyzer.technology))


def _build_areas(analyzer, cell, orientation, _span) -> Dict[str, int]:
    view = analyzer._get("view", cell, orientation)
    return compose_areas(view, analyzer._children("areas", view))


def _build_drc(analyzer, cell, orientation, _span):
    view = analyzer._get("view", cell, orientation)
    return compose_drc(analyzer.technology, view,
                       analyzer._children("drc", view))


def _build_extract(analyzer, cell, orientation, _span):
    view = analyzer._get("view", cell, orientation)
    return compose_extract(analyzer.technology, view,
                           analyzer._children("extract", view))


def _build_violations(analyzer, cell, orientation, _span):
    artifact = analyzer._get("drc", cell, orientation)
    return tuple(viol for rule_viols in artifact.viols
                 for _ids, viol in rule_viols)


def _build_circuit(analyzer, cell, orientation, span) -> ExtractedCircuit:
    view = analyzer._get("view", cell, orientation)
    art = analyzer._get("extract", cell, orientation)
    # How many nodes the partition has, and how many of them it took whole
    # from replayed instances: the finisher only names and emits.
    span.set(nodes=art.nodes.count, spliced=art.nodes.spliced)
    return circuit_of(analyzer.technology, cell, view, art)


def _build_extent(analyzer, cell, orientation, _span):
    view = analyzer._get("view", cell, orientation)
    return view.bbox, view.shape_count, view.path_length


def _build_erc(analyzer, cell, orientation, _span) -> ErcReport:
    analyzer._children("erc", analyzer._get("view", cell, orientation))
    return ErcChecker().check_circuit(
        analyzer._get("circuit", cell, orientation))


def _build_timing(analyzer, cell, orientation, _span) -> BlockTiming:
    analyzer._children("timing", analyzer._get("view", cell, orientation))
    return SwitchTimingAnalyzer(analyzer.technology).analyze(
        analyzer._get("circuit", cell, orientation))


#: Every cached kind: ``(trace category of its hier.build.<kind> span — the
#: engine the build belongs to, so per-category folds attribute it there;
#: whether the payload embeds the cell's *name* (``ExtractedCircuit.cell_name``,
#: ``ErcReport.name``, ``BlockTiming.name``), in which case the store key
#: appends it so a renamed cell gets a correctly-named result while the
#: geometric kinds stay rename-invariant; the build function)``.
_KINDS = {
    "view": ("hier", False, _build_view),
    "areas": ("hier", False, _build_areas),
    "drc": ("drc", False, _build_drc),
    "extract": ("extract", False, _build_extract),
    "violations": ("drc", False, _build_violations),
    "circuit": ("extract", True, _build_circuit),
    "extent": ("hier", False, _build_extent),
    "erc": ("erc", True, _build_erc),
    "timing": ("sta", True, _build_timing),
}


def _builds_stat(kind: str) -> str:
    """``stats`` key counting a kind's builds (``views`` predates the table)."""
    return "views" if kind == "view" else f"{kind}_artifacts"


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

    def __init__(self, technology: Technology,
                 store: Optional[ArtifactStore] = None):
        self.technology = technology
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
        #: Per kind: ``<kind>_hits`` and builds (``<kind>_artifacts``;
        #: ``views`` for the view kind).
        self.stats: Dict[str, int] = {}
        for kind in _KINDS:
            self.stats[_builds_stat(kind)] = self.stats[f"{kind}_hits"] = 0

    # -- public API ---------------------------------------------------------

    def drc(self, cell: Cell) -> List[DrcViolation]:
        """All design-rule violations, identical to the flat checker's list.

        The cached result is a tuple; every call returns a fresh ``list`` of
        it, so a caller may sort or extend what it gets.
        """
        with obs_trace.span("hier.drc", cat="hier", cell=cell.name):
            return list(self._get("violations", cell, Orientation.R0))

    def extract(self, cell: Cell) -> ExtractedCircuit:
        """Extracted netlist, identical to the flat extractor's output.

        Cached per cell version like :meth:`timing` and :meth:`erc`, and like
        theirs the returned object is **shared and read-only**: every caller
        (and the timing and ERC builds) gets the same ``ExtractedCircuit``.
        """
        with obs_trace.span("hier.extract", cat="hier", cell=cell.name):
            return self._get("circuit", cell, Orientation.R0)

    def timing(self, cell: Cell) -> BlockTiming:
        """Static timing of the cell's extracted circuit, cached per cell.

        Keyed by ``(content digest, orientation)`` exactly like the
        DRC/extraction artifacts: re-timing after an edit recomputes only
        the mutated cell and its ancestors (every other cell's artifact is a
        cache hit, visible in ``stats``), and the result is float-identical
        to a cold run because the analysis is a pure function of the
        (incrementally composed) extracted circuit.  The returned object is
        shared and read-only.
        """
        with obs_trace.span("hier.timing", cat="hier", cell=cell.name):
            return self._get("timing", cell, Orientation.R0)

    def erc(self, cell: Cell) -> ErcReport:
        """Electrical rule check of the cell's extracted circuit, cached.

        Follows the timing pattern: children are built first so a family of
        chips shares every generator block's report, and the result is a
        pure function of the composed extracted circuit.  The returned
        object is shared and read-only.
        """
        with obs_trace.span("hier.erc", cat="hier", cell=cell.name):
            return self._get("erc", cell, Orientation.R0)

    def measure(self, cell: Cell) -> DesignMetrics:
        """Design metrics, identical to :func:`repro.metrics.measure_cell`."""
        with obs_trace.span("hier.measure", cat="hier", cell=cell.name):
            # The geometric part is cached by content; the hierarchy counts
            # are read off the live cell, because a content digest cannot
            # tell one shared child object from two identical copies and
            # the metrics can.
            bbox, shape_count, path_length = self._get(
                "extent", cell, Orientation.R0)
            distinct_cells, instance_count, depth = hierarchy_counts(cell)
            stats = CellStatistics(
                name=cell.name,
                bbox_width=0 if bbox is None else bbox.width,
                bbox_height=0 if bbox is None else bbox.height,
                bbox_area=0 if bbox is None else bbox.area,
                flattened_shape_count=shape_count,
                distinct_shape_count=sum(len(c.shapes) for c in distinct_cells),
                distinct_cell_count=len(distinct_cells),
                instance_count=instance_count,
                hierarchy_depth=depth,
                mask_area_by_layer=self._get("areas", cell, Orientation.R0),
            )
            return metrics_from_stats(stats, self.technology,
                                      wire_length=path_length)

    # -- the scheduler ------------------------------------------------------

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
                   f"{_DIRECT_THRESHOLD}")
            if _KINDS[kind][1]:
                key += ":" + cell.name
            memo[1][(kind, orientation)] = key
        return key

    def _get(self, kind: str, cell: Cell, orientation: Orientation):
        """Get-or-build of one cached kind: store hit, else build + put.

        Counted in ``stats`` and mirrored into the metrics registry as
        ``hier.<kind>.hits`` / ``hier.<kind>.builds``, so a sign-off's
        ``flow_metrics`` shows which kind missed.
        """
        key = self._key(kind, cell, orientation)
        with obs_trace.span("store.get", cat="store", kind=kind,
                            cell=cell.name) as span:
            value = self.store.get(key)
            span.set(hit=value is not None)
        if value is not None:
            self.stats[f"{kind}_hits"] += 1
            obs_metrics.counter(f"hier.{kind}.hits").inc()
            return value
        category, _named, build = _KINDS[kind]
        self.stats[_builds_stat(kind)] += 1
        obs_metrics.counter(f"hier.{kind}.builds").inc()
        # A miss only: hits, warm passes and disk loads never pause, and a
        # child's build inside its parent's finds the collector already off.
        with gc_paused(), obs_trace.span(
                f"hier.build.{kind}", cat=category, cell=cell.name,
                orientation=orientation.name, gc_paused=True) as span:
            value = build(self, cell, orientation, span)
            with obs_trace.span("store.put", cat="store", kind=kind,
                                cell=cell.name) as put:
                put.set(bytes=self.store.put(key, value))
        return value

    def _children(self, kind: str, view: _View) -> List:
        """``[None]`` + the ``kind`` of each instance of ``view``, in order."""
        return [None] + [self._get(kind, source.cell, source.orientation)
                         for source in view.sources[1:]]
