"""Hierarchical DRC: a cell's verdicts composed from its instances'.

:func:`compose_drc` builds the :class:`_DrcArtifact` of one oriented view
(:mod:`repro.layout.view`) from the artifacts of the view's instances.  An
isolated instance (:func:`repro.layout.view.isolated_sources`) is replayed as
one block: its merge output is held by reference, its ids re-based in bulk,
its verdicts re-based and translated.  Elsewhere a child's cached verdict is
replayed unless foreign geometry enters the element's interaction halo (the
rule's reach): elements near another source's geometry are conservatively
marked *suspect* and recomputed in the parent's context with spatial-index
queries against every source.  Over-marking a suspect costs time, never
correctness, because recomputation calls the flat checker's own per-element
verdict functions (:mod:`repro.drc.checker`) and so yields the flat answer.
The composed violation list is byte-identical to :meth:`DrcChecker.check`;
``tests/test_hier_golden.py`` pins it.  A view with one source (a leaf or a
collapsed cell) has nothing to replay: its artifact is the flat checker's
rule loops themselves (:func:`repro.drc.checker.rule_verdicts`).

The composer sees a view and child artifacts only: caching, store keys,
spans and the collector pause belong to :mod:`repro.analysis.hier`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.drc.checker import (
    DrcViolation,
    Verdict,
    checked_geometrically,
    enclosure_violation,
    exact_size_violation,
    rule_verdicts,
    spacing_violation,
    width_violation,
)
from repro.geometry.index import SpatialIndex, build_index
from repro.geometry.merge import MergedLayer, merge_group
from repro.geometry.rect import Rect
from repro.layout.view import (
    _BoxIndex,
    _Blocks,
    _Part,
    _StoredSlots,
    _View,
    _bounding,
    _translated,
    _union_all,
    compose_components,
    count_sources,
)
from repro.obs import metrics as obs_metrics
from repro.technology.rules import DesignRule, RuleKind
from repro.technology.technology import Technology

#: :meth:`_DrcArtifact.weight`'s bytes per verdict (ids, rule, location rect).
_VERDICT_BYTES = 64


class _LayerMerge(_StoredSlots):
    """The composed ``_merge_touching`` result of one layer.

    ``inputs`` is the non-degenerate rectangle list in flat order (the merge
    operates on filtered rects), ``components`` its touching-closure
    partition, ``merged`` the merge output in flat order.  Both are
    :class:`_Blocks` with one block per source; ``merged``'s order groups
    the outputs by the source holding each component's smallest member, so
    a replayed instance's block of ``merged`` is its child's list by
    reference.
    ``fresh`` lists the merged ids computed here, ascending — the cell's
    own components and those merged across sources; every other merged id
    in source ``k``'s block is instance ``k``'s output.  ``child_maps[k]``
    re-bases instance ``k``'s merged ids into this cell's merged id space
    (-1 where the child component was merged across sources and its output
    no longer exists as such).
    """

    __slots__ = ("inputs", "components", "comp_of_input",
                 "comp_slices", "merged", "fresh",
                 "child_maps", "block_bboxes", "_input_index", "_merged_index",
                 "_box_index")
    _TRANSIENT = ("_input_index", "_merged_index", "_box_index")
    _RECT_LISTS = ("inputs", "merged")

    def __init__(self) -> None:
        self.inputs = _Blocks([])
        self.components: List[List[int]] = []
        self.comp_of_input: List[int] = []
        self.comp_slices: List[Tuple[int, int]] = []
        self.merged = _Blocks([])
        self.fresh: List[int] = []
        self.child_maps: List[Optional[Sequence[int]]] = [None]
        # Per-source bbox of that source's merge inputs, in this cell's
        # frame (None for empty blocks) — the prefilter for interface probes.
        self.block_bboxes: List[Optional[Rect]] = []
        self._input_index: Optional[SpatialIndex] = None
        self._merged_index: Optional[SpatialIndex] = None
        self._box_index: Optional[_BoxIndex] = None

    def box_index(self) -> _BoxIndex:
        """Index over instance-block bboxes (own block excluded)."""
        if self._box_index is None:
            self._box_index = _BoxIndex.of_boxes(self.block_bboxes,
                                                 skip_first=True)
        return self._box_index

    def input_index(self) -> SpatialIndex:
        if self._input_index is None:
            self._input_index = build_index(self.inputs.flat())
        return self._input_index

    def merged_index(self) -> SpatialIndex:
        if self._merged_index is None:
            self._merged_index = build_index(self.merged.flat())
        return self._merged_index

    @classmethod
    def of_layer(cls, layer: MergedLayer) -> "_LayerMerge":
        """The merge of a one-source view: the flat checker's, every
        merged id computed here."""
        merge = cls()
        merge.inputs = _Blocks.of(layer.inputs)
        merge.components = layer.components
        comp_of_input = merge.comp_of_input = [0] * len(layer.inputs)
        for position, component in enumerate(layer.components):
            for member in component:
                comp_of_input[member] = position
        merge.comp_slices = layer.slices()
        merge.merged = _Blocks.of(layer.merged)
        merge.fresh = list(range(len(layer.merged)))
        merge.block_bboxes = [_bounding(layer.inputs)]
        return merge

    def bbox(self) -> Optional[Rect]:
        return _union_all(self.block_bboxes)

    def source_of(self, gid: int, fresh: Set[int]) -> int:
        """The instance a merged id was reused from; -1 if computed here."""
        if gid in fresh:
            return -1
        return bisect_right(self.merged.starts, gid) - 1


class _DrcArtifact:
    """Cached DRC result of one (cell, orientation): merges + id'd verdicts.

    It holds no reference to the cell's :class:`_View`: the view is stored
    (and pickled) once, under its own key.
    """

    __slots__ = ("merges", "viols")

    def __init__(self) -> None:
        self.merges: Dict[str, _LayerMerge] = {}
        self.viols: List[List[Verdict]] = []          # per rule index

    def weight(self) -> int:
        """Estimated pickled size in bytes: the merges' (a rect list two
        merges share counted once) plus the verdicts'."""
        seen: Set[int] = set()
        return (sum(merge.weight(seen) for merge in self.merges.values())
                + _VERDICT_BYTES * sum(map(len, self.viols)))


def compose_drc(technology: Technology, view: _View,
                children: Sequence[Optional[_DrcArtifact]]) -> _DrcArtifact:
    """The DRC artifact of ``view``; ``children[k]`` is instance ``k``'s.

    A one-source view — a leaf or a collapsed cell — has no instance to
    replay and no interface: its artifact is the flat checker's own rule
    loops (:func:`repro.drc.checker.rule_verdicts`) run on the view's rect
    lists, whose positions are the artifact's ids, counted in
    ``hier.compose.one_source``.
    """
    if len(view.sources) == 1:
        return _one_source(technology, view)
    count_sources(view)
    artifact = _DrcArtifact()
    merges = artifact.merges
    for rule in technology.rules:
        # Width and spacing rules run on merged regions.
        if rule.kind is RuleKind.MIN_WIDTH:
            layers: Tuple[str, ...] = rule.layers[:1]
        elif rule.kind is RuleKind.MIN_SPACING:
            layers = rule.layers
        else:
            continue
        for layer in layers:
            if layer not in merges:
                merges[layer] = _compose_merge(view, children, layer)

    for rule_index, rule in enumerate(technology.rules):
        child_viols = [None] + [child.viols[rule_index]
                                for child in children[1:]]
        composed: List[Verdict] = []
        if rule.kind is RuleKind.MIN_WIDTH:
            composed = _compose_width(rule, view, child_viols,
                                      merges[rule.layers[0]])
        elif rule.kind is RuleKind.MIN_SPACING:
            composed = _compose_spacing(rule, view, children, child_viols,
                                        merges[rule.layers[0]],
                                        merges[rule.layers[1]])
        elif rule.kind is RuleKind.MIN_ENCLOSURE:
            if checked_geometrically(technology, rule):
                composed = _compose_enclosure(rule, view, child_viols)
        elif rule.kind is RuleKind.EXACT_SIZE:
            composed = _compose_exact(rule, view, child_viols)
        # MIN_EXTENSION / MIN_OVERLAP: device-formation rules, not checked
        # geometrically (matches the flat checker).
        composed.sort(key=lambda entry: entry[0])
        artifact.viols.append(composed)
    return artifact


def _one_source(technology: Technology, view: _View) -> _DrcArtifact:
    obs_metrics.counter("hier.compose.one_source").inc()
    rects_by_layer = {layer: rects.part(0)
                      for layer, rects in view.rects.items()}
    merges, verdicts = rule_verdicts(
        technology, rects_by_layer, view.index,
        lambda layer: MergedLayer(rects_by_layer.get(layer, []), build_index),
        build_index)
    artifact = _DrcArtifact()
    artifact.merges = {layer: _LayerMerge.of_layer(merged)
                       for layer, merged in merges.items()}
    artifact.viols = verdicts
    return artifact


def _moved_viol(viol: DrcViolation, dx: int, dy: int) -> DrcViolation:
    if not (dx or dy):
        return viol
    return DrcViolation(viol.rule_name, viol.kind, viol.layers, viol.required,
                        viol.actual, viol.location.translated(dx, dy))


def _with_area(rects: Sequence[Rect]) -> List[Rect]:
    """``rects`` without the zero-width / zero-height ones, by their corners."""
    return [r for r in rects if r.x1 != r.x2 and r.y1 != r.y2]


def _compose_merge(view: _View, children: Sequence[Optional[_DrcArtifact]],
                   layer: str) -> _LayerMerge:
    merge = _LayerMerge()
    sources = view.sources
    # Filtering commutes with translation: an instance's filtered block is
    # its child's merge inputs, placed.
    own_filtered = _with_area(view.layer(layer).part(0))
    own_index = build_index(own_filtered)
    block_comps: List[Sequence[Sequence[int]]] = [
        own_index.connected_components()]
    block_indexes: List[Optional[SpatialIndex]] = [own_index]
    block_moves: List[Tuple[int, int]] = [(0, 0)]
    merge.block_bboxes = [_bounding(own_filtered)]
    parts = [_Part.of(own_filtered)]
    for k, source in enumerate(sources[1:], 1):
        child = children[k].merges[layer]
        parts.append(child.inputs.moved(source.dx, source.dy))
        block_comps.append(child.components)
        block_indexes.append(None if view.isolated[k] else child.input_index())
        block_moves.append((source.dx, source.dy))
        merge.block_bboxes.append(source.placed(child.bbox()))
    merge.inputs = _Blocks(parts)
    merge.components, _joined, crossed = compose_components(
        merge.inputs, block_comps, block_indexes, block_moves,
        merge.block_bboxes, view.isolated)
    _fill_merge(merge, view, children, layer, crossed)
    return merge


def _fill_merge(merge: _LayerMerge, view: _View, children, layer: str,
                crossed: bool) -> None:
    """Fill ``merge``'s output and id maps from its components, by source.

    An instance whose components are exactly its child's — an isolated one,
    or any one when no component crossed two sources — replays the child's
    merge in bulk: its output block by reference, its id lists re-based.
    Elsewhere each component whose smallest member lies in the source is
    either one child component, whose output is reused (translated), or is
    merged here by the flat checker's
    :func:`~repro.geometry.merge.merge_group`.
    """
    inputs, components = merge.inputs, merge.components
    offsets = inputs.starts
    comp_of_input = merge.comp_of_input = [0] * len(inputs)
    comp_slices, fresh = merge.comp_slices, merge.fresh
    parts: List[_Part] = []
    merged_count = 0
    position = 0
    for k, source in enumerate(view.sources):
        child = children[k].merges[layer] if k else None
        if k and (view.isolated[k] or not crossed):
            comp_of_input[offsets[k]:offsets[k + 1]] = [
                c + position for c in child.comp_of_input]
            comp_slices.extend([(start + merged_count, length)
                                for start, length in child.comp_slices])
            merge.child_maps.append(range(merged_count,
                                          merged_count + len(child.merged)))
            parts.append(child.merged.moved(source.dx, source.dy))
            position += len(child.components)
            merged_count += len(child.merged)
            continue
        placed: List[Rect] = []
        child_map = [-1] * len(child.merged) if k else None
        block = inputs.part(k)
        end = offsets[k + 1]
        while position < len(components) and components[position][0] < end:
            comp = components[position]
            for member in comp:
                comp_of_input[member] = position
            start = merged_count + len(placed)
            if k and comp[-1] < end:
                # One child component: its merge output carries over.
                local = comp[0] - offsets[k]
                child_start, child_len = child.comp_slices[
                    child.comp_of_input[local]]
                for step in range(child_len):
                    child_map[child_start + step] = start + step
                if (child_len == 1 and len(comp) == 1
                        and child.merged[child_start] == child.inputs[local]):
                    # Singleton component: the merge output is the input
                    # rect, already placed in this frame.  (Equality, not
                    # identity: a blob loaded from the store does not
                    # share objects between its rect lists.)
                    placed.append(block[local])
                else:
                    placed.extend(_translated(
                        child.merged[child_start:child_start + child_len],
                        source.dx, source.dy))
            else:
                placed.extend(merge_group([inputs[i] for i in comp]))
                fresh.extend(range(start, merged_count + len(placed)))
            comp_slices.append((start, merged_count + len(placed) - start))
            position += 1
        if k:
            merge.child_maps.append(child_map)
        parts.append(_Part.of(placed))
        merged_count += len(placed)
    merge.merged = _Blocks(parts)


def _compose_width(rule: DesignRule, view: _View, child_viols,
                   merge: _LayerMerge) -> List[Verdict]:
    out: List[Verdict] = []
    for k, source in enumerate(view.sources[1:], 1):
        child_map = merge.child_maps[k]
        for ids, viol in child_viols[k]:
            gid = child_map[ids[0]]
            if gid >= 0:
                out.append(((gid,), _moved_viol(viol, source.dx, source.dy)))
    merged = merge.merged
    for gid in merge.fresh:
        viol = width_violation(rule, merged[gid])
        if viol is not None:
            out.append(((gid,), viol))
    return out


def _merged_candidates(view: _View, children, layer: str, merge: _LayerMerge,
                       new_ids: List[int], new_index: SpatialIndex,
                       rect: Rect, reach: int) -> List[int]:
    """Global merged ids of ``layer`` possibly within ``reach`` of rect."""
    found: List[int] = []
    for k in merge.box_index().near(rect, margin=reach):
        found.extend(_reused_near(view.sources[k], children[k].merges[layer],
                                  merge.child_maps[k], rect, reach))
    for position in new_index.query(rect, margin=reach):
        found.append(new_ids[position])
    return found


def _reused_near(source, child: _LayerMerge, child_map: Sequence[int],
                 region: Rect, reach: int) -> List[int]:
    """Merged ids reused from one instance that lie within ``reach``."""
    local = region.translated(-source.dx, -source.dy)
    return [child_map[cid]
            for cid in child.merged_index().query(local, margin=reach)
            if child_map[cid] >= 0]


def _compose_spacing(rule: DesignRule, view: _View, children, child_viols,
                     merge_a: _LayerMerge, merge_b: _LayerMerge
                     ) -> List[Verdict]:
    same_layer = merge_a is merge_b
    reach = rule.value - 1
    sources = view.sources
    out: List[Verdict] = []
    for k, source in enumerate(sources[1:], 1):
        map_a = merge_a.child_maps[k]
        map_b = merge_b.child_maps[k]
        for ids, viol in child_viols[k]:
            ga = map_a[ids[0]]
            gb = map_b[ids[1]]
            if ga >= 0 and gb >= 0:
                out.append(((ga, gb), _moved_viol(viol, source.dx, source.dy)))

    layer_a, layer_b = rule.layers[0], rule.layers[1]
    new_a = merge_a.fresh
    new_index_a = build_index([merge_a.merged[g] for g in new_a])
    if same_layer:
        new_b, new_index_b = new_a, new_index_a
    else:
        new_b = merge_b.fresh
        new_index_b = build_index([merge_b.merged[g] for g in new_b])

    def suspects(merge_from: _LayerMerge, layer_from: str,
                 merge_other: _LayerMerge, new_other: List[int]) -> Set[int]:
        """Reused elements of one layer near foreign other-layer stuff."""
        found: Set[int] = set()
        from_index = merge_from.box_index()
        for j in range(1, len(sources)):
            other_box = merge_other.block_bboxes[j]
            if other_box is None or view.isolated[j]:
                continue
            for k in from_index.near(other_box, margin=reach):
                if k != j:
                    found.update(_reused_near(
                        sources[k], children[k].merges[layer_from],
                        merge_from.child_maps[k], other_box, reach))
        # Near the computed (own / cross-merged) other-layer elements.
        for gid_other in new_other:
            rect = merge_other.merged[gid_other]
            for k in from_index.near(rect, margin=reach):
                found.update(_reused_near(
                    sources[k], children[k].merges[layer_from],
                    merge_from.child_maps[k], rect, reach))
        return found

    pairs: Set[Tuple[int, int]] = set()

    def collect(a_ids: Iterable[int]) -> None:
        for a in a_ids:
            for b in _merged_candidates(view, children, layer_b, merge_b,
                                        new_b, new_index_b,
                                        merge_a.merged[a], reach):
                if same_layer:
                    if a != b:
                        pairs.add((a, b) if a < b else (b, a))
                else:
                    pairs.add((a, b))

    collect(new_a)
    collect(suspects(merge_a, layer_a, merge_b, new_b))
    if not same_layer:      # else the a-side sweep covered both directions
        suspects_b = suspects(merge_b, layer_b, merge_a, new_a)
        for b in list(new_b) + sorted(suspects_b):
            for a in _merged_candidates(view, children, layer_a, merge_a,
                                        new_a, new_index_a,
                                        merge_b.merged[b], reach):
                pairs.add((a, b))

    fresh_a, fresh_b = set(new_a), set(new_b)
    for a, b in pairs:
        source_a = merge_a.source_of(a, fresh_a)
        if source_a != -1 and source_a == merge_b.source_of(b, fresh_b):
            continue  # same-instance pair: the child artifact covered it
        viol = spacing_violation(rule, merge_a.merged[a], merge_b.merged[b])
        if viol is not None:
            out.append(((a, b), viol))
    return out


def _compose_enclosure(rule: DesignRule, view: _View,
                       child_viols) -> List[Verdict]:
    outer_layer, inner_layer = rule.layers[0], rule.layers[1]
    sources = view.sources
    inner = view.layer(inner_layer)
    inner_offsets = inner.starts
    margin = rule.value
    suspect: Set[int] = set(range(inner_offsets[0], inner_offsets[1]))

    own_view = sources[0].view
    own_outer_index = own_view.index(outer_layer)
    own_outer = own_view.layer(outer_layer).part(0)
    inner_boxes = [source.layer_bbox(inner_layer) for source in sources]
    outer_boxes = [source.layer_bbox(outer_layer) for source in sources]
    outer_index = _BoxIndex.of_boxes(outer_boxes)
    for k, source in enumerate(sources[1:], 1):
        box_k = inner_boxes[k]
        if box_k is None or view.isolated[k]:
            continue
        offset = inner_offsets[k]
        # Foreign instances' outer geometry.
        for j in outer_index.near(box_k, margin=margin):
            if j in (0, k) or box_k.distance_to(outer_boxes[j]) > margin:
                continue
            for cid in source.probe(inner_layer, outer_boxes[j], margin=margin):
                suspect.add(offset + cid)
        # The cell's own outer geometry near this instance.
        if own_outer:
            for oid in own_outer_index.query(box_k, margin=margin):
                for cid in source.probe(inner_layer, own_outer[oid],
                                        margin=margin):
                    suspect.add(offset + cid)

    out: List[Verdict] = []
    for k, source in enumerate(sources[1:], 1):
        offset = inner_offsets[k]
        for ids, viol in child_viols[k]:
            gid = offset + ids[0]
            if gid not in suspect:
                out.append(((gid,), _moved_viol(viol, source.dx, source.dy)))

    for gid in sorted(suspect):
        rect = inner[gid]
        triggered = False
        nearby: List[Rect] = []
        for k in outer_index.near(rect.expanded(margin)):
            source = sources[k]
            if not triggered and source.probe(outer_layer, rect, strict=True):
                triggered = True
            for oid in source.probe(outer_layer, rect, margin=margin):
                nearby.append(source.global_rect(outer_layer, oid))
        viol = enclosure_violation(rule, rect, nearby, triggered)
        if viol is not None:
            out.append(((gid,), viol))
    return out


def _compose_exact(rule: DesignRule, view: _View,
                   child_viols) -> List[Verdict]:
    rects = view.layer(rule.layers[0])
    own, offsets = rects.part(0), rects.starts
    out: List[Verdict] = []
    for k, source in enumerate(view.sources[1:], 1):
        offset = offsets[k]
        for ids, viol in child_viols[k]:
            out.append(((offset + ids[0],),
                        _moved_viol(viol, source.dx, source.dy)))
    for gid in range(offsets[1]):
        viol = exact_size_violation(rule, own[gid])
        if viol is not None:
            out.append(((gid,), viol))
    return out
