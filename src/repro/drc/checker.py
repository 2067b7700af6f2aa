"""The design-rule checker.

Checks performed (all in lambda, all on the flattened layout):

* minimum width per layer (narrow side of every drawn rectangle, with
  merging of abutting/overlapping same-layer rectangles so that a wide
  region built from several thin rectangles is not flagged);
* minimum same-layer and inter-layer spacing (between rectangles that are
  not connected, i.e. do not touch);
* minimum enclosure (every rectangle of the inner layer must be surrounded
  by material of the outer layer by the rule distance);
* exact-size rules (contact cuts).

The checker is deliberately conservative and rectangle-based: that matches
the 1979-80 era tools (and the geometry our generators emit).  All
neighbourhood questions go through the spatial index
(:mod:`repro.geometry.index`), so the cost per rectangle depends on its
local neighbourhood, not on the total rectangle count.  The same checks run
on an all-pairs index are :class:`repro.reference.BruteDrcChecker`, the
oracle the golden-equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.geometry.index import (IndexFactory, SpatialIndex, build_index,
                                  layer_indexes)
from repro.geometry.merge import MergedLayer
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.technology.rules import DesignRule, RuleKind
from repro.technology.technology import Technology


@dataclass(frozen=True)
class DrcViolation:
    """One design-rule violation, with enough context to locate it."""

    rule_name: str
    kind: RuleKind
    layers: Tuple[str, ...]
    required: int
    actual: int
    location: Rect

    def __str__(self) -> str:
        where = f"({self.location.x1},{self.location.y1})-({self.location.x2},{self.location.y2})"
        return (
            f"{self.rule_name}: {self.kind.value} on {'/'.join(self.layers)} "
            f"requires {self.required}, found {self.actual} at {where}"
        )


# -- per-element verdicts -----------------------------------------------------
#
# Each check reduces to a verdict on one element (a merged rectangle, an
# unordered pair, an inner rectangle with its outer neighbourhood); the
# touching groups are merged by :mod:`repro.geometry.merge`.  The flat
# checker below and the hierarchical composer (:mod:`repro.drc.compose`) both
# call these, so the two paths cannot drift apart.


def checked_geometrically(technology: Technology, rule: DesignRule) -> bool:
    """False for the enclosure rules that are device-formation rules.

    Implant surround applies to depletion channels, not to every poly shape
    the implant happens to touch; it is validated by the extractor's device
    checks rather than geometrically.
    """
    layer = technology.layers.get(rule.layers[0])
    return layer is None or layer.purpose.name not in ("IMPLANT", "WELL")


def width_violation(rule: DesignRule, rect: Rect) -> Optional[DrcViolation]:
    narrow = min(rect.width, rect.height)
    if narrow < rule.value:
        return DrcViolation(rule.label, rule.kind, rule.layers, rule.value, narrow, rect)
    return None


def spacing_violation(rule: DesignRule, rect_a: Rect, rect_b: Rect) -> Optional[DrcViolation]:
    if rect_a.touches(rect_b):
        return None   # touching shapes are connected, not spaced
    gap = rect_a.distance_to(rect_b)
    if gap < rule.value:
        return DrcViolation(
            rule.label, rule.kind, rule.layers, rule.value, gap, rect_a.union(rect_b)
        )
    return None


def enclosure_violation(rule: DesignRule, inner: Rect,
                        nearby_outer: Sequence[Rect],
                        triggered: bool) -> Optional[DrcViolation]:
    """Verdict for one inner rectangle.

    ``nearby_outer`` must contain every outer-layer rectangle touching the
    inner rectangle grown by the rule value; ``triggered`` is whether any
    outer rectangle shares interior area with the inner one (the conditional
    part of the rule).
    """
    if not triggered:
        return None
    required = inner.expanded(rule.value)
    if any(out.contains_rect(required) for out in nearby_outer):
        return None
    if _covered_by(required, nearby_outer):
        return None
    actual = _best_enclosure(inner, nearby_outer)
    return DrcViolation(rule.label, rule.kind, rule.layers, rule.value, actual, inner)


def exact_size_violation(rule: DesignRule, rect: Rect) -> Optional[DrcViolation]:
    narrow = min(rect.width, rect.height)
    if narrow != rule.value:
        return DrcViolation(rule.label, rule.kind, rule.layers, rule.value, narrow, rect)
    return None


# -- the rule loops over rect lists ---------------------------------------------
#
# Each rule's loop runs over plain rect lists and returns id'd verdicts, ids
# being positions in those lists.  :class:`DrcChecker` runs them on the
# flattened layout; :func:`repro.drc.compose.compose_drc` runs them on the
# one-source view of a leaf or collapsed cell and keeps the ids.

#: ``((element ids...), violation)``, in the flat checker's emission order.
Verdict = Tuple[Tuple[int, ...], DrcViolation]


def width_verdicts(rule: DesignRule, rects: Sequence[Rect]) -> List[Verdict]:
    verdicts = []
    for rect_id, rect in enumerate(rects):
        violation = width_violation(rule, rect)
        if violation is not None:
            verdicts.append(((rect_id,), violation))
    return verdicts


def spacing_verdicts(rule: DesignRule, rects_a: Sequence[Rect],
                     index_b: SpatialIndex, same_layer: bool) -> List[Verdict]:
    verdicts = []
    rects_b = index_b.rects
    # Only rectangles with a gap strictly below the rule value can violate
    # it; the index hands back exactly that neighbourhood.
    reach = rule.value - 1
    for index_a, rect_a in enumerate(rects_a):
        for candidate in index_b.neighbors(rect_a, reach):
            if same_layer and candidate <= index_a:
                continue   # each unordered pair once, as in the pair scan
            violation = spacing_violation(rule, rect_a, rects_b[candidate])
            if violation is not None:
                verdicts.append(((index_a, candidate), violation))
    return verdicts


def enclosure_verdicts(rule: DesignRule, outer: Sequence[Rect],
                       outer_index: SpatialIndex,
                       inner: Sequence[Rect]) -> List[Verdict]:
    verdicts = []
    margin = rule.value
    query = outer_index.query
    for rect_id, rect in enumerate(inner):
        # Rectangles not touching the grown region can neither contain nor
        # help cover it, so the check runs on the neighbourhood only.
        nearby = query(rect, margin)
        x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
        gx1, gy1, gx2, gy2 = x1 - margin, y1 - margin, x2 + margin, y2 + margin
        # Conditional rule: enclosure is only required where the two layers
        # actually interact (e.g. implant around *depletion* gates, poly
        # around *poly* contacts): some outer rect shares interior area
        # with the inner one.  One outer rect containing the grown bounds
        # passes the rule, triggered or not; only the rest take
        # :func:`enclosure_violation`'s covering test.
        triggered = False
        for i in nearby:
            out = outer[i]
            if (out.x1 <= gx1 and out.y1 <= gy1
                    and out.x2 >= gx2 and out.y2 >= gy2):
                break
            if (not triggered and out.x1 < x2 and x1 < out.x2
                    and out.y1 < y2 and y1 < out.y2):
                triggered = True
        else:
            if triggered:
                violation = enclosure_violation(
                    rule, rect, [outer[i] for i in nearby], True)
                if violation is not None:
                    verdicts.append(((rect_id,), violation))
    return verdicts


def exact_size_verdicts(rule: DesignRule, rects: Sequence[Rect]) -> List[Verdict]:
    verdicts = []
    for rect_id, rect in enumerate(rects):
        violation = exact_size_violation(rule, rect)
        if violation is not None:
            verdicts.append(((rect_id,), violation))
    return verdicts


def rule_verdicts(technology: Technology, rects_by_layer: Dict[str, List[Rect]],
                  layer_index: Callable[[str], SpatialIndex],
                  layer_merge: Callable[[str], MergedLayer],
                  index: IndexFactory
                  ) -> Tuple[Dict[str, MergedLayer], List[List[Verdict]]]:
    """Every rule's verdicts on one flat geometry, per rule in rule order.

    ``layer_index(layer)`` indexes ``rects_by_layer[layer]`` (an absent layer
    is an empty list) and ``layer_merge(layer)`` is its
    :class:`~repro.geometry.merge.MergedLayer`; ``index`` builds every other
    index.  The spacing rules' indexes over merged regions are built here
    and dropped on return.  Returns the layer merges the width and spacing
    rules ran on, keyed in the order the rules first name their layers, and
    the verdict lists: merged ids for width and spacing, layer rect ids for
    enclosure and exact size.  MIN_EXTENSION and MIN_OVERLAP are
    device-formation rules, validated by the extractor, which knows which
    crossings are intended transistors: their lists stay empty, like those
    of the enclosure rules that are not checked geometrically
    (:func:`checked_geometrically`).
    """
    merges: Dict[str, MergedLayer] = {}
    merged_indexes: Dict[str, SpatialIndex] = {}

    def merge(layer: str) -> MergedLayer:
        merged = merges.get(layer)
        if merged is None:
            merged = merges[layer] = layer_merge(layer)
        return merged

    verdicts: List[List[Verdict]] = []
    for rule in technology.rules:
        found: List[Verdict] = []
        if rule.kind is RuleKind.MIN_WIDTH:
            found = width_verdicts(rule, merge(rule.layers[0]).merged)
        elif rule.kind is RuleKind.MIN_SPACING:
            layer_b = rule.layers[1]
            merged_a, merged_b = merge(rule.layers[0]), merge(layer_b)
            index_b = merged_indexes.get(layer_b)
            if index_b is None:
                index_b = merged_indexes[layer_b] = index(merged_b.merged)
            found = spacing_verdicts(rule, merged_a.merged, index_b,
                                     same_layer=merged_a is merged_b)
        elif rule.kind is RuleKind.MIN_ENCLOSURE:
            if checked_geometrically(technology, rule):
                found = enclosure_verdicts(
                    rule, rects_by_layer.get(rule.layers[0], []),
                    layer_index(rule.layers[0]),
                    rects_by_layer.get(rule.layers[1], []))
        elif rule.kind is RuleKind.EXACT_SIZE:
            found = exact_size_verdicts(rule,
                                        rects_by_layer.get(rule.layers[0], []))
        verdicts.append(found)
    return merges, verdicts


class DrcChecker:
    """Checks a cell hierarchy against a technology's rule set."""

    #: Builds the spatial index every neighbourhood question goes through.
    index: IndexFactory = staticmethod(build_index)

    def __init__(self, technology: Technology):
        self.technology = technology

    def check(self, cell: Cell) -> List[DrcViolation]:
        """Flatten ``cell`` and return all violations found."""
        with gc_paused(), obs_trace.span("drc.check", cat="drc",
                                         cell=cell.name) as span:
            violations = self._check(cell)
            span.set(violations=len(violations))
            return violations

    def _check(self, cell: Cell) -> List[DrcViolation]:
        flat = flatten_cell(cell)
        rects_by_layer = flat.rects_by_layer()
        _merges, verdicts = rule_verdicts(
            self.technology, rects_by_layer,
            layer_indexes(rects_by_layer, self.index),
            lambda layer: flat.layer_merge(layer, self.index), self.index)
        return [viol for found in verdicts for _ids, viol in found]


def check_cell(cell: Cell, technology: Technology) -> List[DrcViolation]:
    """Convenience wrapper: check one cell against a technology."""
    return DrcChecker(technology).check(cell)


# -- geometry helpers ---------------------------------------------------------------------


def _covered_by(target: Rect, covers: Sequence[Rect]) -> bool:
    """True if ``target`` is entirely covered by the union of ``covers``."""
    remaining = [target]
    for cover in covers:
        next_remaining: List[Rect] = []
        for piece in remaining:
            next_remaining.extend(piece.subtract(cover))
        remaining = next_remaining
        if not remaining:
            return True
    return not remaining


def _best_enclosure(inner: Rect, outer: Sequence[Rect]) -> int:
    """The largest enclosure margin any single outer rectangle achieves."""
    best = -1
    for rect in outer:
        if not rect.contains_rect(inner):
            continue
        margin = min(
            inner.x1 - rect.x1, rect.x2 - inner.x2,
            inner.y1 - rect.y1, rect.y2 - inner.y2,
        )
        best = max(best, margin)
    return best if best >= 0 else 0
