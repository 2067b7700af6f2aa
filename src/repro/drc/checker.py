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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.index import IndexFactory, SpatialIndex, build_index
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused
from repro.geometry.rect import Rect, merged_area
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
# unordered pair, an inner rectangle with its outer neighbourhood, a touching
# group to merge).  The flat checker below and the hierarchical composer
# (:mod:`repro.drc.compose`) both call these, so the two paths cannot drift
# apart.


def merge_group(group: Sequence[Rect]) -> Sequence[Rect]:
    """The merged form of one touching-closed group of rectangles.

    The merge is approximate: the group's bounding box when the group covers
    it exactly, otherwise the group's own rectangles.  This is sufficient to
    avoid false width errors from rail segments drawn as several pieces.
    """
    if len(group) == 1:
        return group
    bounding = group[0]
    for rect in group[1:]:
        bounding = bounding.union(rect)
    if merged_area(group) == bounding.area:
        return [bounding]
    return group


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
        index = self.index
        flat = flatten_cell(cell)
        rects_by_layer = flat.rects_by_layer()
        merged = {layer: _merge_touching(rects, index)
                  for layer, rects in rects_by_layer.items()}
        # One index per layer, shared by every rule touching that layer.
        merged_index: Dict[str, SpatialIndex] = {}
        raw_index: Dict[str, SpatialIndex] = {}

        def index_of(table: Dict[str, SpatialIndex], rects: Dict[str, List[Rect]],
                     layer: str) -> SpatialIndex:
            built = table.get(layer)
            if built is None:
                built = index(rects.get(layer, []))
                table[layer] = built
            return built

        violations: List[DrcViolation] = []
        for rule in self.technology.rules:
            if rule.kind is RuleKind.MIN_WIDTH:
                violations.extend(self._check_width(rule, merged.get(rule.layers[0], [])))
            elif rule.kind is RuleKind.MIN_SPACING:
                violations.extend(self._check_spacing(
                    rule,
                    merged.get(rule.layers[0], []),
                    index_of(merged_index, merged, rule.layers[1]),
                    same_layer=rule.layers[0] == rule.layers[1],
                ))
            elif rule.kind is RuleKind.MIN_ENCLOSURE:
                if not checked_geometrically(self.technology, rule):
                    continue
                violations.extend(self._check_enclosure(
                    rule,
                    rects_by_layer.get(rule.layers[0], []),
                    index_of(raw_index, rects_by_layer, rule.layers[0]),
                    rects_by_layer.get(rule.layers[1], []),
                ))
            elif rule.kind is RuleKind.EXACT_SIZE:
                violations.extend(self._check_exact_size(
                    rule, rects_by_layer.get(rule.layers[0], [])
                ))
            # MIN_EXTENSION and MIN_OVERLAP are device-formation rules; they
            # are validated by the extractor, which knows which crossings are
            # intended transistors.
        return violations

    # -- individual checks ----------------------------------------------------------

    def _check_width(self, rule: DesignRule, rects: List[Rect]) -> List[DrcViolation]:
        violations = []
        for rect in rects:
            violation = width_violation(rule, rect)
            if violation is not None:
                violations.append(violation)
        return violations

    def _check_spacing(self, rule: DesignRule, rects_a: List[Rect],
                       index_b: SpatialIndex, same_layer: bool) -> List[DrcViolation]:
        violations = []
        rects_b = index_b.rects
        # Only rectangles with a gap strictly below the rule value can
        # violate it; the index hands back exactly that neighbourhood.
        reach = rule.value - 1
        for index_a, rect_a in enumerate(rects_a):
            for candidate in index_b.neighbors(rect_a, reach):
                if same_layer and candidate <= index_a:
                    continue   # each unordered pair once, as in the pair scan
                violation = spacing_violation(rule, rect_a, rects_b[candidate])
                if violation is not None:
                    violations.append(violation)
        return violations

    def _check_enclosure(self, rule: DesignRule, outer: List[Rect],
                         outer_index: SpatialIndex,
                         inner: List[Rect]) -> List[DrcViolation]:
        violations = []
        for rect in inner:
            # Conditional rule: enclosure is only required where the two
            # layers actually interact (e.g. implant around *depletion*
            # gates, poly around *poly* contacts).
            triggered = any(outer[i].overlaps(rect, strict=True)
                            for i in outer_index.query(rect, strict=True))
            if not triggered:
                continue
            # Rectangles not touching the grown region can neither contain
            # nor help cover it, so the check runs on the neighbourhood only.
            nearby = [outer[i] for i in outer_index.query(rect.expanded(rule.value))]
            violation = enclosure_violation(rule, rect, nearby, triggered)
            if violation is not None:
                violations.append(violation)
        return violations

    def _check_exact_size(self, rule: DesignRule, rects: List[Rect]) -> List[DrcViolation]:
        violations = []
        for rect in rects:
            violation = exact_size_violation(rule, rect)
            if violation is not None:
                violations.append(violation)
        return violations


def check_cell(cell: Cell, technology: Technology) -> List[DrcViolation]:
    """Convenience wrapper: check one cell against a technology."""
    return DrcChecker(technology).check(cell)


# -- geometry helpers ---------------------------------------------------------------------


def _merge_touching(rects: Sequence[Rect], index: IndexFactory) -> List[Rect]:
    """Merge overlapping/abutting same-layer rectangles into maximal regions.

    Connectivity comes from the index's ``connected_components``; each
    component merges by :func:`merge_group`.
    """
    remaining = [r for r in rects if not r.is_degenerate]
    if not remaining:
        return []
    merged: List[Rect] = []
    for component in index(remaining).connected_components():
        merged.extend(merge_group([remaining[i] for i in component]))
    return merged


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
