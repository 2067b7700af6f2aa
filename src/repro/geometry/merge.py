"""One layer's touching-merge: components, merged regions and mask area.

Three flat passes want the same structure of a layer: the design-rule
checker's width and spacing rules run on the merged regions, the extractor
joins poly and metal nodes by the touching components, and the mask-area
statistic is the covered area.  :class:`MergedLayer` computes all three
from one connectivity sweep, so a flat view
(:meth:`repro.layout.flatten.FlatLayout.layer_merge`) can build it once per
layer and hand it to every pass.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from repro.geometry.index import IndexFactory
from repro.geometry.rect import Rect, merged_area

__all__ = ["MergedLayer", "merge_group"]


def merge_group(group: Sequence[Rect]) -> Sequence[Rect]:
    """The merged form of one touching-closed group of rectangles.

    The merge is approximate: the group's bounding box when the group covers
    it exactly, otherwise the group's own rectangles.  This is sufficient to
    avoid false width errors from rail segments drawn as several pieces.
    """
    return _merge_with_area(group)[0]


def _merge_with_area(group: Sequence[Rect]) -> Tuple[Sequence[Rect], int]:
    """:func:`merge_group` and the area the group covers."""
    first = group[0]
    x1, y1, x2, y2 = first.x1, first.y1, first.x2, first.y2
    if len(group) == 1:
        return group, (x2 - x1) * (y2 - y1)
    for r in group:
        if r.x1 < x1:
            x1 = r.x1
        if r.y1 < y1:
            y1 = r.y1
        if r.x2 > x2:
            x2 = r.x2
        if r.y2 > y2:
            y2 = r.y2
    area = merged_area(group)
    if area != (x2 - x1) * (y2 - y1):
        return group, area
    return [Rect(x1, y1, x2, y2)], area


class MergedLayer:
    """One layer's touching-merge (what width and spacing rules check).

    ``inputs`` are the layer's rects with area (the given list itself when
    every rect has area), ``components`` their touching-closure partition
    (ordered by smallest member), ``merged`` each component's
    :func:`merge_group` output in component order and ``starts[c]``
    component ``c``'s first position in ``merged``
    (``starts[-1] == len(merged)``).  ``area`` is the area the layer
    covers, :func:`~repro.geometry.rect.merged_area` of the rects: distinct
    components share no area, so it is the sum of the components'.
    """

    __slots__ = ("inputs", "components", "merged", "starts", "area")

    def __init__(self, rects: Sequence[Rect], index: IndexFactory):
        inputs = [r for r in rects if r.x1 != r.x2 and r.y1 != r.y2]
        self.inputs = inputs = rects if len(inputs) == len(rects) else inputs
        self.components = index(inputs).connected_components()
        merged: List[Rect] = []
        starts = array("i", [0])
        area = 0
        for component in self.components:
            rects_out, group_area = _merge_with_area(
                [inputs[i] for i in component])
            merged.extend(rects_out)
            area += group_area
            starts.append(len(merged))
        self.merged = merged
        self.starts = starts
        self.area = area

    def slices(self) -> List[Tuple[int, int]]:
        """Component ``c``'s ``(start, length)`` in ``merged``, per ``c``."""
        starts = self.starts
        return [(start, end - start) for start, end in zip(starts, starts[1:])]
