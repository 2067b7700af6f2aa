"""All-pairs flat DRC and extraction: the production checks on a naive index.

:class:`BruteDrcChecker` and :class:`BruteExtractor` run exactly the rule
and stage code of their production parents, but answer every neighbourhood
question with :class:`~repro.geometry.index.BruteForceIndex` — a scan of
every rectangle, no grid, no sweep line.  They are the oracles the golden
suites (``test_index_golden``, ``test_hier_golden``, the fault-injection
differentials) and ``bench_e11`` compare the indexed engines against.
:func:`column_merged_area` is the same kind of oracle for the area sweep.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.drc.checker import DrcChecker
from repro.extract.extractor import Extractor
from repro.geometry.index import BruteForceIndex
from repro.geometry.rect import Rect


class BruteDrcChecker(DrcChecker):
    """:class:`DrcChecker` on all-pairs scans."""

    index = BruteForceIndex


class BruteExtractor(Extractor):
    """:class:`Extractor` on all-pairs scans."""

    index = BruteForceIndex


def column_merged_area(rects: Iterable[Rect]) -> int:
    """Covered area by a rescan of every rectangle per x-column.

    The oracle of :func:`repro.geometry.rect.merged_area`'s sweep: between
    each pair of adjacent distinct x-coordinates, collect the y-spans of the
    rectangles spanning that column and add their union's length times the
    column width.
    """
    rect_list = [r for r in rects if not r.is_degenerate]
    xs = sorted({r.x1 for r in rect_list} | {r.x2 for r in rect_list})
    total = 0
    for left, right in zip(xs, xs[1:]):
        spans = sorted((r.y1, r.y2) for r in rect_list
                       if r.x1 <= left and r.x2 >= right)
        covered = 0
        start: Optional[int] = None
        end: Optional[int] = None
        for y1, y2 in spans:
            if end is None:
                start, end = y1, y2
            elif y1 <= end:
                end = max(end, y2)
            else:
                covered += end - start
                start, end = y1, y2
        if end is not None:
            covered += end - start
        total += covered * (right - left)
    return total
