"""All-pairs flat DRC and extraction: the production checks on a naive index.

:class:`BruteDrcChecker` and :class:`BruteExtractor` run exactly the rule
and stage code of their production parents, but answer every neighbourhood
question with :class:`~repro.geometry.index.BruteForceIndex` — a scan of
every rectangle, no grid, no sweep line.  They are the oracles the golden
suites (``test_index_golden``, ``test_hier_golden``, the fault-injection
differentials) and ``bench_e11`` compare the indexed engines against.
"""

from __future__ import annotations

from typing import List

from repro.drc.checker import DrcChecker, DrcViolation
from repro.extract.extractor import ExtractedCircuit, Extractor
from repro.geometry.index import BruteForceIndex
from repro.layout.cell import Cell


class BruteDrcChecker(DrcChecker):
    """:class:`DrcChecker` on all-pairs scans, with no fallback beneath it."""

    def _check_entry(self, cell: Cell) -> List[DrcViolation]:
        return self._check(cell, BruteForceIndex)


class BruteExtractor(Extractor):
    """:class:`Extractor` on all-pairs scans, with no fallback beneath it."""

    def _extract_entry(self, cell: Cell) -> ExtractedCircuit:
        return self._extract(cell, BruteForceIndex)
