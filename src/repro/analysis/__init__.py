"""Hierarchical incremental analysis.

The flat analysis passes (:mod:`repro.drc`, :mod:`repro.extract`,
:mod:`repro.metrics`) re-examine every rectangle of every instance on every
run.  This package exploits the hierarchy instead: each unique cell is
analyzed once per mutation version (and per placement orientation), the
results are cached, and whole-chip answers are composed from the cached
per-cell artifacts plus a thin interface pass around instance boundaries.
The composed results are byte-identical to the flat reference paths — the
differential suite in ``tests/test_hier_golden.py`` pins this.
"""

from repro.analysis.hier import HierAnalyzer

__all__ = ["HierAnalyzer"]
