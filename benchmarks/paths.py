"""One place that knows where benchmark artifacts live.

Every writer (``conftest.record_bench``) and reader
(``check_regression``, CI steps, ad-hoc analysis) resolves artifact
locations through these helpers, so relocating the results directory is a
one-line change instead of a grep across the benchmark suite.
"""

import os

#: Directory containing this file (the benchmark suite root).
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def results_dir() -> str:
    """The benchmark results directory, ``benchmarks/results/``.

    Committed, so the performance trajectory stays diffable across PRs; CI
    copies the committed baselines aside before a run overwrites them.
    """
    return os.path.join(BENCH_DIR, "results")


def ensure_results_dir() -> str:
    """Create the results directory if needed; returns its path."""
    path = results_dir()
    os.makedirs(path, exist_ok=True)
    return path


def bench_result_path(experiment: str) -> str:
    """The ``BENCH_<experiment>.json`` artifact for one experiment.

    ``experiment`` is the experiment id (``"e13"``); passing a path that
    already names a JSON file returns it unchanged, so command-line tools
    can accept either form.
    """
    if experiment.endswith(".json"):
        return experiment
    return os.path.join(results_dir(), f"BENCH_{experiment}.json")
