"""Metric declarations, sample statistics and result comparison.

``BENCHMARK.json`` at the repository root is the single declaration of
every workload and metric (name, unit, direction, bound); this module
reads it rather than repeating it.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def units(benchmark: dict) -> Dict[str, str]:
    return {metric["name"]: metric["unit"]
            for section in ("end_to_end", "per_layer")
            for metric in benchmark[section]}


# -- sample statistics -----------------------------------------------------------------


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median plus what a reader needs to judge it.

    No tail percentile: no workload has ten samples beyond one.
    """
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


# -- comparing two result files --------------------------------------------------------


def verdict(metric: dict, base: Sequence[float], new: Sequence[float]) -> str:
    """improved / unchanged / regressed / unresolved for one metric.

    ``base`` and ``new`` are the per-run values of the two sides.  The
    change is the new median against the base median, signed so that
    positive is worse.  Within the bound it is "unchanged" — unless the
    run-to-run spread of either side is wider than the bound, which reads
    "unresolved": the benchmark cannot tell.  A spread that wide does not
    hide a clean separation, so when every run of one side beats every run
    of the other the verdict stands whatever the spread.
    """
    lower_is_better = metric["better"] == "lower"
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = (new_median - base_median) / base_median
    if not lower_is_better:
        worse_by = -worse_by
    if lower_is_better:
        new_wins, base_wins = max(new) < min(base), max(base) < min(new)
    else:
        new_wins, base_wins = min(new) > max(base), min(base) > max(new)
    bound = metric["bound"]
    noisy = max(spread(base), spread(new)) > bound
    if worse_by > bound:
        return "regressed" if base_wins or not noisy else "unresolved"
    if worse_by < -bound:
        return "improved" if new_wins or not noisy else "unresolved"
    return "unresolved" if noisy and bound > 0 else "unchanged"


def incomparable(base: dict, new: dict) -> str:
    """Why two result files' provenances forbid comparing them ("" if none).

    Different seeds are different inputs and a different ``run_seconds`` is
    a different number of samples; with fewer than three runs a side has no
    run-to-run spread, and every blip would read as a verdict.
    """
    for key in ("seed", "run_seconds"):
        if base[key] != new[key]:
            return f"{key} differs ({base[key]} vs {new[key]})"
    if min(base["runs"], new["runs"]) < 3:
        return "fewer than 3 runs on one side"
    return ""


def compare(benchmark: dict, base: dict, new: dict) -> List[List[str]]:
    """Rows ``[workload, metric, base median, new median, change, verdict]``.

    One row per end-to-end metric a workload itself measures.
    """
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        base_metrics = base["workloads"][name]["end_to_end"]
        new_metrics = new["workloads"][name]["end_to_end"]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            if key not in base_metrics or key not in new_metrics:
                continue
            base_runs, new_runs = base_metrics[key]["runs"], new_metrics[key]["runs"]
            base_median = statistics.median(base_runs)
            new_median = statistics.median(new_runs)
            rows.append([name, key, f"{base_median:.6g}", f"{new_median:.6g}",
                         f"{100.0 * (new_median - base_median) / base_median:+.1f}%",
                         verdict(metric, base_runs, new_runs)])
    return rows


def failed(rows: Sequence[Sequence[str]], new: dict) -> bool:
    """Any regression, or any run of the new side with ``ok_ratio`` < 1."""
    if any(row[-1] == "regressed" for row in rows):
        return True
    return any(min(result["end_to_end"]["ok_ratio"]["runs"]) < 1.0
               for result in new["workloads"].values())
