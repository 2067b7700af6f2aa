"""Guard benchmark results against regressions.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json [FACTOR]
    python benchmarks/check_regression.py --exact BASELINE CURRENT FIELD...
    python benchmarks/check_regression.py --summarize
    ... benchmarks/e2e/run.py ... | python benchmarks/check_regression.py \
        --e19 <chip_area_lambda2> <route_length_lambda> <cif_bytes> <fmax_mhz>
    ... benchmarks/e2e/run.py ... --trace 1 | \
        python benchmarks/check_regression.py --e19-counts NAME=VALUE...

Either argument may also be a bare experiment id (``e13``), which resolves
to its ``BENCH_<id>.json`` in the results directory via
:mod:`benchmarks.paths`.

Compares every ``*speedup*`` field of a freshly measured bench JSON
against the committed baseline and exits non-zero if any fell by more
than ``FACTOR`` (default 2.0).  Speedup ratios are compared rather than
raw wall times because both sides of each ratio are measured on the same
machine in the same run — a slower CI runner shifts the numerator and
denominator together, so the guard stays meaningful across machines.

``--exact`` instead requires the named fields to be *equal* in both files:
for counts that repeat exactly from run to run on any machine (search
expansions, route lengths), where any difference means behaviour moved.

``--e19`` reads the end-to-end driver's output on stdin and checks its last
line: ``"correct": true``, and the four quality-of-result counts equal to
the values given (the three integer counts exactly, ``fmax_mhz`` to 1e-9
relative) — a chip that moved fails the smoke even if every oracle check
inside the harness still agrees with itself.  ``--e19-counts`` checks the
same verdict and that each named metric (per-layer ones included, with
``--trace 1``) equals its value exactly: for counts such as
``sim.settle_iterations`` that a wrong shortcut would move silently.

``--summarize`` instead prints the committed performance trajectory: one
row per ``BENCH_e*.json`` in the results directory, showing each
experiment's speedup fields (falling back to ``wall_time_s`` for
experiments that measure no ratio) and what measured them: the commit,
the Python version and the CPU count ``record_bench`` stamped.
"""

import glob
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from paths import bench_result_path, results_dir  # noqa: E402


def summarize() -> int:
    """Print one trajectory row per committed BENCH_e*.json."""
    directory = results_dir()
    paths = glob.glob(os.path.join(directory, "BENCH_e*.json"))
    if not paths:
        print(f"no BENCH_e*.json results in {directory}")
        return 2

    def experiment_number(path):
        match = re.search(r"BENCH_e(\d+)", os.path.basename(path))
        return int(match.group(1)) if match else 0

    rows = []
    for path in sorted(paths, key=experiment_number):
        with open(path) as handle:
            result = json.load(handle)
        experiment = result.get(
            "experiment", os.path.basename(path)[len("BENCH_"):-len(".json")])
        stamp = (f"{result['commit']} py{result['python']} "
                 f"{result['cpu_count']}cpu" if "commit" in result else "-")
        ratios = sorted(
            key for key in result
            if "speedup" in key and isinstance(result[key], (int, float))
        )
        if ratios:
            for field in ratios:
                rows.append((experiment, field, f"{result[field]:.2f}x",
                             stamp))
        elif isinstance(result.get("wall_time_s"), (int, float)):
            rows.append((experiment, "wall_time_s",
                         f"{result['wall_time_s']:.3f}s", stamp))
        else:
            rows.append((experiment, "-", "no speedup or wall-time field",
                         stamp))

    header = ("experiment", "metric", "value", "measured on")
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    line = "  ".join(name.ljust(width) for name, width in zip(header, widths))
    print(line)
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 0


def check_exact(baseline_path: str, current_path: str, fields) -> int:
    """Fail unless every named field is equal in both result files."""
    with open(bench_result_path(baseline_path)) as handle:
        baseline = json.load(handle)
    with open(bench_result_path(current_path)) as handle:
        current = json.load(handle)
    failures = 0
    for field in fields:
        committed, measured = baseline.get(field), current.get(field)
        same = committed is not None and committed == measured
        print(f"{field}: committed {committed}, measured {measured} -> "
              f"{'ok' if same else 'DIFFERS'}")
        failures += not same
    return 1 if failures else 0


E19_QUALITY = ("chip_area_lambda2", "route_length_lambda", "cif_bytes",
               "fmax_mhz")


def read_e19(stream):
    """The driver's last stdout line as JSON, and its failure count so far
    (1 unless ``"correct": true``)."""
    lines = stream.read().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    failures = result.get("correct") is not True
    print(f"correct: {result.get('correct')} -> "
          f"{'DIFFERS' if failures else 'ok'}")
    return result, int(failures)


def e19_value(result, field):
    return result.get("metrics", {}).get(field, {}).get("value")


def check_e19(expected, stream) -> int:
    """Fail unless the driver's last line is correct and its four quality
    counts are the ``expected`` ones (in ``E19_QUALITY`` order)."""
    result, failures = read_e19(stream)
    for field, text in zip(E19_QUALITY, expected):
        measured = e19_value(result, field)
        if field == "fmax_mhz":
            want = float(text)
            same = (measured is not None
                    and abs(measured - want) <= 1e-9 * abs(want))
        else:
            same = measured == int(text)
        print(f"{field}: expected {text}, measured {measured} -> "
              f"{'ok' if same else 'DIFFERS'}")
        failures += not same
    return 1 if failures else 0


def check_e19_counts(pins, stream) -> int:
    """Fail unless the driver's last line is correct and every ``NAME=VALUE``
    pin names a metric whose value is exactly ``VALUE``."""
    result, failures = read_e19(stream)
    for pin in pins:
        field, _, text = pin.partition("=")
        measured = e19_value(result, field)
        same = measured is not None and measured == float(text)
        print(f"{field}: expected {text}, measured {measured} -> "
              f"{'ok' if same else 'DIFFERS'}")
        failures += not same
    return 1 if failures else 0


def main(argv) -> int:
    if len(argv) >= 2 and argv[1] == "--summarize":
        return summarize()
    if len(argv) == 2 + len(E19_QUALITY) and argv[1] == "--e19":
        return check_e19(argv[2:], sys.stdin)
    if len(argv) >= 3 and argv[1] == "--e19-counts":
        return check_e19_counts(argv[2:], sys.stdin)
    if len(argv) >= 5 and argv[1] == "--exact":
        return check_exact(argv[2], argv[3], argv[4:])
    if len(argv) < 3:
        print(__doc__)
        return 2
    baseline_path = bench_result_path(argv[1])
    current_path = bench_result_path(argv[2])
    factor = float(argv[3]) if len(argv) > 3 else 2.0

    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)

    ratio_fields = sorted(
        key for key in baseline
        if "speedup" in key and isinstance(baseline[key], (int, float))
    )
    if not ratio_fields:
        print(f"no speedup fields in {baseline_path}; nothing to check")
        return 2

    failures = []
    for field in ratio_fields:
        committed = baseline[field]
        measured = current.get(field)
        if measured is None:
            failures.append(f"{field}: missing from {current_path}")
            continue
        floor = committed / factor
        status = "ok" if measured >= floor else "REGRESSED"
        print(f"{field}: committed {committed:.2f}x, measured {measured:.2f}x, "
              f"floor {floor:.2f}x -> {status}")
        if measured < floor:
            failures.append(
                f"{field}: {measured:.2f}x is more than {factor:.1f}x below "
                f"the committed {committed:.2f}x"
            )

    if failures:
        print("benchmark regression detected:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
