"""One command for the whole benchmark.

    PYTHONPATH=src python -m benchmarks.e2e run [--seed N] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e list

``run`` launches ``run.py`` ``RUNS`` times per workload, each in a fresh
subprocess — one process at a time, so ``peak_rss_mb`` and the
process-global memos are per run — then once more per workload with tracing
on, and prints every metric by name with its unit plus a per-workload stage
table.  A workload's table holds the metrics its own job measures; the
reference-job readings that fill the rest of a driver line are left out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

from repro.metrics import format_table
from repro.obs import trace as obs_trace

from benchmarks.e2e import report, run as leaf
from benchmarks.e2e.flow import WORKLOADS

LEAF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: Untraced runs per workload.  Fixed: ``compare`` needs a run-to-run spread
#: on both sides to tell "unchanged" from "unresolved".
RUNS = 3


def launch(workload: str, seed: int, seconds: int, trace: int,
           scratch: str) -> dict:
    """One ``run.py`` subprocess; returns its detail record."""
    detail_path = os.path.join(scratch, "detail.json")
    command = [sys.executable, LEAF, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--detail", detail_path]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload}: run.py exited with {done.returncode}")
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    detail["correct"] = json.loads(done.stdout.splitlines()[-1])["correct"]
    return detail


def git_commit() -> str:
    try:
        return subprocess.run(["git", "-C", report.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def command_run(args) -> int:
    benchmark = report.load_benchmark()
    seconds = benchmark["run_seconds"]
    result = {
        "provenance": {
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "seed": args.seed, "runs": RUNS,
            "run_seconds": seconds, "iterations": {},
        },
        "workloads": {},
    }
    events: List[dict] = []
    ok = True
    os.makedirs(os.path.join(report.ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="main-",
                               dir=os.path.join(report.ROOT, ".bench_tmp"))
    try:
        for name, workload in WORKLOADS.items():
            print(f"== {name}: {workload.why}", flush=True)
            runs = [launch(name, args.seed, seconds, 0, scratch)
                    for _ in range(RUNS)]
            traced = launch(name, args.seed, seconds, 1, scratch)
            ok = ok and traced["correct"] and all(run["correct"] for run in runs)
            events.extend(traced.pop("trace_events"))
            result["provenance"]["iterations"][name] = [
                run["iterations"] for run in runs]

            end_to_end: Dict[str, dict] = {}
            rows = []
            for metric in benchmark["end_to_end"]:
                key = metric["name"]
                if key not in runs[0]["owned"]:
                    continue
                values = [run["metrics"][key]["value"] for run in runs]
                entry = {"unit": metric["unit"], "runs": values,
                         **report.summarize(values)}
                # Within-run sample statistics of the first run's iterations.
                if key in runs[0]["samples"]:
                    entry["samples"] = runs[0]["samples"][key]
                end_to_end[key] = entry
                rows.append([key, f"{entry['median']:.6g}", metric["unit"],
                             f"{100 * report.spread(values):.1f}%",
                             str(entry.get("samples", {}).get("n", "-"))])
            print(format_table(
                ["end-to-end metric", "median", "unit", "run spread", "samples/run"],
                rows))
            print(format_table(
                ["per-layer metric", "value", "unit"],
                [[key, f"{entry['value']:.6g}", entry["unit"]]
                 for key, entry in traced["metrics"].items()]))
            print(format_table(
                ["stage", "inclusive s", "self s", "calls", "share of wall"],
                traced["stage_table"],
                f"{name}: traced iteration, {traced['traced_wall_s']:.3f} s"))
            print(flush=True)
            result["workloads"][name] = {
                "end_to_end": end_to_end, "per_layer": traced["metrics"],
                "stage_table": traced["stage_table"],
                "traced_wall_s": traced["traced_wall_s"],
                "failed_checks": [failure for run in runs + [traced]
                                  for failure in run["checks_failed"]],
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass                    # someone else's run is still in there

    obs_trace.validate_events(events)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        print(f"wrote {args.trace_out} ({len(events)} spans)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def command_compare(args) -> int:
    benchmark = report.load_benchmark()
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    mismatch = report.incomparable(base["provenance"], new["provenance"])
    if mismatch:
        sys.exit(f"not comparable: {mismatch}")
    rows = report.compare(benchmark, base, new)
    print(format_table(
        ["workload", "metric", "base", "new", "change", "verdict"], rows))
    return 1 if report.failed(rows, new) else 0


def command_list(args) -> int:
    print("workloads:", *WORKLOADS)
    print("end_to_end:", *leaf.END_TO_END)
    print("per_layer:", *leaf.per_layer_names())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload and print every metric")
    run.add_argument("--seed", type=int, default=1979)
    run.add_argument("--out", metavar="FILE", help="write the result JSON here")
    run.add_argument("--trace-out", metavar="FILE",
                     help="write the traced runs' Chrome trace-event JSON here")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=command_compare)
    commands.add_parser("list", help="print the names a run would emit"
                        ).set_defaults(handler=command_list)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
