"""Run one workload in this process and print its metrics.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client, one process: set-up (the reference job, then the
workload's own preparation), then the workload's job back to back for about
``--seconds`` seconds, then the oracle checks on the last job's outputs.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one more
job after the untraced ones with the boundary proxies on, and prints the
per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Everything written (the disk tier of the artifact store, up to ~150 MB)
goes under ``.bench_tmp/`` at the repository root and is removed on exit.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmarks/e2e: nothing to measure: {ROOT}/src/repro is missing")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    # Serial workers, no ambient store, tracing off: the benchmark decides.
    # Before the first ``repro`` import, which arms REPRO_TRACE at import.
    for _name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[_name]

from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.geometry import Rect
from repro.geometry.index import build_index
from repro.layout import flatten_cell
from repro.technology import nmos_technology

from benchmarks.e2e import flow, report, tracing

#: The end-to-end metrics, in the order BENCHMARK.json declares them.
END_TO_END = (
    "setup_s", "wall_s", "compile_s", "signoff_cold_s", "signoff_warm_s",
    "signoff_warm_disk_s", "signoff_incremental_s", "sim_cycles_per_s",
    "stream_cycles_per_s", "peak_rss_mb", "ok_ratio", "chip_area_lambda2",
    "route_length_lambda", "fmax_mhz", "cif_bytes")

#: Per-layer metrics that are counts or probes, not span times.
COUNT_METRICS = (
    "pnr.place.moves_tried", "pnr.place.hpwl_final", "pnr.route.nets",
    "pnr.route.completion", "pnr.route.maze_calls", "pnr.route.ripup_attempts",
    "layout.flatten_s", "layout.flatten_calls", "layout.flat_shapes",
    "cif.bytes", "drc.violations", "extract.transistors",
    "parallel.flat_signoff_w2_s", "geometry.index_build_s",
    "geometry.index_queries_per_s", "store.get_calls", "store.put_calls",
    "store.hit_ratio", "store.memory_evictions", "store.disk_bytes_written",
    "store.disk_entries", "rtl.gates", "sim.gate_evals_per_s",
    "sim.settle_iterations", "obs.trace_overhead_ratio")

#: Per-layer time metric -> span name.  ``*_self_s`` reads the self time.
SPAN_METRICS = {
    "generators.datapath_s": "generators.datapath",
    "generators.pla_s": "generators.pla",
    "generators.rom_s": "generators.rom",
    "pnr.place_s": "pnr.place",
    "pnr.route_s": "pnr.route",
    "pnr.route.maze_s": "pnr.route.maze",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.assemble_self_s": "assembly.assemble",
    "assembly.pad_ring_s": "assembly.pad_ring",
    "assembly.sign_off_s": "assembly.sign_off",
    "assembly.sign_off_self_s": "assembly.sign_off",
    "cif.write_s": "cif.write",
    "cif.parse_s": "cif.parse",
    "analysis.drc_s": "analysis.drc",
    "analysis.extract_s": "analysis.extract",
    "analysis.erc_s": "analysis.erc",
    "analysis.timing_s": "analysis.timing",
    "analysis.measure_s": "analysis.measure",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "rtl.parse_s": "rtl.parse",
    "rtl.compile_s": "rtl.compile",
    "netlist.flatten_s": "netlist.flatten",
    "netlist.compare_s": "netlist.compare",
    "sim.lower_s": "sim.lower",
    "sim.scalar_run_s": "sim.scalar_run",
    "sim.stream_run_s": "sim.stream_run",
    "timing.sta_s": "timing.sta",
}

#: The same, read from the verification pass (the oracles run there).
ORACLE_SPAN_METRICS = {
    "drc.flat_check_s": "drc.flat_check",
    "extract.flat_extract_s": "extract.flat_extract",
    "rtl.reference_sim_s": "rtl.reference_sim",
}


def per_layer_names():
    return sorted({*SPAN_METRICS, *ORACLE_SPAN_METRICS, *COUNT_METRICS})


def drive(job, run, keep_going):
    """Iterate ``job`` while ``keep_going(iterations, elapsed)``."""
    iterations = []
    started = time.perf_counter()
    while True:
        iteration = job.iterate()
        if iterations and iteration.fingerprint:
            run.checks.expect("outputs identical across iterations",
                              iteration.fingerprint == iterations[0].fingerprint)
        iterations.append(iteration)
        if not keep_going(iterations, time.perf_counter() - started):
            return iterations


def for_seconds(seconds):
    """Keep going until the total lands nearest ``seconds``."""
    def keep_going(iterations, elapsed):
        return elapsed + 0.5 * elapsed / len(iterations) <= seconds
    return keep_going


def reference(run, warm_up_only):
    """Every reference job prepared, iterated and verified; their iterations."""
    iterations = []
    for job, reps in flow.reference_jobs(run):
        if warm_up_only:
            reps = 1
        try:
            job.prepare()
            iterations += drive(job, run, lambda done, _: len(done) < reps)
            job.verify()
        finally:
            job.close()
    return iterations


def timing_samples(iterations, probe):
    """Every timing sample of ``iterations``, raw and in reference-speed terms.

    A sample's raw time is its span less the probe readings taken inside
    it; its reference-speed time is that over the slowdown the probe read
    inside it.  An iteration's wall time is rescaled by what that did to the
    samples inside it, which are all but a few percent of it.
    """
    raw = {"wall_s": []}
    scaled = {"wall_s": []}
    for iteration in iterations:
        raw_total = scaled_total = 0.0
        for metric, samples in iteration.samples.items():
            for sample in samples:
                span = sample.span
                seconds = span.seconds - probe.spent_between(span.start, span.end)
                scaled_seconds = seconds / probe.slowdown_between(span.start,
                                                                 span.end)
                raw_total += seconds
                scaled_total += scaled_seconds
                work = sample.work
                raw.setdefault(metric, []).append(
                    work / seconds if work else seconds)
                scaled.setdefault(metric, []).append(
                    work / scaled_seconds if work else scaled_seconds)
        raw["wall_s"].append(iteration.wall_s)
        scaled["wall_s"].append(iteration.wall_s * scaled_total / raw_total)
    return raw, scaled


def end_to_end(own, filler, probe):
    """Values of the timing and quality metrics, and which of them are ``own``.

    A workload measures the metrics its job's iterations sample; the
    reference job's iterations (``filler``) supply the others, because the
    driver wants every metric from every run.
    """
    raw, scaled = timing_samples(own, probe)
    _, filler_scaled = timing_samples(filler, probe)
    del filler_scaled["wall_s"]
    values = {name: statistics.median(samples)
              for name, samples in {**filler_scaled, **scaled}.items()}
    quality = {}
    for iteration in filler + own:
        quality.update(iteration.quality)
    values.update(quality)
    owned = sorted({*scaled, *own[-1].quality})
    return values, owned, {
        name: {**report.summarize(samples),
               "raw_median": statistics.median(raw[name])}
        for name, samples in scaled.items()}


def probes(design, technology, seed, recorder, checks):
    """Layer figures no flow job produces: index speed, sharded flat sign-off."""
    metal = flatten_cell(design.top).rects_by_layer()["metal"]
    with recorder.span("geometry.index_build") as build:
        index = build_index(metal)
    box = design.top.bbox()
    rng = random.Random(f"probe/{seed}")
    windows = []
    for _ in range(10_000):
        x, y = rng.randrange(box.x1, box.x2), rng.randrange(box.y1, box.y2)
        windows.append(Rect(x, y, x + 20, y + 20))
    with recorder.span("geometry.index_query") as query:
        hits = sum(len(index.query(window)) for window in windows)
    checks.expect("index probe finds metal", hits > 0)

    serial = DrcChecker(technology).check(design.top)
    os.environ["REPRO_WORKERS"] = "2"
    try:
        with recorder.span("parallel.flat_signoff_w2") as sharded:
            violations = DrcChecker(technology).check(design.top)
            Extractor(technology).extract(design.top)
    finally:
        del os.environ["REPRO_WORKERS"]
    checks.expect("sharded flat DRC equals serial", violations == serial)
    return {"geometry.index_build_s": build.seconds,
            "geometry.index_queries_per_s": len(windows) / query.seconds,
            "parallel.flat_signoff_w2_s": sharded.seconds}


def traced_pass(job, run, untraced):
    """One more job with the boundary proxies on: per-layer values and detail."""
    recorder = run.recorder
    recorder.tracing = True
    with tracing.boundaries_wrapped(recorder) as calls:
        traced = job.iterate()
        if traced.fingerprint:
            run.checks.expect("traced outputs identical to untraced",
                              traced.fingerprint == untraced[0].fingerprint)
        counts = job.verify()
    if job.design is not None:
        counts.update(probes(job.design, run.technology, run.seed, recorder,
                             run.checks))
    recorder.tracing = False

    idle = sorted(path for path in job.boundaries if calls[path] == 0)
    if idle:
        sys.exit(f"boundaries never called: {idle}")
    root = next(span for span in recorder.spans if span.name == "flow.iteration")
    in_job = tracing.fold(tracing.subtree(recorder.spans, root))
    everything = tracing.fold(recorder.spans)

    def read(stages, metric, span_name):
        stage = stages.get(span_name)
        if stage is None:
            return 0.0
        return stage.self_s if metric.endswith("_self_s") else stage.inclusive_s

    # A layer the job never enters reads 0.
    values = dict.fromkeys(per_layer_names(), 0.0)
    values.update({metric: read(in_job, metric, name)
                   for metric, name in SPAN_METRICS.items()})
    values.update({metric: read(everything, metric, name)
                   for metric, name in ORACLE_SPAN_METRICS.items()})
    maze = in_job.get("pnr.route.maze")
    flatten = everything.get("layout.flatten")
    _, scaled = timing_samples(untraced + [traced], run.probe)
    values.update({
        "pnr.route.maze_calls": maze.calls if maze else 0,
        "layout.flatten_s": flatten.inclusive_s if flatten else 0.0,
        "layout.flatten_calls": flatten.calls if flatten else 0,
        "obs.trace_overhead_ratio":
            scaled["wall_s"][-1] / statistics.median(scaled["wall_s"][:-1]),
    })
    values.update(traced.counts)
    values.update(counts)
    return values, {
        "traced_wall_s": root.seconds,
        "stage_table": tracing.stage_table(in_job, root.seconds),
        "trace_events": tracing.chrome_events(recorder.spans, run.workload),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(flow.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1979)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="FILE",
                        help="also write sample statistics, the stage table and "
                             "(traced) the Chrome trace events as JSON")
    args = parser.parse_args(argv)

    benchmark = report.load_benchmark()
    unit_of = report.units(benchmark)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    probe = tracing.SpeedProbe()
    checks = flow.Checks()
    tmp_root = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp_root)
    run = flow.Run(args.workload, args.seed, nmos_technology(),
                   tracing.Recorder(), probe, checks, tmp_root)
    detail = {"workload": args.workload, "seed": args.seed}
    job = flow.WORKLOADS[args.workload].job(run)
    # What the imports built is never garbage: keep it out of the harness's
    # per-sample collections (3 ms each instead of 15).
    gc.collect()
    gc.freeze()
    probe.start()
    try:
        # Traced, the reference job is only the warm-up: one repetition.
        filler = reference(run, warm_up_only=bool(args.trace))
        job.prepare()
        loop_started = time.perf_counter()
        iterations = drive(job, run, for_seconds(seconds))
        loop_ended = time.perf_counter()
        detail["iterations"] = len(iterations)

        if args.trace:
            values, traced_detail = traced_pass(job, run, iterations)
            detail.update(traced_detail)
        else:
            job.verify()
            values, detail["owned"], detail["samples"] = end_to_end(
                iterations, filler, probe)
            # Set-up is the run less the measured iterations, at the speed
            # the timer readings outside the loop saw.
            setup_s = (time.perf_counter() - _PROCESS_START
                       - sum(iteration.elapsed_s for iteration in iterations))
            values["setup_s"] = setup_s / probe.slowdown_outside(
                loop_started, loop_ended)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            values["ok_ratio"] = checks.ok_ratio
            detail["owned"] += ["setup_s", "peak_rss_mb", "ok_ratio"]
            detail["raw_setup_s"] = setup_s
    finally:
        probe.stop()
        job.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass                    # another run is still using it

    for failure in checks.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": unit_of[metric["name"]]}
               for metric in benchmark[section]}
    if args.detail:
        detail.update(checks_attempted=checks.attempted,
                      checks_failed=checks.failures, metrics=metrics)
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
