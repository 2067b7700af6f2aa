"""Unit tests of the E19 harness itself (fast: no workload is run)."""

import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from benchmarks.e2e import designs, flow, report, run, tracing  # noqa: E402
from benchmarks.e2e.flow import WORKLOADS  # noqa: E402
from benchmarks.e2e.tracing import Span  # noqa: E402

BENCHMARK = report.load_benchmark()


# -- self-time folding ---------------------------------------------------------------


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),          # sibling children of root
        Span(2, 0, "b", 5.0, 9.0),
        Span(3, 2, "c", 6.0, 8.0),          # nested under b
    ]
    stages = tracing.fold(spans)
    assert stages["root"].self_s == pytest.approx(3.0)
    assert stages["a"].self_s == pytest.approx(3.0)
    assert stages["b"].self_s == pytest.approx(2.0)
    assert stages["c"].self_s == pytest.approx(2.0)
    assert stages["b"].inclusive_s == pytest.approx(4.0)
    # Self times partition the root: nothing counted twice, nothing lost.
    assert sum(s.self_s for s in stages.values()) == pytest.approx(10.0)


def test_same_name_nesting_counts_inclusive_time_once():
    spans = [
        Span(0, None, "get", 0.0, 6.0),     # tiered get ...
        Span(1, 0, "get", 1.0, 3.0),        # ... calling the memory tier
        Span(2, 0, "other", 3.0, 4.0),
        Span(3, 2, "get", 3.0, 4.0),        # nested, but not directly
        Span(4, None, "get", 7.0, 8.0),
    ]
    stage = tracing.fold(spans)["get"]
    assert stage.calls == 4
    assert stage.inclusive_s == pytest.approx(7.0)
    assert stage.self_s == pytest.approx(3.0 + 2.0 + 1.0 + 1.0)


def test_overlapping_children_are_covered_once():
    parent = Span(0, None, "p", 0.0, 10.0)
    children = [Span(1, 0, "x", 1.0, 5.0), Span(2, 0, "y", 3.0, 7.0)]
    assert tracing.self_seconds(parent, children) == pytest.approx(4.0)


def test_subtree_keeps_only_descendants():
    spans = [Span(0, None, "setup", 0, 1), Span(1, None, "job", 1, 5),
             Span(2, 1, "in", 2, 3), Span(3, 2, "deep", 2, 3),
             Span(4, None, "after", 5, 6)]
    assert [s.id for s in tracing.subtree(spans, spans[1])] == [1, 2, 3]


def test_recorder_keeps_spans_only_while_tracing():
    recorder = tracing.Recorder()
    with recorder.span("untraced") as span:
        pass
    assert span.seconds >= 0 and recorder.spans == []
    recorder.tracing = True
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", None), ("inner", 0)]


def test_chrome_events_pass_the_repo_validator():
    from repro.obs.trace import validate_events

    spans = [Span(0, None, "flow.iteration", 10.0, 10.5),
             Span(1, 0, "pnr.route", 10.1, 10.4)]
    events = tracing.chrome_events(spans, "family8_build")
    categories, _ = validate_events(events)
    assert categories == {"flow", "pnr"}
    assert events[1]["args"] == {"id": 1, "parent": 0,
                                 "workload": "family8_build"}


# -- the boundary table --------------------------------------------------------------


def test_every_boundary_resolves_and_is_public():
    for name, module, path in tracing.BOUNDARIES:
        _, _, target = tracing.resolve(module, path)
        assert callable(target), (module, path)
        for part in (module + "." + path + "." + name).split("."):
            assert not part.startswith("_"), (module, path, name)


def test_boundaries_are_wrapped_then_restored():
    import repro.layout
    import repro.layout.flatten
    from repro.analysis.hier import HierAnalyzer

    original_method = HierAnalyzer.drc
    original_function = repro.layout.flatten.flatten_cell
    recorder = tracing.Recorder()
    recorder.tracing = True
    with tracing.boundaries_wrapped(recorder) as calls:
        assert HierAnalyzer.drc is not original_method
        # Every by-name copy of the function is rebound, not just the source.
        assert repro.layout.flatten_cell is repro.layout.flatten.flatten_cell
        assert repro.layout.flatten_cell is not original_function
        repro.layout.flatten_cell(repro.layout.Cell("empty"))
        assert calls["flatten_cell"] == 1
    assert HierAnalyzer.drc is original_method
    assert repro.layout.flatten_cell is original_function
    assert [s.name for s in recorder.spans] == ["layout.flatten"]


def test_every_job_expects_only_boundaries_in_the_table():
    paths = {path for _, _, path in tracing.BOUNDARIES}
    fake_run = flow.Run("w", 1, None, tracing.Recorder(), None, flow.Checks(), "")
    jobs = [w.job(fake_run) for w in WORKLOADS.values()]
    jobs += [job for job, _ in flow.reference_jobs(fake_run)]
    for job in jobs:
        assert job.boundaries <= paths, type(job).__name__
    # The two BuildJob workloads differ exactly by the placed-and-routed layers.
    family, tile = jobs[0].boundaries, jobs[1].boundaries
    assert family - tile == {"DatapathGenerator.build", "refine_placement",
                             "PadRing.build", "PnrRouter.route_all",
                             "MazeRouter.route"}
    assert not jobs[3].boundaries       # the logic job touches no layout layer


# -- the speed probe -----------------------------------------------------------------


class FakeCore:
    """A clock, and a kernel whose cost the test sets."""

    def __init__(self):
        self.now = 100.0
        self.cost = 0.001

    def clock(self):
        return self.now

    def kernel(self):
        self.now += self.cost


def fake_probe():
    core = FakeCore()
    return core, tracing.SpeedProbe(clock=core.clock, kernel=core.kernel)


def read_at(core, probe, when, cost):
    """One timer reading of ``cost`` seconds ending at ``when``."""
    core.now, core.cost = when - cost, cost
    probe.on_timer()


def test_probe_slowdown_of_a_stretch_is_read_inside_it():
    core, probe = fake_probe()
    for when, cost in [(199.9, 0.009), (200.5, 0.0012), (200.9, 0.0018),
                       (201.1, 0.009)]:
        read_at(core, probe, when, cost)
    # Two readings inside [200, 201]; the 9 ms ones just outside do not count.
    assert probe.slowdown_between(200.0, 201.0) == pytest.approx(1.5)
    assert probe.spent_between(200.0, 201.0) == pytest.approx(0.003)
    # A reference-speed core reads 1.0; a faster one reads below it.
    read_at(core, probe, 300.0, 0.0008)
    assert probe.slowdown_between(299.5, 300.5) == pytest.approx(0.8)


def test_probe_slowdown_of_a_stretch_too_short_to_hold_a_reading():
    core, probe = fake_probe()
    read_at(core, probe, 200.0, 0.0012)
    read_at(core, probe, 200.1, 0.0020)
    assert probe.slowdown_between(200.02, 200.03) == pytest.approx(1.2)
    assert probe.slowdown_between(200.07, 200.08) == pytest.approx(2.0)
    assert probe.slowdown_between(100.0, 100.001) == pytest.approx(1.2)
    assert probe.slowdown_between(900.0, 900.001) == pytest.approx(2.0)
    assert probe.spent_between(200.02, 200.03) == 0.0


def test_probe_slowdown_outside_an_interval():
    core, probe = fake_probe()
    for when in (101.0, 102.0):
        read_at(core, probe, when, 0.001)
    read_at(core, probe, 150.0, 0.003)              # inside the loop: ignored
    read_at(core, probe, 201.0, 0.002)
    assert probe.slowdown_outside(110.0, 190.0) == pytest.approx(4.0 / 3)


def test_sample_settles_the_heap_outside_the_span():
    recorder = tracing.Recorder()
    recorder.tracing = True
    with recorder.sample("phase") as span:
        pass
    assert [s.name for s in recorder.spans] == ["obs.settle", "phase"]
    settle = recorder.spans[0]
    assert settle.end <= span.start
    assert recorder.settle_s == pytest.approx(settle.seconds)


def _iteration(wall, **samples):
    out = flow.Iteration(wall_s=wall)
    for metric, entries in samples.items():
        for start, seconds, work in entries:
            out.samples[metric].append(flow.Sample(
                Span(-1, None, metric, start, start + seconds), work))
    return out


def test_timing_samples_restate_raw_seconds_at_reference_speed():
    core, probe = fake_probe()
    # At reference speed around t=200; 1.25x slow around t=300, where one
    # 2 ms reading lands inside the second sample; 2x slow at t=400.
    for when, cost in [(202.0, 0.001), (302.0, 0.00125), (303.0, 0.00075),
                       (400.5, 0.002)]:
        read_at(core, probe, when, cost)
    iterations = [_iteration(
        10.0,
        signoff_cold_s=[(200.0, 4.001, 0), (300.0, 5.002, 0)],
        sim_cycles_per_s=[(400.0, 1.002, 1000)])]
    raw, scaled = run.timing_samples(iterations, probe)
    assert raw["signoff_cold_s"] == pytest.approx([4.0, 5.0])
    assert scaled["signoff_cold_s"] == pytest.approx([4.0, 5.0])    # mean reading 1 ms
    assert raw["sim_cycles_per_s"] == pytest.approx([1000.0])
    assert scaled["sim_cycles_per_s"] == pytest.approx([2000.0])
    # The wall time shrinks by what rescaling did to the samples inside it.
    assert raw["wall_s"] == [10.0]
    assert scaled["wall_s"] == pytest.approx([10.0 * (4.0 + 5.0 + 0.5) / 10.0])


def test_own_samples_override_the_reference_job():
    core, probe = fake_probe()
    read_at(core, probe, 100.0, 0.001)              # reference speed throughout
    filler = [_iteration(1.0, compile_s=[(500.0, 0.1, 0)],
                         signoff_warm_s=[(501.0, 0.01, 0)])]
    filler[0].quality = {"chip_area_lambda2": 7, "fmax_mhz": 3.0}
    own = [_iteration(9.0, compile_s=[(510.0, 5.0, 0)]),
           _iteration(9.5, compile_s=[(520.0, 6.0, 0)])]
    own[-1].quality = {"fmax_mhz": 2.5}
    values, owned, summary = run.end_to_end(own, filler, probe)
    assert values["compile_s"] == pytest.approx(5.5)
    assert values["wall_s"] == pytest.approx(9.25)
    assert values["signoff_warm_s"] == pytest.approx(0.01)  # only the reference has it
    assert values["fmax_mhz"] == 2.5 and values["chip_area_lambda2"] == 7
    assert owned == ["compile_s", "fmax_mhz", "wall_s"]
    assert summary["compile_s"]["n"] == 2
    assert summary["compile_s"]["raw_median"] == pytest.approx(5.5)


# -- statistics and compare ----------------------------------------------------------


def test_summary_statistics():
    summary = report.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary["n"] == 5 and summary["median"] == 3.0
    assert (summary["min"], summary["max"]) == (1.0, 5.0)
    assert (summary["q1"], summary["q3"]) == (1.5, 4.5)
    assert report.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == pytest.approx(1.0)
    assert report.summarize([7.0])["q1"] == 7.0 and report.spread([7.0]) == 0.0


LOWER = {"name": "wall_s", "better": "lower", "bound": 0.10}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.10}


@pytest.mark.parametrize("metric, base, new, expected", [
    (LOWER, [10.0, 10.1, 9.9], [10.2, 10.3, 10.1], "unchanged"),
    (LOWER, [10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "improved"),
    (LOWER, [10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "regressed"),
    (HIGHER, [100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "regressed"),
    (HIGHER, [100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "improved"),
    # Spread wider than the bound: the benchmark cannot tell ...
    (LOWER, [10.0, 13.0, 8.0, 11.0], [10.5, 13.5, 8.5, 11.5], "unresolved"),
    (LOWER, [10.0, 13.0, 8.0, 11.0], [12.5, 9.5, 14.0, 11.9], "unresolved"),
    # ... unless every run of one side beats every run of the other.
    (LOWER, [10.0, 13.0, 8.0, 11.0], [5.0, 7.0, 4.0, 6.0], "improved"),
    (LOWER, [5.0, 7.0, 4.0, 6.0], [10.0, 13.0, 8.0, 11.0], "regressed"),
    # Single runs have no spread: the bound alone decides.
    (LOWER, [10.0], [10.9], "unchanged"),
    (LOWER, [10.0], [11.1], "regressed"),
])
def test_compare_verdicts(metric, base, new, expected):
    assert report.verdict(metric, base, new) == expected


def _result(wall, ok=1.0):
    def workload():
        metrics = {metric["name"]: {"runs": [1.0]}
                   for metric in BENCHMARK["end_to_end"]}
        metrics["wall_s"] = {"runs": wall}
        metrics["ok_ratio"] = {"runs": [ok]}
        return {"end_to_end": metrics}
    return {"workloads": {w["name"]: workload() for w in BENCHMARK["workloads"]}}


def test_compare_fails_on_regression_or_failed_checks():
    same = report.compare(BENCHMARK, _result([10.0]), _result([10.2]))
    assert len(same) == len(BENCHMARK["workloads"]) * len(BENCHMARK["end_to_end"])
    # A metric a workload does not itself measure has no row.
    partial = _result([10.0])
    del partial["workloads"]["lfsr_verify"]["end_to_end"]["compile_s"]
    assert len(report.compare(BENCHMARK, partial, _result([10.2]))) == len(same) - 1
    assert not report.failed(same, _result([10.2]))
    slower = report.compare(BENCHMARK, _result([10.0]), _result([14.0]))
    assert report.failed(slower, _result([14.0]))
    assert report.failed(same, _result([10.2], ok=0.95))


def test_compare_refuses_result_files_that_do_not_match():
    base = {"seed": 1979, "run_seconds": 24, "runs": 3}
    assert report.incomparable(base, dict(base)) == ""
    assert "seed" in report.incomparable(base, {**base, "seed": 7})
    assert "run_seconds" in report.incomparable(base, {**base, "run_seconds": 5})
    assert "3 runs" in report.incomparable(base, {**base, "runs": 1})


# -- names ---------------------------------------------------------------------------


def test_names_match_the_declaration():
    declared = lambda section: [m["name"] for m in BENCHMARK[section]]  # noqa: E731
    assert list(run.END_TO_END) == declared("end_to_end")
    assert run.per_layer_names() == sorted(declared("per_layer"))
    assert list(WORKLOADS) == declared("workloads")
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    for name in declared("end_to_end") + declared("per_layer") + list(WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_list_prints_the_declared_names(capsys):
    from benchmarks.e2e.__main__ import main

    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert entry["name"] in printed


# -- seeded inputs -------------------------------------------------------------------


def test_seeded_inputs_are_reproducible_and_work_preserving():
    assert designs.rom_words(7, 32) == designs.rom_words(7, 32)
    assert designs.rom_words(7, 32) != designs.rom_words(8, 32)
    assert sorted(designs.rom_words(8, 32)) == list(range(32))
    slots = designs.edit_slots(3, 198)
    assert slots == designs.edit_slots(3, 198) != designs.edit_slots(4, 198)
    assert len(set(slots)) == len(slots) == 2 * 17
    assert all(x % 12 == 0 and row in (0, 1) for x, row in slots)
    stimulus = designs.lfsr_stimulus(5, 0, 64)
    assert stimulus == designs.lfsr_stimulus(5, 0, 64)
    assert sum(vector["load_0"] for vector in stimulus) == 3
    assert stimulus[0]["load_0"] == 1
