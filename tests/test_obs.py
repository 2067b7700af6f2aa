"""Observability suite: tracing, the metrics registry and VCD export.

Covers the three pillars of ``repro.obs`` in isolation (span semantics,
registry arithmetic, VCD round-trips through the in-repo reader) and then
end to end: a traced sign-off of a real example chip must emit a valid
Chrome trace-event JSON whose categories span the whole flow, and the
``flow_metrics`` snapshot attached to every sign-off must keep its
committed shape on all four example designs.

Goldens live in ``tests/golden/``; set ``REPRO_UPDATE_GOLDENS=1`` to
regenerate them after an intentional change.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import HierAnalyzer
from repro.diagnostics import (
    Budget,
    BudgetExceeded,
    Diagnostic,
    DiagnosticCollector,
    Severity,
    run_with_fallback,
)
from repro.generators import FsmLayoutGenerator, PlaGenerator
from repro.logic import TruthTable, parse_expr
from repro.netlist import GateLevelSimulator, GateType, Module, SwitchLevelSimulator
from repro.obs import metrics, trace, vcd
from repro.rtl import RtlSimulator, parse_rtl
from repro.technology import nmos_technology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402
from test_netlist import ratioed_network  # noqa: E402
from tile_array import TileArray  # noqa: E402
from traffic_light_controller import build_fsm  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
UPDATE_GOLDENS = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: Metric families whose *names* are deterministic per chip regardless of
#: wall-clock.
GOLDEN_METRIC_PREFIXES = ("budget.", "diagnostics.", "fallback.", "pnr.",
                         "store.")

LFSR_RTL = """
machine lfsr8;
input seed[8], load[1];
output q[8];
register state[8];
always begin
    if (load) state <- seed;
    else state <- {state[6:0], state[7] ^ state[5] ^ state[4] ^ state[3]};
    q = state;
end
"""


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Each test starts and ends with tracing off and an empty buffer.

    The cyclic collector is off in between: while tracing is armed each of
    its runs is a ``runtime.gc`` event, and a test that counts the events it
    recorded must not depend on when the interpreter chose to collect.
    """
    trace.disable()
    trace.reset()
    gc.disable()
    yield
    gc.enable()
    trace.disable()
    trace.reset()


def adder_module() -> Module:
    module = Module("obs_adder")
    module.add_inputs("a", "b", "cin")
    module.add_outputs("sum", "carry")
    module.add_gate(GateType.XOR, "ab", ["a", "b"])
    module.add_gate(GateType.XOR, "sum", ["ab", "cin"])
    module.add_gate(GateType.AND, "ab_and", ["a", "b"])
    module.add_gate(GateType.AND, "ac_and", ["a", "cin"])
    module.add_gate(GateType.AND, "bc_and", ["b", "cin"])
    module.add_gate(GateType.OR, "carry", ["ab_and", "ac_and", "bc_and"])
    return module


# -- spans ---------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_one_shared_noop(self):
        assert not trace.enabled()
        first = trace.span("x", cat="test", a=1)
        second = trace.span("y")
        assert first is second          # no allocation on the disabled path
        with first as span:
            span.set(found=3)           # attribute calls must be accepted
        assert trace.drain() == []

    def test_enabled_span_records_complete_event(self):
        trace.enable()
        with trace.span("obs.unit", cat="test", cell="c1") as span:
            span.set(violations=2)
        events = trace.drain()
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "obs.unit"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["args"] == {"cell": "c1", "violations": 2}
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0

    def test_span_tags_exceptions(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("obs.fail", cat="test"):
                raise RuntimeError("boom")
        events = trace.drain()
        assert events[0]["args"]["error"] == "RuntimeError"

    def test_instant_event(self):
        trace.enable()
        trace.instant("obs.mark", cat="test", note="here")
        events = trace.drain()
        assert events[0]["ph"] == "i"

    def test_write_and_read_roundtrip(self, tmp_path):
        trace.enable()
        with trace.span("obs.io", cat="test"):
            pass
        path = str(tmp_path / "trace.json")
        trace.write(path)
        info = trace.read_trace(path)
        assert info["categories"] == {"test"}
        assert info["pids"] == {os.getpid()}
        assert len(info["events"]) == 1

    def test_validate_events_rejects_malformed(self):
        with pytest.raises(ValueError):
            trace.validate_events([{"ph": "X", "name": "n"}])
        with pytest.raises(ValueError):
            trace.validate_events([{"ph": "Q"}])


# -- the metrics registry ------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = metrics.MetricsRegistry()
        counter = registry.counter("obs.hits")
        counter.inc()
        counter.inc(4)
        registry.gauge("obs.level").set(0.5)
        histogram = registry.histogram("obs.sizes")
        for value in (1, 2, 9):
            histogram.observe(value)
        snap = registry.snapshot()
        assert snap["obs.hits"] == 5
        assert snap["obs.level"] == 0.5
        assert snap["obs.sizes"] == {
            "count": 3, "sum": 12, "min": 1, "max": 9, "mean": 4.0}

    def test_snapshot_and_reset_by_prefix(self):
        registry = metrics.MetricsRegistry()
        registry.counter("a.one").inc()
        registry.counter("b.two").inc()
        assert set(registry.snapshot(prefix="a.")) == {"a.one"}
        registry.reset(prefix="a.")
        assert set(registry.snapshot()) == {"b.two"}

    def test_name_type_conflicts_error(self):
        registry = metrics.MetricsRegistry()
        registry.counter("obs.same")
        with pytest.raises(ValueError):
            registry.gauge("obs.same")

    def test_dump_json(self, tmp_path):
        registry = metrics.MetricsRegistry()
        registry.counter("obs.dumped").inc(7)
        path = str(tmp_path / "metrics.json")
        registry.dump_json(path)
        with open(path) as handle:
            assert json.load(handle)["obs.dumped"] == 7


# -- flow counters: fallbacks, diagnostics, budgets ----------------------------


class TestFlowCounters:
    def test_run_with_fallback_counts_degradations(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        before = metrics.snapshot(prefix="fallback.STO001").get(
            "fallback.STO001", 0)

        def broken():
            raise RuntimeError("primary failed")

        assert run_with_fallback("obs test", broken, lambda: 42,
                                 code="STO001") == 42
        after = metrics.snapshot(prefix="fallback.STO001")["fallback.STO001"]
        assert after == before + 1

    def test_diagnostics_counted_by_code(self):
        before = metrics.snapshot(prefix="diagnostics.OBS999").get(
            "diagnostics.OBS999", 0)
        collector = DiagnosticCollector()
        collector.add(Diagnostic(Severity.WARNING, "OBS999", "test only"))
        after = metrics.snapshot(
            prefix="diagnostics.OBS999")["diagnostics.OBS999"]
        assert after == before + 1

    def test_budget_exhaustion_counted_and_gauged(self):
        budget = Budget(iterations=3, label="obs probe", code="OBS998")
        with pytest.raises(BudgetExceeded):
            for _ in range(10):
                budget.tick()
        snap = metrics.snapshot(prefix="budget.")
        assert snap["budget.exceeded.OBS998"] >= 1
        assert snap["budget.obs_probe.consumed_fraction"] >= 1.0

    @staticmethod
    def _inverter_chain(prefix, length):
        """``length`` inverters in series, nets declared last-first so that
        every net id depends on ``length``."""
        module = Module("obs_chain")
        for k in range(length, 0, -1):
            module.add_net(prefix + str(k))
        module.add_inputs(prefix + "0")
        for k in range(1, length + 1):
            module.add_gate(GateType.NOT, prefix + str(k), [prefix + str(k - 1)])
        module.add_outputs(prefix + str(length))
        return module

    def test_sim_kernel_compiles_each_chunk_once_and_says_so(self):
        # The generated scalar pass names net ids, not nets, and every id of
        # the chain depends on its length, so a fresh length makes source
        # this process has not compiled yet.
        length = 65 + os.urandom(1)[0] % 64     # two chunks of <= 64
        module = self._inverter_chain("a", length)
        builds = metrics.counter("sim.kernel.builds")
        hits = metrics.counter("sim.kernel.hits")
        sweeps = metrics.counter("sim.settle.sweeps")
        built, hit, swept = builds.value, hits.value, sweeps.value
        trace.enable()
        first = GateLevelSimulator(module)
        assert (builds.value - built, hits.value - hit) == (2, 0)
        GateLevelSimulator(module)
        assert (builds.value - built, hits.value - hit) == (2, 2)
        # The same structure under other names shares every chunk.
        GateLevelSimulator(self._inverter_chain("b", length))
        assert (builds.value - built, hits.value - hit) == (2, 4)
        assert first.evaluate({"a0": 1})[f"a{length}"] == 1 - length % 2
        assert sweeps.value == swept        # one pass, no sweep loop
        kernel = [event for event in trace.drain()
                  if event["name"] == "sim.kernel"]
        assert len(kernel) == 1
        assert kernel[0]["cat"] == "sim"
        assert kernel[0]["args"]["chunks"] == 2
        assert kernel[0]["args"]["gates"] == length


# -- the traced flow, end to end -----------------------------------------------


class TestTracedFlow:
    def test_full_sign_off_trace_covers_the_flow(self, tmp_path):
        """Acceptance: one traced run covers every flow category."""
        trace.enable()
        expansions_before = metrics.counter("pnr.maze.expansions").value
        assembler, _chip = build_chip("obs_traced_4b", 4, 0)
        expansions = (metrics.counter("pnr.maze.expansions").value
                      - expansions_before)
        analyzer = HierAnalyzer(assembler.technology)
        report = assembler.sign_off(analyzer)
        assert report.clean
        # Simulation rides in the same trace: compile + run the adder.
        simulator = GateLevelSimulator(adder_module())
        simulator.run([{"a": m & 1, "b": (m >> 1) & 1, "cin": (m >> 2) & 1}
                       for m in range(8)])
        path = str(tmp_path / "signoff_trace.json")
        trace.write(path)
        info = trace.read_trace(path)       # the reader is the validator
        assert info["categories"] >= {
            "assembly", "drc", "extract", "erc", "hier", "pnr", "sim",
            "sta", "store"}
        names = {event["name"] for event in info["events"]}
        assert "assembly.sign_off" in names
        assert "pnr.route_all" in names
        assert "store.get" in names
        # "Which cache missed": every cached kind has its own build span, in
        # the category of the engine the build belongs to — node naming
        # (``circuit``) included, which used to hide inside three others.
        build_cats = {event["name"]: event["cat"] for event in info["events"]
                      if event["name"].startswith("hier.build.")}
        assert build_cats == {
            "hier.build.view": "hier", "hier.build.areas": "hier",
            "hier.build.drc": "drc", "hier.build.violations": "drc",
            "hier.build.extract": "extract", "hier.build.circuit": "extract",
            "hier.build.erc": "erc", "hier.build.timing": "sta",
            "hier.build.extent": "hier"}
        # ...and the per-kind reuse is in the report: a cold sign-off built
        # every kind, a warm one only hits the five results.
        cold = report.flow_metrics
        warm = assembler.sign_off(analyzer).flow_metrics
        for kind in ("view", "areas", "drc", "extract", "violations",
                     "circuit", "extent", "erc", "timing"):
            assert cold[f"hier.{kind}.builds"] >= 1, kind
            assert warm[f"hier.{kind}.builds"] == cold[f"hier.{kind}.builds"]
        for kind in ("violations", "circuit", "extent", "erc", "areas"):
            assert warm[f"hier.{kind}.hits"] == cold.get(
                f"hier.{kind}.hits", 0) + 1, kind
        for kind in ("drc", "extract", "view"):
            assert warm.get(f"hier.{kind}.hits", 0) == cold.get(
                f"hier.{kind}.hits", 0), kind
        # "Which net forced a rip-up and what did it cost" is in the trace:
        # every escalation span names its net, level and expansions, and the
        # levels together account for every expansion the counter saw.
        levels = {"pnr.maze": "coarse", "pnr.half_pitch": "half_pitch",
                  "pnr.ripup": "ripup"}
        escalations = [event for event in info["events"]
                       if event["name"] in levels]
        assert {event["name"] for event in escalations} == set(levels)
        for event in escalations:
            assert event["args"]["level"] == levels[event["name"]]
            assert event["args"]["net"]
        assert sum(event["args"]["expansions"]
                   for event in escalations) == expansions > 0
        # "Which net fell off the coarse lattice and why" is a filter, not a
        # re-run: a search span carries the Manhattan bound it started from
        # and either what the path cost or why there is none.
        searches = [event["args"] for event in escalations
                    if event["name"] != "pnr.ripup"]
        for args in searches:
            assert args["bound"] > 0
            assert ("path_cost" in args) != ("reason" in args), args
            if "path_cost" in args:
                assert args["path_cost"] > 0
            else:
                assert args["reason"] in ("unreachable", "budget",
                                          "blocked_terminal")
        failed = [args for args in searches if "reason" in args]
        assert {args["level"] for args in failed} == {"coarse", "half_pitch"}
        assert {args["reason"] for args in failed} == {"unreachable"}
        ripups = [event["args"] for event in escalations
                  if event["name"] == "pnr.ripup"]
        routed = {net.name for net in assembler.routing_report.routed}
        assert all(args["attempts"] >= 1 and args["victim"] in routed
                   for args in ripups)
        # A net drawn by its own search and never ripped still has the cost
        # its span recorded.
        victims = {args["victim"] for args in ripups}
        kept = [net for net in assembler.routing_report.routed
                if net.name not in victims]
        drawn = {args["net"]: args["path_cost"] for args in searches
                 if "path_cost" in args}
        assert any(net.name in drawn for net in kept)
        assert all(net.cost == drawn[net.name]
                   for net in kept if net.name in drawn)

    def test_each_flood_is_a_span_saying_what_it_did(self):
        """Every reachability flood in front of a priced search is one
        ``pnr.maze.flood`` span carrying the free row spans it visited and
        its answer; the sealed ones are exactly the ``pnr.maze.unreachable``
        count (8 of the 8-bit family chip's 15 searches)."""
        calls = metrics.counter("pnr.maze.calls")
        sealed = metrics.counter("pnr.maze.unreachable")
        calls_before, sealed_before = calls.value, sealed.value
        trace.enable()
        build_chip("obs_flood_8b", 8, 0)
        floods = [event["args"] for event in trace.drain()
                  if event["name"] == "pnr.maze.flood"]
        assert calls.value - calls_before == len(floods) == 15
        assert sealed.value - sealed_before == 8
        assert sum(not args["reachable"] for args in floods) == 8
        assert all(args["spans"] >= 1 for args in floods)


# -- the collector, visible -----------------------------------------------------


class TestCollectorIsVisible:
    """Collector time shows as ``runtime.gc`` events and ``runtime.gc.*``
    counters while tracing is armed, instead of hiding inside whichever span
    a collection happened to interrupt."""

    def test_hook_is_installed_only_while_tracing_is_armed(self):
        assert trace._on_gc not in gc.callbacks
        trace.enable()
        trace.enable()
        assert gc.callbacks.count(trace._on_gc) == 1
        trace.disable()
        assert trace._on_gc not in gc.callbacks
        gc.collect()
        assert trace.drain() == []

    def test_a_collection_is_an_event_and_two_counters(self):
        trace.enable()
        full = metrics.counter("runtime.gc.gen2.collections").value
        paused = metrics.counter("runtime.gc.pause_s").value
        gc.collect()
        assert metrics.counter("runtime.gc.gen2.collections").value == full + 1
        assert metrics.counter("runtime.gc.pause_s").value > paused
        event = [e for e in trace.drain() if e["name"] == "runtime.gc"][-1]
        assert event["cat"] == "runtime" and event["ph"] == "X"
        assert event["args"]["generation"] == 2
        trace.validate_events([event])

    def test_builds_run_paused_and_the_trace_shows_it(self, technology):
        """An incremental sign-off with the collector made eager: it runs
        between builds, never inside one."""
        array = TileArray(technology, "obs_tiles")
        analyzer = HierAnalyzer(technology)
        array.sign_off(analyzer)
        array.edit()
        thresholds = gc.get_threshold()
        gc.set_threshold(100, 2, 2)
        gc.enable()
        try:
            trace.enable()
            array.sign_off(analyzer)
            trace.disable()
        finally:
            gc.set_threshold(*thresholds)
        events = trace.drain()
        builds = [e for e in events if e["name"].startswith("hier.build.")]
        collections = [e for e in events if e["name"] == "runtime.gc"]
        assert builds and all(e["args"]["gc_paused"] is True for e in builds)
        assert collections
        # None inside a build, of any generation: in particular no full one.
        inside = [(c["args"], b["name"]) for c in collections for b in builds
                  if b["ts"] < c["ts"] < b["ts"] + b["dur"]]
        assert not inside
        assert metrics.snapshot("runtime.gc")["runtime.gc.pause_s"] > 0


# -- VCD export ----------------------------------------------------------------


class TestVcd:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = str(tmp_path / "wave.vcd")
        with vcd.VcdWriter(path, module="t") as writer:
            writer.add_signal("bus", 4)
            writer.sample(0, {"bus": 5, "a": 1})
            writer.sample(1, {"bus": 5, "a": None})
            writer.sample(2, {"bus": None, "a": 0})
        parsed = vcd.read_vcd(path)
        assert parsed.signals == {"bus": 4, "a": 1}
        assert parsed.changes["bus"] == [(0, 5), (2, None)]
        assert parsed.changes["a"] == [(0, 1), (1, None), (2, 0)]
        assert parsed.value_at("bus", 1) == 5
        assert parsed.value_at("a", 2) == 0

    def test_reader_rejects_undeclared_codes(self):
        with pytest.raises(ValueError):
            vcd.parse_vcd("$enddefinitions $end\n#0\n1!\n")

    def test_gate_sim_vcd_matches_trace(self, tmp_path):
        simulator = GateLevelSimulator(adder_module())
        vectors = [{"a": m & 1, "b": (m >> 1) & 1, "cin": (m >> 2) & 1}
                   for m in range(8)]
        path = str(tmp_path / "adder.vcd")
        sim_trace = simulator.run(vectors, vcd=path)
        parsed = vcd.read_vcd(path)
        for cycle, values in enumerate(sim_trace.cycles):
            for name, value in values.items():
                assert parsed.value_at(name, cycle) == value, (name, cycle)

    def test_switch_sim_vcd_matches_trace_and_gate_level(self, tmp_path):
        gates = [("nand", "n1", ["a", "b"]), ("nor", "y", ["n1", "c"]),
                 ("nor", "yn", ["y"])]
        network = ratioed_network("sw", ["a", "b", "c"], ["y", "yn"], gates)
        module = Module("sw")
        module.add_inputs("a", "b", "c")
        module.add_outputs("y", "yn")
        module.add_gate(GateType.NAND, "n1", ["a", "b"])
        module.add_gate(GateType.NOR, "y", ["n1", "c"])
        module.add_gate(GateType.NOT, "yn", ["y"])
        vectors = [{"a": m & 1, "b": (m >> 1) & 1, "c": (m >> 2) & 1}
                   for m in (0, 3, 1, 7, 4, 6, 2, 5)]
        path = str(tmp_path / "sw.vcd")
        switch_trace = SwitchLevelSimulator(network).run(vectors, vcd=path)
        parsed = vcd.read_vcd(path)
        assert set(parsed.signals) == {"a", "b", "c", "y", "yn"}
        assert [{name: parsed.value_at(name, step) for name in parsed.signals}
                for step in range(len(vectors))] == switch_trace.cycles
        assert switch_trace.cycles == GateLevelSimulator(module).run(vectors).cycles
        assert switch_trace.series("y") == [0, 1, 0, 0, 0, 0, 0, 0]

    def test_rtl_lfsr_vcd_matches_golden(self, tmp_path):
        """The E13 LFSR machine's waveform is pinned byte for byte."""
        machine = parse_rtl(LFSR_RTL)
        simulator = RtlSimulator(machine)
        inputs = [{"seed": 0xA5, "load": 1 if cycle == 0 else 0}
                  for cycle in range(16)]
        path = str(tmp_path / "lfsr8.vcd")
        simulator.run(16, inputs, vcd=path)
        with open(path) as handle:
            produced = handle.read()

        golden_path = os.path.join(GOLDEN_DIR, "lfsr8.vcd")
        if UPDATE_GOLDENS:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(golden_path, "w") as handle:
                handle.write(produced)
        with open(golden_path) as handle:
            assert produced == handle.read()

        # And it round-trips: the dump replays to the simulator's state.
        parsed = vcd.read_vcd(path)
        assert parsed.signals["state"] == 8
        replay = RtlSimulator(machine)
        replay.run(16, inputs)
        assert parsed.value_at("state", 15) == replay.get("state")

    def test_trace_to_vcd_convenience(self, tmp_path):
        path = str(tmp_path / "posthoc.vcd")
        vcd.trace_to_vcd([{"q": 0}, {"q": 1}, {"q": None}], path)
        parsed = vcd.read_vcd(path)
        assert parsed.changes["q"] == [(0, 0), (1, 1), (2, None)]


# -- flow_metrics snapshots on the four example designs ------------------------


def _pla_cell(technology):
    table = TruthTable.from_expressions(
        {"sum": parse_expr("a ^ b ^ cin"),
         "carry": parse_expr("a & b | a & cin | b & cin")},
        input_names=["a", "b", "cin"])
    return PlaGenerator(technology, table, name="obs_adder_pla").cell()


def _wrap_in_chip(name, cell, technology):
    from repro.assembly import ChipAssembler

    assembler = ChipAssembler(name, technology)
    assembler.add_block("core", cell)
    assembler.add_supply_pads()
    assembler.assemble()
    return assembler


@pytest.fixture(scope="module")
def flow_metric_reports(technology):
    """The four example designs, each built and signed off from a clean
    registry (the reset precedes *assembly* so routing counters land in the
    chip's own snapshot)."""
    analyzer = HierAnalyzer(technology)
    reports = {}

    metrics.reset_metrics()
    quickstart = _wrap_in_chip("obs_quickstart", _pla_cell(technology),
                               technology)
    reports["quickstart"] = quickstart.sign_off(analyzer)

    metrics.reset_metrics()
    fsm_cell = FsmLayoutGenerator(technology, build_fsm()).cell()
    fsm = _wrap_in_chip("obs_fsm", fsm_cell, technology)
    reports["fsm"] = fsm.sign_off(analyzer)

    metrics.reset_metrics()
    family, _chip = build_chip("obs_family_4b", 4, 0)
    reports["family"] = family.sign_off(analyzer)

    from pdp8_subset_compiler import compiled_machine_summary

    metrics.reset_metrics()
    _compiled, layout, _report = compiled_machine_summary()
    pdp8 = _wrap_in_chip("obs_pdp8", layout, technology)
    reports["pdp8"] = pdp8.sign_off(analyzer)
    return reports


class TestFlowMetricsSnapshots:
    def test_every_sign_off_snapshots_the_registry(self, flow_metric_reports):
        for name, report in flow_metric_reports.items():
            assert report.flow_metrics is not None, name
            # The analyzer's store stats are mirrored into gauges...
            assert "store.hits" in report.flow_metrics, name
            # ...and agree with the report's own stats dict.
            assert (report.flow_metrics["store.hits"]
                    == report.store["hits"]), name

    def test_family_chip_records_pnr_escalation(self, flow_metric_reports):
        snapshot = flow_metric_reports["family"].flow_metrics
        routed = sum(value for key, value in snapshot.items()
                     if key.startswith("pnr.route.")
                     and not key.endswith("failed"))
        assert routed > 0
        # One budget gauge for the whole router, not one per net.
        assert [key for key in snapshot if key.startswith("budget.maze")] == [
            "budget.maze_expansion.consumed_fraction"]
        assert snapshot["pnr.maze.expansions"] > 0
        assert snapshot["pnr.maze.unreachable"] > 0
        assert snapshot["pnr.maze.grid_cells"] > 0

    def test_metric_names_match_golden(self, flow_metric_reports):
        produced = {
            name: sorted(
                key for key in report.flow_metrics
                if key.startswith(GOLDEN_METRIC_PREFIXES))
            for name, report in flow_metric_reports.items()
        }
        golden_path = os.path.join(GOLDEN_DIR, "flow_metrics.json")
        if UPDATE_GOLDENS:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(golden_path, "w") as handle:
                json.dump(produced, handle, indent=2, sort_keys=True)
                handle.write("\n")
        with open(golden_path) as handle:
            assert produced == json.load(handle)


# -- command-line validators ---------------------------------------------------


class TestCliValidators:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", *args],
            capture_output=True, text=True, timeout=120)

    def test_module_validates_trace_and_vcd(self, tmp_path):
        trace.enable()
        with trace.span("obs.cli", cat="test"):
            pass
        trace_path = str(tmp_path / "cli_trace.json")
        trace.write(trace_path)
        vcd_path = str(tmp_path / "cli_wave.vcd")
        vcd.trace_to_vcd([{"q": 0}, {"q": 1}], vcd_path)
        result = self._run(trace_path, vcd_path)
        assert result.returncode == 0, result.stderr
        assert "obs.cli" not in result.stderr

    def test_a_failing_span_names_its_diagnostic_code(self, tmp_path):
        """An oscillation aborts ``sim.run``; the exit-time trace is still
        valid and the span says which diagnostic ended it."""
        script = (
            "from repro.netlist import GateLevelSimulator, GateType, Module\n"
            "m = Module('osc')\n"
            "m.add_inputs('a')\n"
            "m.add_gate(GateType.NAND, 'y', ['y', 'a'])\n"
            "m.add_outputs('y')\n"
            "GateLevelSimulator(m, settle_limit=50).run([{'a': 0}, {'a': 1}])\n")
        path = str(tmp_path / "failing_trace.json")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "REPRO_TRACE": path})
        assert result.returncode == 1
        assert "BudgetExceeded" in result.stderr
        runs = [event for event in trace.read_trace(path)["events"]
                if event["name"] == "sim.run"]
        assert len(runs) == 1
        assert runs[0]["args"]["error"] == "BudgetExceeded"
        assert runs[0]["args"]["code"] == "GRD002"

    def test_module_flags_invalid_artifacts(self, tmp_path):
        bad = tmp_path / "bad.vcd"
        bad.write_text("$enddefinitions $end\n#0\n1!\n")
        result = self._run(str(bad))
        assert result.returncode == 1

    def test_check_regression_summarize(self):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "benchmarks", "check_regression.py")
        result = subprocess.run(
            [sys.executable, script, "--summarize"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "e13" in result.stdout
        assert "speedup" in result.stdout

    def test_check_regression_exact_gates_counts(self, tmp_path):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "benchmarks", "check_regression.py")
        with open(os.path.join(os.path.dirname(script), "results",
                               "BENCH_e15.json")) as handle:
            committed = json.load(handle)
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps({
            "maze_expansions": committed["maze_expansions"] + 1,
            "total_route_length": committed["total_route_length"]}))
        for current, fields, code in (
                ("e15", ["maze_calls", "maze_expansions"], 0),
                (str(moved), ["total_route_length"], 0),
                (str(moved), ["total_route_length", "maze_expansions"], 1),
                (str(moved), ["maze_calls"], 1)):      # missing field
            result = subprocess.run(
                [sys.executable, script, "--exact", "e15", current, *fields],
                capture_output=True, text=True, timeout=120)
            assert result.returncode == code, result.stdout + result.stderr

    def test_check_regression_e19_gates_the_quality_counts(self):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "benchmarks", "check_regression.py")

        def last_line(correct=True, **moved):
            values = {"chip_area_lambda2": 533820, "route_length_lambda": 2116,
                      "cif_bytes": 11886, "fmax_mhz": 2.9889701505207897,
                      "wall_s": 0.3, **moved}
            return "progress...\n" + json.dumps({
                "correct": correct,
                "metrics": {name: {"value": value, "unit": "-"}
                            for name, value in values.items()}}) + "\n"

        expected = ["533820", "2116", "11886", "2.9889701505"]
        for text, code in ((last_line(), 0),
                           (last_line(correct=False), 1),
                           (last_line(cif_bytes=11887), 1),
                           (last_line(fmax_mhz=2.98897016), 1),
                           ("", 1)):
            result = subprocess.run(
                [sys.executable, script, "--e19", *expected], input=text,
                capture_output=True, text=True, timeout=120)
            assert result.returncode == code, result.stdout + result.stderr

    def test_check_regression_e19_counts_pins_named_metrics(self):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "benchmarks", "check_regression.py")

        def last_line(correct=True, **moved):
            values = {"sim.settle_iterations": 12296, "rtl.gates": 1184,
                      **moved}
            return json.dumps({
                "correct": correct,
                "metrics": {name: {"value": value, "unit": "count"}
                            for name, value in values.items()}}) + "\n"

        pins = ["sim.settle_iterations=12296", "rtl.gates=1184"]
        for text, extra, code in ((last_line(), [], 0),
                                  (last_line(correct=False), [], 1),
                                  (last_line(**{"rtl.gates": 1185}), [], 1),
                                  (last_line(), ["sim.missing=0"], 1)):
            result = subprocess.run(
                [sys.executable, script, "--e19-counts", *pins, *extra],
                input=text, capture_output=True, text=True, timeout=120)
            assert result.returncode == code, result.stdout + result.stderr
