"""Guarded execution: budgets terminate divergent inputs, faults propagate.

Pins the robustness contract end to end:

* an oscillating gate netlist raises :class:`BudgetExceeded` (not a hang,
  not a bare ``RuntimeError``) with *identical* text on the compiled and
  reference paths;
* an oscillating switch network does the same on the production simulator
  and its independent reference;
* a truncated CIF input produces a typed diagnostic with a source span
  instead of a traceback (raising mode) or a recovered partial library
  (collector mode);
* a failure injected into any of the four fast paths propagates as itself,
  with or without ``REPRO_STRICT``: no engine reruns its
  :mod:`repro.reference` oracle, logs a fallback or counts one;
* the channel router and K-worst path enumeration stop at their budgets.
"""

import logging

import pytest

import repro.rtl.simulator as rtl_simulator
import repro.sim.kernel as sim_kernel
from repro.assembly.channel import ChannelNet, ChannelRouter
from repro.cells import NandCell
from repro.cif import parse_cif
from repro.cif.parser import CifSyntaxError
from repro.diagnostics import BudgetExceeded, DiagnosticCollector
from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.layout.cell import Cell
from repro.netlist import GateType, Module, compare_netlists
from repro.netlist.gate_sim import GateLevelSimulator
from repro.netlist.switch_sim import (
    SwitchLevelSimulator,
    SwitchNetwork,
    TransistorKind,
)
from repro.obs import metrics
from repro.reference import (
    BruteDrcChecker,
    BruteExtractor,
    GateLevelInterpreter,
    RtlInterpreter,
    SwitchLevelReference,
)
from repro.rtl import RtlSimulator, parse_rtl
from repro.sim import evaluate_vectors
from repro.sim.kernel import CompiledNetlist
from repro.technology import nmos_technology
from repro.timing import TimingGraph


def oscillating_module():
    module = Module("osc")
    module.add_output("q")
    module.add_gate(GateType.NOT, "q", ["q"])
    return module


def ring_network():
    """Three inverters in a ring.  ``a`` is *not* declared an input: a
    clamped input legitimately breaks the ring, so the test seeds
    ``values["a"]`` as stored charge instead."""
    network = SwitchNetwork("ring")
    for inp, out in (("a", "b"), ("b", "c"), ("c", "a")):
        network.add_transistor(out, out, "vdd", TransistorKind.DEPLETION,
                               name=f"pu_{out}")
        network.add_transistor(inp, out, "gnd", name=f"pd_{out}")
    network.add_output("c")
    return network


class TestOscillationBudgets:
    def test_gate_level_raises_identically_on_both_paths(self):
        errors = {}
        for compiled, simulator in ((True, GateLevelSimulator),
                                    (False, GateLevelInterpreter)):
            sim = simulator(oscillating_module(), settle_limit=50)
            sim.set_inputs({"q": 0})
            with pytest.raises(BudgetExceeded) as info:
                sim.settle()
            errors[compiled] = info.value
        assert str(errors[True]) == str(errors[False])
        assert errors[True].diagnostic.code == "GRD002"
        # The legacy contract: still catchable as RuntimeError.
        assert isinstance(errors[True], RuntimeError)

    def test_switch_level_raises_identically_on_both_paths(self):
        errors = {}
        for production, simulator in ((True, SwitchLevelSimulator),
                                      (False, SwitchLevelReference)):
            sim = simulator(ring_network(), settle_limit=30)
            sim.values["a"] = 0
            with pytest.raises(BudgetExceeded) as info:
                sim.evaluate()
            errors[production] = info.value
        assert str(errors[True]) == str(errors[False])
        assert errors[True].diagnostic.code == "GRD003"

    def test_bitplane_raises_the_typed_error_of_the_scalar_engine(self):
        # A cross-coupled inverter pair is bistable under in-order sweeps;
        # the odd ring is what oscillates.  ``en`` low parks it, high frees it.
        ring = Module("ring")
        ring.add_input("en")
        ring.add_output("c")
        ring.add_gate(GateType.NAND, "a", ["en", "c"])
        ring.add_gate(GateType.NOT, "b", ["a"])
        ring.add_gate(GateType.NOT, "c", ["b"])
        with pytest.raises(BudgetExceeded) as info:
            evaluate_vectors(CompiledNetlist(ring),
                             [{"en": 1, "a": 0, "b": 0, "c": 0}])
        assert info.value.diagnostic.code == "GRD002"
        assert isinstance(info.value, RuntimeError)
        scalar = GateLevelSimulator(ring, settle_limit=50)
        scalar.set_inputs({"en": 1, "a": 0, "b": 0, "c": 0})
        with pytest.raises(BudgetExceeded) as scalar_info:
            scalar.settle()
        assert str(info.value) == str(scalar_info.value)
        # The functional comparison refuses to call an oscillator equivalent
        # to anything, itself included.
        result = compare_netlists(ring, ring, functional=True)
        assert not result.matches
        assert "inconclusive" in result.mismatches[0]
        assert str(info.value) in result.mismatches[0]

    def test_settle_limit_still_configurable(self):
        # A deep but convergent chain must not trip the budget.
        module = Module("chain")
        module.add_input("a")
        previous = "a"
        for index in range(40):
            module.add_gate(GateType.NOT, f"n{index}", [previous])
            previous = f"n{index}"
        module.add_output(previous)
        for simulator in (GateLevelSimulator, GateLevelInterpreter):
            sim = simulator(module)
            assert sim.evaluate({"a": 1})[previous] == 1


class TestTruncatedCif:
    TEXT = "DS 1 1 1;\n9 inv;\nL ND;\nB 4 4 2 2;\nDF;\nC 1;\nE\n"

    def test_truncated_input_raises_typed_error_with_span(self):
        truncated = self.TEXT[:20]   # mid-statement
        with pytest.raises(CifSyntaxError) as info:
            parse_cif(truncated)
        assert isinstance(info.value, ValueError)      # legacy contract
        assert info.value.diagnostic.code.startswith("CIF")
        assert info.value.span is not None
        assert info.value.span.line >= 1

    def test_collector_mode_recovers_instead_of_raising(self):
        collector = DiagnosticCollector("cif")
        for cut in range(len(self.TEXT)):
            collector.diagnostics.clear()
            parse_cif(self.TEXT[:cut], collector=collector)
        # Every truncation point parsed without an exception; the bad ones
        # reported structured diagnostics.
        assert True

    def test_clean_input_parses_identically_with_and_without_collector(self):
        from repro.cif import write_cif

        collector = DiagnosticCollector("cif")
        plain = parse_cif(self.TEXT)
        recovered = parse_cif(self.TEXT, collector=collector)
        assert not collector.diagnostics
        assert write_cif(plain) == write_cif(recovered)


class InjectedFault(Exception):
    """Raised by the fast path a fault-injection test has sabotaged."""


def _explode(*args, **kwargs):
    raise InjectedFault("injected fast-path bug")


def _fallback_counts():
    return metrics.snapshot(prefix="fallback.")


def _half_adder():
    module = Module("half")
    module.add_inputs("a", "b")
    module.add_output("s")
    module.add_gate(GateType.XOR, "s", ["a", "b"])
    return module


_COUNTER_RTL = """
machine counter;
input load[1], data[4];
output q[4];
register count[4];
always begin
    if (load) count <- data;
    else count <- count + 1;
    q = count;
end
"""


def _run_gate(simulator):
    sim = simulator(_half_adder())
    return sim.evaluate({"a": 1, "b": 0}), sim.last_depth


def _run_rtl(simulator):
    return simulator(parse_rtl(_COUNTER_RTL)).run(
        5, [{"load": 1, "data": 9}] + [{"load": 0}] * 4)


def _run_extract(extractor):
    technology = nmos_technology()
    circuit = extractor(technology).extract(NandCell(technology).cell())
    return circuit.node_names, circuit.network.transistors, circuit.summary()


def _run_drc(checker):
    cell = Cell("narrow")
    for index in range(6):          # above build_index's all-pairs cut-off
        cell.add_box("metal", 0, 5 * index, 20, 5 * index + 1)
    violations = checker(nmos_technology()).check(cell)
    assert violations               # the oracle must have something to say
    return violations


#: engine, (owner, attribute, replacement) the failure is injected at,
#: runner, production class, repro.reference oracle.
FAULT_CASES = [
    ("gate_sim", (sim_kernel, "compile_netlist", _explode), _run_gate,
     GateLevelSimulator, GateLevelInterpreter),
    ("rtl_sim", (rtl_simulator._StatementCompiler, "compile_block", _explode),
     _run_rtl, RtlSimulator, RtlInterpreter),
    ("extract", (Extractor, "index", staticmethod(_explode)), _run_extract,
     Extractor, BruteExtractor),
    ("drc", (DrcChecker, "index", staticmethod(_explode)), _run_drc,
     DrcChecker, BruteDrcChecker),
]


class TestFallbacks:
    """No engine has one: its oracle is a test reference, never a rescue."""

    @pytest.mark.parametrize(
        "engine, target, run, production, oracle", FAULT_CASES,
        ids=[case[0] for case in FAULT_CASES])
    def test_a_fast_path_fault_propagates(
            self, engine, target, run, production, oracle, monkeypatch,
            caplog):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        expected = run(oracle)
        assert run(production) == expected     # healthy fast path agrees
        before = _fallback_counts()

        monkeypatch.setattr(*target)
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(InjectedFault):
                run(production)
            assert run(oracle) == expected     # the oracle is untouched
        assert _fallback_counts() == before
        assert not any("falling back" in r.getMessage()
                       for r in caplog.records)

    def test_strict_mode_makes_kernel_failure_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        monkeypatch.setattr(sim_kernel, "compile_netlist", _explode)
        with pytest.raises(InjectedFault, match="injected fast-path bug"):
            GateLevelSimulator(_half_adder())


class TestRoutingAndTimingBudgets:
    def test_channel_router_budget(self):
        # Hundreds of mutually overlapping nets exhaust a tiny step budget.
        nets = [ChannelNet(f"n{i}", bottom_pins=[0], top_pins=[1000])
                for i in range(300)]
        router = ChannelRouter(max_steps=100)
        with pytest.raises(BudgetExceeded) as info:
            router.route(Cell("channel"), nets, bottom_y=0)
        assert info.value.diagnostic.code == "ROU001"

    def test_channel_router_default_budget_is_ample(self):
        nets = [ChannelNet(f"n{i}", bottom_pins=[4 * i], top_pins=[4 * i + 2])
                for i in range(50)]
        result = ChannelRouter().route(Cell("channel"), nets, bottom_y=0)
        assert result.tracks_used >= 1

    def test_worst_paths_truncation_warns(self, caplog):
        module = Module("paths")
        module.add_inputs("a", "b")
        module.add_output("y")
        module.add_gate(GateType.AND, "m", ["a", "b"])
        module.add_gate(GateType.OR, "n", ["a", "m"])
        module.add_gate(GateType.XOR, "y", ["m", "n"])
        module.add_gate(GateType.DFF, "q", ["y"])
        graph = TimingGraph(CompiledNetlist(module))
        with caplog.at_level(logging.WARNING, logger="repro.timing"):
            truncated = graph.worst_paths(k=50, max_expansions=2)
        assert any("STA001" in record.message for record in caplog.records)
        # The paths that were emitted are still the exact worst ones.
        full = graph.worst_paths(k=50)
        assert [p.delay_ns for p in truncated] == [
            p.delay_ns for p in full][:len(truncated)]
