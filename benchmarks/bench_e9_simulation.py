"""E9 — verification by simulation: the three descriptions agree.

The RTL tradition the paper cites provides "simulation, via compilation and
execution of the RTL description".  This benchmark co-simulates a design at
three levels — behavioural RTL, compiled gate level, and switch level of an
extracted leaf cell — checks they agree, and reports the relative
simulation throughput (cycles per second) of the behavioural and gate-level
models.

The switch-level engine gets its own rows, on networks that are not a single
gate: a 64-stage inverter chain (65 sweeps to settle) and the extracted
network of the chip family's control PLA, each checked against
``repro.reference.SwitchLevelReference`` on every node and timed per settle.
"""

import statistics
import time

import pytest

from benchmarks.conftest import emit, record_bench
from benchmarks.e2e.designs import control_table
from repro.cells import NandCell
from repro.extract import extract_cell
from repro.generators import PlaGenerator
from repro.metrics import format_table
from repro.netlist import (
    GateLevelSimulator,
    SwitchLevelSimulator,
    SwitchNetwork,
    TransistorKind,
)
from repro.reference import SwitchLevelReference
from repro.rtl import RtlCompiler, RtlSimulator, parse_rtl

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

CYCLES = 200
CHAIN_STAGES = 64
SETTLE_REPEATS = 9


def run_cosimulation(technology):
    machine = parse_rtl(LFSR_RTL)

    rtl_sim = RtlSimulator(machine)
    start = time.perf_counter()
    rtl_sim.step({"load": 1, "seed": 0xA5})
    rtl_trace = [rtl_sim.step({"load": 0, "seed": 0})["q"] for _ in range(CYCLES)]
    rtl_seconds = time.perf_counter() - start

    compiled = RtlCompiler(machine).compile()
    gate_sim = GateLevelSimulator(compiled.module)
    gate_sim.reset()
    start = time.perf_counter()
    load_vector = {"load_0": 1}
    load_vector.update({f"seed_{i}": (0xA5 >> i) & 1 for i in range(8)})
    gate_sim.run([load_vector])
    idle = {"load_0": 0}
    idle.update({f"seed_{i}": 0 for i in range(8)})
    gate_trace_raw = gate_sim.run([idle] * CYCLES)
    gate_seconds = time.perf_counter() - start
    gate_trace = [
        sum((cycle[f"q_{i}"] or 0) << i for i in range(8))
        for cycle in gate_trace_raw.cycles
    ]
    return rtl_trace, gate_trace, rtl_seconds, gate_seconds, compiled


def inverter_chain(stages):
    network = SwitchNetwork(f"chain{stages}")
    network.add_input("a")
    nets = ["a"] + [f"n{stage}" for stage in range(stages)]
    for inp, out in zip(nets, nets[1:]):
        network.add_transistor(out, out, "vdd", TransistorKind.DEPLETION)
        network.add_transistor(inp, out, "gnd")
    network.add_output(nets[-1])
    return network


def settle_ms(network, vectors):
    """Check every vector against the reference on every node; return the
    median milliseconds of one settle on a fresh simulator."""
    samples = []
    for _ in range(SETTLE_REPEATS):
        for vector in vectors:
            sim = SwitchLevelSimulator(network)
            start = time.perf_counter()
            sim.evaluate(vector)
            samples.append(time.perf_counter() - start)
            reference = SwitchLevelReference(network)
            reference.evaluate(vector)
            assert sim.values == reference.values
    return statistics.median(samples) * 1e3


def run_switch_level(technology):
    """Chain and PLA ms per settle, then the PLA's device count and how
    many of its nodes a settle ever defines."""
    chain = inverter_chain(CHAIN_STAGES)
    for a in (0, 1):
        assert SwitchLevelSimulator(chain).evaluate({"a": a}) == {
            f"n{CHAIN_STAGES - 1}": (a + CHAIN_STAGES) % 2}
    chain_ms = settle_ms(chain, [{"a": 0}, {"a": 1}])

    pla = extract_cell(PlaGenerator(technology, control_table(4)).cell(),
                       technology).network
    vectors = [{"start": start, "busy": busy}
               for start in (0, 1) for busy in (0, 1)]
    pla_ms = settle_ms(pla, vectors)
    sim = SwitchLevelSimulator(pla)
    sim.evaluate(vectors[-1])
    defined = sum(value is not None for value in sim.values.values())
    return chain_ms, pla_ms, pla.device_count(), defined, len(sim.values)


def test_e9_three_level_cosimulation(benchmark, technology):
    rtl_trace, gate_trace, rtl_seconds, gate_seconds, compiled = benchmark(
        run_cosimulation, technology)

    # Behavioural and gate-level traces agree cycle for cycle.
    assert rtl_trace == gate_trace

    # Switch level: an extracted NAND agrees with its boolean function.
    extracted = extract_cell(NandCell(technology, inputs=2).cell(), technology)
    switch_checks = 0
    for a in (0, 1):
        for b in (0, 1):
            sim = SwitchLevelSimulator(extracted.network)
            assert sim.evaluate({"in0": a, "in1": b})["out"] == (0 if a and b else 1)
            switch_checks += 1

    chain_ms, pla_ms, pla_devices, pla_defined, pla_nodes = run_switch_level(
        technology)
    switch_checks += 2 + 4      # both chain inputs, four PLA vectors

    rows = [
        ["behavioural RTL", CYCLES, f"{rtl_seconds * 1e3:.1f}",
         f"{CYCLES / max(rtl_seconds, 1e-9):.0f}"],
        ["gate level (compiled)", CYCLES, f"{gate_seconds * 1e3:.1f}",
         f"{CYCLES / max(gate_seconds, 1e-9):.0f}"],
        ["switch level (extracted NAND)", 4, "-", "-"],
        [f"switch level ({CHAIN_STAGES}-stage inverter chain)", 2,
         f"{chain_ms:.2f} / settle", "-"],
        [f"switch level (control PLA, {pla_devices} devices, "
         f"{pla_defined}/{pla_nodes} nodes defined)", 4,
         f"{pla_ms:.2f} / settle", "-"],
    ]
    emit(format_table(
        ["model", "cycles", "time (ms)", "cycles/s"],
        rows, "E9: co-simulation agreement and relative speed"))

    # The behavioural model is the faster one — that is why the paper's
    # tradition simulates at the RTL level and verifies downward.
    assert rtl_seconds < gate_seconds

    record_bench(
        "e9", benchmark,
        cycles=CYCLES,
        rtl_seconds=round(rtl_seconds, 6),
        gate_seconds=round(gate_seconds, 6),
        switch_checks=switch_checks,
        switch_settle_ms=round(chain_ms, 3),
        switch_pla_settle_ms=round(pla_ms, 3),
        switch_pla_devices=pla_devices,
        switch_pla_defined_nodes=pla_defined,
    )
