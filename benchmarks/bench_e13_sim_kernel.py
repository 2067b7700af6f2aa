"""E13 — compiled simulation kernel throughput.

PRs 1–2 made the *layout* analyses near-linear; this experiment measures
the same treatment applied to the *verification* side.  A bank of
RTL-compiled LFSRs (> 1k primitive gates) is clocked for 256 cycles three
ways:

* the reference interpreter (``repro.reference.GateLevelInterpreter``) —
  the seed's rescan-every-instance settle loop;
* the compiled scalar kernel (default) — integer-indexed arrays,
  precomputed fanout, event-driven sweeps, trace-identical by
  construction (asserted here and pinned by the differential suite);
* the bit-parallel bitplane kernel — 64 independent stimulus streams
  packed into integer planes, one levelized pass per cycle for all
  streams at once.

It also times the bit-parallel functional equivalence check
(``compare_netlists(..., functional=True)``) of the RTL-compiled LFSR
against a hand-built reference netlist — the paper's "verification by
simulation" loop closed in well under a tenth of a second.

``BENCH_e13.json`` records the speedups; CI fails if they regress more
than 2x against the committed baseline (speedups are used rather than raw
wall times so the guard is meaningful across machines).
"""

import time

from benchmarks.conftest import emit, record_bench
from repro.metrics import format_table
from repro.netlist import GateLevelSimulator, GateType, Module, compare_netlists
from repro.reference import GateLevelInterpreter
from repro.rtl import RtlCompiler, parse_rtl
from repro.sim import CompiledNetlist, run_streams

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

BANK_INSTANCES = 32
CYCLES = 256
STREAMS = 64


def build_lfsr_bank(instances: int = BANK_INSTANCES) -> Module:
    """A >1k-gate design: many RTL-compiled LFSRs sharing one stimulus."""
    machine = parse_rtl(LFSR_RTL)
    lfsr = RtlCompiler(machine).compile().module
    bank = Module("lfsr_bank")
    ports = ["load_0"] + [f"seed_{i}" for i in range(8)]
    for name in ports:
        bank.add_input(name)
    for k in range(instances):
        connections = {name: name for name in ports}
        for i in range(8):
            connections[f"q_{i}"] = f"u{k}_q_{i}"
            bank.add_net(f"u{k}_q_{i}", is_output=(k == 0))
        bank.add_submodule(lfsr, connections, name=f"u{k}")
    return bank


def reference_lfsr() -> Module:
    """Hand-built LFSR netlist, port-compatible with the compiled one."""
    m = Module("lfsr_ref")
    m.add_input("load_0")
    for i in range(8):
        m.add_input(f"seed_{i}")
    for i in range(8):
        m.add_output(f"q_{i}")
    m.add_gate(GateType.XOR, "fb_a", ["q_7", "q_5"])
    m.add_gate(GateType.XOR, "fb", ["fb_a", "q_4"])
    m.add_gate(GateType.XOR, "shift_in", ["fb", "q_3"])
    for i in range(8):
        shifted = "shift_in" if i == 0 else f"q_{i - 1}"
        m.add_gate(GateType.MUX2, f"d_{i}", [],
                   sel="load_0", a=shifted, b=f"seed_{i}")
        m.add_gate(GateType.DFF, f"q_{i}", [f"d_{i}"])
    return m


def _stimulus(cycles: int):
    load = {"load_0": 1}
    load.update({f"seed_{i}": (0xA5 >> i) & 1 for i in range(8)})
    idle = {"load_0": 0}
    idle.update({f"seed_{i}": 0 for i in range(8)})
    return [load] + [idle] * (cycles - 1)


def test_e13_sim_kernel_throughput():
    bank = build_lfsr_bank()
    flat = bank.flattened()
    gates = flat.gate_count()
    assert gates >= 1000

    vectors = _stimulus(CYCLES)

    interpreter = GateLevelInterpreter(bank)
    interpreter.reset(0)
    start = time.perf_counter()
    interpreter_trace = interpreter.run(vectors)
    interpreter_seconds = time.perf_counter() - start

    compiled = GateLevelSimulator(bank)
    compiled.reset(0)
    start = time.perf_counter()
    compiled_trace = compiled.run(vectors)
    compiled_seconds = time.perf_counter() - start

    # Trace-identical results (the differential suite pins this broadly;
    # assert it here on the benchmark workload too).
    assert compiled_trace.cycles == interpreter_trace.cycles
    assert compiled.last_depth == interpreter.last_depth

    speedup = interpreter_seconds / max(compiled_seconds, 1e-9)
    assert speedup >= 10.0, (
        f"compiled kernel only {speedup:.1f}x faster than the interpreter"
    )

    # Bit-parallel streams: the same 256 cycles for 64 independent stimulus
    # streams in one pass (stream 0 uses the benchmark stimulus so its
    # trace can be checked against the scalar run).
    lowered = CompiledNetlist(flat)
    streams = [vectors]
    for s in range(1, STREAMS):
        load = {"load_0": 1}
        load.update({f"seed_{i}": (s >> (i % 7)) & 1 for i in range(8)})
        idle = {"load_0": 0}
        idle.update({f"seed_{i}": 0 for i in range(8)})
        streams.append([load] + [idle] * (CYCLES - 1))
    watch = flat.input_names() + flat.output_names()
    start = time.perf_counter()
    stream_traces = run_streams(lowered, streams, record=watch)
    stream_seconds = time.perf_counter() - start
    assert stream_traces[0] == compiled_trace.cycles

    stream_cycles_per_s = STREAMS * CYCLES / max(stream_seconds, 1e-9)
    interpreter_cycles_per_s = CYCLES / max(interpreter_seconds, 1e-9)
    stream_speedup = stream_cycles_per_s / interpreter_cycles_per_s

    # Functional equivalence: compiled LFSR vs hand reference, sequential
    # bit-parallel co-simulation from reset.
    machine = parse_rtl(LFSR_RTL)
    single = RtlCompiler(machine).compile().module
    start = time.perf_counter()
    equivalence = compare_netlists(reference_lfsr(), single, functional=True)
    equivalence_seconds = time.perf_counter() - start
    assert equivalence.matches, equivalence.explain()
    # Target is < 0.1 s (recorded in BENCH_e13.json, ~0.04 s measured);
    # the CI assert stays loose because raw wall times are machine-bound —
    # the committed-baseline ratio guard is the real regression fence.
    assert equivalence_seconds < 1.0

    gate_evaluations = gates * CYCLES
    assert gate_evaluations >= 50_000

    rows = [
        ["interpreter (reference)", CYCLES, f"{interpreter_seconds * 1e3:.1f}",
         f"{interpreter_cycles_per_s:.0f}", "1.0x"],
        ["compiled scalar kernel", CYCLES, f"{compiled_seconds * 1e3:.1f}",
         f"{CYCLES / max(compiled_seconds, 1e-9):.0f}", f"{speedup:.1f}x"],
        [f"bitplane x{STREAMS} streams", STREAMS * CYCLES,
         f"{stream_seconds * 1e3:.1f}",
         f"{stream_cycles_per_s:.0f}", f"{stream_speedup:.1f}x"],
    ]
    emit(format_table(
        ["engine", "cycles", "time (ms)", "cycles/s", "speedup"],
        rows,
        f"E13: gate-level simulation of {gates} gates "
        f"(LFSR bank, {BANK_INSTANCES} instances)"))
    emit(format_table(
        ["check", "time (ms)", "verdict"],
        [["functional equivalence (LFSR vs reference)",
          f"{equivalence_seconds * 1e3:.1f}",
          "equivalent" if equivalence.matches else "MISMATCH"]],
        "E13: bit-parallel equivalence checking"))

    record_bench(
        "e13", None,
        gates=gates,
        cycles=CYCLES,
        gate_evaluations=gate_evaluations,
        interpreter_seconds=round(interpreter_seconds, 4),
        compiled_seconds=round(compiled_seconds, 4),
        speedup=round(speedup, 2),
        stream_width=STREAMS,
        stream_seconds=round(stream_seconds, 4),
        stream_cycles_per_s=round(stream_cycles_per_s, 1),
        stream_speedup=round(stream_speedup, 2),
        equivalence_seconds=round(equivalence_seconds, 4),
    )
