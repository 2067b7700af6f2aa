"""Unit tests for the compiled simulation kernel (repro.sim).

Covers the netlist lowering (net ids, fanout, levelization), the scalar
engine's parity with the reference interpreter on hand-built circuits, the
bit-parallel bitplane evaluator's three-valued gate semantics, and the
satellite regressions: numeric input-port ordering, simultaneous DFF
capture, and switch-level charge-sharing behaviour.
"""

import io

import pytest

from repro.diagnostics import BudgetExceeded
from repro.netlist import (
    GateLevelSimulator,
    GateType,
    Module,
    SwitchLevelSimulator,
    SwitchNetwork,
    Transistor,
    TransistorKind,
)
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.vcd import trace_to_vcd
from repro.reference import GateLevelInterpreter, SwitchLevelReference
from repro.rtl import RtlCompiler, parse_rtl
from repro.sim import (
    BitplaneEvaluator,
    CompiledNetlist,
    StreamTrace,
    evaluate_vectors,
    exhaustive_input_planes,
    run_streams,
)

from test_compare_functional import LFSR_RTL


def full_adder():
    m = Module("fa")
    m.add_inputs("a", "b", "cin")
    m.add_outputs("s", "cout")
    m.add_gate(GateType.XOR, "ab", ["a", "b"])
    m.add_gate(GateType.XOR, "s", ["ab", "cin"])
    m.add_gate(GateType.AND, "g1", ["a", "b"])
    m.add_gate(GateType.AND, "g2", ["ab", "cin"])
    m.add_gate(GateType.OR, "cout", ["g1", "g2"])
    return m


def two_bit_counter():
    m = Module("cnt")
    m.add_inputs("en")
    m.add_outputs("q0", "q1")
    m.add_gate(GateType.XOR, "d0", ["q0", "en"])
    m.add_gate(GateType.DFF, "q0", ["d0"])
    m.add_gate(GateType.AND, "c0", ["q0", "en"])
    m.add_gate(GateType.XOR, "d1", ["q1", "c0"])
    m.add_gate(GateType.DFF, "q1", ["d1"])
    return m


class TestLowering:
    def test_net_ids_are_dense_and_invertible(self):
        compiled = CompiledNetlist(full_adder())
        assert sorted(compiled.net_index.values()) == list(range(len(compiled.net_names)))
        for name, net_id in compiled.net_index.items():
            assert compiled.net_names[net_id] == name

    def test_fanout_lists_cover_consumers(self):
        compiled = CompiledNetlist(full_adder())
        ab = compiled.net_index["ab"]
        consuming = {compiled.gate_names[g] for g in compiled.fanout[ab]}
        assert consuming == {"xor_1", "and_3"}   # s = ab^cin, g2 = ab&cin

    def test_levelization_orders_dependencies(self):
        compiled = CompiledNetlist(full_adder())
        assert compiled.levels is not None
        level_of = {}
        for level_index, level in enumerate(compiled.levels):
            for gate_id in level:
                level_of[gate_id] = level_index
        producer = {out: g for g, out in enumerate(compiled.gate_outs)}
        for gate_id, ins in enumerate(compiled.gate_ins):
            for net_id in ins:
                if net_id in producer:
                    assert level_of[producer[net_id]] < level_of[gate_id]

    def test_dffs_break_cycles(self):
        compiled = CompiledNetlist(two_bit_counter())
        assert not compiled.is_cyclic
        assert len(compiled.dffs) == 2

    def test_combinational_cycle_detected(self):
        m = Module("sr")
        m.add_inputs("r", "s")
        m.add_gate(GateType.NOR, "q", ["r", "qb"])
        m.add_gate(GateType.NOR, "qb", ["s", "q"])
        assert CompiledNetlist(m).is_cyclic

    def test_self_loop_gate_is_cyclic(self):
        m = Module("loop")
        m.add_inputs("a")
        m.add_gate(GateType.OR, "w", ["w", "a"])
        assert CompiledNetlist(m).is_cyclic

    def test_critical_path_matches_interpreter(self):
        modules = [full_adder(), two_bit_counter()]
        # Self-loop gate inside a chain: the cyclic relaxation replica must
        # reproduce the interpreter's bounded-relaxation answer exactly.
        looped = Module("looped")
        looped.add_inputs("a")
        looped.add_gate(GateType.NOT, "n1", ["a"])
        looped.add_gate(GateType.XOR, "w", ["w", "n1"])
        looped.add_gate(GateType.NOT, "n2", ["w"])
        looped.add_gate(GateType.NOT, "n3", ["n2"])
        modules.append(looped)
        for module in modules:
            compiled = GateLevelSimulator(module).critical_path_estimate()
            interpreted = GateLevelInterpreter(module).critical_path_estimate()
            assert compiled == interpreted


class TestScalarParity:
    def test_full_adder_truth_table(self):
        sim = GateLevelSimulator(full_adder())
        ref = GateLevelInterpreter(full_adder())
        for a in (0, 1, None):
            for b in (0, 1, None):
                for c in (0, 1, None):
                    vector = {"a": a, "b": b, "cin": c}
                    assert sim.evaluate(vector) == ref.evaluate(vector)
                    assert sim.last_depth == ref.last_depth

    def test_values_view_stays_in_sync(self):
        sim = GateLevelSimulator(full_adder())
        sim.evaluate({"a": 1, "b": 1, "cin": 0})
        assert sim.values["ab"] == 0
        assert sim.values["g1"] == 1

    def test_counter_trace_and_depths(self):
        sim = GateLevelSimulator(two_bit_counter())
        ref = GateLevelInterpreter(two_bit_counter())
        sim.reset()
        ref.reset()
        for _ in range(6):
            sim.set_inputs({"en": 1})
            ref.set_inputs({"en": 1})
            sim.settle()
            ref.settle()
            assert sim.values == ref.values
            assert sim.last_depth == ref.last_depth
            sim.clock()
            ref.clock()
        assert sim.state == ref.state

    def test_oscillation_raises_in_both_modes(self):
        # y = NAND(y, a).  From all-X the loop settles at X (X is a fixed
        # point of any ring in three-valued logic); driving a=0 forces a
        # known 1 into the loop, after which a=1 makes it a ring oscillator.
        m = Module("osc")
        m.add_inputs("a")
        m.add_gate(GateType.NAND, "y", ["y", "a"])
        for simulator in (GateLevelSimulator, GateLevelInterpreter):
            sim = simulator(m, settle_limit=50)
            assert sim.evaluate({"a": None}) == {}
            assert sim.values["y"] is None
            sim.evaluate({"a": 0})
            assert sim.values["y"] == 1
            with pytest.raises(RuntimeError):
                sim.evaluate({"a": 1})


def lfsr_bank(instances=32):
    """E13's bank: ``instances`` RTL-compiled LFSRs sharing one stimulus."""
    lfsr = RtlCompiler(parse_rtl(LFSR_RTL)).compile().module
    bank = Module("lfsr_bank")
    ports = ["load_0"] + [f"seed_{i}" for i in range(8)]
    bank.add_inputs(*ports)
    for k in range(instances):
        connections = {name: name for name in ports}
        for i in range(8):
            connections[f"q_{i}"] = f"u{k}_q_{i}"
            bank.add_net(f"u{k}_q_{i}", is_output=(k == 0))
        bank.add_submodule(lfsr, connections, name=f"u{k}")
    return bank


def sweep_only(sim):
    """``sim`` with its generated one-pass settle switched off."""
    sim._engine._pass = None
    return sim


class TestStraightLineSettle:
    def test_one_pass_equals_the_sweep_loop_on_the_lfsr_bank(self):
        bank = lfsr_bank()
        straight = GateLevelSimulator(bank)
        sweep = sweep_only(GateLevelSimulator(bank))
        assert straight._engine.compiled.straight_line
        iterations = obs_metrics.counter("sim.settle.iterations")
        sweeps = obs_metrics.counter("sim.settle.sweeps")
        idle = {"load_0": 0, **{f"seed_{i}": 0 for i in range(8)}}
        stimulus = [idle] * 512
        for cycle, word in ((0, 0xA5), (100, 0x3C), (300, 0x81)):
            stimulus[cycle] = {"load_0": 1,
                               **{f"seed_{i}": (word >> i) & 1 for i in range(8)}}
        stimulus[200] = {"load_0": None}     # X load: every state goes X
        for sim in (straight, sweep):
            sim.reset(0)
        for vector in stimulus:
            counts = []
            for sim in (straight, sweep):
                before = iterations.value, sweeps.value
                sim.set_inputs(vector)
                sim.settle()
                counts.append((iterations.value - before[0],
                               sweeps.value - before[1]))
                sim.clock()
            assert counts[0][0] == counts[1][0]
            assert counts[0][1] == 0 and counts[1][1] == 1
            assert straight.last_depth == sweep.last_depth
            assert straight.values == sweep.values
            assert straight.state == sweep.state
        assert {straight.values["u0_q_0"], straight.values["u5_q_7"]} <= {0, 1}

    @pytest.mark.parametrize("force_sweep", [False, True])
    def test_settle_limit_one_raises_grd002_on_both_paths(self, force_sweep):
        sim = GateLevelSimulator(full_adder(), settle_limit=1)
        if force_sweep:
            sweep_only(sim)
        with pytest.raises(BudgetExceeded) as info:
            sim.evaluate({"a": 1, "b": 0, "cin": 1})
        assert info.value.diagnostic.code == "GRD002"
        # The one sweep that ran was the fixpoint; nothing moves any more.
        assert sim.settle() == 0

    def test_a_settle_with_nothing_moved_does_no_pass(self):
        sim = GateLevelSimulator(full_adder())
        engine = sim._engine
        passes = []
        engine._pass = [lambda vals, chunk=chunk: passes.append(1)
                        or chunk(vals) for chunk in engine._pass]
        iterations = obs_metrics.counter("sim.settle.iterations")
        assert sim.evaluate({"a": 1, "b": 1, "cin": 0})["cout"] == 1
        assert sim.last_depth == 1
        before, ran = iterations.value, len(passes)
        sim.set_inputs({"a": 1, "b": 1})      # the values it already has
        assert sim.settle() == 0
        assert iterations.value == before + 1
        assert len(passes) == ran
        sim.set_inputs({"cin": 1})
        assert sim.settle() == 1
        assert iterations.value == before + 3
        assert len(passes) > ran
        assert sim.values["s"] == 1


class TestSatelliteRegressions:
    def test_wide_gate_ports_order_numerically(self):
        m = Module("wide")
        nets = [f"i{k}" for k in range(11)]
        m.add_inputs(*nets)
        m.add_outputs("y")
        instance = m.add_gate(GateType.XOR, "y", nets)
        # A string sort would yield in0, in1, in10, in2, ... — the helper
        # must return declaration order.
        assert instance.data_input_nets() == nets

    def test_eleven_input_gate_evaluates_in_declaration_order(self):
        m = Module("wide")
        nets = [f"i{k}" for k in range(11)]
        m.add_inputs(*nets)
        m.add_outputs("y")
        m.add_gate(GateType.XOR, "y", nets)
        vector = {f"i{k}": (1 if k in (0, 10) else 0) for k in range(11)}
        for simulator in (GateLevelSimulator, GateLevelInterpreter):
            sim = simulator(m)
            assert sim.evaluate(vector)["y"] == 0
            vector_odd = dict(vector, i10=0)
            assert sim.evaluate(vector_odd)["y"] == 1

    def test_dffs_capture_simultaneously(self):
        # Shift register: dff1.d = dff0.q; on one edge dff1 must take the
        # OLD dff0 output, not the freshly captured one.
        m = Module("shift")
        m.add_inputs("d")
        m.add_outputs("q0", "q1")
        m.add_gate(GateType.DFF, "q0", ["d"], name="dff0")
        m.add_gate(GateType.DFF, "q1", ["q0"], name="dff1")
        for simulator in (GateLevelSimulator, GateLevelInterpreter):
            sim = simulator(m)
            sim.reset(0)
            trace = sim.run([{"d": 1}, {"d": 0}, {"d": 0}])
            assert trace.series("q0") == [0, 1, 0]
            assert trace.series("q1") == [0, 0, 1]


class TestBitplane:
    @pytest.mark.parametrize("gate,function", [
        (GateType.AND, lambda a, b: None if (a is None or b is None) and not (a == 0 or b == 0) else int(bool(a and b))),
        (GateType.OR, lambda a, b: None if (a is None or b is None) and not (a == 1 or b == 1) else int(bool(a or b))),
        (GateType.XOR, lambda a, b: None if a is None or b is None else a ^ b),
    ])
    def test_two_input_gates_match_interpreter(self, gate, function):
        m = Module("g")
        m.add_inputs("a", "b")
        m.add_outputs("y")
        m.add_gate(gate, "y", ["a", "b"])
        ref = GateLevelInterpreter(m)
        domain = [(a, b) for a in (0, 1, None) for b in (0, 1, None)]
        vectors = [{"a": a, "b": b} for a, b in domain]
        results = evaluate_vectors(CompiledNetlist(m), vectors)
        for (a, b), result in zip(domain, results):
            assert result["y"] == ref.evaluate({"a": a, "b": b})["y"]
            assert result["y"] == function(a, b)

    def test_mux_and_not_three_valued(self):
        m = Module("m")
        m.add_inputs("s", "a", "b")
        m.add_outputs("y", "na")
        m.add_gate(GateType.MUX2, "y", [], sel="s", a="a", b="b")
        m.add_gate(GateType.NOT, "na", ["a"])
        ref = GateLevelInterpreter(m)
        domain = [(s, a, b) for s in (0, 1, None)
                  for a in (0, 1, None) for b in (0, 1, None)]
        vectors = [{"s": s, "a": a, "b": b} for s, a, b in domain]
        results = evaluate_vectors(CompiledNetlist(m), vectors)
        for (s, a, b), result in zip(domain, results):
            assert result == ref.evaluate({"s": s, "a": a, "b": b})

    def test_exhaustive_planes_encode_truth_table_order(self):
        planes = exhaustive_input_planes(3)
        for i, (hi, lo) in enumerate(planes):
            for w in range(8):
                expected = (w >> i) & 1
                assert (hi >> w) & 1 == expected
                assert (lo >> w) & 1 == 1 - expected

    def test_nand_exhaustive_sweep(self):
        m = Module("nand")
        m.add_inputs("a", "b", "c")
        m.add_outputs("y")
        m.add_gate(GateType.NAND, "y", ["a", "b", "c"])
        evaluator = BitplaneEvaluator(CompiledNetlist(m), 8)
        for name, (hi, lo) in zip(["a", "b", "c"], exhaustive_input_planes(3)):
            evaluator.set_input_planes(name, hi, lo)
        evaluator.evaluate()
        assert evaluator.get_vector("y") == [
            0 if w == 0b111 else 1 for w in range(8)
        ]

    def test_run_streams_matches_facade_per_stream(self):
        streams = [
            [{"en": 1}] * 5,
            [{"en": 0}, {"en": 1}, {"en": 1}, {"en": 0}, {"en": 1}],
            [{"en": e} for e in (1, 0, 1, 0, 1)],
        ]
        traces = run_streams(CompiledNetlist(two_bit_counter()), streams)
        for stream in streams:
            sim = GateLevelSimulator(two_bit_counter())
            sim.reset(0)
            expected = sim.run(stream)
            assert expected.cycles == traces[streams.index(stream)]

    def test_unknown_stimulus_key_raises_like_set_inputs(self):
        m = Module("buf")
        m.add_inputs("a")
        m.add_outputs("y")
        m.add_gate(GateType.BUF, "y", ["a"])
        with pytest.raises(KeyError, match="unknown input net"):
            run_streams(CompiledNetlist(m), [[{"a_typo": 1}]])
        with pytest.raises(ValueError, match="same length"):
            run_streams(CompiledNetlist(m), [[{}], [{}, {}]])

    def test_omitted_inputs_hold_their_previous_value(self):
        m = Module("and2")
        m.add_inputs("a", "b")
        m.add_outputs("y")
        m.add_gate(GateType.AND, "y", ["a", "b"])
        sparse = [{"a": 1, "b": 1}, {"b": 1}, {"a": 0}, {}]
        traces = run_streams(CompiledNetlist(m), [sparse], reset_value=None)
        sim = GateLevelSimulator(m)
        assert sim.run(sparse).cycles == traces[0]
        assert [cycle["y"] for cycle in traces[0]] == [1, 1, 0, 0]

    def test_latched_dag_streams_keep_the_post_clock_evaluate(self):
        # q toggles every edge and the latch follows it while en=1, also
        # after the edge; with en=0 next cycle it must hold the post-edge q.
        m = Module("toggle_latch")
        m.add_inputs("en")
        m.add_outputs("l")
        m.add_gate(GateType.NOT, "d", ["q"])
        m.add_gate(GateType.DFF, "q", ["d"])
        m.add_gate(GateType.LATCH, "l", ["q"], enable="en")
        lowered = CompiledNetlist(m)
        assert not lowered.is_cyclic and not lowered.straight_line
        stream = [{"en": 1}, {"en": 0}, {"en": 0}, {"en": 1}, {"en": 0}]
        traces = run_streams(lowered, [stream, stream[::-1]])
        for trace, sequence in zip(traces, [stream, stream[::-1]]):
            reference = GateLevelInterpreter(m)
            reference.reset(0)
            assert trace == reference.run(sequence).cycles
        assert [cycle["l"] for cycle in traces[0]] == [0, 1, 1, 1, 0]

    def test_latch_streams_hold_and_pass(self):
        m = Module("l")
        m.add_inputs("d", "en")
        m.add_outputs("q")
        m.add_gate(GateType.LATCH, "q", ["d"], enable="en")
        stream = [{"d": 1, "en": 1}, {"d": 0, "en": 0}, {"d": 0, "en": 1}]
        traces = run_streams(CompiledNetlist(m), [stream], reset_value=None)
        sim = GateLevelSimulator(m)
        expected = sim.run(stream)
        assert expected.cycles == traces[0]


def every_boolean_op():
    """One gate of every opcode the Boolean pass has, over inputs ``a``,
    ``b``, ``s`` and a flip-flop ``q`` (D = the XOR gate)."""
    m = Module("ops")
    m.add_inputs("a", "b", "s")
    m.add_net("q")
    for gate in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
                 GateType.XOR, GateType.XNOR):
        m.add_gate(gate, gate.value, ["a", "b", "q"])
    m.add_gate(GateType.NOT, "not", ["a"])
    m.add_gate(GateType.BUF, "buf", ["q"])
    m.add_gate(GateType.MUX2, "mux", [], sel="s", a="not", b="q")
    m.add_gate(GateType.CONST0, "zero", [])
    m.add_gate(GateType.CONST1, "one", [])
    m.add_gate(GateType.DFF, "q", [GateType.XOR.value])
    m.add_outputs("mux", "zero", "one")
    return m


class TestBooleanPass:
    """When every source plane is known, ``evaluate`` runs the Boolean pass
    over ``hi`` alone; what it shows must be what the three-valued pass
    computes."""

    def test_boolean_planes_equal_the_three_valued_planes(self):
        m = every_boolean_op()
        lowered = CompiledNetlist(m)
        forced = CompiledNetlist(m)
        forced.two_valued = False   # the three-valued pass on every cycle
        assert lowered.two_valued
        evaluators = [BitplaneEvaluator(c, 8) for c in (lowered, forced)]
        boolean = obs_metrics.counter("sim.planes.boolean_passes")
        before = boolean.value
        for evaluator in evaluators:
            evaluator.reset(1)
        patterns = exhaustive_input_planes(3)
        for cycle in range(4):
            for evaluator in evaluators:
                for k, name in enumerate(["a", "b", "s"]):
                    evaluator.set_input_planes(name, *patterns[(k + cycle) % 3])
            assert [evaluator.evaluate() for evaluator in evaluators] == \
                [True, False]
            fast, slow = evaluators
            for name in m.nets:
                assert fast.get_planes(name) == slow.get_planes(name), name
                assert fast.get_vector(name) == slow.get_vector(name), name
            names = list(m.nets)
            assert fast.sampler(names)() == slow.sampler(names)()
            for evaluator in evaluators:
                evaluator.clock()
        assert boolean.value - before == 4

    def test_an_x_after_boolean_passes_takes_the_three_valued_pass(self):
        """The lo planes a Boolean pass and the clock left stale are
        written back before the three-valued pass reads them."""
        m = every_boolean_op()
        evaluator = BitplaneEvaluator(CompiledNetlist(m), 2)
        reference = [GateLevelInterpreter(m) for _ in range(2)]
        evaluator.reset(0)
        for sim in reference:
            sim.reset(0)
        took = []
        for vector in ({"a": 1, "b": 1, "s": 0}, {"a": 0, "b": 1, "s": 1},
                       {"a": None, "b": 0, "s": 1}, {"a": 1, "b": 1, "s": 1}):
            columns = {name: [value, 1 - value if value is not None else 0]
                       for name, value in vector.items()}
            for name, column in columns.items():
                evaluator.set_input_vector(name, column)
            took.append(evaluator.evaluate())
            for w, sim in enumerate(reference):
                sim.evaluate({name: column[w] for name, column in columns.items()})
                for name in m.nets:
                    assert evaluator.get_vector(name)[w] == sim.values[name], name
            evaluator.clock()
            for sim in reference:
                sim.clock()
        assert took == [True, True, False, False]

    def test_planes_written_after_a_boolean_pass_read_back(self):
        """An input, a flip-flop and a gate output forced after a Boolean
        pass read back as written; the other planes as the pass left them."""
        evaluator = BitplaneEvaluator(CompiledNetlist(every_boolean_op()), 2)
        evaluator.reset(0)
        for name in ("a", "b", "s"):
            evaluator.set_input_vector(name, [0, 1])
        assert evaluator.evaluate()
        evaluator.set_input_vector("a", [None, 1])
        evaluator.set_input_vector("q", [1, None])
        evaluator.set_input_vector("and", [None, 0])
        assert evaluator.get_vector("a") == [None, 1]
        assert evaluator.get_vector("q") == [1, None]
        assert evaluator.get_vector("and") == [None, 0]
        assert evaluator.get_vector("or") == [0, 1]
        assert evaluator.sampler(["a", "q", "or"])() == ((2, 1, 2), (0, 0, 1))
        assert not evaluator.evaluate()
        assert evaluator.get_vector("not") == [None, 0]
        assert evaluator.get_vector("and") == [0, None]

    def test_a_clock_edge_captures_an_x_input_driven_after_it(self):
        m = Module("sample")
        m.add_inputs("a")
        m.add_gate(GateType.DFF, "q", ["a"])
        m.add_gate(GateType.BUF, "y", ["q"])
        m.add_outputs("y")
        evaluator = BitplaneEvaluator(CompiledNetlist(m), 2)
        evaluator.reset(0)
        evaluator.set_input_vector("a", [0, 1])
        assert evaluator.evaluate()
        evaluator.set_input_vector("a", [None, 1])
        evaluator.clock()
        assert evaluator.get_vector("q") == [None, 1]
        assert not evaluator.evaluate()
        assert evaluator.get_vector("y") == [None, 1]

    def test_an_undriven_net_nothing_reads_stays_x_beside_it(self):
        m = Module("dangling")
        m.add_inputs("a")
        m.add_gate(GateType.NOT, "y", ["a"])
        m.add_outputs("y", "dangling")
        lowered = CompiledNetlist(m)
        assert lowered.two_valued
        stream = [{"a": 0}, {"a": 1}]
        traces = run_streams(lowered, [stream, stream[::-1]])
        assert [cycle["dangling"] for cycle in traces[0]] == [None, None]
        assert traces[0] == GateLevelInterpreter(m).run(stream).cycles
        evaluator = BitplaneEvaluator(lowered, 2)
        evaluator.set_input_vector("a", [0, 1])
        assert evaluator.evaluate()
        assert evaluator.get_vector("dangling") == [None, None]
        assert evaluator.get_vector("y") == [1, 0]

    @pytest.mark.parametrize("reads", ["undriven", "x_slot"])
    def test_a_netlist_reading_an_undriven_net_never_takes_it(self, reads):
        m = Module("floating")
        m.add_inputs("a", "s")
        if reads == "undriven":
            m.add_net("floating")
            m.add_gate(GateType.AND, "y", ["a", "floating"])
        else:   # a MUX2 with no ``b`` port reads the always-X slot
            m.add_gate(GateType.MUX2, "y", [], sel="s", a="a")
        m.add_outputs("y")
        lowered = CompiledNetlist(m)
        assert not lowered.two_valued
        boolean = obs_metrics.counter("sim.planes.boolean_passes")
        before = boolean.value
        vectors = [{"a": a, "s": s} for a in (0, 1) for s in (0, 1)]
        results = evaluate_vectors(lowered, vectors)
        assert boolean.value == before
        for vector, result in zip(vectors, results):
            assert result == GateLevelInterpreter(m).evaluate(vector)
        assert None in [result["y"] for result in results]

    def test_a_flip_flop_with_no_d_input_never_takes_it(self):
        m = Module("no_d")
        m.add_inputs("a")
        flop = m.add_gate(GateType.DFF, "q", ["a"])
        del flop.connections["in0"]   # its D reads the always-X slot
        m.add_gate(GateType.OR, "y", ["a", "q"])
        m.add_outputs("y", "q")
        lowered = CompiledNetlist(m)
        assert not lowered.two_valued
        boolean = obs_metrics.counter("sim.planes.boolean_passes")
        before = boolean.value
        stream = [{"a": 0}, {"a": 0}, {"a": 1}]
        traces = run_streams(lowered, [stream, stream[::-1]])
        assert boolean.value == before
        for trace, sequence in zip(traces, [stream, stream[::-1]]):
            reference = GateLevelInterpreter(m)
            reference.reset(0)
            assert trace == reference.run(sequence).cycles
        assert [cycle["q"] for cycle in traces[0]] == [0, None, None]


def _counter_streams():
    """Three distinct ``en`` streams over the two-bit counter, the last
    with an X and an omitted input, and each stream's expected trace."""
    streams = [
        [{"en": 1}] * 5,
        [{"en": 0}, {"en": 1}, {"en": 1}, {"en": 0}, {"en": 1}],
        [{"en": 1}, {"en": None}, {}, {"en": 0}, {"en": 1}],
    ]
    expected = []
    for stream in streams:
        sim = GateLevelSimulator(two_bit_counter())
        sim.reset(0)
        expected.append(sim.run(stream).cycles)
    return streams, expected


class TestStreamTrace:
    """``run_streams`` returns one read-only ``StreamTrace`` per stream
    that behaves like the list of dicts ``GateLevelSimulator.run`` records."""

    def test_equals_the_list_in_both_operand_orders(self):
        streams, expected = _counter_streams()
        traces = run_streams(CompiledNetlist(two_bit_counter()), streams)
        assert all(isinstance(trace, StreamTrace) for trace in traces)
        for trace, cycles in zip(traces, expected):
            assert trace == cycles
            assert cycles == trace
            assert not trace != cycles
        assert traces[0] != expected[1]
        assert expected[1] != traces[0]
        assert traces[0] != tuple(expected[0])
        assert traces == expected

    def test_length_indexing_and_slices(self):
        streams, expected = _counter_streams()
        trace = run_streams(CompiledNetlist(two_bit_counter()), streams)[2]
        assert len(trace) == 5
        assert trace[0] == expected[2][0]
        assert trace[-1] == expected[2][-1]
        assert trace[-2] == expected[2][-2]
        assert trace[1:4] == expected[2][1:4]
        assert trace[::-2] == expected[2][::-2]
        assert list(trace) == expected[2]
        assert trace[1]["en"] is None and trace[2]["en"] is None
        with pytest.raises(IndexError):
            trace[5]

    def test_repr_is_the_lists(self):
        streams, expected = _counter_streams()
        traces = run_streams(CompiledNetlist(two_bit_counter()), streams)
        for trace, cycles in zip(traces, expected):
            assert repr(trace) == repr(cycles)

    def test_rows_cannot_be_assigned(self):
        streams, _expected = _counter_streams()
        trace = run_streams(CompiledNetlist(two_bit_counter()), streams)[0]
        with pytest.raises(TypeError):
            trace[0] = {"en": 0}
        with pytest.raises(TypeError):
            del trace[0]
        with pytest.raises(TypeError):
            hash(trace)

    def test_vcd_of_a_trace_is_the_vcd_of_its_list(self):
        streams, expected = _counter_streams()
        traces = run_streams(CompiledNetlist(two_bit_counter()), streams)
        for trace, cycles in zip(traces, expected):
            from_trace, from_list = io.StringIO(), io.StringIO()
            trace_to_vcd(trace, from_trace)
            trace_to_vcd(cycles, from_list)
            assert from_trace.getvalue() == from_list.getvalue()

    def test_span_counts_the_columns_packed_bit_by_bit(self):
        lowered = CompiledNetlist(two_bit_counter())

        def exact_columns(streams):
            obs_trace.enable()
            try:
                run_streams(lowered, streams)
            finally:
                obs_trace.disable()
            spans = [event for event in obs_trace.drain()
                     if event["name"] == "sim.run_streams"]
            assert len(spans) == 1
            return spans[0]["args"]["exact_columns"]

        binary = [[{"en": e} for e in bits]
                  for bits in ((1, 0, 1), (0, 0, 1), (True, 2, 0))]
        assert exact_columns(binary) == 0
        with_x = [list(stream) for stream in binary]
        with_x[1][2] = {"en": None}
        assert exact_columns(with_x) == 1
        with_gap = [list(stream) for stream in binary]
        with_gap[0][0] = {}
        with_gap[2][1] = {"en": -1}
        assert exact_columns(with_gap) == 2
        assert exact_columns(_counter_streams()[0]) > 0


class TestSwitchRegressions:
    def test_strength_attribute_removed(self):
        device = Transistor("m0", "g", "s", "d")
        assert not hasattr(device, "strength")
        assert device.width == 2 and device.length == 2

    def pass_gate_network(self):
        n = SwitchNetwork("share")
        n.add_input("clk")
        n.add_input("a")
        n.add_input("b")
        n.add_output("x")
        n.add_output("y")
        n.add_transistor("clk", "x", "y")
        n.add_transistor("a", "x", "x2")   # charge x via pass gate from a
        n.add_transistor("b", "y", "y2")
        n.add_input("x2")
        n.add_input("y2")
        return n

    def test_conflicting_stored_charge_is_preserved(self):
        # Two nodes storing opposite values, then joined by a pass
        # transistor: the resolver returns "unknown", and the model keeps
        # each node's stored charge rather than inventing a winner.
        for simulator in (SwitchLevelSimulator, SwitchLevelReference):
            n = self.pass_gate_network()
            sim = simulator(n)
            sim.evaluate({"clk": 0, "a": 1, "b": 1, "x2": 1, "y2": 0})
            assert sim.node_value("x") == 1
            assert sim.node_value("y") == 0
            out = sim.evaluate({"clk": 1, "a": 0, "b": 0, "x2": None, "y2": None})
            assert out["x"] == 1 and out["y"] == 0

    def test_agreeing_stored_charge_shares(self):
        for simulator in (SwitchLevelSimulator, SwitchLevelReference):
            n = self.pass_gate_network()
            sim = simulator(n)
            sim.evaluate({"clk": 0, "a": 1, "b": 1, "x2": 1, "y2": 1})
            out = sim.evaluate({"clk": 1, "a": 0, "b": 0, "x2": None, "y2": None})
            assert out["x"] == 1 and out["y"] == 1

    def test_clamped_input_beats_stored_charge(self):
        for simulator in (SwitchLevelSimulator, SwitchLevelReference):
            n = SwitchNetwork("drive")
            n.add_input("clk")
            n.add_input("d")
            n.add_output("node")
            n.add_transistor("clk", "d", "node")
            sim = simulator(n)
            assert sim.evaluate({"d": 1, "clk": 1})["node"] == 1
            # Stored 1; reconnecting to a clamped 0 must override the charge.
            assert sim.evaluate({"d": 0, "clk": 1})["node"] == 0

    def test_incremental_matches_reference_across_input_sequence(self):
        def nand():
            n = SwitchNetwork("nand")
            n.add_input("a")
            n.add_input("b")
            n.add_output("out")
            n.add_transistor("a", "mid", "out")
            n.add_transistor("b", "gnd", "mid")
            n.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION)
            return n

        sequence = [
            {"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 0},
            {"a": 0, "b": 1}, {"a": 1, "b": 1}, {"a": None, "b": 1},
        ]
        production = SwitchLevelSimulator(nand())
        reference = SwitchLevelReference(nand())
        for assignment in sequence:
            assert production.evaluate(assignment) == reference.evaluate(assignment)
            assert production.values == reference.values
