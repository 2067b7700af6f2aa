"""Unit tests for the compiled simulation kernel (repro.sim).

Covers the netlist lowering (net ids, fanout, levelization), the scalar
engine's parity with the reference interpreter on hand-built circuits, the
bit-parallel bitplane evaluator's three-valued gate semantics, and the
satellite regressions: numeric input-port ordering, simultaneous DFF
capture, and switch-level charge-sharing behaviour.
"""

import pytest

from repro.netlist import (
    GateLevelSimulator,
    GateType,
    Module,
    SwitchLevelSimulator,
    SwitchNetwork,
    Transistor,
    TransistorKind,
)
from repro.reference import GateLevelInterpreter, SwitchLevelReference
from repro.sim import (
    BitplaneEvaluator,
    CompiledNetlist,
    evaluate_vectors,
    exhaustive_input_planes,
    run_streams,
)


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
