"""Tests for structural netlists, the simulators and netlist comparison."""

import pytest

from repro.netlist import (
    GateLevelSimulator,
    GateType,
    Module,
    SwitchLevelSimulator,
    SwitchNetwork,
    TransistorKind,
    compare_netlists,
)
from repro.netlist.compare import compare_switch_networks
from repro.reference import SwitchLevelReference


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


class TestModule:
    def test_ports_and_nets(self):
        m = full_adder()
        assert set(m.input_names()) == {"a", "b", "cin"}
        assert set(m.output_names()) == {"s", "cout"}
        assert "ab" in m.internal_names()

    def test_gate_count_and_census(self):
        m = full_adder()
        assert m.gate_count() == 5
        assert m.count_by_type() == {"xor": 2, "and": 2, "or": 1}

    def test_arity_validation(self):
        m = Module("m")
        with pytest.raises(ValueError):
            m.add_gate(GateType.NOT, "y", ["a", "b"])
        with pytest.raises(ValueError):
            m.add_gate(GateType.AND, "y", ["a"])

    def test_duplicate_instance_name_rejected(self):
        m = Module("m")
        m.add_gate(GateType.NOT, "y", ["a"], name="inv")
        with pytest.raises(ValueError):
            m.add_gate(GateType.NOT, "z", ["a"], name="inv")

    def test_validate_detects_multiple_drivers(self):
        m = Module("m")
        m.add_gate(GateType.NOT, "y", ["a"])
        m.add_gate(GateType.BUF, "y", ["b"])
        assert [d.code for d in m.validate()] == ["ERC008"]

    def test_validate_detects_undriven_output(self):
        m = Module("m")
        m.add_output("y")
        assert [d.code for d in m.validate()] == ["ERC006"]

    def test_submodule_instantiation_and_flattening(self):
        adder = full_adder()
        top = Module("top")
        top.add_inputs("x", "y", "c")
        top.add_outputs("sum", "carry")
        top.add_submodule(adder, {"a": "x", "b": "y", "cin": "c",
                                  "s": "sum", "cout": "carry"})
        flat = top.flattened()
        assert flat.gate_count() == 5
        sim = GateLevelSimulator(top)
        out = sim.evaluate({"x": 1, "y": 1, "c": 1})
        assert out["sum"] == 1 and out["carry"] == 1

    def test_submodule_missing_connection_rejected(self):
        adder = full_adder()
        top = Module("top")
        with pytest.raises(ValueError):
            top.add_submodule(adder, {"a": "x"})

    def test_transistor_estimate_positive_and_monotone(self):
        small = Module("s")
        small.add_gate(GateType.NOT, "y", ["a"])
        assert small.transistor_estimate() == 2
        assert full_adder().transistor_estimate() > small.transistor_estimate()


class TestGateLevelSimulator:
    def test_full_adder_truth_table(self):
        sim = GateLevelSimulator(full_adder())
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    out = sim.evaluate({"a": a, "b": b, "cin": c})
                    assert out["s"] == a ^ b ^ c
                    assert out["cout"] == int(a + b + c >= 2)

    def test_unknown_propagation_with_controlling_values(self):
        m = Module("m")
        m.add_inputs("a")
        m.add_outputs("y")
        m.add_gate(GateType.AND, "y", ["a", "u"])   # u never driven -> X
        sim = GateLevelSimulator(m)
        assert sim.evaluate({"a": 0})["y"] == 0      # 0 dominates AND
        assert sim.evaluate({"a": 1})["y"] is None

    def test_counter_with_dffs(self):
        m = Module("cnt")
        m.add_inputs("en")
        m.add_outputs("q0", "q1")
        m.add_gate(GateType.XOR, "d0", ["q0", "en"])
        m.add_gate(GateType.DFF, "q0", ["d0"])
        m.add_gate(GateType.AND, "c0", ["q0", "en"])
        m.add_gate(GateType.XOR, "d1", ["q1", "c0"])
        m.add_gate(GateType.DFF, "q1", ["d1"])
        sim = GateLevelSimulator(m)
        sim.reset()
        trace = sim.run([{"en": 1}] * 4)
        values = [(c["q1"], c["q0"]) for c in trace.cycles]
        assert values == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_latch_transparent_when_enabled(self):
        m = Module("l")
        m.add_inputs("d", "en")
        m.add_outputs("q")
        m.add_gate(GateType.LATCH, "q", ["d"], enable="en")
        sim = GateLevelSimulator(m)
        assert sim.evaluate({"d": 1, "en": 1})["q"] == 1
        assert sim.evaluate({"d": 0, "en": 0})["q"] == 1   # holds

    def test_mux2(self):
        m = Module("m")
        m.add_inputs("s", "a", "b")
        m.add_outputs("y")
        m.add_gate(GateType.MUX2, "y", [], sel="s", a="a", b="b")
        sim = GateLevelSimulator(m)
        assert sim.evaluate({"s": 0, "a": 1, "b": 0})["y"] == 1
        assert sim.evaluate({"s": 1, "a": 1, "b": 0})["y"] == 0

    def test_unknown_input_name_raises(self):
        sim = GateLevelSimulator(full_adder())
        with pytest.raises(KeyError):
            sim.set_inputs({"zz": 1})

    def test_critical_path_estimate(self):
        assert GateLevelSimulator(full_adder()).critical_path_estimate() == 3

    def test_trace_series(self):
        sim = GateLevelSimulator(full_adder())
        trace = sim.run([{"a": 1, "b": 0, "cin": 0}, {"a": 1, "b": 1, "cin": 0}])
        assert trace.series("s") == [1, 0]
        assert len(trace) == 2


class TestSwitchLevelSimulator:
    def nmos_inverter(self):
        n = SwitchNetwork("inv")
        n.add_input("a")
        n.add_output("out")
        n.add_transistor("a", "gnd", "out")
        n.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION)
        return n

    def test_inverter(self):
        n = self.nmos_inverter()
        assert SwitchLevelSimulator(n).evaluate({"a": 0})["out"] == 1
        assert SwitchLevelSimulator(n).evaluate({"a": 1})["out"] == 0

    def test_nand_series_pulldown(self):
        n = SwitchNetwork("nand")
        n.add_input("a")
        n.add_input("b")
        n.add_output("out")
        n.add_transistor("a", "mid", "out")
        n.add_transistor("b", "gnd", "mid")
        n.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION)
        for a in (0, 1):
            for b in (0, 1):
                sim = SwitchLevelSimulator(n)
                assert sim.evaluate({"a": a, "b": b})["out"] == (0 if a and b else 1)

    def test_pass_transistor_charge_storage(self):
        n = SwitchNetwork("dyn")
        n.add_input("d")
        n.add_input("clk")
        n.add_output("node")
        n.add_transistor("clk", "d", "node")
        sim = SwitchLevelSimulator(n)
        assert sim.evaluate({"d": 1, "clk": 1})["node"] == 1
        # Clock off, data changes: the node keeps its stored charge.
        assert sim.evaluate({"d": 0, "clk": 0})["node"] == 1

    def test_device_counts(self):
        n = self.nmos_inverter()
        assert n.device_count() == 2
        assert n.pullup_count() == 1


def ratioed_gate(network, kind, output, inputs):
    """The textbook ratioed-NMOS gate: a depletion load on ``output`` and
    a pull-down per input — in parallel (``nor``), or stacked in series
    towards ``gnd`` (``nand``); one input makes either an inverter."""
    network.add_transistor(output, output, "vdd", TransistorKind.DEPLETION,
                           name=f"pu_{output}")
    if kind == "nor":
        for number, name in enumerate(inputs):
            network.add_transistor(name, output, "gnd",
                                   name=f"pd_{output}_{number}")
        return
    assert kind == "nand"
    upper = output
    for number, name in enumerate(inputs):
        lower = ("gnd" if number == len(inputs) - 1
                 else f"{output}_stack{number}")
        network.add_transistor(name, upper, lower,
                               name=f"pd_{output}_{number}")
        upper = lower


def ratioed_network(name, inputs, outputs, gates):
    network = SwitchNetwork(name)
    for port in inputs:
        network.add_input(port)
    for kind, output, gate_inputs in gates:
        ratioed_gate(network, kind, output, gate_inputs)
    for port in outputs:
        network.add_output(port)
    return network


@pytest.mark.parametrize("simulator",
                         [SwitchLevelSimulator, SwitchLevelReference])
class TestSwitchLevelTruthTables:
    """More than one restoring stage: the supplies feed every stage and
    join none of them.  (A partition that keeps ``vdd`` as an ordinary node
    shorts every pulled-up output to every other and gets all of these
    wrong.)  Run on production and on its independent reference."""

    def test_two_independent_inverters(self, simulator):
        network = ratioed_network("pair", ["a", "b"], ["x", "y"],
                                  [("nor", "x", ["a"]), ("nor", "y", ["b"])])
        for a in (0, 1):
            for b in (0, 1):
                assert simulator(network).evaluate({"a": a, "b": b}) == {
                    "x": 1 - a, "y": 1 - b}

    @pytest.mark.parametrize("stages", range(1, 9))
    def test_inverter_chain(self, simulator, stages):
        nets = ["a"] + [f"n{stage}" for stage in range(stages)]
        network = ratioed_network(
            "chain", ["a"], nets[-1:],
            [("nor", out, [inp]) for inp, out in zip(nets, nets[1:])])
        reused = simulator(network)
        for a in (0, 1, 0):
            expected = {nets[-1]: (a + stages) % 2}
            assert simulator(network).evaluate({"a": a}) == expected
            assert reused.evaluate({"a": a}) == expected
            assert [reused.node_value(net) for net in nets] == [
                (a + stage) % 2 for stage in range(stages + 1)]

    def test_nand_then_inverter_is_and(self, simulator):
        network = ratioed_network(
            "and2", ["a", "b"], ["y"],
            [("nand", "n", ["a", "b"]), ("nor", "y", ["n"])])
        for a in (0, 1):
            for b in (0, 1):
                assert simulator(network).evaluate({"a": a, "b": b}) == {
                    "y": a & b}

    def test_nor_nor_two_level_block(self, simulator):
        # The shape of a PLA: an AND plane of NOR product lines feeding an
        # OR plane of NOR outputs.
        network = ratioed_network(
            "pla", ["a", "b"], ["o0", "o1"],
            [("nor", "p0", ["a", "b"]), ("nor", "p1", ["b"]),
             ("nor", "o0", ["p0", "p1"]), ("nor", "o1", ["p0"])])
        reused = simulator(network)
        for a in (0, 1):
            for b in (0, 1):
                p0, p1 = 1 - (a | b), 1 - b
                expected = {"o0": 1 - (p0 | p1), "o1": 1 - p0}
                assert simulator(network).evaluate({"a": a, "b": b}) == expected
                assert reused.evaluate({"a": a, "b": b}) == expected
                assert (reused.node_value("p0"), reused.node_value("p1")) == (
                    p0, p1)

    def test_cross_coupled_nor_latch_sets_resets_and_holds(self, simulator):
        network = ratioed_network(
            "latch", ["s", "r"], ["q", "q_bar"],
            [("nor", "q", ["r", "q_bar"]), ("nor", "q_bar", ["s", "q"])])
        sim = simulator(network)
        for s, r, q in ((1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 0, 0),
                        (1, 0, 1), (0, 0, 1), (0, 0, 1)):
            assert sim.evaluate({"s": s, "r": r}) == {"q": q, "q_bar": 1 - q}


class TestComparison:
    def test_identical_netlists_match(self):
        assert compare_netlists(full_adder(), full_adder()).matches

    def test_extra_gate_detected(self):
        other = full_adder()
        other.add_gate(GateType.NOT, "junk", ["a"])
        result = compare_netlists(full_adder(), other)
        assert not result.matches
        assert any("census" in m for m in result.mismatches)

    def test_port_mismatch_detected(self):
        other = Module("fa")
        other.add_inputs("a", "b")
        other.add_outputs("s")
        other.add_gate(GateType.XOR, "s", ["a", "b"])
        result = compare_netlists(full_adder(), other)
        assert not result.matches

    def test_swapped_connection_detected(self):
        golden = Module("g")
        golden.add_inputs("a", "b", "c")
        golden.add_outputs("y")
        golden.add_gate(GateType.AND, "t", ["a", "b"])
        golden.add_gate(GateType.OR, "y", ["t", "c"])
        candidate = Module("g")
        candidate.add_inputs("a", "b", "c")
        candidate.add_outputs("y")
        candidate.add_gate(GateType.AND, "t", ["a", "c"])   # swapped b <-> c
        candidate.add_gate(GateType.OR, "y", ["t", "b"])
        assert not compare_netlists(golden, candidate).matches

    def test_explain_text(self):
        result = compare_netlists(full_adder(), full_adder())
        assert "match" in result.explain()

    def test_switch_network_comparison(self):
        def inverter():
            n = SwitchNetwork("inv")
            n.add_transistor("a", "gnd", "out")
            n.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION)
            return n
        assert compare_switch_networks(inverter(), inverter()).matches
        extra = inverter()
        extra.add_transistor("b", "gnd", "out")
        assert not compare_switch_networks(inverter(), extra).matches
