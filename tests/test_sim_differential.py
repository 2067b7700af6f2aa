"""Differential test suites: compiled paths vs their golden interpreters.

Hypothesis generates random netlists, stimulus sequences, transistor
networks and RTL input streams; every compiled execution path must be
trace-identical to the reference implementation it replaced — values,
``last_depth`` and ``critical_path_estimate`` included — and the switch-level
simulator value-identical, on every node, to its independent reference.  This
is the simulation-kernel counterpart of ``tests/test_index_golden.py`` and
``tests/test_hier_golden.py`` for the geometry engine.

Two implementations of one model can share a misreading of it, so the switch
level has a third oracle: random NOT / NAND / NOR netlists mapped to
ratioed-NMOS transistors must compute what the gate-level simulator computes.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netlist import GateLevelSimulator, GateType, Module, \
    SwitchLevelSimulator, SwitchNetwork, TransistorKind
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.reference import (
    GateLevelInterpreter,
    RtlInterpreter,
    SwitchLevelReference,
)
from repro.rtl import RtlCompiler, RtlSimulator, parse_rtl
from repro.sim import CompiledNetlist, run_streams

from test_netlist import ratioed_network

# -- random netlist generation -----------------------------------------------------------

_COMB_GATES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
               GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
               GateType.MUX2, GateType.LATCH]


@st.composite
def random_modules(draw):
    """A random module: DAG of combinational gates plus DFF feedback arcs.

    State nets are created first so combinational gates can read them; the
    DFFs driving those nets are added last from arbitrary nets, giving
    counter-like feedback across clock edges without combinational cycles.
    A third of the modules are free to hold latches and one-gate loops; the
    rest are latch- and loop-free, declared either in creation order (which
    is topological) or shuffled.
    """
    shape = draw(st.sampled_from(["topological", "shuffled", "free"]))
    num_inputs = draw(st.integers(1, 4))
    num_state = draw(st.integers(0, 3))
    num_gates = draw(st.integers(1, 24))

    module = Module("rand")
    nets = []
    for i in range(num_inputs):
        module.add_input(f"in_{i}")
        nets.append(f"in_{i}")
    state_nets = [f"st_{i}" for i in range(num_state)]
    for name in state_nets:
        module.add_net(name)
    nets.extend(state_nets)

    gates = []
    kinds = [kind for kind in _COMB_GATES
             if shape == "free" or kind is not GateType.LATCH]
    for g in range(num_gates):
        gate = draw(st.sampled_from(kinds))
        out = f"n_{g}"
        if gate in (GateType.NOT, GateType.BUF):
            source = draw(st.sampled_from(nets))
            gates.append((gate, out, [source], {}))
        elif gate is GateType.MUX2:
            sel, a, b = (draw(st.sampled_from(nets)) for _ in range(3))
            gates.append((gate, out, [], {"sel": sel, "a": a, "b": b}))
        elif gate is GateType.LATCH:
            data, enable = (draw(st.sampled_from(nets)) for _ in range(2))
            gates.append((gate, out, [data], {"enable": enable}))
        else:
            arity = draw(st.integers(2, 4))
            # Occasionally feed the gate its own output: a one-gate cycle,
            # exercising the cyclic (sweep/relaxation) kernel paths.
            loop = shape == "free" and draw(st.booleans())
            pool = nets + ([out] if loop else [])
            sources = [draw(st.sampled_from(pool)) for _ in range(arity)]
            gates.append((gate, out, sources, {}))
        nets.append(out)
    # A shuffled acyclic netlist reads some nets before their driver, which
    # only the sweep loop settles.
    if shape == "shuffled":
        gates = draw(st.permutations(gates))
    for gate, out, sources, ports in gates:
        module.add_gate(gate, out, sources, **ports)

    for name in state_nets:
        data = draw(st.sampled_from(nets))
        module.add_gate(GateType.DFF, name, [data])

    watched = draw(st.sampled_from(nets))
    module.add_output(watched)
    return module


def input_vectors(module):
    # Every input is optional per cycle: omitted names must hold their
    # previous value in every engine, explicit None drives X.
    return st.fixed_dictionaries({}, optional={
        name: st.sampled_from([0, 1, None]) for name in module.input_names()
    })


def vector_sequences(module, max_cycles=6):
    return st.lists(input_vectors(module), min_size=1, max_size=max_cycles)


@st.composite
def modules_with_stimulus(draw):
    module = draw(random_modules())
    sequence = draw(vector_sequences(module))
    return module, sequence


@st.composite
def modules_with_streams(draw, max_cycles=6):
    """A random module, 3-5 distinct stimulus sequences of one length, so a
    stream delivered in the wrong bit position shows, and the reset value
    (``None``: no reset, every flip-flop starts X)."""
    module = draw(random_modules())
    cycles = draw(st.integers(1, max_cycles))
    sequences = draw(st.lists(
        st.lists(input_vectors(module), min_size=cycles, max_size=cycles),
        min_size=3, max_size=5,
        unique_by=lambda sequence: repr([sorted(v.items()) for v in sequence])))
    reset_value = draw(st.sampled_from([0, 1, None]))
    return module, sequences, reset_value


def _gated_register():
    """``q <- (a ^ q) & b``: two inputs, one flip-flop, both observed."""
    module = Module("gated")
    module.add_inputs("a", "b")
    module.add_net("q")
    module.add_gate(GateType.XOR, "x", ["a", "q"])
    module.add_gate(GateType.AND, "y", ["x", "b"])
    module.add_gate(GateType.DFF, "q", ["y"])
    module.add_outputs("y", "q")
    return module


#: Streams whose every column names both inputs with a byte value (packed
#: in one C conversion) ...
_BYTE_STREAMS = [
    [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 1}],
    [{"a": 2, "b": True}, {"a": 0, "b": 0}, {"a": True, "b": 1},
     {"a": 0, "b": 2}],
    [{"a": 0, "b": 1}, {"a": 1, "b": 2}, {"a": 0, "b": 0}, {"a": 1, "b": 1}],
]
#: ... and streams with X, omitted names and -1 (packed bit by bit).
_EXACT_STREAMS = [
    [{"a": 1, "b": None}, {"a": -1}, {"b": 0}, {"a": 0, "b": 1}],
    [{}, {"a": 0, "b": -1}, {"a": None, "b": 1}, {"b": 1}],
    [{"a": None}, {"b": 1}, {"a": 1, "b": 0}, {"a": -1, "b": -1}],
]
#: Streams that switch passes both ways from reset 0: ``b`` is not yet
#: driven in cycle 0 (X; ``a`` = 0 keeps ``q`` known), every source is
#: known in cycles 1-2, stream 1 drives ``a`` X in cycle 3 (``b`` = 0 keeps
#: ``q`` known), and every source is known again in cycles 4-5.
_SWITCHING_STREAMS = [
    [{"a": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 0},
     {"a": 0, "b": 1}, {"a": 1, "b": 1}],
    [{"a": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 0}, {"a": None, "b": 0},
     {"a": 1, "b": 1}, {"a": 1, "b": 1}],
    [{"a": 0}, {"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 0, "b": 1},
     {"a": 1, "b": 0}, {"a": 0, "b": 1}],
]
#: Fully driven streams for a register that starts X (no reset): ``q`` is
#: X in cycle 0, known from cycle 1 (``b`` = 0 clears it), until stream 2
#: drives ``b`` X in cycle 3, which leaves ``q`` X in cycle 4 too.
_X_START_STREAMS = [
    [{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 1, "b": 1},
     {"a": 0, "b": 0}, {"a": 1, "b": 1}],
    [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}, {"a": 0, "b": 0},
     {"a": 1, "b": 1}, {"a": 0, "b": 1}],
    [{"a": 1, "b": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 0, "b": None},
     {"a": 1, "b": 0}, {"a": 1, "b": 0}],
]


def _lockstep(compiled, reference, operation):
    """Run one operation on both simulators; oscillation must agree too.

    Both must also add the same sweep count to ``sim.settle.iterations``.
    Returns True when both raised (identically) — the netlist genuinely
    oscillates and the simulators are done; post-raise net values are not
    part of the contract (a settle stops wherever its budget ran out).
    """
    iterations = obs_metrics.counter("sim.settle.iterations")
    errors = []
    sweeps = []
    for sim in (compiled, reference):
        before = iterations.value
        try:
            operation(sim)
            errors.append(None)
        except RuntimeError as error:
            errors.append(str(error))
        sweeps.append(iterations.value - before)
    assert errors[0] == errors[1]
    assert sweeps[0] == sweeps[1]
    return errors[0] is not None


def _shuffled_register():
    """``_gated_register`` with the AND declared before the XOR it reads:
    acyclic, but not straight-line, so only the sweep loop settles it."""
    module = Module("shuffled")
    module.add_inputs("a", "b")
    module.add_net("q")
    module.add_gate(GateType.AND, "y", ["x", "b"])
    module.add_gate(GateType.XOR, "x", ["a", "q"])
    module.add_gate(GateType.DFF, "q", ["y"])
    module.add_outputs("y", "q")
    return module


#: One pinned netlist and stimulus per settle path ("straight" = the
#: generated one-pass settle, "sweep" = the event-driven sweep loop).
_SETTLE_PATH_CASES = {
    "straight": (_gated_register(), _EXACT_STREAMS[0] + _BYTE_STREAMS[1]),
    "sweep": (_shuffled_register(), _EXACT_STREAMS[1] + _BYTE_STREAMS[0]),
}


class TestGateLevelDifferential:
    @given(modules_with_stimulus())
    @example(_SETTLE_PATH_CASES["straight"])
    @example(_SETTLE_PATH_CASES["sweep"])
    @settings(max_examples=100, deadline=None)
    def test_compiled_matches_interpreter(self, case):
        module, sequence = case
        # A small settle_limit keeps oscillating examples cheap; parity of
        # the limit-triggered RuntimeError is part of the contract.
        compiled = GateLevelSimulator(module, settle_limit=64)
        reference = GateLevelInterpreter(module, settle_limit=64)
        self._lockstep_trace(compiled, reference, sequence)

    @pytest.mark.parametrize("path", sorted(_SETTLE_PATH_CASES))
    def test_each_settle_path_is_pinned(self, path):
        """Each pinned case settles on its path, read from
        ``sim.settle.sweeps``, and matches the interpreter there."""
        module, sequence = _SETTLE_PATH_CASES[path]
        sweeps = obs_metrics.counter("sim.settle.sweeps")
        before = sweeps.value
        self._lockstep_trace(GateLevelSimulator(module),
                             GateLevelInterpreter(module), sequence)
        assert (sweeps.value > before) == (path == "sweep")

    @staticmethod
    def _lockstep_trace(compiled, reference, sequence):
        assert compiled.critical_path_estimate() == \
            reference.critical_path_estimate()
        if _lockstep(compiled, reference, lambda sim: sim.reset(0)):
            return
        assert compiled.last_depth == reference.last_depth
        for vector in sequence:
            compiled.set_inputs(vector)
            reference.set_inputs(vector)
            if _lockstep(compiled, reference, lambda sim: sim.settle()):
                return
            assert compiled.values == reference.values
            assert compiled.last_depth == reference.last_depth
            if _lockstep(compiled, reference, lambda sim: sim.clock()):
                return
            assert compiled.values == reference.values
            assert compiled.state == reference.state

    @given(modules_with_streams())
    @example((_gated_register(), _BYTE_STREAMS, 0))
    @example((_gated_register(), _EXACT_STREAMS, 0))
    @example((_gated_register(), _SWITCHING_STREAMS, 0))
    @example((_gated_register(), _X_START_STREAMS, None))
    @settings(max_examples=30, deadline=None)
    def test_bitplane_streams_match_interpreter(self, case):
        module, sequences, reset_value = case
        lowered = CompiledNetlist(module)
        if lowered.is_cyclic:
            return   # stream runner guarantees exactness for DAGs only
        traces = run_streams(lowered, sequences, reset_value=reset_value)
        assert len(traces) == len(sequences)
        for trace, sequence in zip(traces, sequences):
            assert trace == _reference_trace(module, sequence, reset_value)

    @pytest.mark.parametrize("streams,reset_value", [
        (_BYTE_STREAMS, 0), (_EXACT_STREAMS, 0), (_SWITCHING_STREAMS, 0),
        (_X_START_STREAMS, None)],
        ids=["byte", "exact", "switching", "x_start"])
    def test_each_stream_pass_is_pinned(self, streams, reset_value):
        """A cycle takes the Boolean pass exactly when no stream has an X
        on an input or the flip-flop (read from the interpreter's rows),
        and the three-valued pass otherwise, counted in
        ``sim.planes.*_passes`` and the span's ``boolean_cycles``."""
        module = _gated_register()
        rows = list(zip(*(_reference_trace(module, sequence, reset_value)
                          for sequence in streams)))
        expected = [all(row[net] is not None
                        for row in cycle for net in ("a", "b", "q"))
                    for cycle in rows]
        boolean = obs_metrics.counter("sim.planes.boolean_passes")
        three_valued = obs_metrics.counter("sim.planes.three_valued_passes")
        before = boolean.value, three_valued.value
        obs_trace.enable()
        try:
            run_streams(CompiledNetlist(module), streams,
                        reset_value=reset_value)
        finally:
            obs_trace.disable()
        span, = [event for event in obs_trace.drain()
                 if event["name"] == "sim.run_streams"]
        assert boolean.value - before[0] == expected.count(True)
        assert three_valued.value - before[1] == expected.count(False)
        assert span["args"]["boolean_cycles"] == expected.count(True)
        if streams is _BYTE_STREAMS:
            assert all(expected)
        if streams in (_SWITCHING_STREAMS, _X_START_STREAMS):
            # Both ways: X -> known -> X -> known.
            assert expected[0] is False and expected[-1] is True
            assert False in expected[expected.index(True):]


def _reference_trace(module, sequence, reset_value):
    """The interpreter's rows for one stream, after ``reset(reset_value)``
    (none when ``reset_value`` is None)."""
    reference = GateLevelInterpreter(module)
    if reset_value is not None:
        reference.reset(reset_value)
    return reference.run(sequence).cycles


def _counter():
    """A straight-line two-bit counter: flip-flops ``ff0`` / ``ff1``."""
    module = Module("counter2")
    module.add_inputs("en")
    module.add_net("q0")
    module.add_net("q1")
    module.add_gate(GateType.XOR, "d0", ["q0", "en"])
    module.add_gate(GateType.AND, "c0", ["q0", "en"])
    module.add_gate(GateType.XOR, "d1", ["q1", "c0"])
    module.add_gate(GateType.DFF, "q0", ["d0"], name="ff0")
    module.add_gate(GateType.DFF, "q1", ["d1"], name="ff1")
    module.add_outputs("q0", "q1")
    return module


class TestViewsAreTheInterpretersDicts:
    """The compiled simulator's ``values`` / ``state`` views equal the
    interpreter's dicts in the corners a random netlist seldom reaches."""

    @staticmethod
    def _pair(module):
        return GateLevelSimulator(module), GateLevelInterpreter(module)

    @staticmethod
    def _step(pair, operation):
        for sim in pair:
            operation(sim)
        compiled, reference = pair
        assert compiled.values == reference.values
        assert compiled.state == reference.state
        assert dict(compiled.state) == dict(reference.state)
        assert compiled.last_depth == reference.last_depth

    def test_state_is_empty_until_the_first_reset_or_clock(self):
        pair = self._pair(_counter())
        self._step(pair, lambda sim: sim.evaluate({"en": 1}))
        for sim in pair:
            assert dict(sim.state) == {} and "ff0" not in sim.state
        self._step(pair, lambda sim: sim.clock())
        assert dict(pair[0].state) == {"ff0": None, "ff1": None}
        self._step(pair, lambda sim: sim.reset(1))
        assert dict(pair[0].state) == {"ff0": 1, "ff1": 1}

    def test_a_forced_q_net_is_not_the_captured_state(self):
        pair = self._pair(_counter())
        self._step(pair, lambda sim: sim.reset(0))
        for vector in ({"q1": 1, "en": 0}, {"q0": 1, "en": 1}, {"en": 1},
                       {"q0": None}, {"q1": 0, "en": 0}):
            self._step(pair, lambda sim: sim.evaluate(vector))
            self._step(pair, lambda sim: sim.clock())
        compiled = pair[0]
        compiled.set_inputs({"q1": 1})
        compiled.settle()
        assert compiled.values["q1"] == 1 and compiled.state["ff1"] == 0

    def test_a_transparent_latch(self):
        module = Module("latch")
        module.add_inputs("d", "en")
        module.add_gate(GateType.LATCH, "q", ["d"], enable="en", name="l0")
        module.add_gate(GateType.NOT, "qn", ["q"])
        module.add_outputs("q", "qn")
        pair = self._pair(module)
        for vector in ({"d": 1, "en": 0}, {"en": 1}, {"d": 0}, {"en": 0},
                       {"d": 1}, {"en": None}):
            self._step(pair, lambda sim: sim.evaluate(vector))
        assert dict(pair[0].state) == {"l0": 0}
        assert pair[0].values["qn"] == 1

    def test_a_netlist_on_the_sweep_path(self):
        module = Module("shuffled")
        module.add_inputs("a", "b")
        module.add_net("s")
        module.add_gate(GateType.OR, "y", ["x", "s"])     # reads x before
        module.add_gate(GateType.AND, "x", ["a", "b"])    # x is computed
        module.add_gate(GateType.DFF, "s", ["y"], name="ff")
        module.add_outputs("y")
        pair = self._pair(module)
        assert not pair[0]._engine.compiled.straight_line
        sweeps = obs_metrics.counter("sim.settle.sweeps")
        before = sweeps.value
        self._step(pair, lambda sim: sim.reset(0))
        for vector in ({"a": 1, "b": 0}, {"b": 1}, {"a": 0}, {"a": None}):
            self._step(pair, lambda sim: sim.evaluate(vector))
            self._step(pair, lambda sim: sim.clock())
        assert sweeps.value > before
        assert dict(pair[0].state) == {"ff": 1}

    @pytest.mark.parametrize("record", [None, ["q1", "en", "d1", "no_such_net"]])
    def test_run_samples_what_the_interpreter_samples(self, record):
        vectors = [{"en": 1}, {"en": 0}, {"en": 1, "q0": 0}, {"en": None},
                   {"en": 1}, {}]
        pair = self._pair(_counter())
        self._step(pair, lambda sim: sim.reset(0))
        traces = [sim.run(vectors, record=record).cycles for sim in pair]
        assert traces[0] == traces[1]
        assert len(traces[0]) == len(vectors)
        assert pair[0].values == pair[1].values
        assert pair[0].state == pair[1].state

    def test_the_views_are_read_only_and_unknown_nets_raise(self):
        for sim in self._pair(_counter()):
            sim.reset(0)
            with pytest.raises(TypeError):
                sim.values["en"] = 1
            with pytest.raises(TypeError):
                sim.state["ff0"] = 1
            with pytest.raises(KeyError, match="unknown input net 'nope'"):
                sim.set_inputs({"nope": 1})
            with pytest.raises(KeyError, match="unknown input net 'nope'"):
                sim.run([{"nope": 1}])


# -- switch level ------------------------------------------------------------------------


@st.composite
def random_networks(draw):
    num_signal_nodes = draw(st.integers(2, 6))
    signal_nodes = [f"s{i}" for i in range(num_signal_nodes)]
    num_inputs = draw(st.integers(1, 3))
    inputs = [f"a{i}" for i in range(num_inputs)]
    pool = signal_nodes + inputs + ["vdd", "gnd"]

    network = SwitchNetwork("rand")
    for name in inputs:
        network.add_input(name)
    for name in signal_nodes[:2]:
        network.add_output(name)

    num_devices = draw(st.integers(1, 10))
    for _ in range(num_devices):
        kind = draw(st.sampled_from([TransistorKind.ENHANCEMENT,
                                     TransistorKind.ENHANCEMENT,
                                     TransistorKind.DEPLETION]))
        gate = draw(st.sampled_from(inputs + signal_nodes))
        source = draw(st.sampled_from(pool))
        drain = draw(st.sampled_from(pool))
        network.add_transistor(gate, source, drain, kind)

    assignments = draw(st.lists(
        st.fixed_dictionaries({
            name: st.sampled_from([0, 1, None]) for name in inputs
        }),
        min_size=1, max_size=5,
    ))
    return network, assignments


def _evaluate(simulator, assignment):
    """``(outputs, None)``, or ``(None, error text)`` on oscillation."""
    try:
        return simulator.evaluate(assignment), None
    except RuntimeError as error:
        return None, str(error)


class TestSwitchLevelDifferential:
    @given(random_networks())
    @settings(max_examples=60, deadline=None)
    def test_production_matches_reference_on_every_node(self, case):
        network, assignments = case
        production = SwitchLevelSimulator(network)
        reference = SwitchLevelReference(network)
        for assignment in assignments:
            produced, error = _evaluate(production, assignment)
            assert (produced, error) == _evaluate(reference, assignment)
            if error is not None:
                assert "did not settle" in error
                return   # both diverged identically; states are undefined now
            assert production.values == reference.values
            assert set(production.values) == network.nodes()
            for node in network.nodes():
                assert production.node_value(node) == reference.node_value(node)


@st.composite
def restoring_netlists(draw):
    """An acyclic NOT / NAND / NOR netlist as ``(inputs, gates, depth)``:
    ``gates`` are ``(kind, output, inputs)`` in topological order, ``depth``
    the longest gate chain."""
    inputs = [f"i{number}" for number in range(draw(st.integers(1, 4)))]
    depth_of = dict.fromkeys(inputs, 0)
    gates = []
    for number in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("not", "nand", "nor")))
        fan_in = 1 if kind == "not" else draw(st.integers(2, 3))
        sources = [draw(st.sampled_from(list(depth_of)))
                   for _ in range(fan_in)]
        output = f"g{number}"
        gates.append((kind, output, sources))
        depth_of[output] = 1 + max(depth_of[name] for name in sources)
    return inputs, gates, max(depth_of.values())


class TestSwitchLevelAgainstGateLevel:
    """The model itself, against an engine that shares none of it."""

    _GATE_TYPE = {"not": GateType.NOT, "nand": GateType.NAND,
                  "nor": GateType.NOR}

    #: Logic depth of every example the property ran, for the "prove it ran"
    #: test below.
    depths = []

    @given(restoring_netlists())
    @settings(max_examples=60, deadline=None)
    def test_ratioed_nmos_computes_the_gate_netlist(self, case):
        inputs, gates, depth = case
        outputs = [output for _kind, output, _sources in gates]
        module = Module("restoring")
        module.add_inputs(*inputs)
        module.add_outputs(*outputs)
        for kind, output, sources in gates:
            module.add_gate(self._GATE_TYPE[kind], output, sources)
        network = ratioed_network(
            "restoring", inputs, outputs,
            [("nand" if kind == "nand" else "nor", output, sources)
             for kind, output, sources in gates])
        gate_level = GateLevelSimulator(module)
        reused = [SwitchLevelSimulator(network), SwitchLevelReference(network)]
        for vector in range(1 << len(inputs)):
            assignment = {name: (vector >> bit) & 1
                          for bit, name in enumerate(inputs)}
            expected = gate_level.evaluate(assignment)
            assert None not in expected.values()
            for simulator in reused:
                assert simulator.evaluate(assignment) == expected
            assert SwitchLevelSimulator(network).evaluate(assignment) == expected
        self.depths.append(depth)

    def test_a_third_of_the_examples_had_two_levels_of_logic(self):
        """Single restoring stages never met the bug this suite exists for."""
        if not self.depths:
            pytest.skip("the property did not run in this session")
        deep = sum(1 for depth in self.depths if depth >= 2)
        assert 3 * deep >= len(self.depths), (deep, len(self.depths))


# -- RTL ---------------------------------------------------------------------------------


_COUNTER = """
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

_LFSR = """
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

_ALU = """
machine alu;
input op[2], x[6], y[6];
output r[6], flag[1];
register acc[6];
memory scratch[4][6];
always begin
    if (op == 0) acc <- acc + x;
    if (op == 1) acc <- acc - y;
    if (op == 2) scratch[x[1:0]] <- acc ^ y;
    if (op == 3) acc <- scratch[y[1:0]];
    r = acc & (x | y);
    flag = acc == y;
end
"""


class TestRtlDifferential:
    @pytest.mark.parametrize("source", [_COUNTER, _LFSR, _ALU])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_compiled_closures_match_interpreter(self, source, data):
        machine = parse_rtl(source)
        compiled = RtlSimulator(machine)
        reference = RtlInterpreter(machine)
        cycles = data.draw(st.integers(1, 8))
        masks = {d.name: d.mask for d in machine.inputs}
        for _ in range(cycles):
            vector = {
                name: data.draw(st.integers(0, mask))
                for name, mask in masks.items()
            }
            assert compiled.step(vector) == reference.step(vector)
            assert compiled.values == reference.values
            assert compiled.memories == reference.memories


# -- three-level co-simulation -----------------------------------------------------------


def _word(trace_cycle, name, width):
    return sum((trace_cycle[f"{name}_{i}"] or 0) << i for i in range(width))


class TestThreeLevelCosimulation:
    """RTL, gate and switch descriptions of the same machines agree."""

    @pytest.mark.parametrize("source,data_port,width", [
        (_COUNTER, "data", 4),
        (_LFSR, "seed", 8),
    ])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_rtl_vs_gate(self, source, data_port, width, data):
        machine = parse_rtl(source)
        compiled_module = RtlCompiler(machine).compile().module

        rtl_sim = RtlSimulator(machine)
        gate_sim = GateLevelSimulator(compiled_module)
        gate_sim.reset(0)

        cycles = data.draw(st.integers(1, 6))
        for _ in range(cycles):
            load = data.draw(st.integers(0, 1))
            word = data.draw(st.integers(0, (1 << width) - 1))
            rtl_out = rtl_sim.step({"load": load, data_port: word})["q"]
            vector = {"load_0": load}
            vector.update({f"{data_port}_{i}": (word >> i) & 1
                           for i in range(width)})
            gate_trace = gate_sim.run([vector])
            # ``q = count`` reads the register before the clocked transfer
            # lands, which is exactly the trace's pre-edge sample.
            gate_out = _word(gate_trace.cycles[0], "q", width)
            assert gate_out == rtl_out

    @given(a=st.integers(0, 1), b=st.integers(0, 1))
    @settings(max_examples=4, deadline=None)
    def test_gate_vs_switch_nand(self, a, b):
        from repro.cells import NandCell
        from repro.extract import extract_cell
        from repro.technology import nmos_technology

        technology = nmos_technology()
        extracted = extract_cell(NandCell(technology, inputs=2).cell(), technology)
        switch_sim = SwitchLevelSimulator(extracted.network)
        switch_out = switch_sim.evaluate({"in0": a, "in1": b})["out"]

        module = Module("nand")
        module.add_inputs("in0", "in1")
        module.add_outputs("out")
        module.add_gate(GateType.NAND, "out", ["in0", "in1"])
        gate_out = GateLevelSimulator(module).evaluate(
            {"in0": a, "in1": b})["out"]
        assert switch_out == gate_out == (0 if a and b else 1)
