"""Compiled simulation kernel: netlist lowering and the scalar engine.

The seed's :class:`~repro.netlist.gate_sim.GateLevelSimulator` interpreted
the netlist on every sweep: it rescanned every instance, re-sorted the port
dictionary of every gate, and looked every net up by name.  This module
lowers a flattened :class:`~repro.netlist.module.Module` **once** into
integer-indexed arrays:

* every net gets a dense integer id (plus one phantom slot that is
  permanently X, standing in for unconnected optional ports);
* every combinational gate becomes an opcode, a tuple of input net ids
  (data inputs in numeric port order) and an output net id;
* per-net fanout lists say exactly which gates must be re-evaluated when a
  net changes, so settling is event-driven instead of scan-everything;
* the combinational gates are topologically levelized (Kahn's algorithm),
  which gives the single-pass schedule used by the bit-parallel evaluator
  (:mod:`repro.sim.bitplane`) and an O(gates) critical-path computation.

The arrays are then lowered once more, to code.  Each opcode's
three-valued semantics is written once per engine as a source template
(:data:`SCALAR_TEMPLATES` here, ``PLANE_TEMPLATES`` in the bitplane
module); :func:`compile_chunks` instantiates them gate by gate into
straight-line Python, compiled about 64 gates per ``compile()`` and cached
process-wide by source text, so structurally identical netlists share the
code objects whichever :class:`CompiledNetlist` they come from.

The :class:`ScalarEngine` replicates the reference interpreter's settle
semantics *exactly* — same sweep structure, same instance order, same
``last_depth`` accounting, same oscillation limit — which is what lets the
differential suite pin trace-identical results.  On a straight-line
netlist (see :attr:`CompiledNetlist.straight_line`) the whole settle is
one generated pass; every other netlist runs the event-driven sweep loop,
whose per-gate callables come from the same templates.  The engine's
state is one list indexed by net id (``vals``, as in a levelized
compiled-code simulator) plus the latches' held values; a clock edge is a
gather of the D slots compared with the Q slots.  The name-keyed
``values`` / ``state`` a simulator shows are read-only views over it
(:class:`NetValues`, :class:`SequentialState`), so generated code names
net ids only and nothing but ``vals`` is written per gate.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import BudgetExceeded, Diagnostic, Severity
from repro.netlist.module import GateType, Module
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

# Opcodes for the lowered gate records.
OP_AND = 0
OP_OR = 1
OP_NAND = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_NOT = 6
OP_BUF = 7
OP_MUX2 = 8
OP_LATCH = 9
OP_CONST0 = 10
OP_CONST1 = 11

_OPCODE_OF: Dict[GateType, int] = {
    GateType.AND: OP_AND,
    GateType.OR: OP_OR,
    GateType.NAND: OP_NAND,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
    GateType.MUX2: OP_MUX2,
    GateType.LATCH: OP_LATCH,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
}


class CompiledNetlist:
    """A flattened module lowered to integer-indexed net and gate arrays."""

    def __init__(self, module: Module):
        flat = module
        if any(not instance.is_primitive for instance in flat.instances):
            flat = module.flattened()
        self.module = flat

        self.net_names: List[str] = list(flat.nets)
        self.net_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.net_names)
        }
        #: Phantom net id whose value is permanently X (unconnected ports).
        self.x_slot: int = len(self.net_names)
        self.num_slots: int = self.x_slot + 1

        self.gate_ops: List[int] = []
        self.gate_ins: List[Tuple[int, ...]] = []
        self.gate_outs: List[int] = []
        self.gate_names: List[str] = []
        #: (instance name, d net id, q net id) per DFF, in instance order.
        self.dffs: List[Tuple[str, int, int]] = []
        self.total_instances = len(flat.instances)

        index = self.net_index
        x_slot = self.x_slot
        for instance in flat.instances:
            output = instance.connections.get("out")
            if output is None:
                continue
            kind = instance.kind
            if kind is GateType.DFF:
                d_net = instance.connections.get("in0")
                d_id = index[d_net] if d_net is not None else x_slot
                self.dffs.append((instance.name, d_id, index[output]))
                continue
            if kind is GateType.MUX2:
                ins = tuple(
                    index.get(instance.connections.get(port, ""), x_slot)
                    for port in ("sel", "a", "b")
                )
            elif kind is GateType.LATCH:
                ins = (
                    index.get(instance.connections.get("in0", ""), x_slot),
                    index.get(instance.connections.get("enable", ""), x_slot),
                )
            else:
                ins = tuple(index[net] for net in instance.data_input_nets())
            self.gate_ops.append(_OPCODE_OF[kind])
            self.gate_ins.append(ins)
            self.gate_outs.append(index[output])
            self.gate_names.append(instance.name)

        self.num_gates = len(self.gate_ops)

        # Event fanout: net id -> sorted tuple of gate ids to re-evaluate.
        # Gate ids follow instance order, so sorting candidate ids reproduces
        # the reference interpreter's instance-order sweeps.
        fanout_sets: List[Set[int]] = [set() for _ in range(self.num_slots)]
        for gate_id, ins in enumerate(self.gate_ins):
            for net_id in ins:
                if net_id != x_slot:
                    fanout_sets[net_id].add(gate_id)
        self.fanout: List[Tuple[int, ...]] = [
            tuple(sorted(s)) for s in fanout_sets
        ]

        self.input_ids: List[int] = [index[n] for n in flat.input_names()]
        self.output_ids: List[int] = [index[n] for n in flat.output_names()]

        self.levels: Optional[List[List[int]]] = self._levelize()
        self.has_latches: bool = OP_LATCH in self.gate_ops
        self.straight_line: bool = self._is_straight_line()
        self.two_valued: bool = self._is_two_valued()

    def _is_two_valued(self) -> bool:
        """True when known sources make every net a gate or flip-flop reads
        known, so one levelized pass over 0 / 1 values alone can stand for
        the three-valued one.

        Acyclic and latch-free; primary inputs, flip-flop outputs and gate
        outputs are three disjoint sets; and no gate or D input reads the
        X slot or a net none of them drives.
        """
        if self.levels is None or self.has_latches:
            return False
        inputs = set(self.input_ids)
        q_ids = {q_id for _name, _d_id, q_id in self.dffs}
        outs = set(self.gate_outs)
        if inputs & q_ids or outs & (inputs | q_ids):
            return False
        driven = inputs | q_ids | outs
        return driven.issuperset(
            chain(chain.from_iterable(self.gate_ins),
                  (d_id for _name, d_id, _q_id in self.dffs)))

    def _is_straight_line(self) -> bool:
        """True when one instance-order sweep settles every net.

        Latch-free, every net driven by at most one gate, and every
        driver before its readers in instance order (which rules out
        cycles).  Then Gauss-Seidel sweep 1 computes each gate from inputs
        that are already final, so sweep 2 can change nothing.
        """
        if self.has_latches:
            return False
        driver: Dict[int, int] = {}
        for gate_id, out in enumerate(self.gate_outs):
            if out in driver:
                return False
            driver[out] = gate_id
        return all(driver.get(net_id, -1) < gate_id
                   for gate_id, ins in enumerate(self.gate_ins)
                   for net_id in ins)

    # -- levelization ---------------------------------------------------------------

    def _levelize(self) -> Optional[List[List[int]]]:
        """Kahn levelization of the combinational gates; None when cyclic."""
        producer: Dict[int, int] = {}
        for gate_id, out in enumerate(self.gate_outs):
            producer[out] = gate_id

        dependents: List[List[int]] = [[] for _ in range(self.num_gates)]
        indegree = [0] * self.num_gates
        for gate_id, ins in enumerate(self.gate_ins):
            for net_id in set(ins):
                source = producer.get(net_id)
                if source is None:
                    continue
                if source == gate_id:
                    # Output feeding its own input: a one-gate cycle.  Give
                    # it an indegree that never drains so Kahn leaves it
                    # unplaced and the netlist is classified cyclic.
                    indegree[gate_id] += 1
                    continue
                dependents[source].append(gate_id)
                indegree[gate_id] += 1

        levels: List[List[int]] = []
        frontier = [g for g in range(self.num_gates) if indegree[g] == 0]
        placed = 0
        while frontier:
            levels.append(frontier)
            placed += len(frontier)
            nxt: List[int] = []
            for gate_id in frontier:
                for dependent in dependents[gate_id]:
                    indegree[dependent] -= 1
                    if indegree[dependent] == 0:
                        nxt.append(dependent)
            frontier = nxt
        if placed != self.num_gates:
            return None   # combinational cycle (e.g. cross-coupled gates)
        return levels

    @property
    def is_cyclic(self) -> bool:
        return self.levels is None

    # -- critical path ----------------------------------------------------------------

    def critical_path_estimate(self) -> int:
        """Longest combinational depth, matching the reference interpreter.

        For acyclic netlists this is a single pass over the levelized
        schedule; for cyclic ones it falls back to an exact integer-indexed
        replica of the interpreter's bounded relaxation (same instance
        order, same iteration cap) so the result is identical either way.
        """
        if self.levels is None:
            return self._relaxation_critical_path()
        net_depth = [0] * self.num_slots
        ops = self.gate_ops
        gate_ins = self.gate_ins
        outs = self.gate_outs
        best = 0
        for level in self.levels:
            for gate_id in level:
                if ops[gate_id] == OP_LATCH:
                    continue   # sequential: a depth source, not a stage
                depth = 0
                for net_id in gate_ins[gate_id]:
                    if net_depth[net_id] > depth:
                        depth = net_depth[net_id]
                depth += 1
                out = outs[gate_id]
                if depth > net_depth[out]:
                    net_depth[out] = depth
                if depth > best:
                    best = depth
        return best

    def _relaxation_critical_path(self) -> int:
        net_depth = [0] * self.num_slots
        ops = self.gate_ops
        gate_ins = self.gate_ins
        outs = self.gate_outs
        best = 0
        changed = True
        iterations = 0
        while changed:
            iterations += 1
            if iterations > self.total_instances + 2:
                break
            changed = False
            for gate_id in range(self.num_gates):
                if ops[gate_id] == OP_LATCH:
                    continue
                depth = 0
                for net_id in gate_ins[gate_id]:
                    if net_depth[net_id] > depth:
                        depth = net_depth[net_id]
                depth += 1
                out = outs[gate_id]
                if depth > net_depth[out]:
                    net_depth[out] = depth
                    if depth > best:
                        best = depth
                    changed = True
        return best


# Lowered netlists keyed by content digest (repro.store.hashing): lowering
# is a pure function of the module's structure, and a CompiledNetlist is
# immutable after construction (engines keep their own value arrays), so
# one compilation serves every simulator, STA run and comparison that sees
# structurally identical input.  Unbudgeted on purpose: entries are small
# relative to the modules they are compiled from, and the budget's pickle
# measurement would cost more than it protects.
_COMPILE_CACHE = None


def compile_netlist(module: Module) -> CompiledNetlist:
    """The lowered form of ``module``, cached by netlist content hash.

    Returns a shared :class:`CompiledNetlist` instance; callers must treat
    it as immutable (every engine already does — mutable simulation state
    lives in the engines, never in the lowered arrays).
    """
    global _COMPILE_CACHE
    from repro.store.artifact import MemoryStore
    from repro.store.hashing import netlist_hash

    if _COMPILE_CACHE is None:
        _COMPILE_CACHE = MemoryStore(budget_bytes=None)
    key = "compiled:" + netlist_hash(module)
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        obs_metrics.counter("sim.compile.misses").inc()
        with obs_trace.span("sim.compile", cat="sim", module=module.name,
                            gates=len(module.instances)):
            compiled = CompiledNetlist(module)
        _COMPILE_CACHE.put(key, compiled)
    else:
        obs_metrics.counter("sim.compile.hits").inc()
    return compiled


def settle_budget_error() -> BudgetExceeded:
    """The ``GRD002`` error of a settle loop that ran out of sweeps."""
    message = "combinational loop did not settle (oscillation?)"
    return BudgetExceeded(
        message,
        Diagnostic(Severity.ERROR, "GRD002", message,
                   hint="the netlist oscillates; raise settle_limit only "
                        "if depth is real",
                   source="sim"))


# -- code generation -------------------------------------------------------------------

#: Gates per generated function: one ``compile()`` each.  A whole netlist
#: as one unit costs ~20 MB of transient compiler memory at 1k gates.
CHUNK_GATES = 64

# Generated functions keyed by their exact source text; a hit is exact.
# Unbounded like _COMPILE_CACHE: a chunk is a few kilobytes of source and
# one code object.
_CHUNK_CACHE: Dict[str, Callable] = {}

_IDENTITY = {"&": "mask", "|": "0", "^": "0"}


class _Fields(dict):
    """Template fields of one gate, rendered on demand.

    ``{o}`` is the output net id, ``{g}`` the gate id, ``{name}`` the
    gate's name as a literal.  ``{<array><k>}`` reads input ``k`` —
    ``{vals0}`` becomes ``vals[17]`` — and ``{<array><op>}`` folds all
    inputs with ``&``, ``|`` or ``^`` (``{hi&}``: ``hi[3] & hi[9]``; no
    inputs give the operator's identity) or lists them as a tuple
    (``{vals,}``).  The array ``hilo`` stands for ``(hi[i] | lo[i])``.
    """

    def __init__(self, compiled: CompiledNetlist, gate_id: int):
        super().__init__(o=compiled.gate_outs[gate_id], g=gate_id,
                         name=repr(compiled.gate_names[gate_id]))
        self.ins = compiled.gate_ins[gate_id]

    def __missing__(self, key: str) -> str:
        array, op = key[:-1], key[-1]
        if array == "hilo":
            terms = [f"(hi[{i}] | lo[{i}])" for i in self.ins]
        else:
            terms = [f"{array}[{i}]" for i in self.ins]
        if op.isdigit():
            return terms[int(op)]
        if op == ",":
            return "(" + "".join(term + ", " for term in terms) + ")"
        return f" {op} ".join(terms) or _IDENTITY[op]


def render(template: str, compiled: CompiledNetlist, gate_id: int) -> str:
    """``template`` instantiated for one gate (see :class:`_Fields`)."""
    return template.format_map(_Fields(compiled, gate_id))


def compile_chunks(head: str, bodies: Sequence[str], kind: str,
                   tail: str = "") -> List[Callable]:
    """One function per ~:data:`CHUNK_GATES` bodies: ``head + bodies + tail``.

    ``head`` opens a ``def _chunk(...):``; every body is that function's
    code for one gate.  Compiled functions are cached process-wide by
    source text, so a netlist lowered again (or a structurally identical
    one) reuses them.
    """
    sources = [head + "".join(bodies[start:start + CHUNK_GATES]) + tail
               for start in range(0, len(bodies), CHUNK_GATES)]
    missing = [source for source in dict.fromkeys(sources)
               if source not in _CHUNK_CACHE]
    obs_metrics.counter("sim.kernel.hits").inc(len(sources) - len(missing))
    if missing:
        obs_metrics.counter("sim.kernel.builds").inc(len(missing))
        with obs_trace.span("sim.kernel", cat="sim", kind=kind,
                            gates=len(bodies), chunks=len(missing)):
            for source in missing:
                namespace: Dict[str, Callable] = {}
                exec(compile(source, f"<repro.sim {kind}>", "exec"), namespace)
                _CHUNK_CACHE[source] = namespace["_chunk"]
    return [_CHUNK_CACHE[source] for source in sources]


#: Scalar three-valued semantics, one expression per opcode over
#: ``vals`` (0, 1 or None = X); a latch also reads and writes ``state``,
#: the engine's held value per latch name.
SCALAR_TEMPLATES: Dict[int, str] = {
    OP_AND: "0 if 0 in {vals,} else None if None in {vals,} else 1",
    OP_NAND: "1 if 0 in {vals,} else None if None in {vals,} else 0",
    OP_OR: "1 if 1 in {vals,} else None if None in {vals,} else 0",
    OP_NOR: "0 if 1 in {vals,} else None if None in {vals,} else 1",
    OP_XOR: "None if None in {vals,} else {vals^}",
    OP_XNOR: "None if None in {vals,} else 1 ^ {vals^}",
    OP_NOT: "None if {vals0} is None else 1 - {vals0}",
    OP_BUF: "{vals0}",
    OP_MUX2: "({vals2} if s else {vals1}) if (s := {vals0}) is not None "
             "else {vals1} if {vals1} == {vals2} else None",
    OP_LATCH: "(state.__setitem__({name}, {vals0}) or {vals0}) "
              "if {vals1} == 1 else state.get({name})",
    OP_CONST0: "0",
    OP_CONST1: "1",
}


def _scalar_expr(compiled: CompiledNetlist, gate_id: int) -> str:
    return render(SCALAR_TEMPLATES[compiled.gate_ops[gate_id]], compiled, gate_id)


def scalar_pass(compiled: CompiledNetlist) -> List[Callable]:
    """One instance-order sweep as generated chunks ``f(vals)``.

    Each gate is evaluated and, if its value changed, written to ``vals``;
    a chunk returns how many changed.  The source names no net, so
    structurally identical netlists share every chunk.
    """
    bodies = [
        f"    v = {_scalar_expr(compiled, g)}\n"
        f"    if v != vals[{out}]:\n"
        f"        vals[{out}] = v\n"
        f"        changed += 1\n"
        for g, out in enumerate(compiled.gate_outs)
    ]
    return compile_chunks("def _chunk(vals):\n    changed = 0\n",
                          bodies, "scalar pass", "    return changed\n")


def scalar_evals(compiled: CompiledNetlist, vals: List[Optional[int]],
                 state: Dict[str, Optional[int]]) -> List[Callable[[], Optional[int]]]:
    """Per-gate callables over ``vals``/``state``, in gate-id order."""
    bodies = [f"    add(lambda: {_scalar_expr(compiled, g)})\n"
              for g in range(compiled.num_gates)]
    evals: List[Callable[[], Optional[int]]] = []
    for make in compile_chunks("def _chunk(vals, state, add):\n", bodies,
                               "scalar gates"):
        make(vals, state, evals.append)
    return evals


def gather(ids: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``f(vals) -> tuple(vals[i] for i in ids)``, in C when it can be."""
    if len(ids) > 1:
        return itemgetter(*ids)
    return lambda vals: tuple(vals[i] for i in ids)


def unknown_net(name: str) -> KeyError:
    """The error of an assignment to a net the netlist does not have."""
    return KeyError(f"unknown input net {name!r}")


class _NameView(Mapping):
    """A read-only name-keyed view; shows as the dict it stands for."""

    __slots__ = ()

    def __repr__(self) -> str:
        return repr(dict(self))


class NetValues(_NameView):
    """Each net's value by name: ``vals[net_index[name]]``, read live."""

    __slots__ = ("_index", "_vals")

    def __init__(self, net_index: Dict[str, int], vals: List[Optional[int]]):
        self._index = net_index
        self._vals = vals

    def __getitem__(self, name: str) -> Optional[int]:
        return self._vals[self._index[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class SequentialState(_NameView):
    """Each flip-flop's value as captured at the last reset or clock (no
    flip-flop before the first), then each latch's held value, by instance
    name — the keys and values of the interpreter's ``state`` dict.

    ``captured`` is a one-slot list the engine rebinds on every edge.
    """

    __slots__ = ("_flops", "_captured", "_latches")

    def __init__(self, flops: Sequence[str],
                 captured: List[Optional[tuple]],
                 latches: Dict[str, Optional[int]]):
        self._flops = {name: k for k, name in enumerate(flops)}
        self._captured = captured
        self._latches = latches

    def __getitem__(self, name: str) -> Optional[int]:
        k = self._flops.get(name)
        captured = self._captured[0]
        if k is None or captured is None:
            return self._latches[name]
        return captured[k]

    def __iter__(self) -> Iterator[str]:
        if self._captured[0] is not None:
            yield from self._flops
        yield from self._latches

    def __len__(self) -> int:
        flops = len(self._flops) if self._captured[0] is not None else 0
        return flops + len(self._latches)


class ScalarEngine:
    """Scalar settle on a :class:`CompiledNetlist`.

    Reproduces the reference interpreter's Gauss-Seidel sweep semantics
    bit-for-bit (values, ``last_depth``, oscillation limit, and the sweep
    count in ``sim.settle.iterations``): the first sweep evaluates every
    combinational gate in instance order with immediate updates — exactly
    what the interpreter's ``changed_nets = all nets`` first iteration
    does — and every later sweep touches only the fanout of nets that
    changed in the sweep before.

    On a straight-line netlist sweep 1 is the fixpoint, so a settle is one
    generated pass (two sweeps counted if it changed a net, else one), and
    no pass at all when no value moved since the last settle:
    ``set_values``, ``clock`` and ``reset`` record whether one did.  Any
    other netlist runs the sweep loop (counted in ``sim.settle.sweeps``).

    The simulator state is ``vals`` — one value per net id — plus each
    latch's held value in ``latches`` and the flip-flop values the last
    edge captured.  Nothing else is written while simulating: ``values``
    and ``state`` are read-only name-keyed views over those.
    """

    def __init__(self, compiled: CompiledNetlist, settle_limit: int = 10000):
        self.compiled = compiled
        self.settle_limit = settle_limit
        self.vals: List[Optional[int]] = [None] * compiled.num_slots
        self.latches: Dict[str, Optional[int]] = {}
        self._captured: List[Optional[tuple]] = [None]
        self.values = NetValues(compiled.net_index, self.vals)
        self.state = SequentialState([name for name, _d, _q in compiled.dffs],
                                     self._captured, self.latches)
        self._q_ids = [q_id for _name, _d_id, q_id in compiled.dffs]
        self._gather_d = gather([d_id for _name, d_id, _q_id in compiled.dffs])
        self._gather_q = gather(self._q_ids)
        self._pass: Optional[List[Callable]] = (
            scalar_pass(compiled) if compiled.straight_line else None)
        self._evals: Optional[List[Callable[[], Optional[int]]]] = None
        self._moved = True
        self._settle_calls = obs_metrics.counter("sim.settle.calls")
        self._settle_iterations = obs_metrics.counter("sim.settle.iterations")
        self._settle_sweeps = obs_metrics.counter("sim.settle.sweeps")

    # -- operations --------------------------------------------------------------------

    def set_values(self, assignment: Dict[str, Optional[int]]) -> None:
        """Drive each named net to its value (X stays X, else 0 or 1)."""
        index = self.compiled.net_index
        vals = self.vals
        for name, value in assignment.items():
            net_id = index.get(name)
            if net_id is None:
                raise unknown_net(name)
            if value is not None:
                value = 1 if value else 0
            if vals[net_id] != value:
                vals[net_id] = value
                self._moved = True

    def sampler(self, names: Sequence[str]) -> Callable[[], tuple]:
        """A function returning the named nets' values as a tuple, read by
        id when called (X for a name that is no net)."""
        index, x_slot = self.compiled.net_index, self.compiled.x_slot
        return partial(gather([index.get(name, x_slot) for name in names]),
                       self.vals)

    def settle(self) -> int:
        """Propagate to a fixed point; returns the sweep depth."""
        if self._pass is None:
            return self._sweep()
        if self.settle_limit < 1:
            raise settle_budget_error()
        depth = 0
        if self._moved:
            self._moved = False
            vals = self.vals
            changed = 0
            for chunk in self._pass:
                changed += chunk(vals)
            if changed:
                if self.settle_limit < 2:
                    raise settle_budget_error()
                depth = 1
        self._settle_calls.inc()
        self._settle_iterations.inc(depth + 1)
        return depth

    def _sweep(self) -> int:
        """The event-driven sweep loop, for netlists that are not straight-line."""
        self._settle_sweeps.inc()
        vals = self.vals
        outs = self.compiled.gate_outs
        if self._evals is None:
            self._evals = scalar_evals(self.compiled, vals, self.latches)
        evals = self._evals
        fanout = self.compiled.fanout
        limit = self.settle_limit
        depth = 0
        iterations = 0
        candidates: Sequence[int] = range(self.compiled.num_gates)
        while True:
            iterations += 1
            if iterations > limit:
                raise settle_budget_error()
            changed: List[int] = []
            for gate_id in candidates:
                new_value = evals[gate_id]()
                out = outs[gate_id]
                if new_value != vals[out]:
                    vals[out] = new_value
                    changed.append(out)
            if not changed:
                break
            depth += 1
            affected: Set[int] = set()
            for out in changed:
                affected.update(fanout[out])
            candidates = sorted(affected)
        self._settle_calls.inc()
        self._settle_iterations.inc(iterations)
        return depth

    def _load_dffs(self, new: tuple) -> None:
        """Capture ``new`` as the flip-flops' values and, unless the Q slots
        already hold them, write them there, noting a move."""
        self._captured[0] = new
        vals = self.vals
        if new != self._gather_q(vals):
            for q_id, value in zip(self._q_ids, new):
                vals[q_id] = value
            self._moved = True

    def clock(self) -> None:
        """One clock edge: capture all DFF D inputs, then update together."""
        self._load_dffs(self._gather_d(self.vals))

    def reset(self, value: int) -> None:
        self._load_dffs((value,) * len(self._q_ids))

    def critical_path_estimate(self) -> int:
        return self.compiled.critical_path_estimate()
