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

The :class:`ScalarEngine` replicates the reference interpreter's settle
semantics *exactly* — same sweep structure, same instance order, same
``last_depth`` accounting, same oscillation limit — which is what lets the
differential suite pin trace-identical results.  The speed comes from the
lowering: each sweep after the first touches only the gates downstream of
nets that actually changed, and each gate evaluation is a pre-built closure
over list indices instead of a dictionary walk.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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


class ScalarEngine:
    """Event-driven scalar settle on a :class:`CompiledNetlist`.

    Reproduces the reference interpreter's Gauss-Seidel sweep semantics
    bit-for-bit (values, ``last_depth``, oscillation limit): the first
    sweep evaluates every combinational gate in instance order with
    immediate updates — exactly what the interpreter's ``changed_nets =
    all nets`` first iteration does — and every later sweep touches only
    the fanout of nets that changed in the sweep before.

    ``values_dict``/``state_dict`` are the simulator-facing name-keyed
    views; the engine keeps them in sync so external readers see the same
    dictionaries the interpreter maintains.
    """

    def __init__(self, compiled: CompiledNetlist,
                 values_dict: Dict[str, Optional[int]],
                 state_dict: Dict[str, Optional[int]],
                 settle_limit: int = 10000):
        self.compiled = compiled
        self.values = values_dict
        self.state = state_dict
        self.settle_limit = settle_limit
        self.vals: List[Optional[int]] = [None] * compiled.num_slots
        self._net_index = compiled.net_index
        for name, net_id in compiled.net_index.items():
            self.vals[net_id] = values_dict.get(name)
        self._all_gates: List[int] = list(range(compiled.num_gates))
        self._evals: List[Callable[[], Optional[int]]] = [
            self._make_eval(g) for g in self._all_gates
        ]
        self._settle_calls = obs_metrics.counter("sim.settle.calls")
        self._settle_iterations = obs_metrics.counter("sim.settle.iterations")

    # -- gate closures ---------------------------------------------------------------

    def _make_eval(self, gate_id: int) -> Callable[[], Optional[int]]:
        vals = self.vals
        op = self.compiled.gate_ops[gate_id]
        ins = self.compiled.gate_ins[gate_id]

        if op == OP_AND or op == OP_NAND:
            hit, miss = (0, 1) if op == OP_AND else (1, 0)

            def f_and() -> Optional[int]:
                result = miss
                for i in ins:
                    v = vals[i]
                    if v == 0:
                        return hit
                    if v is None:
                        result = None
                return result
            return f_and
        if op == OP_OR or op == OP_NOR:
            hit, miss = (1, 0) if op == OP_OR else (0, 1)

            def f_or() -> Optional[int]:
                result = miss
                for i in ins:
                    v = vals[i]
                    if v == 1:
                        return hit
                    if v is None:
                        result = None
                return result
            return f_or
        if op == OP_XOR or op == OP_XNOR:
            flip = 0 if op == OP_XOR else 1

            def f_xor() -> Optional[int]:
                parity = flip
                for i in ins:
                    v = vals[i]
                    if v is None:
                        return None
                    parity ^= v
                return parity
            return f_xor
        if op == OP_NOT:
            source = ins[0]

            def f_not() -> Optional[int]:
                v = vals[source]
                return None if v is None else 1 - v
            return f_not
        if op == OP_BUF:
            source = ins[0]
            return lambda: vals[source]
        if op == OP_MUX2:
            sel_i, a_i, b_i = ins

            def f_mux() -> Optional[int]:
                sel = vals[sel_i]
                if sel is None:
                    a = vals[a_i]
                    return a if a == vals[b_i] else None
                return vals[b_i] if sel else vals[a_i]
            return f_mux
        if op == OP_LATCH:
            d_i, en_i = ins
            state = self.state
            name = self.compiled.gate_names[gate_id]

            def f_latch() -> Optional[int]:
                if vals[en_i] == 1:
                    v = vals[d_i]
                    state[name] = v
                    return v
                return state.get(name)
            return f_latch
        if op == OP_CONST0:
            return lambda: 0
        if op == OP_CONST1:
            return lambda: 1
        raise AssertionError(f"unhandled opcode {op}")

    # -- operations --------------------------------------------------------------------

    def set_value(self, name: str, value: Optional[int]) -> None:
        self.vals[self._net_index[name]] = value
        self.values[name] = value

    def settle(self) -> int:
        """Propagate to a fixed point; returns the sweep depth."""
        vals = self.vals
        outs = self.compiled.gate_outs
        evals = self._evals
        fanout = self.compiled.fanout
        limit = self.settle_limit
        depth = 0
        iterations = 0
        dirty: Set[int] = set()
        candidates: Sequence[int] = self._all_gates
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
            dirty.update(changed)
            affected: Set[int] = set()
            for out in changed:
                affected.update(fanout[out])
            candidates = sorted(affected)
        values = self.values
        names = self.compiled.net_names
        for net_id in dirty:
            values[names[net_id]] = vals[net_id]
        self._settle_calls.inc()
        self._settle_iterations.inc(iterations)
        return depth

    def clock(self) -> None:
        """One clock edge: capture all DFF D inputs, then update together."""
        vals = self.vals
        captured = [(name, q_id, vals[d_id])
                    for name, d_id, q_id in self.compiled.dffs]
        state = self.state
        values = self.values
        names = self.compiled.net_names
        for name, q_id, value in captured:
            state[name] = value
            vals[q_id] = value
            values[names[q_id]] = value

    def reset(self, value: int) -> None:
        vals = self.vals
        state = self.state
        values = self.values
        names = self.compiled.net_names
        for name, _d_id, q_id in self.compiled.dffs:
            state[name] = value
            vals[q_id] = value
            values[names[q_id]] = value

    def critical_path_estimate(self) -> int:
        return self.compiled.critical_path_estimate()
