"""Bit-parallel three-valued evaluation over levelized schedules.

W independent input vectors are packed into Python-int *bitplanes*: every
net carries two arbitrary-precision integers, ``hi`` (bit w set — vector w
sees a definite 1) and ``lo`` (definite 0); a bit set in neither plane is X.
One pass through the :class:`~repro.sim.kernel.CompiledNetlist`'s levelized
schedule then evaluates all W vectors at once — an AND gate is one ``&``
and one ``|`` regardless of W, so the per-vector cost of a gate drops by
roughly the machine word width.

Python ints being unbounded, W is limited only by memory: an exhaustive
check of a 14-input cone packs all 16384 patterns into a single pass.

Uses:

* :class:`BitplaneEvaluator` — the plane-level engine; the combinational
  side of ``compare_netlists(..., functional=True)`` drives it directly;
* :func:`evaluate_vectors` — convenience combinational batch evaluation
  over per-vector input dicts;
* :func:`run_streams` — clocked co-simulation of W independent stimulus
  streams, trace-compatible with ``GateLevelSimulator.run`` per stream
  (the sequential side of the functional equivalence check);
* :func:`exhaustive_input_planes` — the standard variable-ordering planes
  for exhaustive equivalence sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace
from repro.sim.kernel import (
    CompiledNetlist,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_LATCH,
    OP_MUX2,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    settle_budget_error,
)


class BitplaneEvaluator:
    """Evaluate a compiled netlist on W packed vectors at once."""

    def __init__(self, compiled: CompiledNetlist, width: int,
                 settle_limit: int = 10000):
        if width <= 0:
            raise ValueError("vector width must be positive")
        self.compiled = compiled
        self.width = width
        self.mask = (1 << width) - 1
        self.settle_limit = settle_limit
        # All-X initial planes, matching the scalar simulators.
        self.hi: List[int] = [0] * compiled.num_slots
        self.lo: List[int] = [0] * compiled.num_slots
        self._latch_hi: Dict[int, int] = {}
        self._latch_lo: Dict[int, int] = {}
        self._evals: List[Callable[[], None]] = [
            self._make_eval(g) for g in range(compiled.num_gates)
        ]
        if compiled.levels is not None:
            self._schedule: List[int] = [
                g for level in compiled.levels for g in level
            ]
        else:
            self._schedule = list(range(compiled.num_gates))

    # -- gate closures ---------------------------------------------------------------

    def _make_eval(self, gate_id: int) -> Callable[[], None]:
        hi = self.hi
        lo = self.lo
        mask = self.mask
        op = self.compiled.gate_ops[gate_id]
        ins = self.compiled.gate_ins[gate_id]
        out = self.compiled.gate_outs[gate_id]

        if op in (OP_AND, OP_NAND):
            invert = op == OP_NAND

            def f_and() -> None:
                h = mask
                l = 0
                for i in ins:
                    h &= hi[i]
                    l |= lo[i]
                if invert:
                    hi[out], lo[out] = l, h
                else:
                    hi[out], lo[out] = h, l
            return f_and
        if op in (OP_OR, OP_NOR):
            invert = op == OP_NOR

            def f_or() -> None:
                h = 0
                l = mask
                for i in ins:
                    h |= hi[i]
                    l &= lo[i]
                if invert:
                    hi[out], lo[out] = l, h
                else:
                    hi[out], lo[out] = h, l
            return f_or
        if op in (OP_XOR, OP_XNOR):
            invert = op == OP_XNOR

            def f_xor() -> None:
                known = mask
                parity = 0
                for i in ins:
                    known &= hi[i] | lo[i]
                    parity ^= hi[i]
                if invert:
                    parity ^= mask
                hi[out] = known & parity
                lo[out] = known & (parity ^ mask)
            return f_xor
        if op == OP_NOT:
            source = ins[0]

            def f_not() -> None:
                hi[out] = lo[source]
                lo[out] = hi[source]
            return f_not
        if op == OP_BUF:
            source = ins[0]

            def f_buf() -> None:
                hi[out] = hi[source]
                lo[out] = lo[source]
            return f_buf
        if op == OP_MUX2:
            sel_i, a_i, b_i = ins

            def f_mux() -> None:
                sel_hi = hi[sel_i]
                sel_lo = lo[sel_i]
                sel_x = mask ^ (sel_hi | sel_lo)
                a_hi, a_lo = hi[a_i], lo[a_i]
                b_hi, b_lo = hi[b_i], lo[b_i]
                hi[out] = (sel_hi & b_hi) | (sel_lo & a_hi) | (sel_x & a_hi & b_hi)
                lo[out] = (sel_hi & b_lo) | (sel_lo & a_lo) | (sel_x & a_lo & b_lo)
            return f_mux
        if op == OP_LATCH:
            d_i, en_i = ins
            latch_hi = self._latch_hi
            latch_lo = self._latch_lo
            latch_hi[gate_id] = 0
            latch_lo[gate_id] = 0

            def f_latch() -> None:
                enabled = hi[en_i]
                hold = mask ^ enabled
                new_hi = (enabled & hi[d_i]) | (hold & latch_hi[gate_id])
                new_lo = (enabled & lo[d_i]) | (hold & latch_lo[gate_id])
                latch_hi[gate_id] = new_hi
                latch_lo[gate_id] = new_lo
                hi[out] = new_hi
                lo[out] = new_lo
            return f_latch
        if op == OP_CONST0:

            def f_const0() -> None:
                hi[out] = 0
                lo[out] = mask
            return f_const0
        if op == OP_CONST1:

            def f_const1() -> None:
                hi[out] = mask
                lo[out] = 0
            return f_const1
        raise AssertionError(f"unhandled opcode {op}")

    # -- plane access -----------------------------------------------------------------

    def set_input_planes(self, name: str, hi_plane: int, lo_plane: int) -> None:
        net_id = self.compiled.net_index[name]
        self.hi[net_id] = hi_plane & self.mask
        self.lo[net_id] = lo_plane & self.mask

    def set_input_vector(self, name: str, values: Sequence[Optional[int]]) -> None:
        hi_plane = 0
        lo_plane = 0
        for w, value in enumerate(values):
            if value is None:
                continue
            if value:
                hi_plane |= 1 << w
            else:
                lo_plane |= 1 << w
        self.set_input_planes(name, hi_plane, lo_plane)

    def get_planes(self, name: str) -> Tuple[int, int]:
        net_id = self.compiled.net_index[name]
        return self.hi[net_id], self.lo[net_id]

    def get_vector(self, name: str) -> List[Optional[int]]:
        hi_plane, lo_plane = self.get_planes(name)
        return [
            1 if (hi_plane >> w) & 1 else (0 if (lo_plane >> w) & 1 else None)
            for w in range(self.width)
        ]

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self) -> None:
        """One pass over the levelized schedule (fixpoint for acyclic nets).

        Cyclic netlists fall back to Gauss-Seidel sweeps in instance order
        until the planes stop changing, bounded by ``settle_limit``.
        """
        evals = self._evals
        if self.compiled.levels is not None:
            for gate_id in self._schedule:
                evals[gate_id]()
            return
        hi = self.hi
        lo = self.lo
        outs = self.compiled.gate_outs
        for _ in range(self.settle_limit):
            changed = False
            for gate_id in self._schedule:
                out = outs[gate_id]
                before = (hi[out], lo[out])
                evals[gate_id]()
                if (hi[out], lo[out]) != before:
                    changed = True
            if not changed:
                return
        raise settle_budget_error()

    def clock(self) -> None:
        """Capture all DFF D planes, then update the Q planes together."""
        hi = self.hi
        lo = self.lo
        captured = [(q_id, hi[d_id], lo[d_id])
                    for _name, d_id, q_id in self.compiled.dffs]
        for q_id, d_hi, d_lo in captured:
            hi[q_id] = d_hi
            lo[q_id] = d_lo

    def reset(self, value: int = 0) -> None:
        """Force all DFF outputs to a known value across every vector."""
        q_hi = self.mask if value else 0
        q_lo = 0 if value else self.mask
        for _name, _d_id, q_id in self.compiled.dffs:
            self.hi[q_id] = q_hi
            self.lo[q_id] = q_lo


def exhaustive_input_planes(num_inputs: int) -> List[Tuple[int, int]]:
    """(hi, lo) planes enumerating all ``2**num_inputs`` patterns.

    Input ``i`` toggles with period ``2**(i+1)`` — the standard truth-table
    variable ordering, so vector index w applies the pattern ``w``.
    """
    width = 1 << num_inputs
    mask = (1 << width) - 1
    planes: List[Tuple[int, int]] = []
    for i in range(num_inputs):
        half = 1 << i
        block = (1 << half) - 1
        hi_plane = 0
        for start in range(half, width, half * 2):
            hi_plane |= block << start
        planes.append((hi_plane, mask ^ hi_plane))
    return planes


def evaluate_vectors(compiled: CompiledNetlist,
                     input_vectors: Sequence[Dict[str, Optional[int]]],
                     outputs: Optional[Sequence[str]] = None,
                     ) -> List[Dict[str, Optional[int]]]:
    """Combinational batch evaluation: one levelized pass for all vectors."""
    width = len(input_vectors)
    if width == 0:
        return []
    evaluator = BitplaneEvaluator(compiled, width)
    names = {name for vector in input_vectors for name in vector}
    for name in names:
        evaluator.set_input_vector(
            name, [vector.get(name) for vector in input_vectors]
        )
    evaluator.evaluate()
    if outputs is not None:
        watch = list(outputs)
    else:
        watch = [compiled.net_names[i] for i in compiled.output_ids]
    columns = {name: evaluator.get_vector(name) for name in watch}
    return [{name: columns[name][w] for name in watch} for w in range(width)]


def run_streams(compiled: CompiledNetlist,
                stimulus: Sequence[Sequence[Dict[str, Optional[int]]]],
                record: Optional[Sequence[str]] = None,
                reset_value: Optional[int] = 0,
                ) -> List[List[Dict[str, Optional[int]]]]:
    """Clocked co-simulation of W independent stimulus streams.

    ``stimulus[w][c]`` is stream w's input vector for cycle c (all streams
    must supply the same number of cycles).  The returned trace for each
    stream matches ``GateLevelSimulator.run`` on the same netlist after a
    ``reset(reset_value)`` — one recorded dict per cycle, sampled after the
    combinational settle and before the clock edge; as with ``set_inputs``,
    an input omitted from a cycle's vector holds its previous value while
    an explicit ``None`` drives X.
    """
    width = len(stimulus)
    if width == 0:
        return []
    cycle_counts = {len(stream) for stream in stimulus}
    if len(cycle_counts) != 1:
        raise ValueError("all stimulus streams must have the same length")
    with obs_trace.span("sim.run_streams", cat="sim", streams=width,
                        cycles=next(iter(cycle_counts))):
        return _run_streams(compiled, stimulus, record, reset_value)


def _run_streams(compiled, stimulus, record, reset_value):
    """``run_streams`` body (inputs length-checked by the wrapper)."""

    input_names = [compiled.net_names[i] for i in compiled.input_ids]
    known_inputs = set(input_names)
    for stream in stimulus:
        for vector in stream:
            for name in vector:
                if name not in known_inputs:
                    # set_inputs parity: a typo must error, not produce a
                    # plausible trace (streams drive primary inputs only).
                    raise KeyError(f"unknown input net {name!r}")

    if record is not None:
        watch = list(record)
    else:
        watch = compiled.module.input_names() + compiled.module.output_names()

    width = len(stimulus)
    cycles = len(stimulus[0])
    evaluator = BitplaneEvaluator(compiled, width)
    if reset_value is not None:
        evaluator.reset(reset_value)
        evaluator.evaluate()

    traces: List[List[Dict[str, Optional[int]]]] = [[] for _ in range(width)]
    for cycle in range(cycles):
        for name in input_names:
            # Mirror set_inputs semantics per stream: a named value drives
            # the net (None drives X), an *omitted* name holds its previous
            # value.
            new_hi = 0
            new_lo = 0
            keep = 0
            for w in range(width):
                vector = stimulus[w][cycle]
                if name in vector:
                    value = vector[name]
                    if value is not None:
                        if value:
                            new_hi |= 1 << w
                        else:
                            new_lo |= 1 << w
                else:
                    keep |= 1 << w
            old_hi, old_lo = evaluator.get_planes(name)
            evaluator.set_input_planes(name, (old_hi & keep) | new_hi,
                                       (old_lo & keep) | new_lo)
        evaluator.evaluate()
        columns = {name: evaluator.get_vector(name) for name in watch}
        for w in range(width):
            traces[w].append({name: columns[name][w] for name in watch})
        evaluator.clock()
        evaluator.evaluate()
    return traces
