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
  (the sequential side of the functional equivalence check).  It records
  the watched nets' planes each cycle (:class:`StreamPlanes`) and returns
  one :class:`StreamTrace` per stream, whose row dicts are built when read;
* :func:`exhaustive_input_planes` — the standard variable-ordering planes
  for exhaustive equivalence sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from itertools import chain, repeat
from operator import or_
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
    compile_chunks,
    gather,
    render,
    settle_budget_error,
    unknown_net,
)

#: Plane semantics, one statement block per opcode over ``hi`` / ``lo``
#: (``mask`` = all W vectors; a latch keeps its planes in ``lh`` / ``ll``
#: by gate id).  Both output planes are computed before either is written:
#: a gate that reads its own output sees the old value, as the scalar
#: engines do.  A MUX with select planes s1 / s0 gives
#: ``hi = (hb & (ha | s1)) | (s0 & ha)``: b where the select is 1, a where
#: it is 0, and where it is X only a 1 both inputs agree on (``lo`` the
#: same over the lo planes).  A latch's planes are subsets of ``mask``, so
#: ``~e & lh`` clears e's bits exactly as ``(mask ^ e) & lh`` would.
PLANE_TEMPLATES: Dict[int, str] = {
    OP_AND: "hi[{o}], lo[{o}] = {hi&}, {lo|}",
    OP_NAND: "hi[{o}], lo[{o}] = {lo|}, {hi&}",
    OP_OR: "hi[{o}], lo[{o}] = {hi|}, {lo&}",
    OP_NOR: "hi[{o}], lo[{o}] = {lo&}, {hi|}",
    OP_XOR: "k = {hilo&}\nh = k & ({hi^})\nhi[{o}], lo[{o}] = h, k ^ h",
    OP_XNOR: "k = {hilo&}\nh = k & ({hi^})\nhi[{o}], lo[{o}] = k ^ h, h",
    OP_NOT: "hi[{o}], lo[{o}] = {lo0}, {hi0}",
    OP_BUF: "hi[{o}], lo[{o}] = {hi0}, {lo0}",
    OP_MUX2: "hi[{o}], lo[{o}] = ("
             "({hi2} & ({hi1} | {hi0})) | ({lo0} & {hi1}), "
             "({lo2} & ({lo1} | {hi0})) | ({lo0} & {lo1}))",
    OP_LATCH: "e = {hi1}\n"
              "hi[{o}], lo[{o}] = lh[{g}], ll[{g}] = ("
              "(e & {hi0}) | (~e & lh[{g}]), (e & {lo0}) | (~e & ll[{g}]))",
    OP_CONST0: "hi[{o}], lo[{o}] = 0, mask",
    OP_CONST1: "hi[{o}], lo[{o}] = mask, 0",
}

_PLANE_ARGS = "hi, lo, mask, lh, ll"


def _plane_block(compiled: CompiledNetlist, gate_id: int, indent: str) -> str:
    block = render(PLANE_TEMPLATES[compiled.gate_ops[gate_id]], compiled, gate_id)
    return "".join(indent + line + "\n" for line in block.split("\n"))


def plane_pass(compiled: CompiledNetlist, schedule: Sequence[int]) -> List[Callable]:
    """``schedule`` as generated chunks ``f(hi, lo, mask, lh, ll)``."""
    bodies = [_plane_block(compiled, g, "    ") for g in schedule]
    return compile_chunks(f"def _chunk({_PLANE_ARGS}):\n", bodies, "plane pass")


def plane_evals(compiled: CompiledNetlist, *planes) -> List[Callable[[], None]]:
    """Per-gate callables over ``planes`` (hi, lo, mask, lh, ll), by gate id."""
    bodies = ["    def gate():\n" + _plane_block(compiled, g, "        ")
              + "    add(gate)\n" for g in range(compiled.num_gates)]
    evals: List[Callable[[], None]] = []
    for make in compile_chunks(f"def _chunk({_PLANE_ARGS}, add):\n", bodies,
                               "plane gates"):
        make(*planes, evals.append)
    return evals


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
        latches = [g for g, op in enumerate(compiled.gate_ops) if op == OP_LATCH]
        self._planes = (self.hi, self.lo, self.mask,
                        dict.fromkeys(latches, 0), dict.fromkeys(latches, 0))
        self._q_ids = [q_id for _name, _d_id, q_id in compiled.dffs]
        self._gather_d = gather([d_id for _name, d_id, _q_id in compiled.dffs])
        self._pass: Optional[List[Callable]] = None
        self._evals: Optional[List[Callable[[], None]]] = None
        if compiled.levels is not None:
            self._pass = plane_pass(
                compiled, [g for level in compiled.levels for g in level])

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
        return _column(*self.get_planes(name), self.width)

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self) -> None:
        """One generated pass over the levelized schedule (fixpoint for
        acyclic nets).

        Cyclic netlists fall back to Gauss-Seidel sweeps in instance order
        until the planes stop changing, bounded by ``settle_limit``.
        """
        if self._pass is not None:
            planes = self._planes
            for chunk in self._pass:
                chunk(*planes)
            return
        if self._evals is None:
            self._evals = plane_evals(self.compiled, *self._planes)
        hi = self.hi
        lo = self.lo
        outs = self.compiled.gate_outs
        for _ in range(self.settle_limit):
            changed = False
            for gate_id, gate in enumerate(self._evals):
                out = outs[gate_id]
                before = (hi[out], lo[out])
                gate()
                if (hi[out], lo[out]) != before:
                    changed = True
            if not changed:
                return
        raise settle_budget_error()

    def clock(self) -> None:
        """Capture all DFF D planes, then update the Q planes together."""
        hi = self.hi
        lo = self.lo
        for q_id, d_hi, d_lo in zip(self._q_ids, self._gather_d(hi),
                                    self._gather_d(lo)):
            hi[q_id] = d_hi
            lo[q_id] = d_lo

    def reset(self, value: int = 0) -> None:
        """Force all DFF outputs to a known value across every vector."""
        q_hi = self.mask if value else 0
        q_lo = 0 if value else self.mask
        for q_id in self._q_ids:
            self.hi[q_id] = q_hi
            self.lo[q_id] = q_lo


_OMITTED = object()
_BITS = bytes.maketrans(b"01", b"\x00\x01")
#: A stimulus byte as a binary digit: 0 -> "0", anything else -> "1".
_DIGITS = b"0" + b"1" * 255


def _column(hi_plane: int, lo_plane: int, width: int) -> List[Optional[int]]:
    """The W scalar values (vector 0 first) carried by one net's planes."""
    column: List[Optional[int]] = list(
        format(hi_plane, f"0{width}b")[::-1].encode().translate(_BITS))
    unknown = ((1 << width) - 1) & ~(hi_plane | lo_plane)
    while unknown:
        low = unknown & -unknown
        column[low.bit_length() - 1] = None
        unknown ^= low
    return column


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


class StreamPlanes:
    """The watched nets' planes after each cycle's settle, shared by the W
    streams of one :func:`run_streams` call.

    ``hi[c][k]`` / ``lo[c][k]`` are net ``watch[k]``'s planes at cycle c;
    bit w is stream w.  :meth:`rows` turns one stream into row dicts.
    """

    __slots__ = ("watch", "width", "hi", "lo", "_bits", "_unknown")

    def __init__(self, watch: Sequence[str], width: int,
                 hi: List[tuple], lo: List[tuple]):
        self.watch = list(watch)
        self.width = width
        self.hi = hi
        self.lo = lo
        self._bits: Optional[bytes] = None
        self._unknown: List[Tuple[int, int, int]] = []

    def _format(self) -> bytes:
        """Every hi plane as W bytes of 0 / 1, stream W-1 first, in (cycle,
        net) order; X bits are noted in ``_unknown`` as (cycle, k, bits)."""
        if self._bits is None:
            width = self.width
            self._bits = "".join(map(
                format, chain.from_iterable(self.hi), repeat(f"0{width}b"),
            )).encode().translate(_BITS)
            mask = (1 << width) - 1
            nets = len(self.watch)
            for cycle, (his, los) in enumerate(zip(self.hi, self.lo)):
                known = list(map(or_, his, los))
                if known.count(mask) != nets:
                    self._unknown.extend((cycle, k, mask ^ bits)
                                         for k, bits in enumerate(known)
                                         if bits != mask)
        return self._bits

    def rows(self, stream: int) -> List[Dict[str, Optional[int]]]:
        """Stream ``stream``'s ``{net: value}`` dict per cycle."""
        watch = self.watch
        if not watch:
            return [{} for _ in self.hi]
        width = self.width
        values = self._format()[width - 1 - stream::width]
        rows = list(map(dict, map(zip, repeat(watch),
                                  zip(*[iter(values)] * len(watch)))))
        for cycle, k, unknown in self._unknown:
            if unknown >> stream & 1:
                rows[cycle][watch[k]] = None
        return rows


class StreamTrace(SequenceABC):
    """One stream's trace from :func:`run_streams`: a read-only sequence of
    ``{net: value}`` dicts, one per cycle.

    It compares equal to the list of dicts ``GateLevelSimulator.run``
    records (either operand order) and shows as that list.  The rows are
    built from the shared :class:`StreamPlanes` on first read, all at once.
    """

    __slots__ = ("planes", "stream", "_rows")

    def __init__(self, planes: StreamPlanes, stream: int):
        self.planes = planes
        self.stream = stream
        self._rows: Optional[List[Dict[str, Optional[int]]]] = None

    def _built(self) -> List[Dict[str, Optional[int]]]:
        if self._rows is None:
            self._rows = self.planes.rows(self.stream)
        return self._rows

    def __len__(self) -> int:
        return len(self.planes.hi)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, StreamTrace):
            other = other._built()
        elif not isinstance(other, list):
            return NotImplemented
        return self._built() == other

    def __repr__(self) -> str:
        return repr(self._built())


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
    get_planes = gather([compiled.net_index[name] for name in watch])
    planes = StreamPlanes(watch, width, [get_planes(evaluator.hi)],
                          [get_planes(evaluator.lo)])
    return [planes.rows(w)[0] for w in range(width)]


def run_streams(compiled: CompiledNetlist,
                stimulus: Sequence[Sequence[Dict[str, Optional[int]]]],
                record: Optional[Sequence[str]] = None,
                reset_value: Optional[int] = 0,
                ) -> List[StreamTrace]:
    """Clocked co-simulation of W independent stimulus streams.

    ``stimulus[w][c]`` is stream w's input vector for cycle c (all streams
    must supply the same number of cycles).  The returned trace for each
    stream equals ``GateLevelSimulator.run(...).cycles`` on the same netlist
    after a ``reset(reset_value)`` — one recorded dict per cycle, sampled
    after the combinational settle and before the clock edge; as with
    ``set_inputs``, an input omitted from a cycle's vector holds its
    previous value while an explicit ``None`` drives X.

    Each cycle records the watched nets' planes once for all streams; a
    :class:`StreamTrace` builds its row dicts when first read.  The
    ``sim.run_streams`` span's ``exact_columns`` counts the (cycle, input)
    columns packed bit by bit because a vector omitted the input or gave it
    ``None`` or a value that is not a byte; every other column is packed in
    one C-level conversion.
    """
    width = len(stimulus)
    if width == 0:
        return []
    cycle_counts = {len(stream) for stream in stimulus}
    if len(cycle_counts) != 1:
        raise ValueError("all stimulus streams must have the same length")
    with obs_trace.span("sim.run_streams", cat="sim", streams=width,
                        cycles=next(iter(cycle_counts))) as span:
        planes, exact_columns = _run_streams(compiled, stimulus, record,
                                             reset_value)
        span.set(exact_columns=exact_columns)
    return [StreamTrace(planes, w) for w in range(width)]


def _run_streams(compiled, stimulus, record, reset_value):
    """``run_streams`` body (inputs length-checked by the wrapper): the
    recorded planes and the number of columns packed bit by bit."""

    input_names = [compiled.net_names[i] for i in compiled.input_ids]
    known_inputs = set(input_names)
    for stream in stimulus:
        if not all(map(known_inputs.issuperset, stream)):
            # set_inputs parity: a typo must error, not produce a
            # plausible trace (streams drive primary inputs only).
            raise unknown_net(next(name for vector in stream for name in vector
                                   if name not in known_inputs))

    if record is not None:
        watch = list(record)
    else:
        watch = compiled.module.input_names() + compiled.module.output_names()
    get_planes = gather([compiled.net_index[name] for name in watch])

    width = len(stimulus)
    evaluator = BitplaneEvaluator(compiled, width)
    if reset_value is not None:
        evaluator.reset(reset_value)
        evaluator.evaluate()

    hi, lo, mask = evaluator.hi, evaluator.lo, evaluator.mask
    inputs = list(zip(input_names, compiled.input_ids))
    bits = [1 << w for w in range(width)]
    # On an acyclic, latch-free netlist the next cycle's evaluate writes
    # every gate output from the input and Q planes before anything reads
    # it, so evaluating after the clock edge is dead.  A latch may capture
    # the post-edge value.
    evaluate_after_clock = compiled.is_cyclic or compiled.has_latches

    his: List[tuple] = []
    los: List[tuple] = []
    exact_columns = 0
    for column in zip(*stimulus):
        backwards = column[::-1]
        for name, net_id in inputs:
            # Every vector names the input with a byte value: its digits,
            # stream W-1 first, are the hi plane and the rest is lo.
            try:
                ones = int(bytes(map(dict.get, backwards, repeat(name)))
                           .translate(_DIGITS), 2)
            except (TypeError, ValueError):
                pass
            else:
                hi[net_id] = ones
                lo[net_id] = mask ^ ones
                continue
            # Otherwise mirror set_inputs per stream: a named value drives
            # the net (None drives X), an *omitted* name holds its
            # previous value.
            exact_columns += 1
            named = ones = zeros = 0
            for bit, vector in zip(bits, column):
                value = vector.get(name, _OMITTED)
                if value is _OMITTED:
                    continue
                named |= bit
                if value is not None:
                    if value:
                        ones |= bit
                    else:
                        zeros |= bit
            keep = mask ^ named
            hi[net_id] = (hi[net_id] & keep) | ones
            lo[net_id] = (lo[net_id] & keep) | zeros
        evaluator.evaluate()
        his.append(get_planes(hi))
        los.append(get_planes(lo))
        evaluator.clock()
        if evaluate_after_clock:
            evaluator.evaluate()
    return StreamPlanes(watch, width, his, los), exact_columns
