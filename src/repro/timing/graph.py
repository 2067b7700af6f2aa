"""Gate-level timing graphs lowered from the compiled simulation kernel.

:class:`~repro.sim.kernel.CompiledNetlist` already holds everything a
static timing analyzer wants: dense integer net ids, per-gate input tuples
and output ids, per-net fanout, and a Kahn-levelized schedule.  This module
reuses those arrays directly — the timing graph's arcs *are* the kernel's
gate records, priced by a :class:`~repro.timing.delay.GateDelayModel` —
so lowering a netlist once serves both simulation and timing.

Sequential elements break timing loops the standard way:

* a DFF's Q output and a latch's output are **launch points** (arrival 0 at
  the clock edge);
* a DFF's D input and a latch's data/enable inputs are **capture points**
  (path endpoints);
* latches do not propagate arrival through themselves, so register feedback
  (state machines, counters, LFSRs) never creates a combinational cycle in
  the timing graph even though it does in the netlist graph.

Arrival times propagate over the levelized schedule in one pass; genuinely
combinational cycles (cross-coupled NANDs) fall back to the kernel's
bounded relaxation and are reported as cyclic (no path enumeration).
Required times and slacks come from a reverse pass against a clock period;
the K worst paths are enumerated exactly, in decreasing delay order, by a
best-first search whose bound is the precomputed max tail delay below each
net — no path is expanded unless it can still beat the K-th best.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import get_logger
from repro.sim.kernel import OP_LATCH, CompiledNetlist
from repro.timing.delay import GateDelayModel

_LOG = get_logger("timing")

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class PathStep:
    """One hop of a timing path: the arc taken and the net reached."""

    element: Optional[str]    # gate (instance) name; None for the launch point
    net: str                  # net name arrived at
    at_ns: float              # cumulative arrival after this hop


@dataclass
class TimingPath:
    """A launch-to-capture path with its per-hop arrivals."""

    delay_ns: float
    steps: List[PathStep] = field(default_factory=list)

    @property
    def start(self) -> str:
        return self.steps[0].net if self.steps else ""

    @property
    def end(self) -> str:
        return self.steps[-1].net if self.steps else ""

    def describe(self) -> str:
        parts = [f"{self.start} -> {self.end}: {self.delay_ns:.2f} ns"]
        for step in self.steps[1:]:
            parts.append(f"  via {step.element} -> {step.net} @ {step.at_ns:.2f}")
        return "\n".join(parts)


class TimingGraph:
    """Arrival/required/slack propagation over a compiled netlist."""

    def __init__(self, compiled: CompiledNetlist,
                 delay_model: Optional[GateDelayModel] = None,
                 net_caps_ff: Optional[Dict[str, float]] = None):
        self.compiled = compiled
        self.delay_model = delay_model or GateDelayModel()
        num_slots = compiled.num_slots
        x_slot = compiled.x_slot

        # Per-net gate fanout counts, plus DFF D pins as one load each.
        fanout_count = [len(f) for f in compiled.fanout]
        for _name, d_id, _q_id in compiled.dffs:
            if d_id != x_slot:
                fanout_count[d_id] += 1

        caps = [0.0] * num_slots
        if net_caps_ff:
            for name, cap in net_caps_ff.items():
                net_id = compiled.net_index.get(name)
                if net_id is not None:
                    caps[net_id] = cap

        #: Per-gate arc delay (ns), aligned with the kernel's gate arrays.
        self.arc_delay_ns: List[float] = []
        for gate_id in range(compiled.num_gates):
            op = compiled.gate_ops[gate_id]
            ins = compiled.gate_ins[gate_id]
            out = compiled.gate_outs[gate_id]
            self.arc_delay_ns.append(self.delay_model.arc_delay(
                op, len(ins), fanout_count[out], caps[out]))

        # Launch points: primary inputs, DFF Q pins, latch outputs, consts.
        self._launch: Set[int] = set(compiled.input_ids)
        for _name, _d_id, q_id in compiled.dffs:
            self._launch.add(q_id)
        # Capture points: primary outputs, DFF D pins, latch data/enable.
        self._capture: Set[int] = set(compiled.output_ids)
        for _name, d_id, _q_id in compiled.dffs:
            if d_id != x_slot:
                self._capture.add(d_id)
        for gate_id in range(compiled.num_gates):
            if compiled.gate_ops[gate_id] == OP_LATCH:
                self._launch.add(compiled.gate_outs[gate_id])
                for net_id in compiled.gate_ins[gate_id]:
                    if net_id != x_slot:
                        self._capture.add(net_id)
        self._capture.discard(x_slot)

        self.arrival_ns: List[float] = [0.0] * num_slots
        self._propagate()

    # -- forward propagation --------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return self.compiled.levels is None

    def _gate_schedule(self) -> List[int]:
        levels = self.compiled.levels
        if levels is None:
            return list(range(self.compiled.num_gates))
        return [gate_id for level in levels for gate_id in level]

    def _propagate(self) -> None:
        compiled = self.compiled
        arrival = self.arrival_ns
        ops = compiled.gate_ops
        gate_ins = compiled.gate_ins
        outs = compiled.gate_outs
        delays = self.arc_delay_ns
        schedule = self._gate_schedule()
        passes = 1 if compiled.levels is not None else compiled.total_instances + 2
        for _ in range(passes):
            changed = False
            for gate_id in schedule:
                if ops[gate_id] == OP_LATCH:
                    continue   # sequential: launches a new path, ends others
                best = 0.0
                for net_id in gate_ins[gate_id]:
                    if arrival[net_id] > best:
                        best = arrival[net_id]
                total = best + delays[gate_id]
                out = outs[gate_id]
                if total > arrival[out]:
                    arrival[out] = total
                    changed = True
            if not changed:
                break

    # -- queries --------------------------------------------------------------

    def capture_nets(self) -> List[int]:
        return sorted(self._capture)

    def worst_delay_ns(self) -> float:
        if not self._capture:
            return 0.0
        return max(self.arrival_ns[net_id] for net_id in self._capture)

    def endpoint_arrivals(self) -> Dict[str, float]:
        names = self.compiled.net_names
        return {names[net_id]: self.arrival_ns[net_id]
                for net_id in sorted(self._capture)}

    def required_ns(self, clock_ns: float) -> List[float]:
        """Per-net required times against ``clock_ns`` (reverse pass)."""
        compiled = self.compiled
        required = [float("inf")] * compiled.num_slots
        for net_id in self._capture:
            required[net_id] = min(required[net_id], clock_ns)
        ops = compiled.gate_ops
        gate_ins = compiled.gate_ins
        outs = compiled.gate_outs
        delays = self.arc_delay_ns
        schedule = self._gate_schedule()
        passes = 1 if compiled.levels is not None else compiled.total_instances + 2
        for _ in range(passes):
            changed = False
            for gate_id in reversed(schedule):
                if ops[gate_id] == OP_LATCH:
                    continue
                need = required[outs[gate_id]]
                if need == float("inf"):
                    continue
                need -= delays[gate_id]
                for net_id in gate_ins[gate_id]:
                    if need < required[net_id]:
                        required[net_id] = need
                        changed = True
            if not changed:
                break
        return required

    def slacks_ns(self, clock_ns: float) -> Dict[str, float]:
        """Endpoint slack against a clock period (negative = violated)."""
        names = self.compiled.net_names
        return {names[net_id]: clock_ns - self.arrival_ns[net_id]
                for net_id in sorted(self._capture)}

    # -- path enumeration ------------------------------------------------------

    def worst_paths(self, k: int = 1, max_expansions: int = 200000
                    ) -> List[TimingPath]:
        """The ``k`` worst launch-to-capture paths, in decreasing delay.

        Exact best-first enumeration: each net carries the max tail delay to
        any capture point below it, so a partial path's bound is its prefix
        plus that tail; paths complete in strictly non-increasing total
        order.  Cyclic netlists (cross-coupled gates) return the single
        relaxation-based worst path instead.
        """
        if self.is_cyclic:
            path = self._greedy_worst_path()
            return [path] if path is not None else []

        compiled = self.compiled
        x_slot = compiled.x_slot
        # Outgoing arcs per net (latch arcs excluded: paths end there).
        out_arcs: List[List[Tuple[int, int, float]]] = [
            [] for _ in range(compiled.num_slots)]
        for gate_id in range(compiled.num_gates):
            if compiled.gate_ops[gate_id] == OP_LATCH:
                continue
            delay = self.arc_delay_ns[gate_id]
            out = compiled.gate_outs[gate_id]
            for net_id in set(compiled.gate_ins[gate_id]):
                if net_id != x_slot:
                    out_arcs[net_id].append((gate_id, out, delay))

        tail = [_NEG_INF] * compiled.num_slots
        for net_id in self._capture:
            tail[net_id] = 0.0
        for gate_id in reversed(self._gate_schedule()):
            if compiled.gate_ops[gate_id] == OP_LATCH:
                continue
            downstream = tail[compiled.gate_outs[gate_id]]
            if downstream == _NEG_INF:
                continue
            candidate = downstream + self.arc_delay_ns[gate_id]
            for net_id in compiled.gate_ins[gate_id]:
                if candidate > tail[net_id]:
                    tail[net_id] = candidate

        starts = [net_id for net_id in self._path_starts()
                  if tail[net_id] != _NEG_INF]
        # Heap of (-bound, counter, net, done, steps): ``done`` marks a
        # completed path whose bound is its exact total delay.
        counter = 0
        heap: List[Tuple[float, int, int, bool, Tuple]] = []
        for net_id in starts:
            heapq.heappush(heap, (-tail[net_id], counter, net_id, False, ()))
            counter += 1
        names = compiled.net_names
        gate_names = compiled.gate_names
        results: List[TimingPath] = []
        expansions = 0
        while heap and len(results) < k and expansions < max_expansions:
            bound, _tie, net_id, done, steps = heapq.heappop(heap)
            expansions += 1
            if done:
                prefix = -bound
                path_steps = [PathStep(None, names[steps[0][1]], 0.0)]
                at = 0.0
                for gate_id, reached in steps[1:]:
                    at += self.arc_delay_ns[gate_id]
                    path_steps.append(PathStep(gate_names[gate_id],
                                               names[reached], at))
                results.append(TimingPath(prefix, path_steps))
                continue
            prefix = -bound - (tail[net_id] if tail[net_id] != _NEG_INF else 0.0)
            if not steps:
                steps = ((-1, net_id),)
            if net_id in self._capture:
                heapq.heappush(heap, (-prefix, counter, net_id, True, steps))
                counter += 1
            for gate_id, out, delay in out_arcs[net_id]:
                if tail[out] == _NEG_INF:
                    continue
                new_bound = prefix + delay + tail[out]
                heapq.heappush(heap, (-new_bound, counter, out, False,
                                      steps + ((gate_id, out),)))
                counter += 1
        if heap and len(results) < k:
            # The expansion budget ran out with candidates still queued:
            # the enumeration is truncated, never silently — the paths
            # already emitted are still the exact worst ones.
            _LOG.warning(
                "warning [STA001]: worst_paths(k=%d) stopped after %d "
                "expansions with %d path(s) found; remaining paths are "
                "not enumerated (raise max_expansions for more)",
                k, max_expansions, len(results))
        return results

    def _path_starts(self) -> List[int]:
        """Nets where paths launch: declared launch points plus undriven nets."""
        compiled = self.compiled
        driven: Set[int] = set(compiled.gate_outs)
        starts = set(self._launch)
        for net_id in range(len(compiled.net_names)):
            if net_id not in driven and net_id not in starts:
                starts.add(net_id)
        # A net that is both driven combinationally and a launch point
        # cannot happen (DFF/latch outputs are their own drivers), but a
        # declared input that is also driven keeps its launch role.
        return sorted(starts)

    def _greedy_worst_path(self) -> Optional[TimingPath]:
        """Backtracked worst path for cyclic graphs (visited-guarded)."""
        if not self._capture:
            return None
        compiled = self.compiled
        producer: Dict[int, List[int]] = {}
        for gate_id, out in enumerate(compiled.gate_outs):
            if compiled.gate_ops[gate_id] != OP_LATCH:
                producer.setdefault(out, []).append(gate_id)
        end = max(self._capture, key=lambda n: self.arrival_ns[n])
        hops: List[Tuple[int, int]] = []
        net_id = end
        seen = {end}
        while True:
            gates = producer.get(net_id)
            if not gates:
                break
            best: Optional[Tuple[int, int]] = None   # (gate_id, in_id)
            best_arrival = _NEG_INF
            for gate_id in gates:
                for in_id in compiled.gate_ins[gate_id]:
                    if self.arrival_ns[in_id] > best_arrival:
                        best_arrival = self.arrival_ns[in_id]
                        best = (gate_id, in_id)
            if best is None or best[1] in seen:
                break
            hops.append((best[0], net_id))
            seen.add(best[1])
            net_id = best[1]
        names = compiled.net_names
        steps = [PathStep(None, names[net_id], 0.0)]
        at = 0.0
        for gate_id, reached in reversed(hops):
            at += self.arc_delay_ns[gate_id]
            steps.append(PathStep(compiled.gate_names[gate_id],
                                  names[reached], at))
        return TimingPath(self.arrival_ns[end], steps)

