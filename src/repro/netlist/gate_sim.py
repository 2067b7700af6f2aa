"""Event-driven gate-level simulator.

Supports three-valued logic (0, 1, X), combinational convergence within a
cycle, clocked D flip-flops (one implicit clock) and transparent latches.
Also reports a unit-delay critical-path estimate per evaluation, which the
E2 "cost in space and speed" experiment uses as its speed metric.

The netlist is lowered once by :mod:`repro.sim.kernel` to integer-indexed
arrays and then to generated code: on a straight-line netlist a settle is
one pass over the gates (none when no input or flip-flop moved), and
otherwise each sweep after the first touches only the gates downstream of
nets that actually changed; every operation here delegates to that one
engine.  The original
rescan-everything interpreter lives in :mod:`repro.reference.gate_sim` as
the golden semantic reference: differential tests pin the kernel
trace-identical to it (values, ``last_depth`` and
``critical_path_estimate`` included).  It is a test oracle only; a
lowering failure propagates as itself.

``values`` and ``state`` are live name-keyed views that the engine keeps
in sync; mutate state through ``set_inputs``/``reset``, not by writing
into ``values``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.netlist.module import Module, NetlistError
from repro.obs import trace as obs_trace
from repro.obs import vcd as obs_vcd

if TYPE_CHECKING:   # the kernel package imports this package's modules
    from repro.sim.kernel import ScalarEngine

X = None  # unknown value marker


@dataclass
class SimulationTrace:
    """Per-cycle record of net values."""

    cycles: List[Dict[str, Optional[int]]] = field(default_factory=list)

    def value(self, cycle: int, net: str) -> Optional[int]:
        return self.cycles[cycle].get(net)

    def series(self, net: str) -> List[Optional[int]]:
        return [cycle.get(net) for cycle in self.cycles]

    def __len__(self) -> int:
        return len(self.cycles)


class GateLevelSimulator:
    """Simulate a (flattened) structural module."""

    def __init__(self, module: Module, settle_limit: int = 10000):
        self.module = module.flattened()
        # An undriven output (ERC006) simulates as X; the other rules do not.
        problems = [d for d in self.module.validate() if d.code != "ERC006"]
        if problems:
            raise NetlistError(
                "netlist is not simulatable: "
                + "; ".join(d.message for d in problems), problems[0])
        self.settle_limit = settle_limit
        self.values: Dict[str, Optional[int]] = {name: X for name in self.module.nets}
        self.state: Dict[str, Optional[int]] = {}
        self.last_depth = 0
        self._engine = self._make_engine()

    def _make_engine(self) -> "ScalarEngine":
        """The engine every operation below delegates to."""
        # Imported here, not at module top: repro.sim.kernel imports
        # repro.netlist.module, so a top-level import would make
        # ``import repro.sim`` fail depending on which package is
        # imported first.
        from repro.sim.kernel import ScalarEngine, compile_netlist

        return ScalarEngine(compile_netlist(self.module), self.values,
                            self.state, self.settle_limit)

    # -- evaluation -----------------------------------------------------------------

    def settle(self) -> int:
        """Propagate combinational logic to a fixed point; returns the depth."""
        self.last_depth = self._engine.settle()
        return self.last_depth

    def set_inputs(self, assignment: Dict[str, int]) -> None:
        set_value = self._engine.set_value
        nets = self.module.nets
        for name, value in assignment.items():
            if name not in nets:
                raise KeyError(f"unknown input net {name!r}")
            set_value(name, value if value is X else int(bool(value)))

    def evaluate(self, assignment: Dict[str, int]) -> Dict[str, Optional[int]]:
        """Combinational evaluation: set inputs, settle, read outputs."""
        self.set_inputs(assignment)
        self.settle()
        return {name: self.values.get(name) for name in self.module.output_names()}

    def clock(self) -> None:
        """One clock edge: all DFFs capture their D inputs simultaneously."""
        self._engine.clock()
        self.settle()

    def run(self, input_sequence: Sequence[Dict[str, int]],
            record: Optional[Iterable[str]] = None,
            vcd: Optional[object] = None) -> SimulationTrace:
        """Clocked simulation: apply one input vector per cycle.

        ``vcd`` optionally streams the watched nets to a waveform dump: pass
        a path (the writer is opened and closed here) or an open
        :class:`repro.obs.vcd.VcdWriter` (caller keeps ownership).
        """
        watch = list(record) if record is not None else (
            self.module.input_names() + self.module.output_names()
        )
        trace = SimulationTrace()
        owns_writer = isinstance(vcd, str)
        writer = (obs_vcd.VcdWriter(vcd, module=self.module.name)
                  if owns_writer else vcd)
        try:
            with obs_trace.span("sim.run", cat="sim", module=self.module.name,
                                cycles=len(input_sequence)):
                for time, vector in enumerate(input_sequence):
                    self.set_inputs(vector)
                    self.settle()
                    sampled = {name: self.values.get(name) for name in watch}
                    trace.cycles.append(sampled)
                    if writer is not None:
                        writer.sample(time, sampled)
                    self.clock()
        finally:
            if owns_writer and writer is not None:
                writer.close()
        return trace

    def reset(self, value: int = 0) -> None:
        """Force all flip-flop states to ``value`` and re-settle."""
        self._engine.reset(value)
        self.settle()

    def critical_path_estimate(self) -> int:
        """Longest combinational depth (unit delay per gate) in the module."""
        return self._engine.critical_path_estimate()
