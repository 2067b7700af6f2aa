"""Reference gate-level interpreter (the seed implementation).

:class:`InterpreterEngine` rescans every instance on every settle sweep and
looks every net up by name — slow, and simple enough to be the golden
semantic model the compiled kernel (:mod:`repro.sim.kernel`) is pinned
trace-identical to.  It presents the same engine surface as
:class:`~repro.sim.kernel.ScalarEngine` (read-only ``values`` / ``state``
views, ``set_values`` / ``sampler`` / ``settle`` / ``clock`` / ``reset`` /
``critical_path_estimate``) over its own name-keyed dicts, so
:class:`GateLevelInterpreter` is the production simulator with one method
overridden.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.diagnostics import BudgetExceeded, Diagnostic, Severity
from repro.netlist.gate_sim import GateLevelSimulator, X
from repro.netlist.module import GateType, Instance, Module
from repro.obs import metrics as obs_metrics
from repro.sim.kernel import unknown_net


class InterpreterEngine:
    """Scan-everything settle over name-keyed ``values``/``state`` dicts."""

    def __init__(self, module: Module, settle_limit: int = 10000):
        self.module = module
        self._values: Dict[str, Optional[int]] = {name: X for name in module.nets}
        self._state: Dict[str, Optional[int]] = {}
        self.values = MappingProxyType(self._values)
        self.state = MappingProxyType(self._state)
        self.settle_limit = settle_limit
        self._dffs: List[Instance] = [
            instance for instance in module.instances
            if instance.kind is GateType.DFF
        ]

    # -- evaluation -----------------------------------------------------------------

    def _gate_output(self, instance: Instance) -> Optional[int]:
        gate: GateType = instance.kind
        inputs = [self._values.get(net) for net in instance.data_input_nets()]
        if gate is GateType.CONST0:
            return 0
        if gate is GateType.CONST1:
            return 1
        if gate is GateType.MUX2:
            sel = self._values.get(instance.connections.get("sel", ""))
            a = self._values.get(instance.connections.get("a", ""))
            b = self._values.get(instance.connections.get("b", ""))
            if sel is X:
                return a if a == b else X
            return b if sel else a
        if gate is GateType.LATCH:
            enable = self._values.get(instance.connections.get("enable", ""))
            data = self._values.get(instance.connections.get("in0", ""))
            if enable == 1:
                self._state[instance.name] = data   # transparent: track the data
                return data
            return self._state.get(instance.name, X)
        if any(value is X for value in inputs):
            return self._x_result(gate, inputs)
        if gate in (GateType.AND, GateType.NAND):
            result = int(all(inputs))
            return result if gate is GateType.AND else 1 - result
        if gate in (GateType.OR, GateType.NOR):
            result = int(any(inputs))
            return result if gate is GateType.OR else 1 - result
        if gate in (GateType.XOR, GateType.XNOR):
            result = sum(inputs) % 2
            return result if gate is GateType.XOR else 1 - result
        if gate is GateType.NOT:
            return 1 - inputs[0]
        if gate is GateType.BUF:
            return inputs[0]
        raise AssertionError(f"unhandled gate {gate}")

    @staticmethod
    def _x_result(gate: GateType, inputs: List[Optional[int]]) -> Optional[int]:
        """Partial evaluation with unknowns (controlling values still decide)."""
        known = [value for value in inputs if value is not X]
        if gate in (GateType.AND, GateType.NAND) and 0 in known:
            return 0 if gate is GateType.AND else 1
        if gate in (GateType.OR, GateType.NOR) and 1 in known:
            return 1 if gate is GateType.OR else 0
        return X

    def settle(self) -> int:
        """Propagate combinational logic to a fixed point; returns the depth."""
        depth = 0
        iterations = 0
        changed_nets: Set[str] = set(self.module.nets)
        while changed_nets:
            iterations += 1
            if iterations > self.settle_limit:
                raise BudgetExceeded(
                    "combinational loop did not settle (oscillation?)",
                    Diagnostic(Severity.ERROR, "GRD002",
                               "combinational loop did not settle "
                               "(oscillation?)", source="sim"))
            next_changed: Set[str] = set()
            for instance in self.module.instances:
                if instance.kind.is_sequential and instance.kind is not GateType.LATCH:
                    continue
                input_nets = instance.input_nets()
                if input_nets and not any(net in changed_nets for net in input_nets):
                    continue
                output_net = instance.connections.get("out")
                if output_net is None:
                    continue
                new_value = self._gate_output(instance)
                if new_value != self._values.get(output_net):
                    self._values[output_net] = new_value
                    next_changed.add(output_net)
            if next_changed:
                depth += 1
            changed_nets = next_changed
        obs_metrics.counter("sim.settle.calls").inc()
        obs_metrics.counter("sim.settle.iterations").inc(iterations)
        return depth

    def set_values(self, assignment: Dict[str, Optional[int]]) -> None:
        for name, value in assignment.items():
            if name not in self._values:
                raise unknown_net(name)
            self._values[name] = value if value is X else int(bool(value))

    def sampler(self, names: Sequence[str]) -> Callable[[], tuple]:
        values = self._values
        return lambda: tuple(values.get(name) for name in names)

    def clock(self) -> None:
        """One clock edge: capture all DFF D inputs, then update together."""
        # Single pass over the flip-flops: capture every D first, then
        # apply, so a DFF feeding another DFF shifts its *old* value.
        captured = [
            (instance, self._values.get(instance.connections.get("in0")))
            for instance in self._dffs
        ]
        for instance, value in captured:
            self._state[instance.name] = value
            self._values[instance.connections["out"]] = value

    def reset(self, value: int) -> None:
        for instance in self._dffs:
            self._state[instance.name] = value
            self._values[instance.connections["out"]] = value

    def critical_path_estimate(self) -> int:
        """Longest combinational depth (unit delay per gate) in the module."""
        depth_of: Dict[str, int] = {name: 0 for name in self.module.input_names()}
        for instance in self._dffs:
            depth_of[instance.connections["out"]] = 0

        # Iteratively relax until stable (handles arbitrary topological order).
        changed = True
        iterations = 0
        best = 0
        while changed:
            iterations += 1
            if iterations > len(self.module.instances) + 2:
                break
            changed = False
            for instance in self.module.instances:
                if instance.kind.is_sequential:
                    continue
                output = instance.connections.get("out")
                if output is None:
                    continue
                input_depths = [
                    depth_of.get(net, 0) for net in instance.input_nets()
                ]
                candidate = (max(input_depths) if input_depths else 0) + 1
                if candidate > depth_of.get(output, 0):
                    depth_of[output] = candidate
                    best = max(best, candidate)
                    changed = True
        return best


class GateLevelInterpreter(GateLevelSimulator):
    """:class:`GateLevelSimulator` driven by the reference interpreter."""

    def _make_engine(self) -> InterpreterEngine:
        return InterpreterEngine(self.module, self.settle_limit)
