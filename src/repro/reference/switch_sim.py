"""Reference switch-level simulator: the documented model, by node name.

An implementation of the ratioed-NMOS switch model of
:mod:`repro.netlist.switch_sim` that shares nothing with it but the network
data types — no subclassing, no lowering, its own union-find, its own
resolution.  (It once borrowed production's group resolution, and a bug in
how both treated the supplies hid behind their agreement.)  Every sweep
starts from the names alone:

* a device conducts if it is a depletion device or its gate is at 1;
* conducting channels between two non-supply nodes join them into a group;
  the supplies are never members — a conducting channel onto ``gnd`` or
  ``vdd`` is a *driver* of the group at its other end;
* every group collects its drivers as ``(strength, level)`` — GND path 3,
  VDD path 2, clamped input 1, stored charge 0 — and takes the level of its
  strongest drivers if they agree; if they disagree nothing moves;
* clamped inputs (and the supplies) never change.

Sweeps repeat until one changes nothing, or ``settle_limit`` is spent
(``GRD003``, the text the production simulator raises).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.diagnostics import BudgetExceeded, Diagnostic, Severity
from repro.netlist.switch_sim import GND, VDD, SwitchNetwork, TransistorKind

_SUPPLY_DRIVER = {GND: (3, 0), VDD: (2, 1)}


class SwitchLevelReference:
    """The API of :class:`repro.netlist.SwitchLevelSimulator`, name-keyed."""

    def __init__(self, network: SwitchNetwork, settle_limit: int = 200):
        self.network = network
        self.settle_limit = settle_limit
        self.values: Dict[str, Optional[int]] = dict.fromkeys(network.nodes())
        self.values[VDD] = 1
        self.values[GND] = 0

    def set_inputs(self, assignment: Dict[str, int]) -> None:
        for name, value in assignment.items():
            self.values[name] = None if value is None else int(bool(value))

    def evaluate(self, assignment: Optional[Dict[str, int]] = None
                 ) -> Dict[str, Optional[int]]:
        if assignment:
            self.set_inputs(assignment)
        clamped = {name for name in self.network.inputs
                   if self.values.get(name) is not None} | {VDD, GND}
        for _ in range(self.settle_limit):
            if not self._sweep(clamped):
                return {name: self.values.get(name)
                        for name in self.network.outputs}
        raise BudgetExceeded(
            "switch-level simulation did not settle",
            Diagnostic(Severity.ERROR, "GRD003",
                       "switch-level simulation did not settle",
                       hint="the network oscillates; raise settle_limit only "
                            "if the propagation depth is real",
                       source="sim"))

    def node_value(self, node: str) -> Optional[int]:
        return self.values.get(node)

    def _sweep(self, clamped: Set[str]) -> bool:
        """Regroup and resolve once; True if any node changed."""
        values = self.values
        parent: Dict[str, str] = {node: node for node in self.network.nodes()
                                  if node not in _SUPPLY_DRIVER}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        supply_paths: List[Tuple[str, Tuple[int, int]]] = []
        for device in self.network.transistors:
            if (device.kind is not TransistorKind.DEPLETION
                    and values.get(device.gate) != 1):
                continue
            if device.source in parent and device.drain in parent:
                parent[find(device.source)] = find(device.drain)
            for node, other in ((device.source, device.drain),
                                (device.drain, device.source)):
                if node in parent and other in _SUPPLY_DRIVER:
                    supply_paths.append((node, _SUPPLY_DRIVER[other]))

        drivers: Dict[str, List[Tuple[int, int]]] = {}
        groups: Dict[str, List[str]] = {}
        for node, driver in supply_paths:
            drivers.setdefault(find(node), []).append(driver)
        for node in parent:
            root = find(node)
            groups.setdefault(root, []).append(node)
            if values.get(node) is not None:
                drivers.setdefault(root, []).append(
                    (1 if node in clamped else 0, values[node]))

        changed = False
        for root, strongest in drivers.items():
            top = max(strength for strength, _level in strongest)
            levels = {level for strength, level in strongest if strength == top}
            if len(levels) != 1:
                continue
            level = levels.pop()
            for node in groups[root]:
                if node not in clamped and values.get(node) != level:
                    values[node] = level
                    changed = True
        return changed
