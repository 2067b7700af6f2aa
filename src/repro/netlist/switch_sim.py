"""Switch-level simulation of NMOS transistor networks.

The circuit extractor (:mod:`repro.extract`) produces transistor-level
netlists from layout; this simulator evaluates them so a compiled chip's
*physical* description can be checked against its *behavioural* one — the
closing of the loop the paper asks for ("verification by simulation").

The model is the classic ratioed-NMOS switch model:

* a node driven to VDD through a depletion load is a *weak* 1;
* a node connected to GND through a path of conducting enhancement
  transistors is a *strong* 0, which overrides the weak 1 (ratioed logic);
* pass-transistor paths propagate values without restoring them;
* nodes with no path to a supply keep their previous value (dynamic charge
  storage), which is what makes the two-phase register work.

Drive strength is resolved **by path kind, never by device geometry**: the
ratioed model orders GND-through-enhancement above VDD-through-depletion
above a clamped input above stored charge, and two *stored* charges that
disagree through a pass transistor resolve to unknown rather than letting
the larger capacitance win.  Transistor ``width``/``length`` therefore
exist only as extraction geometry for reporting; an earlier ``strength``
(W/L) property was never consulted by conflict resolution and has been
removed so the model can't silently diverge from its documentation.

The supplies are *sources*, not wires: a conducting device on ``vdd`` or
``gnd`` drives the group at its other end, and never joins that group to
the other groups the same rail feeds — two pulled-up nodes are two nodes.
Settling therefore runs on the network's one lowering
(:mod:`repro.netlist.switch_lowering`), with exactly the partition the
timing analyzer prices: each sweep regroups the nodes by
``channel_groups`` cut at the supplies and restricted to the devices that
conduct under the current values, resolves every group, and stops when a
sweep changes nothing.  The simulator carries no state between settles
beyond the public name-keyed ``values``.  :mod:`repro.reference.switch_sim`
is an independent name-keyed implementation of the same model, and the
differential suites pin the two value-identical on every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.diagnostics import BudgetExceeded, Diagnostic, Severity

VDD = "vdd"
GND = "gnd"


class TransistorKind(Enum):
    ENHANCEMENT = "enhancement"
    DEPLETION = "depletion"


@dataclass(frozen=True)
class Transistor:
    """One MOS device: gate, source, drain node names plus its kind and size.

    ``width`` and ``length`` are extraction geometry (reported, compared in
    LVS); they deliberately play no role in conflict resolution — see the
    module docstring.
    """

    name: str
    gate: str
    source: str
    drain: str
    kind: TransistorKind = TransistorKind.ENHANCEMENT
    width: int = 2
    length: int = 2


class SwitchNetwork:
    """A flat transistor network with named nodes."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.transistors: List[Transistor] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._counter = 0

    def add_transistor(self, gate: str, source: str, drain: str,
                       kind: TransistorKind = TransistorKind.ENHANCEMENT,
                       width: int = 2, length: int = 2,
                       name: Optional[str] = None) -> Transistor:
        device = Transistor(
            name or f"m{self._counter}", gate, source, drain, kind, width, length
        )
        self._counter += 1
        self.transistors.append(device)
        return device

    def add_input(self, name: str) -> None:
        if name not in self.inputs:
            self.inputs.append(name)

    def add_output(self, name: str) -> None:
        if name not in self.outputs:
            self.outputs.append(name)

    def nodes(self) -> Set[str]:
        result: Set[str] = {VDD, GND}
        for device in self.transistors:
            result.update((device.gate, device.source, device.drain))
        result.update(self.inputs)
        result.update(self.outputs)
        return result

    def device_count(self) -> int:
        return len(self.transistors)

    def pullup_count(self) -> int:
        return sum(1 for t in self.transistors if t.kind is TransistorKind.DEPLETION)


class SwitchLevelSimulator:
    """Evaluate a :class:`SwitchNetwork` with the ratioed-NMOS switch model."""

    def __init__(self, network: SwitchNetwork, settle_limit: int = 200):
        self.network = network
        self.settle_limit = settle_limit
        self.values: Dict[str, Optional[int]] = {node: None for node in network.nodes()}
        self.values[VDD] = 1
        self.values[GND] = 0

    def set_inputs(self, assignment: Dict[str, int]) -> None:
        for name, value in assignment.items():
            self.values[name] = None if value is None else int(bool(value))

    def evaluate(self, assignment: Optional[Dict[str, int]] = None) -> Dict[str, Optional[int]]:
        """Settle the network and return the values of the declared outputs."""
        if assignment:
            self.set_inputs(assignment)
        self._settle()
        return {name: self.values.get(name) for name in self.network.outputs}

    def node_value(self, node: str) -> Optional[int]:
        return self.values.get(node)

    # -- internal ------------------------------------------------------------------------

    def _settle(self) -> None:
        """Sweep until no node moves.

        Strength order within a group: a conducting path to GND (strong 0)
        > one to VDD (weak 1) > clamped input value > stored charge.
        """
        # Imported here: the lowering imports this module's network types.
        from repro.netlist.switch_lowering import lower_switch

        lowered = lower_switch(self.network)
        names, values = lowered.names, self.values
        value = [values.get(name) for name in names]
        # Only inputs that have actually been given a value act as drivers; an
        # undriven "inout" terminal (e.g. the far side of a pass transistor)
        # must be free to take whatever value the network gives it.
        clamped = [False] * len(names)
        for name in self.network.inputs:
            clamped[lowered.index[name]] = values.get(name) is not None
        supplies = {lowered.gnd: 0, lowered.vdd: 1}
        # (device, node, level) where a channel joins a node to a supply; a
        # device across the rails drives nothing.
        taps = []
        for device, (source, drain) in enumerate(zip(lowered.source,
                                                     lowered.drain)):
            if (source in supplies) != (drain in supplies):
                if source in supplies:
                    source, drain = drain, source
                taps.append((device, source, supplies[drain]))

        for _ in range(self.settle_limit):
            on = [depletion or value[gate] == 1   # depletion always conducts
                  for depletion, gate in zip(lowered.depletion, lowered.gate)]
            group = lowered.channel_groups(cut=supplies, conducts=on)
            driven: Dict[int, int] = {}
            for device, node, level in taps:
                # Ratioed fight: the pull-down path wins.
                if on[device] and driven.get(group[node]) != 0:
                    driven[group[node]] = level
            members: Dict[int, List[int]] = {}
            for node in range(lowered.channel_nodes):
                if group[node] >= 0:
                    members.setdefault(group[node], []).append(node)
            changed = False
            for root, nodes in members.items():
                level = driven.get(root)
                if level is None:
                    if len(nodes) == 1:
                        continue   # a lone undriven node keeps its charge
                    levels = ({value[node] for node in nodes if clamped[node]}
                              or {value[node] for node in nodes} - {None})
                    if len(levels) != 1:
                        continue   # nothing, or a fight: every node keeps its charge
                    level = levels.pop()
                for node in nodes:
                    if value[node] != level and not clamped[node]:
                        value[node] = values[names[node]] = level
                        changed = True
            if not changed:
                return
        raise BudgetExceeded(
            "switch-level simulation did not settle",
            Diagnostic(Severity.ERROR, "GRD003",
                       "switch-level simulation did not settle",
                       hint="the network oscillates; raise settle_limit only "
                            "if the propagation depth is real",
                       source="sim"))
