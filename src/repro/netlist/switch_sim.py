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

Settling is incremental: the gate→device fanout and source/drain channel
adjacency are precomputed once, and each settle iteration re-merges only
the connected components whose controlling gate nodes actually changed —
devices that switched off dissolve their component for a local rebuild,
devices that switched on merge two components wholesale.  The original
rebuild-everything loop lives in :mod:`repro.reference.switch_sim` as the
golden reference; differential tests pin the two value-identical, and an
incremental-bookkeeping failure degrades to it under ``FBK003``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set

from repro.diagnostics import (
    BudgetExceeded,
    Diagnostic,
    Severity,
    run_with_fallback,
)

VDD = "vdd"
GND = "gnd"


def _settle_budget_error() -> BudgetExceeded:
    return BudgetExceeded(
        "switch-level simulation did not settle",
        Diagnostic(Severity.ERROR, "GRD003",
                   "switch-level simulation did not settle",
                   hint="the network oscillates; raise settle_limit only "
                        "if the propagation depth is real",
                   source="sim"))


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
        # Incremental settling state (built lazily on first settle).
        self._num_devices = -1
        self._gate_fanout: Dict[str, List[int]] = {}
        self._chan_adj: Dict[str, List[int]] = {}
        self._on: List[bool] = []
        self._comp: Dict[str, int] = {}
        self._members: Dict[int, Set[str]] = {}
        self._next_comp_id = 0
        self._topo_valid = False

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

    def _conducting(self, device: Transistor) -> bool:
        if device.kind is TransistorKind.DEPLETION:
            return True   # depletion devices conduct regardless of gate voltage
        gate_value = self.values.get(device.gate)
        return gate_value == 1

    def _clamped(self) -> Set[str]:
        # Only inputs that have actually been given a value act as drivers; an
        # undriven "inout" terminal (e.g. the far side of a pass transistor)
        # must be free to take whatever value the network gives it.
        return {name for name in self.network.inputs
                if self.values.get(name) is not None} | {VDD, GND}

    def _settle(self) -> None:
        clamped = self._clamped()

        # An incremental-bookkeeping bug must not take simulation down:
        # degrade to the reference full-rebuild loop (with the incremental
        # state reset, so the next settle rebuilds it from the network
        # alone).  BudgetExceeded propagates — a genuine oscillation hangs
        # both paths.
        def full_rebuild() -> None:
            from repro.reference.switch_sim import settle_full_rebuild

            self._num_devices = -1
            self._topo_valid = False
            settle_full_rebuild(self, clamped)

        run_with_fallback("switch-level settle",
                          lambda: self._settle_incremental(clamped),
                          full_rebuild, code="FBK003")

    # -- incremental settling ---------------------------------------------------------------

    def _build_static(self) -> None:
        """Precompute gate→device fanout and channel adjacency once."""
        devices = self.network.transistors
        self._num_devices = len(devices)
        self._gate_fanout = {}
        self._chan_adj = {}
        for index, device in enumerate(devices):
            if device.kind is TransistorKind.ENHANCEMENT:
                self._gate_fanout.setdefault(device.gate, []).append(index)
            self._chan_adj.setdefault(device.source, []).append(index)
            self._chan_adj.setdefault(device.drain, []).append(index)
        self._topo_valid = False

    def _rebuild_components(self) -> None:
        """Full component build from the current conductance states."""
        devices = self.network.transistors
        self._on = [self._conducting(device) for device in devices]
        self._comp = {}
        self._members = {}
        self._next_comp_id = 0
        for node in self.network.nodes():
            if node in self._comp:
                continue
            component = self._flood(node, restrict=None)
            comp_id = self._next_comp_id
            self._next_comp_id += 1
            self._members[comp_id] = component
            for member in component:
                self._comp[member] = comp_id
        self._topo_valid = True

    def _flood(self, start: str, restrict: Optional[Set[str]]) -> Set[str]:
        """BFS over conducting channels from ``start``.

        ``restrict`` (when given) bounds the walk to a node set known to
        contain the whole component — used when rebuilding dissolved
        components, whose nodes cannot conduct to the outside (an on-device
        to an outside node would have put that node in the same component
        already).
        """
        devices = self.network.transistors
        on = self._on
        adjacency = self._chan_adj
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for device_index in adjacency.get(node, ()):
                if not on[device_index]:
                    continue
                device = devices[device_index]
                other = device.drain if device.source == node else device.source
                if other in component:
                    continue
                if restrict is not None and other not in restrict:
                    continue
                component.add(other)
                frontier.append(other)
        return component

    def _settle_incremental(self, clamped: Set[str]) -> None:
        if self._num_devices != len(self.network.transistors):
            self._build_static()
        devices = self.network.transistors

        if not self._topo_valid:
            self._rebuild_components()
            flip_candidates: Sequence[int] = ()
        else:
            # Values may have moved via set_inputs since the last settle:
            # one full conductance scan, then change-driven within the loop.
            flip_candidates = range(len(devices))

        resolve_all = True
        affected: Set[int] = set()
        for _ in range(self.settle_limit):
            # -- re-merge only where controlling gates changed ------------------
            dirty: Set[int] = set()
            merges: List[int] = []
            for device_index in flip_candidates:
                now_on = self._conducting(devices[device_index])
                if now_on == self._on[device_index]:
                    continue
                self._on[device_index] = now_on
                device = devices[device_index]
                if now_on:
                    merges.append(device_index)
                else:
                    dirty.add(self._comp[device.source])
                    dirty.add(self._comp[device.drain])
            if dirty:
                region: Set[str] = set()
                for comp_id in dirty:
                    region.update(self._members.pop(comp_id))
                while region:
                    seed = next(iter(region))
                    component = self._flood(seed, restrict=region)
                    region.difference_update(component)
                    comp_id = self._next_comp_id
                    self._next_comp_id += 1
                    self._members[comp_id] = component
                    affected.add(comp_id)
                    for member in component:
                        self._comp[member] = comp_id
            for device_index in merges:
                device = devices[device_index]
                comp_a = self._comp[device.source]
                comp_b = self._comp[device.drain]
                if comp_a == comp_b:
                    affected.add(comp_a)
                    continue
                if len(self._members[comp_a]) < len(self._members[comp_b]):
                    comp_a, comp_b = comp_b, comp_a
                absorbed = self._members.pop(comp_b)
                self._members[comp_a].update(absorbed)
                for member in absorbed:
                    self._comp[member] = comp_a
                affected.add(comp_a)
            affected = {comp_id for comp_id in affected if comp_id in self._members}

            # -- resolve only the groups that could have changed ----------------
            if resolve_all:
                to_resolve = list(self._members)
                resolve_all = False
            else:
                to_resolve = list(affected)
            changed_nodes: List[str] = []
            for comp_id in to_resolve:
                group = self._members[comp_id]
                new_value = self._resolve_group(group, clamped)
                for node in group:
                    if node in clamped:
                        continue
                    if self.values.get(node) != new_value and new_value is not None:
                        self.values[node] = new_value
                        changed_nodes.append(node)
            if not changed_nodes:
                return
            # Next iteration: only devices gated by changed nodes can flip,
            # and only groups holding changed nodes can resolve differently.
            next_flips: Set[int] = set()
            affected = set()
            for node in changed_nodes:
                next_flips.update(self._gate_fanout.get(node, ()))
                affected.add(self._comp[node])
            flip_candidates = sorted(next_flips)
        raise _settle_budget_error()

    def _resolve_group(self, group: Set[str], clamped: Set[str]) -> Optional[int]:
        """Resolve the value of a connected group of nodes.

        Strength order: GND (strong 0) > VDD via depletion (weak 1) >
        clamped input value > stored charge.
        """
        if GND in group and VDD in group:
            # Ratioed fight: pulldown path wins (that is what ratioing means).
            return 0
        if GND in group:
            return 0
        if VDD in group:
            return 1
        clamped_values = {self.values[node] for node in group if node in clamped
                          and self.values.get(node) is not None}
        if len(clamped_values) == 1:
            return clamped_values.pop()
        if len(clamped_values) > 1:
            return None   # conflicting drivers through pass transistors
        stored = [self.values[node] for node in group if self.values.get(node) is not None]
        if stored and all(value == stored[0] for value in stored):
            return stored[0]
        return None
