"""The electrical rule checks for ratioed-NMOS switch networks.

The checks and their stable codes:

``ERC001``  floating gate (error) — a transistor gate node that nothing can
            ever drive: not a supply, not a clamped input, and not a
            source/drain terminal of any device.
``ERC002``  supply short (error) — VDD and GND connected through devices
            that conduct unconditionally (depletion loads, enhancement
            devices gated by VDD).  The ratioed fight of a pullup against a
            *gated* pulldown is normal NMOS and is not flagged.
``ERC003``  dead port (warning) — a declared input/output whose node
            touches no device at all (neither gate nor channel terminal).
``ERC004``  combinational feedback (warning) — a cycle of gate-to-channel
            dependence between channel-connected node groups.  Warning, not
            error: cross-coupled structures (set/reset latches) are built
            this way on purpose, but unintended feedback oscillates.
``ERC005``  pullup problems — a depletion device with no VDD terminal
            (warning: it cannot pull anything up), or a pullup strictly
            stronger (larger W/L) than the strongest pulldown on its output
            node (error: a conducting pulldown could fail to win the
            ratioed fight and the node would never reach a valid 0).

Gate-level modules get a structural variant (:meth:`ErcChecker.check_module`):

``ERC006``  undriven output net (error).
``ERC007``  connection to an undeclared net (error).
``ERC008``  multiple drivers on one net (error).
``ERC004``  combinational feedback through gates (warning), same code as
            the switch-level check because it is the same condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.diagnostics import Diagnostic, Severity, get_logger
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused
from repro.netlist.module import Module
from repro.netlist.switch_lowering import (
    LoweredSwitchNetwork,
    lower_switch,
    strongly_connected,
)
from repro.netlist.switch_sim import GND, VDD, SwitchNetwork

_LOG = get_logger("erc")

#: Fix hints per code, attached to the rendered diagnostics.
_HINTS = {
    "ERC001": "connect the gate poly to a driven node or an input",
    "ERC002": "a depletion or always-on path ties VDD to GND",
    "ERC003": "remove the port or wire its node to a device",
    "ERC004": "break the cycle or confirm the feedback is intentional",
    "ERC005": "resize the devices so the pulldown wins the ratioed fight",
    "ERC006": "drive the output or remove the declaration",
    "ERC007": "declare the net or fix the connection name",
    "ERC008": "exactly one gate may drive a net",
}


@dataclass(frozen=True)
class ErcViolation:
    """One electrical rule violation: code, severity, text, participants."""

    code: str
    severity: Severity
    message: str
    nodes: Tuple[str, ...] = ()
    devices: Tuple[str, ...] = ()

    def diagnostic(self) -> Diagnostic:
        return Diagnostic(self.severity, self.code, self.message,
                          hint=_HINTS.get(self.code), source="erc")

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


#: :class:`Severity` by value, for turning a severity column back into enums.
_SEVERITY = {severity.value: severity for severity in Severity}
_ERRORS = frozenset(severity.value for severity in Severity
                    if Severity.ERROR <= severity)


class ErcReport:
    """The ERC result for one network or module, held as columns.

    One row per finding, in the order the checks found them: its code,
    severity (a ``bytearray`` of :class:`Severity` values), message, and the
    ``nodes`` / ``devices`` it names (tuples).  Rows are appended through
    :meth:`add` only.  :attr:`violations` is a read-only view of the rows as
    :class:`ErcViolation` objects, built on first read and dropped by
    :meth:`add`; :attr:`clean`, :meth:`codes`, :meth:`summary` and
    :meth:`weight` read the columns, and :meth:`errors` / :meth:`warnings`
    build objects for the rows they return only.  A pickle holds the
    columns, never the view, and two reports are equal when their names,
    counts and rows are.
    """

    def __init__(self, name: str, device_count: int = 0,
                 node_count: int = 0):
        self.name = name
        self.device_count = device_count
        self.node_count = node_count
        self._codes: List[str] = []
        self._severities = bytearray()
        self._messages: List[str] = []
        self._nodes: List[Tuple[str, ...]] = []
        self._devices: List[Tuple[str, ...]] = []
        self._view: Optional[List[ErcViolation]] = None

    def add(self, code: str, severity: Severity, message: str,
            nodes: Tuple[str, ...] = (),
            devices: Tuple[str, ...] = ()) -> None:
        """Append one finding as a row."""
        self._codes.append(code)
        self._severities.append(severity.value)
        self._messages.append(message)
        self._nodes.append(nodes)
        self._devices.append(devices)
        self._view = None

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_view"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._view = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErcReport):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        return (f"ErcReport({self.name!r}, {len(self._codes)} finding(s), "
                f"{self.device_count} devices, {self.node_count} nodes)")

    def _select(self, severities) -> List[ErcViolation]:
        """The rows whose severity value is in ``severities``, as objects."""
        return [ErcViolation(code, _SEVERITY[severity], message, nodes,
                             devices)
                for code, severity, message, nodes, devices in zip(
                    self._codes, self._severities, self._messages,
                    self._nodes, self._devices)
                if severity in severities]

    @property
    def violations(self) -> List[ErcViolation]:
        """The rows as :class:`ErcViolation` objects, in row order.

        Built on first read and kept until the next :meth:`add`; treat the
        list as read-only.
        """
        if self._view is None:
            with gc_paused():     # thousands of acyclic objects, all kept
                self._view = list(map(
                    ErcViolation, self._codes,
                    map(_SEVERITY.__getitem__, self._severities),
                    self._messages, self._nodes, self._devices))
        return self._view

    def weight(self) -> int:
        """Estimated pickled size in bytes: ~80 per finding."""
        return 80 * len(self._codes)

    @property
    def clean(self) -> bool:
        """True when no *error*-severity violation was found (warnings ok)."""
        return _ERRORS.isdisjoint(self._severities)

    def errors(self) -> List[ErcViolation]:
        return self._select(_ERRORS)

    def warnings(self) -> List[ErcViolation]:
        return self._select((Severity.WARNING.value,))

    def by_code(self) -> Dict[str, List[ErcViolation]]:
        table: Dict[str, List[ErcViolation]] = {}
        for violation in self.violations:
            table.setdefault(violation.code, []).append(violation)
        return table

    def codes(self) -> List[str]:
        return list(self._codes)

    def diagnostics(self) -> List[Diagnostic]:
        return [v.diagnostic() for v in self.violations]

    def summary(self) -> str:
        errors = sum(severity in _ERRORS for severity in self._severities)
        warnings = self._severities.count(Severity.WARNING.value)
        return (f"{self.name}: {self.device_count} devices, "
                f"{self.node_count} nodes, {errors} error(s), "
                f"{warnings} warning(s)")


class ErcChecker:
    """Run the electrical rule checks on networks and modules."""

    def check_network(self, network: SwitchNetwork,
                      name: Optional[str] = None) -> ErcReport:
        """All switch-level checks (ERC001–ERC005) on one network."""
        with obs_trace.span("erc.check", cat="erc",
                            cell=name or network.name):
            return self._check_network(network, name)

    def _check_network(self, network: SwitchNetwork,
                       name: Optional[str] = None) -> ErcReport:
        lowered = lower_switch(network)
        report = ErcReport(name or network.name,
                           device_count=network.device_count(),
                           node_count=len(lowered.names))
        inputs = {lowered.index[port] for port in network.inputs}
        supplies = {lowered.vdd, lowered.gnd}
        # Named boundary nodes are assumed driven by the next level up; at
        # the top level ERC003 still reports the ones touching nothing.
        driven = supplies | inputs | {lowered.index[port]
                                      for port in network.outputs}
        live = self._live_nodes(lowered, driven)

        self._check_floating_gates(report, lowered, driven, live)
        self._check_supply_short(report, lowered)
        self._check_dead_ports(report, network, lowered)
        self._check_feedback(report, lowered, supplies | inputs, live)
        self._check_pullups(report, lowered, live)
        for code, severity, message in zip(
                report._codes, report._severities, report._messages):
            _LOG.log(30 if severity in _ERRORS else 20,
                     "%s: [%s] %s", report.name, code, message)
        return report

    def check_circuit(self, circuit) -> ErcReport:
        """ERC on an :class:`~repro.extract.extractor.ExtractedCircuit`."""
        return self.check_network(circuit.network, name=circuit.cell_name)

    # -- switch-level checks --------------------------------------------------
    #
    # All of them read the shared lowering (node ids, terminal, kind and size
    # arrays, channel partition) and go back to names only to word a
    # violation.

    @staticmethod
    def _live_nodes(lowered: LoweredSwitchNetwork, seeds) -> List[bool]:
        """Per node: channel-connected to a supply or boundary node.

        Abstract layouts (PLA programming bricks, unprogrammed crosspoints)
        extract little device clusters with no path to any supply; they can
        never corrupt the live circuit, so the per-device checks skip them
        instead of drowning the report in dead-geometry noise.
        """
        group = lowered.channel_groups()
        live_groups = {group[seed] for seed in seeds}
        return [root in live_groups for root in group]

    def _check_floating_gates(self, report: ErcReport, lowered, driven,
                              live) -> None:
        for device, gate, source, drain in zip(
                lowered.device_names, lowered.gate, lowered.source,
                lowered.drain):
            if gate < lowered.channel_nodes or gate in driven:
                continue
            if not (live[source] or live[drain]):
                continue  # dead cluster: cannot disturb the circuit
            name = lowered.names[gate]
            report.add(
                "ERC001", Severity.ERROR,
                f"gate of {device} on node {name!r} is floating (never driven)",
                nodes=(name,), devices=(device,))

    def _check_supply_short(self, report: ErcReport, lowered) -> None:
        # Join source/drain across devices that conduct no matter what the
        # circuit state is; a VDD~GND merge is a hard short.
        always_on = [depletion or gate == lowered.vdd for depletion, gate
                     in zip(lowered.depletion, lowered.gate)]
        group = lowered.channel_groups(conducts=always_on)
        if group[lowered.vdd] == group[lowered.gnd]:
            report.add(
                "ERC002", Severity.ERROR,
                "VDD is shorted to GND through always-conducting devices",
                nodes=(VDD, GND),
                devices=tuple(device for device, on
                              in zip(lowered.device_names, always_on) if on))

    def _check_dead_ports(self, report: ErcReport, network: SwitchNetwork,
                          lowered) -> None:
        for port in list(network.inputs) + [p for p in network.outputs
                                            if p not in network.inputs]:
            if (lowered.index[port] >= lowered.device_nodes
                    and port not in (VDD, GND)):
                report.add("ERC003", Severity.WARNING,
                           f"port {port!r} touches no device", nodes=(port,))

    def _check_feedback(self, report: ErcReport, lowered, cut, live) -> None:
        """Cycles of gate→channel dependence between channel groups.

        Nodes are first merged into channel-connected groups (source/drain
        adjacency with VDD, GND and clamped inputs cut out — the standard
        switch-level partition), so a series pulldown stack is one group
        and does not read as a cycle.  An *enhancement* device whose gate
        lands in its own channel group is direct self-feedback; a depletion
        load's customary gate-to-source tie is not reported.
        """
        group = lowered.channel_groups(cut=cut)
        members: Dict[int, List[int]] = {}
        for node in range(lowered.channel_nodes):
            if group[node] >= 0:
                members.setdefault(group[node], []).append(node)
        roots = sorted(members)
        position = {root: i for i, root in enumerate(roots)}
        # Gate -> channel edges between groups; a gate that is no channel
        # terminal has nothing upstream and cannot close a cycle.
        edges: List[Set[int]] = [set() for _ in roots]
        self_loops: List[Tuple[str, int]] = []     # (device name, gate)
        for device, depletion, gate, source, drain in zip(
                lowered.device_names, lowered.depletion, lowered.gate,
                lowered.source, lowered.drain):
            gate_group = position.get(group[gate])
            if gate_group is None:
                continue
            for terminal in (source, drain):
                term_group = position.get(group[terminal])
                if term_group is None:
                    continue
                if term_group == gate_group:
                    if not depletion and live[terminal]:
                        self_loops.append((device, gate))
                    continue
                edges[gate_group].add(term_group)

        reported: Set[str] = set()
        for device, gate in self_loops:
            if device in reported:
                continue
            reported.add(device)
            name = lowered.names[gate]
            report.add(
                "ERC004", Severity.WARNING,
                f"device {device} gates its own channel group "
                f"(node {name!r})",
                nodes=(name,), devices=(device,))

        _, sccs = strongly_connected([sorted(dsts) for dsts in edges])
        for scc in sccs:
            if len(scc) < 2:
                continue
            nodes = [node for i in scc for node in members[roots[i]]]
            if not any(live[node] for node in nodes):
                continue  # a dead cluster has no supply to oscillate with
            _add_feedback(report, "nodes",
                          sorted(lowered.names[node] for node in nodes))

    def _check_pullups(self, report: ErcReport, lowered, live) -> None:
        supplies = (lowered.vdd, lowered.gnd)
        names = lowered.names
        # Strongest pulldown (enhancement W/L) adjacent to each node.
        pulldown_strength: Dict[int, float] = {}
        for depletion, width, length, source, drain in zip(
                lowered.depletion, lowered.width, lowered.length,
                lowered.source, lowered.drain):
            if depletion:
                continue
            strength = width / length
            for terminal in (source, drain):
                if terminal in supplies:
                    continue
                if strength > pulldown_strength.get(terminal, 0.0):
                    pulldown_strength[terminal] = strength
        for device, depletion, width, length, source, drain in zip(
                lowered.device_names, lowered.depletion, lowered.width,
                lowered.length, lowered.source, lowered.drain):
            if not depletion:
                continue
            if lowered.vdd not in (source, drain):
                if live[source] or live[drain]:
                    report.add(
                        "ERC005", Severity.WARNING,
                        f"depletion device {device} has no VDD terminal "
                        "(cannot act as a pullup)",
                        nodes=(names[source], names[drain]),
                        devices=(device,))
                continue
            output = drain if source == lowered.vdd else source
            if output in supplies:
                continue
            strongest = pulldown_strength.get(output)
            if strongest is None:
                # A pullup with no pulldown is a constant-1 node — legal
                # (it is how const1 cells are built).
                continue
            pullup = width / length
            if pullup > strongest:
                name = names[output]
                report.add(
                    "ERC005", Severity.ERROR,
                    f"pullup {device} on node {name!r} is stronger "
                    f"(W/L {pullup:g}) than the strongest pulldown "
                    f"(W/L {strongest:g})",
                    nodes=(name,), devices=(device,))

    # -- gate-level module check ----------------------------------------------

    def check_module(self, module: Module) -> ErcReport:
        """Structural ERC on a gate-level module (ERC004/006/007/008)."""
        report = ErcReport(module.name,
                           device_count=module.gate_count(),
                           node_count=len(module.nets))
        for code, message, nets, instances in module.rule_violations():
            report.add(code, Severity.ERROR, message, nets, instances)
        self._check_module_feedback(report, module)
        return report

    def _check_module_feedback(self, report: ErcReport,
                               module: Module) -> None:
        inputs = set(module.input_names())
        flat = module
        if any(not instance.is_primitive for instance in module.instances):
            flat = module.flattened()
        names = sorted(flat.nets)
        position = {name: i for i, name in enumerate(names)}
        fanin: List[Set[int]] = [set() for _ in names]
        for instance in flat.instances:
            if not instance.is_primitive or instance.kind.is_sequential:
                continue  # registers break combinational cycles
            out = instance.connections.get("out")
            if out is None or out in inputs:
                continue
            for net in instance.input_nets():
                if net in inputs or net not in position:
                    continue
                fanin[position[out]].add(position[net])
        # Edge direction out <- in is fine for cycle existence; report the
        # SCC membership, which is direction-agnostic.
        _, sccs = strongly_connected([sorted(nets) for nets in fanin])
        for scc in sccs:
            if len(scc) >= 2:
                _add_feedback(report, "nets", [names[i] for i in scc])


def _add_feedback(report: ErcReport, what: str, members: List[str]) -> None:
    """Add the ``ERC004`` row of one cycle (``members`` in name order)."""
    report.add(
        "ERC004", Severity.WARNING,
        f"combinational feedback through {what} "
        + ", ".join(repr(m) for m in members[:6])
        + ("..." if len(members) > 6 else ""),
        nodes=tuple(members))


def check_network(network: SwitchNetwork) -> ErcReport:
    """One-shot switch-level ERC."""
    return ErcChecker().check_network(network)
