"""Switch-level simulation of NMOS transistor networks.

The circuit extractor (:mod:`repro.extract`) produces transistor-level
netlists from layout; this simulator evaluates them so a compiled chip's
*physical* description can be checked against its *behavioural* one — the
closing of the loop the paper asks for ("verification by simulation").

A :class:`SwitchNetwork` is a device table: interned node names and one
column per device field (gate, source and drain name ids, kind, width,
length, name).  The extractor emits straight into the columns, ERC, timing
and this simulator read them through the network's lowering, and the store
pickles them as arrays.  :class:`Transistor` objects exist only as the
read-only :attr:`SwitchNetwork.transistors` view, for the public API, the
netlist comparison and the reference simulator.

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

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.diagnostics import BudgetExceeded, Diagnostic, Severity
from repro.runtime import gc_paused

VDD = "vdd"
GND = "gnd"


class TransistorKind(Enum):
    ENHANCEMENT = "enhancement"
    DEPLETION = "depletion"


@dataclass(frozen=True, slots=True)
class Transistor:
    """One MOS device: gate, source, drain node names plus its kind and size
    — a row of a :class:`SwitchNetwork`'s device columns.

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
    """A flat transistor network with named nodes, held as device columns.

    Node names are interned once (:attr:`node_names`; a name's id is its
    position there).  Each device is one entry of the parallel columns
    :attr:`gate`, :attr:`source` and :attr:`drain` (name ids),
    :attr:`depletion` (1 for a depletion device), :attr:`width`,
    :attr:`length` and :attr:`device_names`.  An interned name need not
    touch a device: an extracted network interns every node name of its
    layout.  The columns are the network; :attr:`transistors` is a read-only
    view of them as :class:`Transistor` objects, built on first read.

    Grow a network through :meth:`add_transistor` / :meth:`extend` and
    :meth:`add_input` / :meth:`add_output` only: they drop the view and the
    lowering :func:`repro.netlist.switch_lowering.lower_switch` memoises
    here.  A pickle holds the columns and the ports, never either of those.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self.node_names: List[str] = []
        self.gate = array("i")
        self.source = array("i")
        self.drain = array("i")
        self.depletion = bytearray()
        self.width = array("i")
        self.length = array("i")
        self.device_names: List[str] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._ids: Optional[Dict[str, int]] = None
        self._view: Optional[List[Transistor]] = None
        self._lowered = None    # owned by repro.netlist.switch_lowering

    def __getstate__(self):
        state = self.__dict__.copy()
        for memo in ("_ids", "_view", "_lowered"):
            del state[memo]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._ids = self._view = self._lowered = None

    def intern(self, names: Sequence[str]) -> List[int]:
        """The name id of each of ``names``, interning new names in order."""
        ids = self._ids
        if ids is None:
            ids = self._ids = dict(zip(self.node_names,
                                       range(len(self.node_names))))
        for name in dict.fromkeys(names):
            if name not in ids:
                ids[name] = len(self.node_names)
                self.node_names.append(name)
        return list(map(ids.__getitem__, names))

    def extend(self, gate: Iterable[int], source: Iterable[int],
               drain: Iterable[int], depletion: Iterable[int],
               width: Iterable[int], length: Iterable[int],
               device_names: Iterable[str]) -> None:
        """Append devices given as columns of name ids (see :meth:`intern`)."""
        self.gate.extend(gate)
        self.source.extend(source)
        self.drain.extend(drain)
        self.depletion.extend(depletion)
        self.width.extend(width)
        self.length.extend(length)
        self.device_names.extend(device_names)
        self._view = self._lowered = None

    def add_transistor(self, gate: str, source: str, drain: str,
                       kind: TransistorKind = TransistorKind.ENHANCEMENT,
                       width: int = 2, length: int = 2,
                       name: Optional[str] = None) -> str:
        """Append one device; returns its name (``m<k>`` for the k-th device
        when none is given)."""
        name = name or f"m{len(self.device_names)}"
        gate_id, source_id, drain_id = self.intern((gate, source, drain))
        self.extend((gate_id,), (source_id,), (drain_id,),
                    (kind is TransistorKind.DEPLETION,), (width,), (length,),
                    (name,))
        return name

    def add_input(self, name: str) -> None:
        if name not in self.inputs:
            self.inputs.append(name)
            self._lowered = None

    def add_output(self, name: str) -> None:
        if name not in self.outputs:
            self.outputs.append(name)
            self._lowered = None

    @property
    def transistors(self) -> List[Transistor]:
        """The devices as :class:`Transistor` objects, in device order.

        Built from the columns on first read and kept until the network
        grows; treat the list as read-only.
        """
        if self._view is None:
            name_of = self.node_names.__getitem__
            kind_of = (TransistorKind.ENHANCEMENT,
                       TransistorKind.DEPLETION).__getitem__
            with gc_paused():     # thousands of acyclic objects, all kept
                self._view = list(map(
                    Transistor, self.device_names, map(name_of, self.gate),
                    map(name_of, self.source), map(name_of, self.drain),
                    map(kind_of, self.depletion), self.width, self.length))
        return self._view

    def nodes(self) -> Set[str]:
        used = set(self.gate)
        used.update(self.source)
        used.update(self.drain)
        result: Set[str] = {VDD, GND, *self.inputs, *self.outputs}
        result.update(map(self.node_names.__getitem__, used))
        return result

    def device_count(self) -> int:
        return len(self.gate)

    def pullup_count(self) -> int:
        return sum(self.depletion)


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
