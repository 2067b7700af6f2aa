"""The one lowering of a :class:`SwitchNetwork` to integer arrays.

What :class:`repro.sim.kernel.CompiledNetlist` is to a gate-level module:
every engine that reads a transistor network — electrical rule checking
(:mod:`repro.erc.checker`), switch-level timing
(:mod:`repro.timing.switch`) and switch-level simulation
(:mod:`repro.netlist.switch_sim`) — reads it through this module rather
than walking the name-keyed device list for itself.  It owns three things:

* the **node numbering** and per-device terminal arrays
  (:class:`LoweredSwitchNetwork`, obtained through :func:`lower_switch`,
  which builds it once per network however many analyses ask);
* the **channel partition** (:meth:`LoweredSwitchNetwork.channel_groups`):
  nodes joined source-to-drain, parameterised by which nodes are cut out
  and which devices count as conducting — the supply-short check, the live
  set, the feedback check, the timing CCCs and each sweep of the simulator
  are five settings of it;
* the **strongly connected components** of a directed graph
  (:func:`strongly_connected`), the one iterative Tarjan in the package.

The simulator is the third consumer: each settle sweep asks for the timing
analyzer's partition (cut at ``vdd`` / ``gnd``) restricted to the devices
that conduct under the current node values.  Its oracle
(:mod:`repro.reference.switch_sim`) stays independent of this module.
"""

from __future__ import annotations

import weakref
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.geometry.index import UnionFind
from repro.netlist.switch_sim import GND, VDD, SwitchNetwork, TransistorKind
from repro.obs import trace as obs_trace


class LoweredSwitchNetwork:
    """Dense node ids and per-device terminal arrays of one network.

    Ids follow first appearance, channel graph first: the source and drain
    of every device in device order, then the gates that are no device's
    channel terminal, then the ports and supplies no device touches.  So
    ids below :attr:`channel_nodes` are exactly the nodes a channel can
    charge and ids below :attr:`device_nodes` exactly those touching a
    device, and the numbering is a pure function of the device and port
    lists — the reports built on it are deterministic.
    """

    __slots__ = ("names", "index", "channel_nodes", "device_nodes", "gate",
                 "source", "drain", "depletion", "vdd", "gnd", "shape")

    def __init__(self, network: SwitchNetwork):
        devices = network.transistors
        index: Dict[str, int] = {}
        self.source: List[int] = []
        self.drain: List[int] = []
        for device in devices:
            self.source.append(index.setdefault(device.source, len(index)))
            self.drain.append(index.setdefault(device.drain, len(index)))
        self.channel_nodes = len(index)
        self.gate: List[int] = [index.setdefault(device.gate, len(index))
                                for device in devices]
        self.device_nodes = len(index)
        for name in (*network.inputs, *network.outputs, VDD, GND):
            index.setdefault(name, len(index))
        #: ``kind is DEPLETION`` per device.
        self.depletion: List[bool] = [
            device.kind is TransistorKind.DEPLETION for device in devices]
        self.index = index
        self.names: List[str] = list(index)
        self.vdd, self.gnd = index[VDD], index[GND]
        self.shape = _shape(network)

    def channel_groups(self, cut: Collection[int] = (),
                       conducts: Optional[Sequence[bool]] = None) -> List[int]:
        """The group of every node under channel connection, as a root id.

        A device joins its source and drain when it conducts (``conducts``
        per device; every device when ``None``) and neither terminal is in
        ``cut``; a cut node's entry is ``-1`` and a node no channel reaches
        is its own group.  Roots depend on the device order alone, so sorting
        groups by root is a deterministic order.
        """
        finder = UnionFind(len(self.names))
        for device, (source, drain) in enumerate(zip(self.source, self.drain)):
            if ((conducts is None or conducts[device])
                    and source not in cut and drain not in cut):
                finder.union(source, drain)
        return [-1 if node in cut else finder.find(node)
                for node in range(len(self.names))]


def _shape(network: SwitchNetwork) -> Tuple[int, int, int]:
    return (len(network.transistors), len(network.inputs),
            len(network.outputs))


# Lowerings by network identity, dropped with their network.  A network only
# grows (devices are frozen, the lists append-only), so list lengths tell a
# stale lowering from a current one.  Nothing here is ever pickled: a circuit
# loaded from the store is lowered again on first use.
_LOWERED: "weakref.WeakKeyDictionary[SwitchNetwork, LoweredSwitchNetwork]"
_LOWERED = weakref.WeakKeyDictionary()


def lower_switch(network: SwitchNetwork) -> LoweredSwitchNetwork:
    """The lowered form of ``network``, shared by every caller.

    Callers must treat the result as immutable.
    """
    lowered = _LOWERED.get(network)
    if lowered is None or lowered.shape != _shape(network):
        with obs_trace.span("netlist.lower_switch", cat="netlist",
                            network=network.name,
                            devices=len(network.transistors)):
            lowered = _LOWERED[network] = LoweredSwitchNetwork(network)
    return lowered


def strongly_connected(successors: Sequence[Sequence[int]]
                       ) -> Tuple[List[int], List[List[int]]]:
    """Iterative Tarjan: (component id per node, members per component).

    Chips exceed the recursion limit, hence the explicit work stack.
    Component ids are assigned in discovery completion order (reverse
    topological order of the condensation), roots tried in node order and
    successors in the order given; membership lists are sorted.
    """
    count = len(successors)
    index_of = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    stack: List[int] = []
    comp_of = [-1] * count
    comps: List[List[int]] = []
    counter = 0
    for root in range(count):
        if index_of[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            targets = successors[node]
            while edge_pos < len(targets):
                target = targets[edge_pos]
                edge_pos += 1
                if index_of[target] == -1:
                    work[-1] = (node, edge_pos)
                    work.append((target, 0))
                    advanced = True
                    break
                if on_stack[target] and low[target] < low[node]:
                    low[node] = low[target]
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                members: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp_of[member] = len(comps)
                    members.append(member)
                    if member == node:
                        break
                members.sort()
                comps.append(members)
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return comp_of, comps
