"""The one lowering of a :class:`SwitchNetwork` to integer arrays.

What :class:`repro.sim.kernel.CompiledNetlist` is to a gate-level module:
every engine that reads a transistor network — electrical rule checking
(:mod:`repro.erc.checker`), switch-level timing
(:mod:`repro.timing.switch`) and switch-level simulation
(:mod:`repro.netlist.switch_sim`) — reads it through this module rather
than keying devices by name for itself.  It owns three things:

* the **node numbering** and per-device arrays
  (:class:`LoweredSwitchNetwork`, obtained through :func:`lower_switch`,
  which builds it once per network however many analyses ask and memoises
  it on the network).  The network's device columns are canonical: the
  lowering renumbers their name ids channel-first with whole-array passes
  and carries kind, size and device names along, so no engine reads a
  :class:`~repro.netlist.switch_sim.Transistor`;
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

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.geometry.index import UnionFind
from repro.netlist.switch_sim import GND, VDD, SwitchNetwork
from repro.obs import trace as obs_trace


class LoweredSwitchNetwork:
    """Dense node ids and per-device arrays of one network.

    Ids follow first appearance, channel graph first: the source and drain
    of every device in device order, then the gates that are no device's
    channel terminal, then the ports and supplies no device touches.  So
    ids below :attr:`channel_nodes` are exactly the nodes a channel can
    charge and ids below :attr:`device_nodes` exactly those touching a
    device, and the numbering is a pure function of the device and port
    lists — the reports built on it are deterministic.  The network's
    columns are renumbered into these ids by whole-array passes; size and
    device names are the network's own columns, shared.
    """

    __slots__ = ("names", "index", "channel_nodes", "device_nodes", "gate",
                 "source", "drain", "depletion", "width", "length",
                 "device_names", "vdd", "gnd")

    def __init__(self, network: SwitchNetwork):
        source, drain = network.source, network.drain
        channel = [0] * (2 * len(source))
        channel[0::2] = source
        channel[1::2] = drain
        order = dict.fromkeys(channel)     # network name ids, in lowered order
        self.channel_nodes = len(order)
        order.update(dict.fromkeys(network.gate))
        self.device_nodes = len(order)
        new_id = [0] * len(network.node_names)
        for new, old in enumerate(order):
            new_id[old] = new
        renumber = new_id.__getitem__
        index = dict(zip(map(network.node_names.__getitem__, order),
                         range(len(order))))
        for name in (*network.inputs, *network.outputs, VDD, GND):
            index.setdefault(name, len(index))
        self.index: Dict[str, int] = index
        self.names: List[str] = list(index)
        self.source: List[int] = list(map(renumber, source))
        self.drain: List[int] = list(map(renumber, drain))
        self.gate: List[int] = list(map(renumber, network.gate))
        #: ``kind is DEPLETION`` per device.
        self.depletion: List[bool] = list(map(bool, network.depletion))
        self.width: Sequence[int] = network.width
        self.length: Sequence[int] = network.length
        self.device_names: List[str] = network.device_names
        self.vdd, self.gnd = index[VDD], index[GND]

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


def lower_switch(network: SwitchNetwork) -> LoweredSwitchNetwork:
    """The lowered form of ``network``, shared by every caller.

    Memoised on the network itself: growing the network drops it, and a
    pickle never carries it, so a circuit loaded from the store is lowered
    again on first use.  Callers must treat the result as immutable.
    """
    lowered = network._lowered
    if lowered is None:
        with obs_trace.span("netlist.lower_switch", cat="netlist",
                            network=network.name,
                            devices=network.device_count()):
            lowered = network._lowered = LoweredSwitchNetwork(network)
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
