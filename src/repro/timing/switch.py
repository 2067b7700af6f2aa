"""Switch-level static timing of extracted transistor networks.

Layout verification runs on the extracted :class:`SwitchNetwork`, so
chip-level timing must too: there is no gate netlist for a full chip, only
the transistors the extractor recovered and the parasitics annotated on
their nodes (:mod:`repro.timing.parasitics`).  The model is the ratioed
NMOS one the switch simulator uses, priced instead of evaluated:

* a node with a depletion pull-up to VDD is a **restoring stage**; its
  worst transition is the weak pull-up charging the node's total
  capacitance (plus the node's lumped wire resistance — the Elmore term);
* any other driven node is a **pass stage**, charged through a channel;
* an enhancement transistor's gate *causes* transitions on its channel
  terminals (arc gate -> source/drain), and a conducting channel
  *propagates* transitions between its terminals (arcs source <-> drain).

The graph is structured the way classic switch-level timing analyzers
structured it:

1. Non-supply nodes are partitioned into **channel-connected
   components** (CCCs) — nodes joined by any transistor channel.  A CCC
   is the electrical unit that transitions together when a gate inside
   it switches: an inverter output is a one-node CCC, a NAND output
   plus its stack nodes is one CCC, a pass-transistor chain is one CCC.
2. A CCC's **traversal cost** is the *sum* of its member nodes' stage
   delays (restoring nodes charge through the pull-up, the rest through
   a channel, each with its lumped wire resistance) — the lumped stand-
   in for the Elmore ladder through the stack, and monotonic: adding
   geometry or members never makes a CCC faster.
3. Signal flow arcs run **gate -> driven CCC** only.  Channel arcs
   never leave a CCC by construction, so the flow graph is cyclic
   exactly where the circuit has *gate feedback* — the cross-coupled
   pair inside every register, FSM state loops.  Those cycles are
   condensed (strongly connected components) and each loop is traversed
   once (the sum of its member CCC costs), the loop-breaking-at-registers
   convention of synchronous timing analysis; the condensed loop count
   is reported so unexpected feedback is visible.

Node ids, device kinds and names, the channel partition and the SCC pass
come from the network's one lowering (:mod:`repro.netlist.switch_lowering`),
shared with ERC.

Everything is a deterministic pure function of the extracted circuit, so
two runs over byte-identical netlists produce float-identical timing —
the property the incremental differential suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.netlist.switch_lowering import lower_switch, strongly_connected
from repro.netlist.switch_sim import GND, VDD

if TYPE_CHECKING:   # import cycle: the extractor annotates with our parasitics
    from repro.extract.extractor import ExtractedCircuit
from repro.technology.technology import Technology
from repro.timing.delay import SwitchDelayModel
from repro.timing.graph import PathStep, TimingPath
from repro.timing.parasitics import NetParasitics

_SUPPLIES = (VDD, GND)


@dataclass
class BlockTiming:
    """The cached timing artifact of one cell/block."""

    name: str
    node_count: int = 0
    device_count: int = 0
    restoring_stages: int = 0
    loops_broken: int = 0
    total_cap_ff: float = 0.0
    worst_delay_ns: float = 0.0
    critical_path: Optional[TimingPath] = None
    #: Capture-point arrivals (declared outputs plus driven sinks).
    endpoint_arrivals: Dict[str, float] = field(default_factory=dict)
    #: Worst path delay launched from each declared input pin.
    input_depth_ns: Dict[str, float] = field(default_factory=dict)
    #: Worst arrival at each declared output pin.
    output_arrival_ns: Dict[str, float] = field(default_factory=dict)

    def weight(self) -> int:
        """Estimated pickled size in bytes: ~17 per arrival entry."""
        return 17 * (len(self.endpoint_arrivals) + len(self.input_depth_ns)
                     + len(self.output_arrival_ns))

    @property
    def max_frequency_mhz(self) -> float:
        """Cycle-rate estimate: one worst path per clock period."""
        if self.worst_delay_ns <= 0.0:
            return 0.0
        return 1000.0 / self.worst_delay_ns

    def slacks_ns(self, clock_ns: Optional[float] = None) -> List[float]:
        """Endpoint slacks against a clock (default: the critical period)."""
        period = self.worst_delay_ns if clock_ns is None else clock_ns
        return [period - arrival
                for arrival in self.endpoint_arrivals.values()]

    def meets(self, clock_ns: float) -> bool:
        return self.worst_delay_ns <= clock_ns

    def summary(self) -> Dict[str, float]:
        return {
            "nodes": self.node_count,
            "devices": self.device_count,
            "worst_delay_ns": round(self.worst_delay_ns, 4),
            "max_frequency_mhz": round(self.max_frequency_mhz, 4),
            "loops_broken": self.loops_broken,
        }


class SwitchTimingAnalyzer:
    """Price and traverse the stage graph of an extracted circuit."""

    def __init__(self, technology: Technology):
        self.technology = technology
        self.delay_model = SwitchDelayModel(technology)

    # -- public API -----------------------------------------------------------

    def analyze(self, circuit: "ExtractedCircuit",
                parasitics: Optional[Dict[str, NetParasitics]] = None
                ) -> BlockTiming:
        from repro.obs import trace as obs_trace

        with obs_trace.span("sta.analyze", cat="sta",
                            circuit=circuit.cell_name):
            return self._analyze(circuit, parasitics)

    def _analyze(self, circuit: "ExtractedCircuit",
                 parasitics: Optional[Dict[str, NetParasitics]] = None
                 ) -> BlockTiming:
        parasitics = parasitics if parasitics is not None else circuit.parasitics
        network = circuit.network
        lowered = lower_switch(network)
        # The timed nodes: every non-supply node of the network, plus the
        # annotated wires that touch no device (each its own stage).
        names = sorted((parasitics.keys() | lowered.index.keys())
                       - set(_SUPPLIES))
        empty = NetParasitics("")

        def para(name: str) -> NetParasitics:
            return parasitics.get(name, empty)

        # Restoring stages: nodes held up by a depletion load on VDD.
        supplies = (lowered.vdd, lowered.gnd)
        restoring: Set[str] = set()
        for depletion, source, drain in zip(lowered.depletion, lowered.source,
                                            lowered.drain):
            if depletion:
                if source == lowered.vdd and drain not in supplies:
                    restoring.add(lowered.names[drain])
                if drain == lowered.vdd and source not in supplies:
                    restoring.add(lowered.names[source])

        # 1. Channel-connected components over the non-supply nodes, numbered
        #    in name order (deterministic ids), members in name order.
        group = lowered.channel_groups(cut=set(supplies))
        ccc_of_group: Dict[int, int] = {}
        ccc_of_node = [-1] * len(group)
        ccc_members: List[List[str]] = []
        for name in names:
            node = lowered.index.get(name)
            ccc = len(ccc_members)
            if node is not None:
                ccc = ccc_of_node[node] = ccc_of_group.setdefault(
                    group[node], ccc)
            if ccc == len(ccc_members):
                ccc_members.append([])
            ccc_members[ccc].append(name)

        # 2. Traversal cost of each CCC: the sum of its member stages.
        model = self.delay_model
        weight = [sum(model.stage_delay_ns(para(name), name in restoring)
                      for name in members)
                  for members in ccc_members]

        # 3. Signal flow arcs: gate -> the CCC its channel drives, each
        #    remembered with the first device that makes it.
        arcs: List[List[int]] = [[] for _ in ccc_members]
        arc_device: Dict[Tuple[int, int], str] = {}
        for device, depletion, gate, source, drain in zip(
                lowered.device_names, lowered.depletion, lowered.gate,
                lowered.source, lowered.drain):
            if depletion:
                continue   # depletion loads are priced inside their stage
            driver = ccc_of_node[gate]
            target = ccc_of_node[drain]
            if target < 0:
                target = ccc_of_node[source]
            if driver < 0 or target < 0:
                continue
            if (driver, target) not in arc_device:
                arc_device[(driver, target)] = device
                arcs[driver].append(target)

        comp_of, comps = strongly_connected(arcs)
        scc_of_port = {
            port: comp_of[ccc_of_node[lowered.index[port]]]
            for port in (*network.inputs, *network.outputs)
            if port not in _SUPPLIES}
        timing = self._condensed_longest_paths(
            arcs, arc_device, ccc_members, weight, comp_of, comps,
            network, scc_of_port)
        timing.name = circuit.cell_name
        timing.node_count = len(names)
        timing.device_count = len(lowered.gate)
        timing.restoring_stages = len(restoring)
        timing.total_cap_ff = sum(para(name).total_cap_ff for name in names)
        return timing

    # -- condensation traversal ----------------------------------------------

    def _condensed_longest_paths(self, arcs: Sequence[Sequence[int]],
                                 arc_device: Dict[Tuple[int, int], str],
                                 ccc_members: Sequence[Sequence[str]],
                                 weight: Sequence[float],
                                 comp_of: Sequence[int],
                                 comps: Sequence[Sequence[int]],
                                 network,
                                 scc_of_port: Dict[str, int]) -> BlockTiming:
        num_comps = len(comps)
        # Condensed node weight: a feedback loop is traversed once, i.e.
        # every member CCC transitions once.
        condensed_weight = [0.0] * num_comps
        has_self_loop = [False] * num_comps
        for scc, members in enumerate(comps):
            condensed_weight[scc] = sum(weight[ccc] for ccc in members)
        successors: List[Set[int]] = [set() for _ in range(num_comps)]
        entry_device: Dict[Tuple[int, int], str] = {}
        indegree = [0] * num_comps
        for ccc, targets in enumerate(arcs):
            cu = comp_of[ccc]
            for target in targets:
                cv = comp_of[target]
                if cu == cv:
                    if target == ccc:
                        has_self_loop[cu] = True
                    continue
                if cv not in successors[cu]:
                    successors[cu].add(cv)
                    entry_device[(cu, cv)] = arc_device[(ccc, target)]
                    indegree[cv] += 1

        # Longest path over the condensation (Kahn order): arrivals are
        # sums of condensed weights along the path, so delay is monotonic
        # in design content — a chip is never faster than its blocks.
        arrival = [condensed_weight[c] for c in range(num_comps)]
        pred: List[Optional[int]] = [None] * num_comps
        frontier = [c for c in range(num_comps) if indegree[c] == 0]
        order: List[int] = []
        while frontier:
            nxt: List[int] = []
            for cu in frontier:
                order.append(cu)
                for cv in successors[cu]:
                    total = arrival[cu] + condensed_weight[cv]
                    if total > arrival[cv]:
                        arrival[cv] = total
                        pred[cv] = cu
                    indegree[cv] -= 1
                    if indegree[cv] == 0:
                        nxt.append(cv)
            frontier = nxt

        # Tail delays (worst remaining path), for per-input depths.
        tail = [0.0] * num_comps
        for cu in reversed(order):
            best = 0.0
            for cv in successors[cu]:
                candidate = condensed_weight[cv] + tail[cv]
                if candidate > best:
                    best = candidate
            tail[cu] = best

        timing = BlockTiming(name="")
        timing.loops_broken = sum(
            1 for scc in range(num_comps)
            if len(comps[scc]) > 1 or has_self_loop[scc])

        # A loop is named after its first node in name order; CCC ids and
        # member lists are both in name order already.
        representative = [ccc_members[members[0]][0] for members in comps]

        # Capture points, by condensed component: the declared outputs,
        # then every driven sink under its representative's name.
        endpoints: Dict[str, int] = {}
        for out_name in network.outputs:
            if out_name in scc_of_port:
                endpoints[out_name] = scc_of_port[out_name]
        for scc in range(num_comps):
            if not successors[scc] and arrival[scc] > 0.0:
                endpoints.setdefault(representative[scc], scc)
        timing.endpoint_arrivals = {
            name: arrival[scc] for name, scc in sorted(endpoints.items())}

        for in_name in network.inputs:
            if in_name in scc_of_port:
                scc = scc_of_port[in_name]
                timing.input_depth_ns[in_name] = (condensed_weight[scc]
                                                  + tail[scc])
        for out_name in network.outputs:
            if out_name in scc_of_port:
                timing.output_arrival_ns[out_name] = arrival[
                    scc_of_port[out_name]]

        if endpoints:
            end_scc = endpoints[max(endpoints,
                                    key=lambda n: arrival[endpoints[n]])]
            timing.worst_delay_ns = arrival[end_scc]
            timing.critical_path = self._backtrack(
                representative, condensed_weight, pred, entry_device,
                arrival, end_scc)
        return timing

    @staticmethod
    def _backtrack(representative, condensed_weight, pred, entry_device,
                   arrival, end_scc: int) -> TimingPath:
        chain: List[int] = [end_scc]
        while pred[chain[-1]] is not None:
            chain.append(pred[chain[-1]])
        chain.reverse()

        steps = [PathStep(None, representative[chain[0]],
                          condensed_weight[chain[0]])]
        at = condensed_weight[chain[0]]
        for previous, scc in zip(chain, chain[1:]):
            at += condensed_weight[scc]
            steps.append(PathStep(entry_device[(previous, scc)],
                                  representative[scc], at))
        return TimingPath(arrival[end_scc], steps)
