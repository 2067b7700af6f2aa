"""The switch-level lowering: one node numbering, one partition, one SCC.

Three layers:

* **properties** — :func:`strongly_connected` is the mutual-reachability
  partition of a random digraph, numbered sinks-first;
  :meth:`LoweredSwitchNetwork.channel_groups` is the name-keyed union-find
  partition of a random network under each of the four cut / conduct
  settings ERC and switch timing use; a network's device columns survive a
  pickle, and their lowering equals the name-keyed numbering walk over the
  :class:`Transistor` view, before the pickle and after.
* **prove it ran** — a sign-off lowers each analysed circuit once, ERC and
  timing sharing the result, and the lowering never reaches a pickle; it
  builds no :class:`Transistor` object; the switch-level simulator settles
  the same circuit on that same lowering.
* **golden** — ``tests/golden/switch_signoff.json`` holds every
  ``ErcReport.violations`` entry (order included) and every ``BlockTiming``
  field of the four example chips and the tile array, written at the commit
  *before* ERC and switch timing moved onto the shared lowering; equality
  here is the proof that the move changed no byte and no float.
"""

import dataclasses
import json
import os
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HierAnalyzer
from repro.cells import NandCell
from repro.erc import ErcChecker
from repro.extract.extractor import ExtractedCircuit
from repro.netlist import switch_sim
from repro.netlist.switch_lowering import lower_switch, strongly_connected
from repro.netlist.switch_sim import (
    GND,
    VDD,
    SwitchLevelSimulator,
    SwitchNetwork,
    TransistorKind,
)
from repro.obs import trace
from repro.technology import nmos_technology
from repro.timing import NetParasitics, SwitchTimingAnalyzer

from test_pnr import signed_off_chips, technology  # noqa: F401  (fixtures)
from tile_array import TileArray

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "switch_signoff.json")
UPDATE_GOLDENS = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


# -- properties ---------------------------------------------------------------


@st.composite
def digraphs(draw):
    count = draw(st.integers(1, 9))
    return [draw(st.lists(st.integers(0, count - 1), max_size=4))
            for _ in range(count)]


def reachable(successors, start):
    seen, frontier = {start}, [start]
    while frontier:
        for target in successors[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


@settings(max_examples=200, deadline=None)
@given(successors=digraphs())
def test_scc_is_the_mutual_reachability_partition(successors):
    comp_of, comps = strongly_connected(successors)
    reach = [reachable(successors, node) for node in range(len(successors))]
    for node, component in enumerate(comp_of):
        assert comps[component] == [other for other in range(len(successors))
                                    if other in reach[node]
                                    and node in reach[other]]
        # Completion order: every arc stays inside a component or points at
        # one numbered earlier.
        assert all(comp_of[target] <= component for target in successors[node])


NODES = [VDD, GND, "a", "b", "c", "d", "e", "f"]
#: Names no device is drawn on: ports that touch nothing.
PORT_ONLY = ["lone", "spare"]


@st.composite
def switch_networks(draw):
    """Few names, so nodes repeat across devices and source often equals
    drain; device names are drawn too, repeats and all, or left to the
    network's ``m<k>``."""
    network = SwitchNetwork("random")
    for _ in range(draw(st.integers(0, 12))):
        gate, source, drain = (draw(st.sampled_from(NODES)) for _ in range(3))
        network.add_transistor(gate, source, drain,
                               draw(st.sampled_from(list(TransistorKind))),
                               width=draw(st.integers(2, 9)),
                               length=draw(st.integers(2, 9)),
                               name=draw(st.none() | st.sampled_from(
                                   ["pu", "pd", "m0", "m3"])))
    ports = st.sampled_from(NODES[2:] + PORT_ONLY)
    for port in draw(st.lists(ports, max_size=3)):
        network.add_input(port)
    for port in draw(st.lists(ports, max_size=3)):
        network.add_output(port)
    return network


def name_keyed_groups(network, cut, conducts):
    """The reference partition: a dict union-find over node names, in the
    style of ``repro.reference.switch_sim.conducting_groups``."""
    parent = {node: node for node in network.nodes() if node not in cut}

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for number, device in enumerate(network.transistors):
        if ((conducts is None or conducts[number])
                and device.source in parent and device.drain in parent):
            parent[find(device.source)] = find(device.drain)
    groups = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return sorted(sorted(group) for group in groups.values())


@settings(max_examples=200, deadline=None)
@given(network=switch_networks())
def test_channel_groups_equal_the_name_keyed_partition(network):
    lowered = lower_switch(network)
    assert set(lowered.names) == network.nodes()
    assert [lowered.names[i] for i in lowered.gate] == [
        device.gate for device in network.transistors]
    always_on = [device.kind is TransistorKind.DEPLETION or device.gate == VDD
                 for device in network.transistors]
    for cut, conducts in (
            (set(), None),                                   # ERC live set
            (set(), always_on),                              # ERC002
            ({VDD, GND} | set(network.inputs), None),        # ERC004
            ({VDD, GND}, None)):                             # timing CCCs
        group = lowered.channel_groups(
            cut={lowered.index[name] for name in cut}, conducts=conducts)
        produced = {}
        for node, root in enumerate(group):
            assert (root == -1) == (lowered.names[node] in cut)
            if root != -1:
                produced.setdefault(root, []).append(lowered.names[node])
        assert sorted(sorted(g) for g in produced.values()) == \
            name_keyed_groups(network, cut, conducts)


LOWERED_FIELDS = ("names", "index", "channel_nodes", "device_nodes", "gate",
                  "source", "drain", "depletion", "width", "length",
                  "device_names", "vdd", "gnd")


def name_keyed_numbering(network):
    """The reference lowering: one walk over the :class:`Transistor` view,
    numbering names by first appearance — sources and drains in device order,
    then gates, then ports and supplies."""
    devices = network.transistors
    index = {}
    source, drain = [], []
    for device in devices:
        source.append(index.setdefault(device.source, len(index)))
        drain.append(index.setdefault(device.drain, len(index)))
    channel_nodes = len(index)
    gate = [index.setdefault(device.gate, len(index)) for device in devices]
    device_nodes = len(index)
    for name in (*network.inputs, *network.outputs, VDD, GND):
        index.setdefault(name, len(index))
    return {"names": list(index), "index": index,
            "channel_nodes": channel_nodes, "device_nodes": device_nodes,
            "gate": gate, "source": source, "drain": drain,
            "depletion": [device.kind is TransistorKind.DEPLETION
                          for device in devices],
            "width": [device.width for device in devices],
            "length": [device.length for device in devices],
            "device_names": [device.name for device in devices],
            "vdd": index[VDD], "gnd": index[GND]}


def lowered_fields(network):
    """The lowering's fields, its array columns read as lists."""
    lowered = lower_switch(network)
    return {field: (list(value) if field in ("width", "length") else value)
            for field in LOWERED_FIELDS
            for value in (getattr(lowered, field),)}


TECHNOLOGY = nmos_technology()


def switch_sign_off(circuit):
    """ERC and switch timing of a circuit, as comparable values."""
    return (ErcChecker().check_circuit(circuit),
            dataclasses.asdict(SwitchTimingAnalyzer(TECHNOLOGY).analyze(circuit)))


@settings(max_examples=200, deadline=None)
@given(network=switch_networks())
def test_columns_survive_a_pickle_and_lower_as_the_name_keyed_walk(network):
    circuit = ExtractedCircuit("random", network, parasitics={
        name: NetParasitics(name, wire_cap_ff=3.0 + len(name), wire_res_ohm=2.5)
        for name in sorted(network.nodes())})
    original = switch_sign_off(circuit)
    assert lowered_fields(network) == name_keyed_numbering(network)
    blob = pickle.dumps(circuit, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"LoweredSwitchNetwork" not in blob and b"Transistor" not in blob
    copy = pickle.loads(blob)
    assert copy.parasitics == circuit.parasitics
    assert list(copy.parasitics) == list(circuit.parasitics)
    assert copy.network.transistors == network.transistors
    assert (copy.network.inputs, copy.network.outputs) == (network.inputs,
                                                            network.outputs)
    assert copy.network.nodes() == network.nodes()
    assert lowered_fields(copy.network) == name_keyed_numbering(copy.network)
    assert lowered_fields(copy.network) == lowered_fields(network)
    assert switch_sign_off(copy) == original


# -- prove it ran: one lowering per analysed circuit, none in a pickle --------

#: ``len(pickle.dumps(circuit))`` of the tile array's top, its devices and
#: parasitics held as columns.
TILE_CIRCUIT_PICKLE_BYTES = 44466


def test_sign_off_lowers_each_circuit_once_and_pickles_none(technology):
    tiles = TileArray(technology, "lowering_tiles")
    analyzer = HierAnalyzer(technology)
    trace.reset()
    trace.enable()
    try:
        tiles.sign_off(analyzer)
    finally:
        trace.disable()
    events = trace.drain()
    lowerings = [event["args"]["network"] for event in events
                 if event["name"] == "netlist.lower_switch"]
    # ERC and timing each analysed the top, the ROM and the PLA: six
    # analyses, three lowerings.
    assert analyzer.stats["erc_artifacts"] == 3
    assert analyzer.stats["timing_artifacts"] == 3
    assert sorted(lowerings) == sorted(
        cell.name for cell in (tiles.top, tiles.rom,
                               tiles.top.instances[-1].cell))
    circuit = analyzer.extract(tiles.top)
    assert lower_switch(circuit.network) is lower_switch(circuit.network)
    assert len(pickle.dumps(circuit, protocol=pickle.HIGHEST_PROTOCOL)) == \
        TILE_CIRCUIT_PICKLE_BYTES


def test_a_cold_sign_off_builds_no_transistor_objects(technology,
                                                     monkeypatch):
    built = []

    def counting(*fields):
        built.append(fields[0])
        return Transistor(*fields)

    Transistor = switch_sim.Transistor
    monkeypatch.setattr(switch_sim, "Transistor", counting)
    tiles = TileArray(technology, "columns_tiles")
    analyzer = HierAnalyzer(technology)
    top = tiles.top
    analyzer.drc(top)
    circuit = analyzer.extract(top)
    analyzer.measure(top)
    analyzer.timing(top)
    analyzer.erc(top)
    assert built == []
    # The view is made on demand, once, and nowhere else.
    assert circuit.network.transistors is circuit.network.transistors
    assert len(built) == circuit.transistor_count > 0


def test_erc_timing_and_simulation_share_one_lowering(technology):
    """One partition at the switch level: the simulator's groups are the
    timing analyzer's CCCs restricted to what conducts."""
    cell = NandCell(technology, inputs=2).cell()
    analyzer = HierAnalyzer(technology)
    trace.reset()
    trace.enable()
    try:
        assert analyzer.erc(cell).clean
        assert analyzer.timing(cell).restoring_stages == 1
        network = analyzer.extract(cell).network
        for a in (0, 1):
            for b in (0, 1):
                assert SwitchLevelSimulator(network).evaluate(
                    {"in0": a, "in1": b}) == {"out": 1 - (a & b)}
    finally:
        trace.disable()
    lowerings = [event for event in trace.drain()
                 if event["name"] == "netlist.lower_switch"]
    assert len(lowerings) == 1
    assert lowerings[0]["args"]["devices"] == len(network.transistors)


def test_a_grown_network_is_lowered_again():
    network = SwitchNetwork("grows")
    network.add_transistor("a", "out", GND)
    first = lower_switch(network)
    network.add_transistor("b", "out", VDD, TransistorKind.DEPLETION)
    assert lower_switch(network) is not first
    assert len(lower_switch(network).gate) == 2


def test_a_simulator_follows_its_network_as_it_grows():
    network = SwitchNetwork("grows")
    network.add_input("a")
    network.add_output("out")
    network.add_transistor("a", "out", GND)
    sim = SwitchLevelSimulator(network)
    assert sim.evaluate({"a": 0}) == {"out": None}      # nothing pulls up yet
    network.add_transistor("out", "out", VDD, TransistorKind.DEPLETION)
    network.add_transistor("out", "late", GND)          # a node born later
    network.add_transistor("late", "late", VDD, TransistorKind.DEPLETION)
    assert sim.evaluate({"a": 0}) == {"out": 1}
    assert sim.node_value("late") == 0
    assert sim.evaluate({"a": 1}) == {"out": 0}
    assert sim.node_value("late") == 1


# -- golden: ERC reports and switch timing of whole chips ---------------------


def erc_record(report):
    return [[v.code, v.severity.name, v.message, list(v.nodes),
             list(v.devices)] for v in report.violations]


def sign_off_record(report):
    """JSON-ready ERC and timing (chip row, then every block row)."""
    rows = [("chip", report.timing.chip)] + list(report.timing.blocks)
    return {"erc": erc_record(report.erc),
            "timing": {name: dataclasses.asdict(timing)
                       for name, timing in rows}}


def latch_bank():
    """Feedback loops declared so that name order, device order and the order
    in which channel groups merge all differ: the chips above carry no
    ``ERC004`` *cycle* entry and few timing ties, this circuit is made of both.
    """
    network = SwitchNetwork("latch_bank")

    def inverter(input_node, output_node):
        network.add_transistor(output_node, output_node, "vdd",
                               TransistorKind.DEPLETION,
                               name=f"pu_{output_node}")
        network.add_transistor(input_node, output_node, "gnd",
                               name=f"pd_{output_node}")

    for q, q_bar in (("q2", "p2"), ("a_q", "z_q"), ("m", "k")):
        inverter(q, q_bar)
        inverter(q_bar, q)
    for stage in range(3):                      # a three-inverter ring
        inverter(f"ring{stage}", f"ring{(stage + 1) % 3}")
    # Pass devices that merge two latches' channel groups after both exist.
    network.add_transistor("en", "k", "t0", name="pass0")
    network.add_transistor("en", "a_q", "t0", name="pass1")
    inverter("q2", "tap")                       # a plain fan-out stage
    inverter("tap", "out")
    network.add_input("en")
    network.add_output("out")
    network.add_output("ring0")
    parasitics = {name: NetParasitics(name, wire_cap_ff=40.0,
                                      wire_res_ohm=25.0, gate_cap_ff=11.2)
                  for name in sorted(network.nodes())}
    parasitics["out"].wire_cap_ff = 90.0
    for isolated in ("n_island", "a_island"):   # wires that touch no device
        parasitics[isolated] = NetParasitics(isolated, wire_cap_ff=12.0,
                                             wire_res_ohm=3.0)
    return ExtractedCircuit("latch_bank", network, parasitics=parasitics)


def test_erc_and_timing_match_the_pre_lowering_golden(signed_off_chips,
                                                      technology):
    produced = {name: sign_off_record(report)
                for name, (_assembler, report) in signed_off_chips.items()}
    tiles = TileArray(technology, "lowering_tiles")
    analyzer = HierAnalyzer(technology)
    produced["tiles"] = {
        "erc": erc_record(analyzer.erc(tiles.top)),
        "timing": {"chip": dataclasses.asdict(analyzer.timing(tiles.top))}}
    bank = latch_bank()
    produced["latch_bank"] = {
        "erc": erc_record(ErcChecker().check_circuit(bank)),
        "timing": {"chip": dataclasses.asdict(
            SwitchTimingAnalyzer(technology).analyze(bank))}}
    # Through JSON and back: tuples become lists, floats survive exactly.
    produced = json.loads(json.dumps(produced))
    if UPDATE_GOLDENS:
        with open(GOLDEN, "w") as handle:
            json.dump(produced, handle, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN) as handle:
        assert produced == json.load(handle)
