"""Layout-to-transistor-netlist extraction for the NMOS technology.

The extraction model mirrors how the layout generators construct devices:

* a transistor channel exists wherever poly crosses diffusion, unless the
  crossing is covered by the buried-contact layer (which instead connects
  the two layers ohmically);
* the channel is a depletion device if the implant layer covers it;
* diffusion is split by channels: the pieces on either side of a gate are
  distinct electrical nodes (source/drain);
* contact cuts connect every conducting layer present under them;
* labels give nodes their names; ``vdd`` and ``gnd`` labels identify the
  supplies.

All geometric neighbourhood questions (layer crossings, same-layer
connectivity, contact hits, channel terminals) are answered by the spatial
index (:mod:`repro.geometry.index`), so extraction cost scales with local
congestion rather than quadratically with total rectangle count.  The same
pipeline run on an all-pairs index is :class:`repro.reference.BruteExtractor`,
the oracle the golden-equivalence tests compare netlists against.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry.index import IndexFactory, UnionFind, build_index
from repro.obs import trace as obs_trace
from repro.runtime import gc_paused
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.netlist.switch_sim import SwitchNetwork
from repro.technology.technology import Technology
from repro.timing.parasitics import (
    Items,
    NetParasitics,
    ParasiticModel,
    annotate_parasitics,
    fold_wires,
    parasitic_columns,
    parasitics_of_columns,
)


class ExtractedCircuit:
    """The result of extraction: a switch network plus bookkeeping.

    ``parasitics`` holds the per-net RC estimates (wire/gate capacitance,
    lumped resistance) both extraction paths annotate for the timing
    analyzer.  Pickled, the circuit is arrays: the network's device columns
    and ports, and the parasitics as columns
    (:func:`repro.timing.parasitics.parasitic_columns`).  A loaded circuit
    keeps those columns until :attr:`parasitics` is first read, which
    builds the dict; one never read pickles back to the bytes it came from.
    """

    def __init__(self, cell_name: str, network: SwitchNetwork,
                 node_names: Optional[List[str]] = None,
                 transistor_count: int = 0, enhancement_count: int = 0,
                 depletion_count: int = 0,
                 parasitics: Optional[Dict[str, NetParasitics]] = None):
        self.cell_name = cell_name
        self.network = network
        self.node_names = [] if node_names is None else node_names
        self.transistor_count = transistor_count
        self.enhancement_count = enhancement_count
        self.depletion_count = depletion_count
        self._parasitics = {} if parasitics is None else parasitics
        self._columns: Optional[tuple] = None

    @property
    def parasitics(self) -> Dict[str, NetParasitics]:
        """Per-net :class:`NetParasitics`, keyed by net name; read-only."""
        if self._parasitics is None:
            with gc_paused():     # thousands of acyclic objects, all kept
                self._parasitics = parasitics_of_columns(*self._columns)
            self._columns = None
        return self._parasitics

    def weight(self) -> int:
        """Estimated pickled size in bytes (what a memory store charges).

        Class names and field keys take ~640 bytes; a device ~32, its 21
        bytes of columns and its name; a net ~48, its name, two references
        to it and its 32 bytes of parasitic columns.
        """
        nets = (len(self._columns[0]) if self._parasitics is None
                else len(self._parasitics))
        return 640 + 32 * self.transistor_count + 48 * nets

    def __getstate__(self):
        state = self.__dict__.copy()
        columns, parasitics = state.pop("_columns"), state.pop("_parasitics")
        state["parasitics"] = (columns if parasitics is None
                               else parasitic_columns(parasitics))
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._columns = self.__dict__.pop("parasitics")
        self._parasitics = None

    def summary(self) -> Dict[str, int]:
        return {
            "nodes": len(self.node_names),
            "transistors": self.transistor_count,
            "enhancement": self.enhancement_count,
            "depletion": self.depletion_count,
        }


class NodePartition:
    """The conducting items grouped into electrical nodes, with their wires.

    ``node_of[item]`` is an item's node; nodes are numbered by first
    occurrence in item order (diffusion pieces, then poly, then metal), so
    node ids are the order the finisher names nodes in.  ``wire_cap`` /
    ``wire_res`` hold each node's :func:`repro.timing.parasitics.fold_wires`
    sums, final: a net's sums are its nodes' added in node order
    (:func:`repro.timing.parasitics.annotate_parasitics`).  ``spliced``
    counts the nodes a hierarchical cell took whole from its replayed
    instances' partitions (:mod:`repro.extract.compose`).
    """

    __slots__ = ("node_of", "wire_cap", "wire_res", "spliced")

    def __init__(self, node_of: array, wire_cap: array, wire_res: array,
                 spliced: int = 0):
        self.node_of = node_of
        self.wire_cap = wire_cap
        self.wire_res = wire_res
        self.spliced = spliced

    @property
    def count(self) -> int:
        return len(self.wire_cap)

    def weight(self) -> int:
        """Pickled size in bytes: the three arrays' buffers."""
        return sum(values.itemsize * len(values) for values in
                   (self.node_of, self.wire_cap, self.wire_res))

    def __reduce__(self):
        return (NodePartition, (self.node_of, self.wire_cap, self.wire_res,
                                self.spliced))


class Extractor:
    """Extract transistor netlists from NMOS layout."""

    #: Builds the spatial index every neighbourhood question goes through.
    index: IndexFactory = staticmethod(build_index)

    def __init__(self, technology: Technology):
        self.technology = technology
        self._diffusion_layers = [
            name for name in ("diffusion", "active") if technology.has_layer(name)
        ]

    # -- main entry point ------------------------------------------------------------

    def extract(self, cell: Cell) -> ExtractedCircuit:
        with gc_paused(), obs_trace.span("extract.extract", cat="extract",
                                         cell=cell.name) as span:
            circuit = self._extract(cell)
            span.set(transistors=circuit.transistor_count)
            return circuit

    def _extract(self, cell: Cell) -> ExtractedCircuit:
        index = self.index
        flat = flatten_cell(cell)
        rects = flat.rects_by_layer()
        diffusion = [r for layer in self._diffusion_layers for r in rects.get(layer, [])]
        poly = rects.get("poly", [])
        metal = rects.get("metal", [])
        contacts = rects.get("contact", [])
        buried = rects.get("buried", [])
        implant = rects.get("implant", [])

        # 1. Find channels: poly x diffusion crossings not covered by buried.
        diffusion_index = index(diffusion)
        buried_index = index(buried)
        channels: List[Rect] = []
        for poly_rect in poly:
            for _, overlap in diffusion_crossings(
                    poly_rect, diffusion, diffusion_index.query(poly_rect, strict=True)):
                if covers(overlap, buried, buried_index.query(overlap)):
                    continue
                channels.append(overlap)
        channels = _dedupe(channels)

        # 2. Split diffusion by the channels that actually cross each piece.
        channel_index = index(channels)
        diffusion_pieces: List[Rect] = []
        for diff_rect in diffusion:
            crossing = [channels[i] for i in channel_index.query(diff_rect, strict=True)]
            diffusion_pieces.extend(split_by_channels(diff_rect, crossing))

        # 3. Build electrical nodes over diffusion pieces, poly and metal:
        # one union-find and one index over all conducting items.
        conducting = diffusion_pieces + poly + metal
        poly_start = len(diffusion_pieces)
        metal_start = poly_start + len(poly)
        finder = UnionFind(len(conducting))
        for base, layer_rects in ((0, diffusion_pieces), (poly_start, poly),
                                  (metal_start, metal)):
            for component in index(layer_rects).connected_components():
                union_chain(finder, component, base)
        conducting_index = index(conducting)
        # Contacts join every conducting layer they touch.
        for cut in contacts:
            union_chain(finder, conducting_index.query(cut))
        # Buried contacts join poly and diffusion directly.
        for buried_rect in buried:
            union_chain(finder, [item_id for item_id in
                                 conducting_index.query(buried_rect, strict=True)
                                 if item_id < metal_start])
        nodes = partition_nodes(finder, ParasiticModel(self.technology),
                                [("diffusion", diffusion_pieces),
                                 ("poly", poly), ("metal", metal)])

        # 4. Resolve each label to the items whose geometry contains its
        # position via a point query.
        label_hits = [label_item_hits(label, conducting_index.query(label_probe(label)),
                                      poly_start, metal_start, self._diffusion_layers)
                      for label in flat.labels]

        # 5. Per channel: gate, terminals, implant cover.  Lookups run on
        # per-layer indexes whose ids are the finisher's poly / piece ids.
        poly_index = index(poly)
        diff_piece_index = index(diffusion_pieces)
        implant_index = index(implant)
        devices = (
            (gate_item(poly, poly_index.query(channel), channel),
             adjacent_piece_ids(diffusion_pieces, diff_piece_index.query(channel),
                                channel),
             covers(channel, implant, implant_index.query(channel)))
            for channel in channels)
        return finish_circuit(self.technology, cell, flat.labels, label_hits,
                              nodes, poly_start, channels, devices)


def extract_cell(cell: Cell, technology: Technology) -> ExtractedCircuit:
    """Convenience wrapper: extract one cell."""
    return Extractor(technology).extract(cell)


# -- shared stages ------------------------------------------------------------------------
#
# The extraction pipeline is decomposed into per-element stage functions and
# one circuit finisher so the flat extractor above and the hierarchical
# composer (:mod:`repro.extract.compose`) run exactly the same
# geometry-to-netlist semantics; the composer merely caches and replays the
# per-element results per unique cell.  A per-element stage takes the
# candidate ids a spatial query returned rather than an index: the flat path
# queries one index per layer, the composer its per-source blocks, and both
# apply the same rule to the candidates.


def diffusion_crossings(poly_rect: Rect, diffusion: Sequence[Rect],
                        candidates: Iterable[int]) -> List[Tuple[int, Rect]]:
    """Non-degenerate poly x diffusion overlaps, in candidate (ascending) order."""
    crossings: List[Tuple[int, Rect]] = []
    for diff_id in candidates:
        overlap = poly_rect.intersection(diffusion[diff_id])
        if overlap is None or overlap.is_degenerate:
            continue
        crossings.append((diff_id, overlap))
    return crossings


def covers(region: Rect, rects: Sequence[Rect], candidates: Iterable[int]) -> bool:
    """True if one candidate rect contains ``region``: a buried contact over a
    crossing (ohmic, not a channel), an implant over a channel (depletion)."""
    return any(rects[i].contains_rect(region) for i in candidates)


def split_by_channels(diff_rect: Rect, channels: Sequence[Rect]) -> List[Rect]:
    """Split one diffusion rectangle by its crossing channels, in order."""
    pieces = [diff_rect]
    for channel in channels:
        next_pieces: List[Rect] = []
        for piece in pieces:
            next_pieces.extend(piece.subtract(channel))
        pieces = next_pieces
    return pieces


def gate_item(poly: Sequence[Rect], candidates: Iterable[int],
              region: Rect) -> Optional[int]:
    """Id of the first candidate poly rectangle (ascending) overlapping the channel."""
    for poly_id in candidates:
        rect = poly[poly_id]
        if rect.contains_rect(region) or rect.overlaps(region, strict=True):
            return poly_id
    return None


def adjacent_piece_ids(pieces: Sequence[Rect], candidates: Iterable[int],
                       channel: Rect) -> List[int]:
    """Ids of candidate diffusion pieces abutting (not overlapping) the channel."""
    return [piece_id for piece_id in candidates
            if not pieces[piece_id].overlaps(channel, strict=True)]


def label_probe(label) -> Rect:
    """The degenerate rect a label's point query runs with."""
    position = label.position
    return Rect(position.x, position.y, position.x, position.y)


def label_item_hits(label, candidates: Iterable[int], poly_start: int,
                    metal_start: int, diffusion_layers: Sequence[str]) -> List[int]:
    """Candidate conducting items a label lands on, after the layer filter.

    Item ids follow the conducting enumeration: diffusion pieces, then poly
    from ``poly_start``, then metal from ``metal_start``.
    """
    layer = label.layer
    hits: List[int] = []
    for item_id in candidates:
        member_layer = ("diffusion" if item_id < poly_start else
                        "poly" if item_id < metal_start else "metal")
        if layer and layer != member_layer and not (
            layer in diffusion_layers and member_layer == "diffusion"
        ):
            continue
        hits.append(item_id)
    return hits


def apply_label(label, hit_item_ids: Sequence[int], node_of: Sequence[int],
                supply_hit: Dict[int, str], first_hit: Dict[int, str]) -> None:
    """Fold one label into the naming precedence maps (keyed by node).

    A node takes the first non-supply label that hits it, except that the
    first supply label (vdd/gnd) always wins.
    """
    lowered = label.text.lower()
    is_supply = lowered in ("vdd", "gnd")
    for item_id in hit_item_ids:
        node = node_of[item_id]
        if is_supply:
            supply_hit.setdefault(node, lowered)
        else:
            first_hit.setdefault(node, label.text)


def resolve_node_names(node_count: int, supply_hit: Dict[int, str],
                       first_hit: Dict[int, str]) -> List[str]:
    """Every node's name, by node id: label-derived, or a fresh ``n<k>``
    counted over the unlabelled nodes in id (first-occurrence) order."""
    labelled = {**first_hit, **supply_hit}
    names: List[str] = []
    counter = 0
    for node in range(node_count):
        name = labelled.get(node)
        if name is None:
            name = f"n{counter}"
            counter += 1
        names.append(name)
    return names


def declare_ports(network: SwitchNetwork, declared: Dict[str, object],
                  named_nodes: Set[str], labels: Sequence[object]) -> None:
    """Declare inputs/outputs from the top cell's ports and labels.

    Declared port directions win (an input is clamped during simulation, an
    output is observed); labels without a declared direction become
    observable nodes only.
    """
    for port_name, port in declared.items():
        if port_name not in named_nodes or port_name.lower() in ("vdd", "gnd"):
            continue
        if port.direction == "input":
            network.add_input(port_name)
        elif port.direction == "output":
            network.add_output(port_name)
        elif port.direction == "supply":
            continue
        else:
            network.add_input(port_name)
            network.add_output(port_name)
    for label in labels:
        name = label.text
        if name.lower() in ("vdd", "gnd") or name in declared:
            continue
        if name in named_nodes and name not in network.outputs:
            network.add_output(name)


def union_chain(finder: UnionFind, ids: Sequence[int], base: int = 0) -> None:
    """Union consecutive members of ``ids`` (offset by ``base``) into one set."""
    for first, second in zip(ids, ids[1:]):
        finder.union(base + first, base + second)


def partition_nodes(finder: UnionFind, model: ParasiticModel,
                    items: Items) -> NodePartition:
    """The partition ``finder`` makes of ``items``, as a :class:`NodePartition`:
    one ``find`` per item, in item order, numbers the nodes by first
    occurrence; the wire terms fold per node in the same order."""
    find = finder.find
    node_of_root: Dict[int, int] = {}
    node_of = array("i")
    for item in range(sum(len(rects) for _layer, rects in items)):
        root = find(item)
        node = node_of_root.get(root)
        if node is None:
            node = node_of_root[root] = len(node_of_root)
        node_of.append(node)
    return NodePartition(node_of, *fold_wires(model, items, node_of,
                                              len(node_of_root)))


def finish_circuit(technology: Technology, cell: Cell, labels: Sequence[object],
                   label_hits: Iterable[Sequence[int]], nodes: NodePartition,
                   poly_start: int, channels: Iterable[Rect],
                   devices: Iterable[Tuple[Optional[int], Sequence[int], bool]]
                   ) -> ExtractedCircuit:
    """Node naming, device emission into the network's columns, ports and
    parasitics: the circuit.

    ``nodes`` partitions the conducting items (diffusion pieces, then poly
    from ``poly_start``, then metal) into electrical nodes, with their wire
    sums; ``label_hits`` runs parallel to ``labels`` and ``devices`` —
    ``(gate poly id, terminal piece ids, is depletion)`` — parallel to
    ``channels``.  Channel rectangles are read for their size only, so any
    frame will do.  A node takes the first label that hits it, except that
    the first supply label (vdd/gnd) to hit always wins; the anonymous
    names (``n0``, ``n1``, ...) and device names follow the whole design's
    node and channel enumeration, which is why this stage runs on the
    analysed cell as a whole in both extraction paths.  A net whose name
    several nodes carry adds their wire sums in node order
    (:func:`annotate_parasitics`).
    """
    node_of = nodes.node_of
    first_hit: Dict[int, str] = {}
    supply_hit: Dict[int, str] = {}
    for label, hits in zip(labels, label_hits):
        apply_label(label, hits, node_of, supply_hit, first_hit)
    names = resolve_node_names(nodes.count, supply_hit, first_hit)

    # Devices go straight into the network's columns.  A channel with no
    # gate or no terminal emits nothing; the source is the first terminal's
    # net and the drain the first other net (the source again if none).
    network = SwitchNetwork(cell.name)
    net_of = network.intern(names)          # per node: its net's name id
    gates, sources, drains, sizes, device_names = [], [], [], [], []
    depletion = bytearray()
    device_channels: List[Rect] = []
    for index, (channel, (gate_id, terminal_ids, is_depletion)) in enumerate(
            zip(channels, devices)):
        if gate_id is None or not terminal_ids:
            continue
        source = drain = net_of[node_of[terminal_ids[0]]]
        for item in terminal_ids:
            drain = net_of[node_of[item]]
            if drain != source:
                break
        gates.append(net_of[node_of[poly_start + gate_id]])
        sources.append(source)
        drains.append(drain)
        depletion.append(is_depletion)
        sizes.append(max(2, min(channel.width, channel.height)))
        device_names.append(f"m{index}")
        device_channels.append(channel)
    network.extend(gates, sources, drains, depletion, sizes, sizes,
                   device_names)

    named = set(names)
    declare_ports(network, cell.ports, named, labels)
    model = ParasiticModel(technology)
    depletion_count = sum(depletion)
    return ExtractedCircuit(
        cell_name=cell.name,
        network=network,
        node_names=sorted(named),
        transistor_count=len(gates),
        enhancement_count=len(gates) - depletion_count,
        depletion_count=depletion_count,
        parasitics=annotate_parasitics(
            model, net_of, nodes.wire_cap, nodes.wire_res, network,
            device_channels),
    )


# -- helpers ------------------------------------------------------------------------------


def _dedupe(rects: Sequence[Rect]) -> List[Rect]:
    seen: Set[Rect] = set()
    result: List[Rect] = []
    for rect in rects:
        if rect not in seen:
            seen.add(rect)
            result.append(rect)
    return result
