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
from itertools import chain
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.geometry.index import (IndexFactory, SpatialIndex, UnionFind,
                                  build_index, layer_indexes)
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

    # -- main entry point ------------------------------------------------------------

    def extract(self, cell: Cell) -> ExtractedCircuit:
        with gc_paused(), obs_trace.span("extract.extract", cat="extract",
                                         cell=cell.name) as span:
            circuit = self._extract(cell)
            span.set(transistors=circuit.transistor_count)
            return circuit

    def _extract(self, cell: Cell) -> ExtractedCircuit:
        flat = flatten_cell(cell)
        rects = flat.rects_by_layer()
        layer_index = layer_indexes(rects, self.index)

        def layer_components(layer: str) -> List[List[int]]:
            # The flat view's layer merge, shared with DRC and the mask
            # area, partitions the rects with area; a flat view holds no
            # other (a shape's rects all have area), so its ids are the
            # layer's.
            merge = flat.layer_merge(layer, self.index)
            assert len(merge.inputs) == len(rects.get(layer, ()))
            return merge.components

        stages = run_stages(self.technology, rects, flat.labels, layer_index,
                            layer_components, self.index)
        return finish_circuit(self.technology, cell, flat.labels,
                              stages.label_hits, stages.nodes,
                              len(stages.pieces), stages.channels,
                              zip(stages.gates, stages.terminals,
                                  stages.depletion))


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


# -- the stage loops over rect lists ------------------------------------------
#
# Each stage's loop runs over plain rect lists and returns its output by id,
# ids being positions in those lists.  :class:`Extractor` runs them on the
# flattened layout; :func:`repro.extract.compose.compose_extract` runs them
# on the one-source view of a leaf or collapsed cell and keeps the ids.


def diffusion_layers(technology: Technology) -> List[str]:
    """The layers whose rects form the diffusion list, in list order."""
    return [name for name in ("diffusion", "active") if technology.has_layer(name)]


def find_channels(poly: Sequence[Rect], diffusion: Sequence[Rect],
                  diffusion_index: SpatialIndex, buried: Sequence[Rect],
                  buried_index: SpatialIndex
                  ) -> Tuple[List[Rect], List[List[Tuple[int, bool]]],
                             List[List[int]]]:
    """Channels: the poly x diffusion crossings not covered by buried.

    Returns the distinct channels in first-occurrence order and, per poly
    rect, its crossings ``(diffusion id, buried-covered)`` in ascending
    diffusion order and the channel id of each (-1 where covered).
    """
    channels: List[Rect] = []
    seen: Dict[Rect, int] = {}
    crossings: List[List[Tuple[int, bool]]] = []
    chan_of_poly: List[List[int]] = []
    for poly_rect in poly:
        row: List[Tuple[int, bool]] = []
        channel_ids: List[int] = []
        for diff_id, overlap in diffusion_crossings(
                poly_rect, diffusion, diffusion_index.query(poly_rect, strict=True)):
            covered = covers(overlap, buried, buried_index.query(overlap))
            row.append((diff_id, covered))
            if covered:
                channel_ids.append(-1)
                continue
            channel_id = seen.get(overlap)
            if channel_id is None:
                channel_id = seen[overlap] = len(channels)
                channels.append(overlap)
            channel_ids.append(channel_id)
        crossings.append(row)
        chan_of_poly.append(channel_ids)
    return channels, crossings, chan_of_poly


def split_diffusion(diffusion: Sequence[Rect], channels: Sequence[Rect],
                    channel_index: SpatialIndex
                    ) -> Tuple[List[Rect], List[Tuple[int, int]], List[List[int]]]:
    """Every diffusion rect split by the channels crossing it.

    Returns the pieces in diffusion order and, per diffusion rect, its
    pieces' ``(start, length)`` and the ids of its crossing channels.
    """
    pieces: List[Rect] = []
    piece_slices: List[Tuple[int, int]] = []
    chan_x_diff: List[List[int]] = []
    for diff_rect in diffusion:
        crossing = channel_index.query(diff_rect, strict=True)
        start = len(pieces)
        pieces.extend(split_by_channels(diff_rect,
                                        [channels[i] for i in crossing]))
        piece_slices.append((start, len(pieces) - start))
        chan_x_diff.append(crossing)
    return pieces, piece_slices, chan_x_diff


def touching_pairs(rects: Sequence[Rect], index: SpatialIndex
                   ) -> List[Tuple[int, int]]:
    """Every touching pair ``(i, j)`` of ``rects``, ``i < j``, ascending
    (how diffusion pieces connect)."""
    pairs: List[Tuple[int, int]] = []
    for first, rect in enumerate(rects):
        pairs.extend([(first, second) for second in index.query(rect)
                      if second > first])
    return pairs


def item_touches(pieces: List[Rect], poly: List[Rect], metal: List[Rect],
                 contacts: Sequence[Rect], buried: Sequence[Rect],
                 labels: Sequence[object], layers: Sequence[str],
                 index: IndexFactory
                 ) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Per contact cut the items it touches (every conducting layer), per
    buried strap those it overlaps (poly and diffusion only), per label
    those containing its position, after the layer filter.

    Items are the diffusion pieces, then poly, then metal.
    """
    poly_start = len(pieces)
    metal_start = poly_start + len(poly)
    query = index(pieces + poly + metal).query
    contact_touch = [query(cut) for cut in contacts]
    buried_touch = [[item for item in query(strap, strict=True)
                     if item < metal_start] for strap in buried]
    label_hits = [label_item_hits(label, query(label_probe(label)),
                                  poly_start, metal_start, layers)
                  for label in labels]
    return contact_touch, buried_touch, label_hits


class StageOutputs:
    """What the extraction stages derive from one flat geometry, by id.

    Items (the conducting elements nodes are made of) are the diffusion
    ``pieces``, then the poly rects, then the metal rects.  ``piece_edges``,
    ``poly_comps`` / ``metal_comps`` (ids into their layer) and the
    ``contact_touch`` / ``buried_touch`` rows (item ids) are every join the
    node partition ``nodes`` is made of; ``gates`` (poly ids), ``terminals``
    (piece ids) and ``depletion`` run parallel to ``channels``.
    """

    __slots__ = ("channels", "crossings", "chan_of_poly", "pieces",
                 "piece_slices", "chan_x_diff", "piece_edges", "poly_comps",
                 "metal_comps", "contact_touch", "buried_touch", "label_hits",
                 "gates", "terminals", "depletion", "nodes")


def run_stages(technology: Technology, rects: Dict[str, List[Rect]],
               labels: Sequence[object],
               layer_index: Callable[[str], SpatialIndex],
               layer_components: Callable[[str], List[List[int]]],
               index: IndexFactory) -> StageOutputs:
    """Every extraction stage on one flat geometry, before node naming.

    ``layer_index(layer)`` indexes ``rects[layer]`` (an absent layer is an
    empty list) and ``layer_components(layer)`` is that index's
    ``connected_components()``, or a partition equal to it; ``index``
    builds every other index.
    """
    out = StageOutputs()
    layers = diffusion_layers(technology)
    diffusion = [r for layer in layers for r in rects.get(layer, [])]
    poly = rects.get("poly", [])
    metal = rects.get("metal", [])
    buried = rects.get("buried", [])
    implant = rects.get("implant", [])

    out.channels, out.crossings, out.chan_of_poly = find_channels(
        poly, diffusion,
        layer_index(layers[0]) if len(layers) == 1 else index(diffusion),
        buried, layer_index("buried"))
    channels = out.channels
    out.pieces, out.piece_slices, out.chan_x_diff = split_diffusion(
        diffusion, channels, index(channels))
    pieces = out.pieces
    piece_index = index(pieces)
    # Same-layer connectivity: touching pieces, poly and metal components.
    out.piece_edges = touching_pairs(pieces, piece_index)
    out.poly_comps = layer_components("poly")
    out.metal_comps = layer_components("metal")
    out.contact_touch, out.buried_touch, out.label_hits = item_touches(
        pieces, poly, metal, rects.get("contact", []), buried, labels, layers,
        index)

    # Per channel: gate, terminals, implant cover.
    poly_index, implant_index = layer_index("poly"), layer_index("implant")
    out.gates = [gate_item(poly, poly_index.query(channel), channel)
                 for channel in channels]
    out.terminals = [adjacent_piece_ids(pieces, piece_index.query(channel),
                                        channel)
                     for channel in channels]
    out.depletion = [covers(channel, implant, implant_index.query(channel))
                     for channel in channels]

    # The node partition: one union-find over the items, every join.
    poly_start = len(pieces)
    metal_start = poly_start + len(poly)
    finder = UnionFind(metal_start + len(metal))
    union = finder.union
    for first, second in out.piece_edges:
        union(first, second)
    for base, components in ((poly_start, out.poly_comps),
                             (metal_start, out.metal_comps)):
        for component in components:
            union_chain(finder, component, base)
    for touching in chain(out.contact_touch, out.buried_touch):
        union_chain(finder, touching)
    out.nodes = partition_nodes(finder, ParasiticModel(technology),
                                [("diffusion", pieces), ("poly", poly),
                                 ("metal", metal)])
    return out


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
