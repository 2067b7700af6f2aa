"""Parasitic RC annotation of extracted netlists.

The extractor (:mod:`repro.extract`) knows, for every electrical node, the
conducting rectangles that form it and the transistor channels that load
it.  This module turns that geometry into the per-net electrical estimates
static timing needs:

* **wire capacitance** — layer area capacitance (fF per square lambda)
  over each member rectangle, plus a perimeter fringe term;
* **wire resistance** — the layer's sheet resistance times the rectangle's
  aspect ratio in squares, summed over the node's members (the lumped-RC
  stand-in for a distributed Elmore ladder);
* **gate load** — thin-oxide capacitance over every transistor channel
  whose gate is the node;
* **diffusion load** — source/drain junction area is already counted by
  the member-rectangle sweep, because diffusion pieces are node members.

The arithmetic is a pure function of ``(layer, width, height)`` —
translation invariant — which is what lets the hierarchical engine
(:mod:`repro.analysis.hier`) hand over an instance's rectangles in the
child's frame, never placed.  The wire terms are folded *per electrical
node* (:func:`fold_wires`), in item order, when the node partition is
built: a hierarchical cell splices a replayed instance's node sums instead
of re-adding its rectangles.  :func:`annotate_parasitics` then names them:
a net's sums are its nodes' sums, added in node order (first occurrence
in item order, the order the finisher names nodes in).  Both extraction
paths hand it the same partition, so every float is identical on both.

All values are era-scale estimates read from
:class:`~repro.technology.technology.Technology` properties; absolute
numbers are not calibrated to a 1979 process run, and only ratios between
designs compiled in the same technology are meaningful (the same caveat as
:func:`repro.metrics.report.speed_estimate_ns`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.netlist.switch_sim import SwitchNetwork
from repro.technology.technology import Technology

#: Fallback per-layer area capacitance (fF / sq lambda) for technologies
#: that do not declare explicit properties.
_DEFAULT_AREA_CAP_FF = {"diffusion": 1.0, "poly": 0.45, "metal": 0.3}

#: Fallback sheet resistances (ohm / square).
_DEFAULT_SHEET_OHM = {"diffusion": 10.0, "poly": 50.0, "metal": 0.03}


def rc_ns(resistance_ohm: float, capacitance_ff: float) -> float:
    """An RC product in nanoseconds (ohms times femtofarads)."""
    return resistance_ohm * capacitance_ff * 1e-6


@dataclass
class NetParasitics:
    """The extracted electrical burden of one net."""

    name: str
    wire_cap_ff: float = 0.0      # area + fringe capacitance of the wiring
    wire_res_ohm: float = 0.0     # lumped wire resistance (sheet * squares)
    gate_cap_ff: float = 0.0      # thin-oxide load of gates on this net
    gate_count: int = 0           # transistors whose gate is this net
    channel_count: int = 0        # transistors whose source/drain is this net

    @property
    def total_cap_ff(self) -> float:
        """Everything a driver of this net must charge."""
        return self.wire_cap_ff + self.gate_cap_ff


class ParasiticModel:
    """Per-technology geometry-to-RC conversion."""

    def __init__(self, technology: Technology):
        self.technology = technology
        self._area_cap: Dict[str, float] = {}
        self._sheet: Dict[str, float] = {}
        for layer, fallback in _DEFAULT_AREA_CAP_FF.items():
            self._area_cap[layer] = technology.property(
                f"area_cap_ff_per_sq_lambda_{layer}", fallback)
        for layer, fallback in _DEFAULT_SHEET_OHM.items():
            self._sheet[layer] = technology.property(
                f"sheet_resistance_{layer}", fallback)
        self.fringe_cap_ff = technology.property("fringe_cap_ff_per_lambda", 0.1)
        self.gate_cap_ff_per_sq = technology.property(
            "gate_cap_ff_per_sq_lambda", 2.8)
        self.pullup_res_ohm = technology.property("pullup_resistance_ohm", 40000.0)
        self.pulldown_res_ohm = technology.property("pulldown_resistance_ohm", 10000.0)
        self.pass_res_ohm = technology.property("pass_resistance_ohm", 15000.0)
        # (layer, width, height) -> (cap, res): a chip has a handful of such
        # classes (24 on a 64-tile array of 72 k items).
        self._wire_terms: Dict[Tuple[str, int, int], Tuple[float, float]] = {}

    # -- per-rectangle terms (pure in (layer, rect): reusable across frames) --

    def wire_terms(self, layer: str, rect: Rect) -> Tuple[float, float]:
        """``(rect_cap_ff, rect_res_ohm)`` of one conducting rectangle,
        computed once per ``(layer, width, height)`` class."""
        shape = (layer, rect.x2 - rect.x1, rect.y2 - rect.y1)
        terms = self._wire_terms.get(shape)
        if terms is None:
            terms = self._wire_terms[shape] = (self.rect_cap_ff(layer, rect),
                                               self.rect_res_ohm(layer, rect))
        return terms

    def rect_cap_ff(self, layer: str, rect: Rect) -> float:
        area_cap = self._area_cap.get(layer, 0.3)
        return (rect.width * rect.height * area_cap
                + 2 * (rect.width + rect.height) * self.fringe_cap_ff)

    def rect_res_ohm(self, layer: str, rect: Rect) -> float:
        sheet = self._sheet.get(layer, 0.03)
        short = min(rect.width, rect.height)
        long = max(rect.width, rect.height)
        if short <= 0:
            return 0.0
        return sheet * (long / short)

    def gate_cap_ff(self, channel: Rect) -> float:
        return channel.width * channel.height * self.gate_cap_ff_per_sq


#: Conducting items as ``(layer, rects)`` blocks in item-id order (the
#: extractor's diffusion pieces, then poly, then metal).  A rectangle is
#: read for its size only, so each block may be in its own frame.
Items = Sequence[Tuple[str, Sequence[Rect]]]


def fold_wires(model: ParasiticModel, items: Items, node_of: Sequence[int],
               node_count: int) -> Tuple[array, array]:
    """Per node of a partition (``node_of[item]``): wire capacitance and
    resistance, each item's terms added in item order."""
    cap = array("d", bytes(8 * node_count))
    res = array("d", bytes(8 * node_count))
    terms = model.wire_terms
    nodes = iter(node_of)
    for layer, rects in items:
        for rect, node in zip(rects, nodes):
            item_cap, item_res = terms(layer, rect)
            cap[node] += item_cap
            res[node] += item_res
    return cap, res


def annotate_parasitics(model: ParasiticModel, net_of: Sequence[int],
                        wire_cap: Sequence[float], wire_res: Sequence[float],
                        network: SwitchNetwork,
                        device_channels: Sequence[Rect]
                        ) -> Dict[str, NetParasitics]:
    """Per-net parasitics: a node partition's wire sums, per net, plus the
    device loading.

    ``net_of[node]`` is the name id in ``network`` of each node of a
    partition numbered by first occurrence, and ``wire_cap`` / ``wire_res``
    are its per-node :func:`fold_wires` sums; a net's wire sums are its
    nodes', added in node order (label text may merge several nodes into
    one net).  ``network`` holds the emitted devices as columns and
    ``device_channels`` their channel rectangles (gate-oxide geometry); a
    net's gate load folds over its devices in device order.  Both
    extraction paths call this with identical arguments whenever their
    netlists are identical, so the annotations are too.
    """
    # Per interned name of the network: wire sums, gate load, gate and
    # channel counts.
    count = len(network.node_names)
    cap_of = [0.0] * count
    res_of = [0.0] * count
    wired = bytearray(count)
    for net, cap, res in zip(net_of, wire_cap, wire_res):
        cap_of[net] += cap
        res_of[net] += res
        wired[net] = 1
    gate_cap = [0.0] * count
    gate_count = [0] * count
    channel_count = [0] * count
    for gate, cap in zip(network.gate, map(model.gate_cap_ff, device_channels)):
        gate_cap[gate] += cap
        gate_count[gate] += 1
    for source, drain in zip(network.source, network.drain):
        channel_count[source] += 1
        if drain != source:
            channel_count[drain] += 1
    return {name: NetParasitics(name, cap_of[net], res_of[net], gate_cap[net],
                                gate_count[net], channel_count[net])
            for net, name in enumerate(network.node_names)
            if wired[net] or gate_count[net] or channel_count[net]}


def parasitic_columns(nets: Dict[str, NetParasitics]) -> tuple:
    """``nets`` as columns: the names in order, the three float fields as
    ``array("d")`` and the two counts as ``array("i")`` — the pickled form of
    an extracted circuit's parasitics.  Entries are keyed by their name."""
    return (list(nets),
            array("d", [net.wire_cap_ff for net in nets.values()]),
            array("d", [net.wire_res_ohm for net in nets.values()]),
            array("d", [net.gate_cap_ff for net in nets.values()]),
            array("i", [net.gate_count for net in nets.values()]),
            array("i", [net.channel_count for net in nets.values()]))


def parasitics_of_columns(names: List[str], *fields: array
                          ) -> Dict[str, NetParasitics]:
    """The inverse of :func:`parasitic_columns`."""
    return dict(zip(names, map(NetParasitics, names, *fields)))
