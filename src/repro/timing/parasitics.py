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
child's frame, never placed: both the flat extractor and the hierarchical
composition call :func:`annotate_parasitics` over the same item
enumeration, so their parasitic dictionaries are identical whenever their
netlists are.

All values are era-scale estimates read from
:class:`~repro.technology.technology.Technology` properties; absolute
numbers are not calibrated to a 1979 process run, and only ratios between
designs compiled in the same technology are meaningful (the same caveat as
:func:`repro.metrics.report.speed_estimate_ns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
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

    # -- per-rectangle terms (pure in (layer, rect): reusable across frames) --

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


def annotate_parasitics(model: ParasiticModel,
                        items: Iterable[Tuple[str, Sequence[Rect]]],
                        node_of_item: Dict[int, str],
                        devices: Sequence,
                        device_channels: Optional[Sequence[Rect]] = None
                        ) -> Dict[str, NetParasitics]:
    """Fold item geometry and device loading into per-net parasitics.

    ``items`` enumerates the conducting rectangles in item-id order as
    ``(layer, rects)`` blocks (the extractor's diffusion pieces, then poly,
    then metal; a rectangle is read for its size only, so each block may
    be in its own frame); ``node_of_item`` maps item ids to node names;
    ``devices`` is the emitted transistor list and ``device_channels`` the
    parallel channel rectangles (gate-oxide geometry).  Both extraction
    paths — flat and hierarchical — call this with identical enumerations,
    so the annotation is identical whenever the netlists are.
    """
    nets: Dict[str, NetParasitics] = {}

    def net(name: str) -> NetParasitics:
        entry = nets.get(name)
        if entry is None:
            entry = NetParasitics(name)
            nets[name] = entry
        return entry

    # The per-rectangle terms depend on (layer, width, height) only, and a
    # chip has a handful of such classes (24 on a 64-tile array of 74 k
    # items): ask the model once per class, look a block's classes up once
    # per distinct list (a tile array repeats a few lists many times), and
    # add per item in item order.
    terms: Dict[Tuple[str, int, int], Tuple[float, float]] = {}
    # (layer, id(list)) -> (the list, kept alive so its id stays its own;
    # the terms of its rects)
    block_terms: Dict[Tuple[str, int],
                      Tuple[Sequence[Rect], List[Tuple[float, float]]]] = {}
    item_id = 0
    for layer, rects in items:
        known = block_terms.get((layer, id(rects)))
        if known is not None:
            listed = known[1]
        else:
            listed = []
            block_terms[(layer, id(rects))] = (rects, listed)
            for rect in rects:
                shape = (layer, rect.x2 - rect.x1, rect.y2 - rect.y1)
                term = terms.get(shape)
                if term is None:
                    term = terms[shape] = (model.rect_cap_ff(layer, rect),
                                           model.rect_res_ohm(layer, rect))
                listed.append(term)
        for cap, res in listed:
            name = node_of_item.get(item_id)
            item_id += 1
            if name is None:
                continue
            entry = nets.get(name)
            if entry is None:
                entry = nets[name] = NetParasitics(name)
            entry.wire_cap_ff += cap
            entry.wire_res_ohm += res

    for index, device in enumerate(devices):
        channel = device_channels[index] if device_channels is not None else None
        gate_entry = net(device.gate)
        gate_entry.gate_count += 1
        if channel is not None:
            gate_entry.gate_cap_ff += model.gate_cap_ff(channel)
        else:
            gate_entry.gate_cap_ff += model.gate_cap_ff_per_sq * (
                device.width * device.length)
        net(device.source).channel_count += 1
        if device.drain != device.source:
            net(device.drain).channel_count += 1
    return nets
