"""The chip assembler: core blocks + pad ring -> a complete chip cell.

This is the "task of chip assembly" the paper highlights as the clearest
demonstration of parameterised specification: the same assembly program,
given different core blocks and pad lists, produces a correctly composed
chip each time.  The assembler refines the shelf-packed floorplan with the
wirelength-driven placer, generates a pad ring sized to fit, routes pad
tails (and inter-block connections) to core ports through the
obstacle-aware router in :mod:`repro.pnr`, and reports the area breakdown.
A net the router cannot complete raises its typed routing error from
``assemble()``: a blind route would be exactly the silent short the router
exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diagnostics import DiagnosticCollector
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.layout.flatten import flat_layer_rects
from repro.assembly.floorplan import (
    Floorplan,
    UnknownTerminalError,
    check_unique_names,
    pack_shelves,
)
from repro.assembly.padframe import PadRing, PadSpec
from repro.technology.layers import LayerPurpose
from repro.technology.technology import Technology
from repro.timing.parasitics import ParasiticModel, rc_ns
from repro.timing.switch import BlockTiming


@dataclass
class IoPathTiming:
    """One routed pad-to-core connection, timed through the boundary pin."""

    pad: str
    block: str
    port: str
    route_length: int
    route_delay_ns: float
    block_depth_ns: float     # worst path launched from the block's pin

    @property
    def total_ns(self) -> float:
        return self.route_delay_ns + self.block_depth_ns


@dataclass
class ChipTimingReport:
    """Chip-level static timing: whole-chip STA plus per-block artifacts.

    ``chip`` is the STA of the composed extracted chip (critical path, max
    frequency); ``blocks`` are the cached per-block artifacts the analyzer
    reused; ``io_paths`` compose pad-to-core routes with each block's
    boundary-pin depth — the instance-boundary composition that lets a
    family of chips share every block's timing.
    """

    chip: BlockTiming
    blocks: List[Tuple[str, BlockTiming]] = field(default_factory=list)
    io_paths: List[IoPathTiming] = field(default_factory=list)

    @property
    def worst_delay_ns(self) -> float:
        return self.chip.worst_delay_ns

    @property
    def max_frequency_mhz(self) -> float:
        return self.chip.max_frequency_mhz

    def rows(self) -> List[List[str]]:
        """Per-block summary rows for the metrics table formatter."""
        table = []
        for name, timing in self.blocks:
            table.append([
                name, str(timing.device_count),
                f"{timing.worst_delay_ns:.1f}",
                f"{timing.max_frequency_mhz:.1f}",
                str(timing.loops_broken),
            ])
        table.append([
            self.chip.name, str(self.chip.device_count),
            f"{self.chip.worst_delay_ns:.1f}",
            f"{self.chip.max_frequency_mhz:.1f}",
            str(self.chip.loops_broken),
        ])
        return table

    @staticmethod
    def header() -> List[str]:
        return ["block", "devices", "worst delay (ns)", "max freq (MHz)",
                "loops broken"]


@dataclass
class SignOffReport:
    """The full physical verification result of an assembled chip.

    ``circuit``, ``timing`` (its ``BlockTiming`` rows) and ``erc`` are the
    analyzer's cached results — **shared and read-only**: the next sign-off
    of the same content returns the same objects.  ``violations`` is the
    report's own list, free to sort or extend.
    """

    violations: List = field(default_factory=list)
    circuit: Optional[object] = None
    metrics: Optional[object] = None
    timing: Optional[ChipTimingReport] = None
    #: Electrical rule check of the extracted chip (an
    #: :class:`repro.erc.ErcReport`); ``None`` only on reports built by
    #: hand without running :meth:`ChipAssembler.sign_off`.
    erc: Optional[object] = None
    #: Snapshot of the analyzer's artifact-store counters
    #: (:meth:`repro.store.ArtifactStore.stats`) taken after verification:
    #: hits/misses/puts, plus per-tier occupancy when the store is tiered
    #: over a ``REPRO_STORE`` directory.  Shows at a glance how much of the
    #: sign-off was served from cached artifacts (a warm start reports all
    #: hits, zero puts).
    store: Optional[Dict] = None
    #: Snapshot of the process-wide flow metrics registry
    #: (:func:`repro.obs.metrics.snapshot`) taken at the end of sign-off:
    #: fallback/diagnostic counters, budget consumption gauges, PnR
    #: escalation counts, settle statistics, store gauges.  ``None`` only on
    #: reports built by hand without running :meth:`ChipAssembler.sign_off`.
    flow_metrics: Optional[Dict] = None

    @property
    def clean(self) -> bool:
        """No DRC violations (the historical meaning; ERC has its own)."""
        return not self.violations

    @property
    def erc_clean(self) -> bool:
        """No error-severity electrical rule violations."""
        return self.erc is None or self.erc.clean

    @property
    def max_frequency_mhz(self) -> float:
        return 0.0 if self.timing is None else self.timing.max_frequency_mhz


@dataclass
class ChipReport:
    """Area and connectivity accounting for an assembled chip."""

    name: str
    core_width: int
    core_height: int
    chip_width: int
    chip_height: int
    pad_count: int
    routed_connections: int
    total_route_length: int
    core_utilisation: float

    @property
    def core_area(self) -> int:
        return self.core_width * self.core_height

    @property
    def chip_area(self) -> int:
        return self.chip_width * self.chip_height

    @property
    def pad_overhead(self) -> float:
        """Fraction of the chip consumed by the pad ring and routing."""
        if self.chip_area == 0:
            return 0.0
        return 1.0 - self.core_area / self.chip_area


def _sync_store_gauges(stats: Dict, prefix: str = "store") -> None:
    """Mirror an artifact store's stats dict into ``store.*`` gauges.

    Nested tier dicts (``memory``/``disk`` of a :class:`TieredStore`)
    flatten to dotted names, e.g. ``store.memory.hits``.
    """
    for key, value in stats.items():
        name = f"{prefix}.{key}"
        if isinstance(value, dict):
            _sync_store_gauges(value, name)
        elif isinstance(value, (int, float)):
            obs_metrics.gauge(name).set(value)


def _wire_rect(length: int, width: int):
    """A straight route of the given centre-line length, as a rectangle."""
    from repro.geometry.rect import Rect

    return Rect(0, 0, max(length, 1), width)


class ChipAssembler:
    """Assemble core blocks and pads into a complete chip."""

    def __init__(self, name: str, technology: Technology):
        self.name = name
        self.technology = technology
        self._blocks: List[Tuple[str, Cell]] = []
        self._pads: List[PadSpec] = []
        self._connections: List[Tuple[str, Tuple[str, str]]] = []
        self._block_connections: List[Tuple[Tuple[str, str], Tuple[str, str]]] = []
        self.report: Optional[ChipReport] = None
        self.placement_report = None
        self.routing_report = None
        #: Warnings raised during assembly.
        self.diagnostics = DiagnosticCollector()
        self._chip: Optional[Cell] = None
        #: (pad, block, port, length, width) of every drawn pad route.
        self._route_info: List[Tuple[str, str, str, int, int]] = []

    # -- the parameterised description --------------------------------------------------

    def add_block(self, name: str, cell: Cell) -> None:
        """Add a core block (a compiled PLA, datapath, memory, ...)."""
        check_unique_names([block for block, _ in self._blocks] + [name])
        self._blocks.append((name, cell))

    def add_pad(self, name: str, kind: str = "signal",
                connect_to: Optional[Tuple[str, str]] = None) -> None:
        """Add a pad; ``connect_to`` is ``(block_name, port_name)`` in the core."""
        self._pads.append(PadSpec(name, kind))
        if connect_to is not None:
            self._connections.append((name, connect_to))

    def add_supply_pads(self) -> None:
        """Add the standard VDD and GND pads."""
        self.add_pad("vdd", "vdd")
        self.add_pad("gnd", "gnd")

    def add_connection(self, a: Tuple[str, str], b: Tuple[str, str]) -> None:
        """Connect two core block ports: ``(block, port)`` to ``(block, port)``.

        Inter-block connections participate in placement (pulling connected
        blocks together) and are routed by the same obstacle-aware router
        as the pad connections.
        """
        self._block_connections.append((a, b))

    # -- assembly ---------------------------------------------------------------------------

    def route_style(self) -> Tuple[str, int, int]:
        """Routing layer, wire width and spacing derived from the technology.

        The chip-level routing layer is the technology's metal (the only
        layer that crosses poly and diffusion without interacting), and the
        drawn width/spacing are exactly the layer's minimum rules, so DRC
        and the router agree by construction.
        """
        layer = next((l.name for l in self.technology.layers
                      if l.purpose is LayerPurpose.METAL), "metal")
        rules = self.technology.rules
        return (layer, rules.min_width(layer, default=3),
                rules.min_spacing(layer, default=3))

    def assemble(self) -> Cell:
        """Produce the chip cell (core + pad ring + pad-to-core routing)."""
        with obs_trace.span("assembly.assemble", cat="assembly",
                            chip=self.name, blocks=len(self._blocks),
                            pads=len(self._pads)):
            return self._assemble()

    def _assemble(self) -> Cell:
        # Imported here: repro.pnr builds on the floorplan module of this
        # package, so a module-level import would be circular.
        from repro.pnr import RouteRequest, refine_placement
        from repro.pnr.router import PnrRouter

        if not self._blocks:
            raise ValueError("chip has no core blocks")
        if not self._pads:
            raise ValueError("chip has no pads")

        # 1. Floorplan the core: shelf packing refined by the annealing
        # placer over the connection list (pads anchored at their sides).
        connections = ([(pad, target) for pad, target in self._connections]
                       + list(self._block_connections))
        with obs_trace.span("assembly.place", cat="assembly",
                            blocks=len(self._blocks)):
            self.placement_report = refine_placement(
                self._blocks, connections, self._pads)
        floorplan = self.placement_report.floorplan
        core = Cell(f"{self.name}_core")
        placements = floorplan.realise(core)

        # 2. Build the pad ring around it.
        with obs_trace.span("assembly.pad_ring", cat="assembly",
                            pads=len(self._pads)):
            ring = PadRing(self.technology, self._pads)
            chip = ring.build(floorplan.width, floorplan.height,
                              name=self.name)
        core_origin = ring.core_origin
        chip.place(core, core_origin.x, core_origin.y, name="core")

        # 3. Route through the obstacle-aware router: blocked by everything
        # already drawn on the routing layer, each net blocking the next.
        layer, route_width, route_spacing = self.route_style()
        pad_position = {p.spec.name: p.core_position for p in ring.placements}

        def port_position(block_name: str, port_name: str) -> Point:
            # Placement already rejected unknown block names (ROU011).
            placement = placements[block_name]
            block_cell = placement.item.cell
            if not block_cell.has_port(port_name):
                raise UnknownTerminalError(
                    f"block {block_name!r} has no port {port_name!r}")
            local = placement.instance.transform.apply(
                block_cell.port(port_name).position)
            return Point(local.x + core_origin.x, local.y + core_origin.y)

        requests: List[Tuple[RouteRequest, Optional[Tuple[str, str, str]]]] = []
        for pad_name, (block_name, port_name) in self._connections:
            requests.append((RouteRequest(
                name=pad_name,
                source=pad_position[pad_name],
                target=port_position(block_name, port_name),
            ), (pad_name, block_name, port_name)))
        for index, (a, b) in enumerate(self._block_connections):
            requests.append((RouteRequest(
                name=f"net_{a[0]}.{a[1]}__{b[0]}.{b[1]}_{index}",
                source=port_position(*a),
                target=port_position(*b),
            ), None))

        routed = 0
        total_length = 0
        self._route_info = []
        if requests:
            bounds = Rect(0, 0, ring.total_width, ring.total_height)
            obstacles = flat_layer_rects(chip, layer)
            router = PnrRouter(self.technology, bounds, obstacles, layer=layer)
            with obs_trace.span("assembly.route", cat="assembly",
                                nets=len(requests)):
                self.routing_report = router.route_all(
                    chip, [request for request, _ in requests])
            lengths = {net.name: net.length for net in self.routing_report.routed}
            if self.routing_report.failed:
                raise self.routing_report.failed[0][1]
            for request, info in requests:
                length = lengths.get(request.name, 0)
                total_length += length
                routed += 1
                if info is not None:
                    pad_name, block_name, port_name = info
                    self._route_info.append((pad_name, block_name, port_name,
                                             length, route_width))

        bbox = chip.bbox()
        self.report = ChipReport(
            name=self.name,
            core_width=floorplan.width,
            core_height=floorplan.height,
            chip_width=0 if bbox is None else bbox.width,
            chip_height=0 if bbox is None else bbox.height,
            pad_count=len(self._pads),
            routed_connections=routed,
            total_route_length=total_length,
            core_utilisation=floorplan.utilisation,
        )
        self._chip = chip
        return chip

    def sign_off(self, analyzer=None) -> SignOffReport:
        """Run full physical verification on the assembled chip.

        DRC, extraction and metrics run on the hierarchical analysis engine
        (:class:`repro.analysis.HierAnalyzer`), so repeated blocks — the
        whole point of parameterised assembly — are analyzed once and
        composed.  Pass a shared ``analyzer`` to reuse its per-cell caches
        across the chips of a family (they typically share every block
        generator's cells); results are identical to the flat engines.
        """
        if self._chip is None:
            raise ValueError("assemble() must run before sign_off()")
        if analyzer is None:
            from repro.analysis import HierAnalyzer

            analyzer = HierAnalyzer(self.technology)
        elif (analyzer.technology.name != self.technology.name
              or analyzer.technology.lambda_nm != self.technology.lambda_nm):
            raise ValueError(
                "analyzer technology does not match the assembler's: "
                f"{analyzer.technology.name!r} (lambda "
                f"{analyzer.technology.lambda_nm}) vs "
                f"{self.technology.name!r} (lambda {self.technology.lambda_nm})"
            )
        with obs_trace.span("assembly.sign_off", cat="assembly",
                            chip=self.name):
            report = SignOffReport(
                violations=analyzer.drc(self._chip),
                circuit=analyzer.extract(self._chip),
                metrics=analyzer.measure(self._chip),
                timing=self._timing_report(analyzer),
                erc=analyzer.erc(self._chip),
            )
        report.store = analyzer.store.stats()
        _sync_store_gauges(report.store)
        report.flow_metrics = obs_metrics.snapshot()
        return report

    def _timing_report(self, analyzer) -> ChipTimingReport:
        """Chip STA plus per-block artifacts and pad-route compositions."""
        chip_timing = analyzer.timing(self._chip)
        blocks = [(name, analyzer.timing(cell)) for name, cell in self._blocks]
        block_timing = dict(blocks)
        model = ParasiticModel(self.technology)
        io_paths: List[IoPathTiming] = []
        for pad_name, block_name, port_name, length, width in self._route_info:
            # The route is a metal wire of known drawn geometry: sheet
            # squares for resistance, area plus fringe for capacitance (the
            # Elmore term of the boundary crossing).
            res = model.rect_res_ohm("metal", _wire_rect(length, width))
            cap = model.rect_cap_ff("metal", _wire_rect(length, width))
            route_delay = rc_ns(model.pass_res_ohm + res, cap)
            # The block's burden at the boundary pin: worst path launched
            # from it (input pins) or arriving at it (output pins).  A pin
            # whose node carries no devices in the extracted block
            # contributes nothing, honestly.
            timing = block_timing[block_name]
            depth = max(timing.input_depth_ns.get(port_name, 0.0),
                        timing.output_arrival_ns.get(port_name, 0.0))
            io_paths.append(IoPathTiming(pad_name, block_name, port_name,
                                         length, route_delay, depth))
        return ChipTimingReport(chip=chip_timing, blocks=blocks,
                                io_paths=io_paths)

    def description_size(self) -> int:
        """Size of the assembly description: blocks + pads + connections.

        Experiment E5 contrasts this (which stays small) with the size of the
        layout it produces (which grows with the parameters).
        """
        return len(self._blocks) + len(self._pads) + len(self._connections)
