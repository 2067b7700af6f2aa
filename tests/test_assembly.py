"""Tests for chip assembly: routers, floorplanning, pad ring, assembler."""

import pytest

from repro.assembly import (
    ChannelNet,
    ChannelRouter,
    ChipAssembler,
    PadRing,
    PadSpec,
    RiverRoutingError,
    pack_shelves,
    river_route,
)
from repro.generators import DatapathColumn, DatapathGenerator, PlaGenerator
from repro.geometry.point import Point
from repro.layout.cell import Cell
from repro.logic import TruthTable, parse_expr
from repro.technology import NMOS


def block(name, w, h):
    cell = Cell(name)
    cell.add_box("metal", 0, 0, w, h)
    cell.add_port("p", Point(w // 2, h - 1), "metal", "output")
    return cell


class TestRiverRouting:
    def test_straight_connections(self):
        cell = Cell("r")
        result = river_route(cell, [Point(5, 0), Point(15, 0)],
                             [Point(5, 50), Point(15, 50)])
        assert len(result.wires) == 2
        assert result.total_length == 100

    def test_jogged_connections_do_not_cross(self):
        cell = Cell("r")
        result = river_route(cell, [Point(0, 0), Point(10, 0), Point(20, 0)],
                             [Point(5, 60), Point(18, 60), Point(40, 60)])
        assert len(result.wires) == 3
        # Each jog is on its own track, so the y levels are distinct.
        jog_levels = {wire[1].y for wire in result.wires if len(wire) == 4}
        assert len(jog_levels) == len([w for w in result.wires if len(w) == 4])

    def test_count_mismatch_rejected(self):
        with pytest.raises(RiverRoutingError):
            river_route(Cell("r"), [Point(0, 0)], [])

    def test_unordered_terminals_rejected(self):
        with pytest.raises(RiverRoutingError):
            river_route(Cell("r"), [Point(10, 0), Point(0, 0)],
                        [Point(0, 10), Point(10, 10)])

    def test_empty_is_fine(self):
        result = river_route(Cell("r"), [], [])
        assert result.total_length == 0


class TestChannelRouting:
    def test_non_overlapping_nets_share_track(self):
        router = ChannelRouter()
        nets = [ChannelNet("a", [0, 10], []), ChannelNet("b", [20, 30], [])]
        result = router.route(Cell("c"), nets, bottom_y=0)
        assert result.tracks_used == 1

    def test_overlapping_nets_need_separate_tracks(self):
        router = ChannelRouter()
        nets = [ChannelNet("a", [0, 20], []), ChannelNet("b", [10, 30], [])]
        result = router.route(Cell("c"), nets, bottom_y=0)
        assert result.tracks_used == 2

    def test_tracks_never_below_density(self):
        router = ChannelRouter()
        nets = [
            ChannelNet("a", [0], [25]),
            ChannelNet("b", [10], [35]),
            ChannelNet("c", [20], [5]),
            ChannelNet("d", [30, 40], []),
        ]
        result = router.route(Cell("c"), nets, bottom_y=0)
        assert result.tracks_used >= result.density

    def test_net_without_pins_rejected(self):
        router = ChannelRouter()
        with pytest.raises(ValueError):
            router.route(Cell("c"), [ChannelNet("empty")], bottom_y=0)

    def test_wires_are_drawn(self):
        cell = Cell("c")
        router = ChannelRouter()
        router.route(cell, [ChannelNet("a", [0], [40])], bottom_y=0)
        assert len(cell.shapes) >= 2      # horizontal track + vertical drops

    def test_channel_height_scales_with_tracks(self):
        router = ChannelRouter(track_pitch=7)
        nets = [ChannelNet(f"n{i}", [0 + i, 50 + i], []) for i in range(5)]
        result = router.route(Cell("c"), nets, bottom_y=0)
        assert result.channel_height == (result.tracks_used + 1) * 7


class TestFloorplan:
    def test_packing_no_overlap(self):
        blocks = [(f"b{i}", block(f"b{i}", 30 + 10 * i, 20)) for i in range(5)]
        plan = pack_shelves(blocks, max_width=100, spacing=5)
        placed = [(item.x, item.y, item.width, item.height) for item in plan.items]
        for i, (x1, y1, w1, h1) in enumerate(placed):
            for x2, y2, w2, h2 in placed[i + 1:]:
                assert x1 + w1 <= x2 or x2 + w2 <= x1 or y1 + h1 <= y2 or y2 + h2 <= y1

    def test_utilisation_between_zero_and_one(self):
        plan = pack_shelves([("a", block("a", 50, 40)), ("b", block("b", 30, 20))])
        assert 0.0 < plan.utilisation <= 1.0

    def test_item_lookup(self):
        plan = pack_shelves([("a", block("a", 10, 10))])
        assert plan.item("a").width == 10
        with pytest.raises(KeyError):
            plan.item("zz")

    def test_realise_places_instances(self):
        plan = pack_shelves([("a", block("a", 10, 10)), ("b", block("b", 20, 10))])
        parent = Cell("core")
        placements = plan.realise(parent)
        assert len(parent.instances) == 2
        assert set(placements) == {"a", "b"}

    def test_empty_floorplan(self):
        plan = pack_shelves([])
        assert plan.area == 0


class TestPadRing:
    def test_ring_surrounds_core(self):
        pads = [PadSpec("vdd", "vdd"), PadSpec("gnd", "gnd")] + [
            PadSpec(f"s{i}") for i in range(6)
        ]
        ring = PadRing(NMOS, pads)
        cell = ring.build(300, 300)
        assert cell.width > 300 and cell.height > 300
        assert len(ring.placements) == 8

    def test_ring_ports_exported(self):
        ring = PadRing(NMOS, [PadSpec("clk", "input"), PadSpec("q", "output")])
        cell = ring.build(200, 200)
        assert {"clk", "q"} <= set(cell.port_names())

    def test_needs_at_least_one_pad(self):
        with pytest.raises(ValueError):
            PadRing(NMOS, [])

    def test_supplies_on_distinct_sides(self):
        pads = [PadSpec("vdd", "vdd"), PadSpec("gnd", "gnd"), PadSpec("a"), PadSpec("b")]
        ring = PadRing(NMOS, pads)
        ring.build(200, 200)
        sides = {p.spec.name: p.side for p in ring.placements}
        assert sides["vdd"] != sides["gnd"]


class TestChipAssembler:
    def build_chip(self, bits=4):
        table = TruthTable.from_expressions(
            {"s": parse_expr("a ^ b"), "c": parse_expr("a & b")})
        pla = PlaGenerator(NMOS, table).cell()
        datapath = DatapathGenerator(
            NMOS, [DatapathColumn("register", "acc"), DatapathColumn("adder", "alu")],
            bits=bits).cell()
        assembler = ChipAssembler(f"chip{bits}", NMOS)
        assembler.add_block("control", pla)
        assembler.add_block("datapath", datapath)
        assembler.add_supply_pads()
        assembler.add_pad("a", "input", connect_to=("control", "a"))
        assembler.add_pad("b", "input", connect_to=("control", "b"))
        assembler.add_pad("sum", "output", connect_to=("control", "s"))
        return assembler

    def test_assembly_report(self):
        assembler = self.build_chip()
        assembler.assemble()
        report = assembler.report
        assert report.pad_count == 5
        assert report.routed_connections == 3
        assert report.chip_area > report.core_area
        assert 0.0 < report.pad_overhead < 1.0

    def test_chip_scales_with_datapath_width(self):
        small = self.build_chip(bits=2)
        large = self.build_chip(bits=16)
        small.assemble(), large.assemble()
        assert large.report.core_area > small.report.core_area

    def test_description_size_constant_across_parameters(self):
        assert self.build_chip(2).description_size() == self.build_chip(16).description_size()

    def test_missing_blocks_or_pads_rejected(self):
        empty = ChipAssembler("empty", NMOS)
        with pytest.raises(ValueError):
            empty.assemble()
        empty.add_block("b", block("b", 10, 10))
        with pytest.raises(ValueError):
            empty.assemble()

    def test_unknown_connection_target_rejected(self):
        assembler = ChipAssembler("c", NMOS)
        assembler.add_block("core", block("core", 50, 50))
        assembler.add_pad("x", "input", connect_to=("nonexistent", "p"))
        with pytest.raises(KeyError):
            assembler.assemble()

    def test_unknown_port_rejected(self):
        assembler = ChipAssembler("c", NMOS)
        assembler.add_block("core", block("core", 50, 50))
        assembler.add_pad("x", "input", connect_to=("core", "nope"))
        with pytest.raises(KeyError):
            assembler.assemble()


class TestSignOff:
    def test_sign_off_runs_hier_analysis(self):
        from repro.analysis import HierAnalyzer
        from repro.drc import DrcChecker
        from repro.extract.extractor import Extractor

        assembler = TestChipAssembler().build_chip()
        chip = assembler.assemble()
        report = assembler.sign_off()
        assert report.violations == DrcChecker(NMOS).check(chip)
        flat = Extractor(NMOS).extract(chip)
        assert report.circuit.transistor_count == flat.transistor_count
        assert report.circuit.node_names == flat.node_names
        assert report.metrics.name == chip.name
        assert report.clean == (not report.violations)

    def test_sign_off_requires_assemble(self):
        import pytest

        assembler = TestChipAssembler().build_chip()
        with pytest.raises(ValueError):
            assembler.sign_off()

    def test_sign_off_shares_analyzer_across_family(self, monkeypatch):
        from repro.analysis import HierAnalyzer, hier

        # Force full composition (no direct-build collapse) so per-cell
        # artifact reuse across the two chips is observable.
        monkeypatch.setattr(hier, "_DIRECT_THRESHOLD", 0)
        analyzer = HierAnalyzer(NMOS)
        helper = TestChipAssembler()
        first = helper.build_chip(bits=4)
        first.assemble()
        first.sign_off(analyzer)
        built = dict(analyzer.stats)
        second = helper.build_chip(bits=4)
        second.assemble()
        report = second.sign_off(analyzer)
        # The second chip rebuilds its cells as fresh objects, but the
        # store keys results by *content*: the identical rebuild is served
        # entirely by the first chip's results — zero rebuilds of any kind,
        # one hit per pass, and no composable artifact even looked up.
        for kind in ("violations", "circuit", "extent", "erc"):
            assert analyzer.stats[f"{kind}_artifacts"] == built[f"{kind}_artifacts"]
            assert analyzer.stats[f"{kind}_hits"] == built[f"{kind}_hits"] + 1
        for kind in ("drc", "extract"):
            assert analyzer.stats[f"{kind}_artifacts"] == built[f"{kind}_artifacts"]
            assert analyzer.stats[f"{kind}_hits"] == built[f"{kind}_hits"]
        assert report.violations == second.sign_off(analyzer).violations
        # A wider sibling is new content at the top but shares the control
        # PLA, the pads and the bit slices: it is composed from the stored
        # artifacts of those, and builds fewer than the first chip did.
        wider = helper.build_chip(bits=8)
        wider.assemble()
        wider.sign_off(analyzer)
        assert analyzer.stats["drc_hits"] > built["drc_hits"]
        assert (0 < analyzer.stats["drc_artifacts"] - built["drc_artifacts"]
                < built["drc_artifacts"])
