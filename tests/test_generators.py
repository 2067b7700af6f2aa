"""Tests for the regular-structure generators (PLA, ROM, RAM, decoder, datapath, FSM)."""

import os
import sys

import pytest

from repro.generators import (
    DatapathColumn,
    DatapathGenerator,
    DecoderGenerator,
    FsmLayoutGenerator,
    PlaGenerator,
    RamGenerator,
    RomGenerator,
    SramBitCell,
)
from repro.generators.plane import Plane, crosspoint, place_row
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.stats import cell_statistics
from repro.logic import FSM, TruthTable, parse_expr
from repro.technology import NMOS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402


def full_adder_table():
    return TruthTable.from_expressions(
        {"s": parse_expr("a ^ b ^ cin"), "cout": parse_expr("a&b | a&cin | b&cin")},
        input_names=["a", "b", "cin"],
    )


class TestPlaGenerator:
    def test_report_dimensions(self):
        generator = PlaGenerator(NMOS, full_adder_table())
        generator.cell()
        report = generator.report
        assert report.inputs == 3 and report.outputs == 2
        assert report.terms == 7          # minimal SOP of the full adder
        assert report.area > 0

    def test_ports_match_signal_names(self):
        generator = PlaGenerator(NMOS, full_adder_table())
        cell = generator.cell()
        assert {"a", "b", "cin", "s", "cout", "vdd", "gnd"} <= set(cell.port_names())

    def test_functional_model_matches_truth_table(self):
        table = full_adder_table()
        generator = PlaGenerator(NMOS, table)
        for minterm in range(8):
            assignment = table.assignment_for(minterm)
            outputs = generator.evaluate(assignment)
            assert outputs["s"] == table.output(minterm, "s")
            assert outputs["cout"] == table.output(minterm, "cout")

    def test_minimisation_reduces_terms_and_area(self):
        # A deliberately redundant personality: f depends only on a, g only
        # on a&b, so minimisation collapses the canonical cover dramatically.
        table = TruthTable.from_expressions(
            {"f": parse_expr("a"), "g": parse_expr("a & b")},
            input_names=["a", "b", "c"])
        minimised = PlaGenerator(NMOS, table, minimize_cover=True, name="pla_min_red")
        raw = PlaGenerator(NMOS, table, minimize_cover=False, name="pla_raw_red")
        minimised.cell(), raw.cell()
        assert minimised.report.terms < raw.report.terms
        assert minimised.report.area < raw.report.area

    def test_area_grows_with_inputs(self):
        small = PlaGenerator(NMOS, TruthTable.from_expressions({"f": parse_expr("a & b")}))
        large = PlaGenerator(NMOS, TruthTable.from_expressions(
            {"f": parse_expr("a & b & c & d")}))
        small.cell(), large.cell()
        assert large.report.width > small.report.width

    def test_relaxed_style_is_larger(self):
        table = full_adder_table()
        compact = PlaGenerator(NMOS, table, style="compact", name="pla_c")
        relaxed = PlaGenerator(NMOS, table, style="relaxed", name="pla_r")
        compact.cell(), relaxed.cell()
        assert relaxed.report.area > compact.report.area

    def test_regularity_is_high(self):
        cell = PlaGenerator(NMOS, full_adder_table()).cell()
        assert cell_statistics(cell).regularity > 3.0


class TestDecoderAndRom:
    def test_decoder_select_lines(self):
        generator = DecoderGenerator(NMOS, address_bits=3)
        cell = generator.cell()
        assert generator.report.select_lines == 8
        assert {f"select{i}" for i in range(8)} <= set(cell.port_names())
        assert {f"addr{i}" for i in range(3)} <= set(cell.port_names())

    def test_decoder_transistor_count(self):
        generator = DecoderGenerator(NMOS, address_bits=2)
        generator.cell()
        # Each of the 4 rows has 2 crosspoint transistors plus a pullup.
        assert generator.report.transistors == 4 * 2 + 4

    def test_rom_read_model(self):
        rom = RomGenerator(NMOS, [1, 2, 3, 250], bits_per_word=8)
        assert rom.read(3) == 250
        assert rom.read(100) == 0
        with pytest.raises(IndexError):
            rom.read(-1)

    def test_rom_contents_must_fit(self):
        with pytest.raises(ValueError):
            RomGenerator(NMOS, [256], bits_per_word=8)
        with pytest.raises(ValueError):
            RomGenerator(NMOS, [], bits_per_word=8)

    def test_rom_report_counts_stored_ones(self):
        rom = RomGenerator(NMOS, [0b1111, 0b0000, 0b1010], bits_per_word=4)
        rom.cell()
        assert rom.report.stored_ones == 6
        assert rom.report.words == 3

    def test_rom_area_scales_with_words(self):
        small = RomGenerator(NMOS, [i % 16 for i in range(8)], bits_per_word=4)
        large = RomGenerator(NMOS, [i % 16 for i in range(32)], bits_per_word=4)
        small.cell(), large.cell()
        assert large.report.height > small.report.height


def geometry(cell):
    return {layer: sorted(rects)
            for layer, rects in flatten_cell(cell).rects_by_layer().items()}


def crosspoint_masters(top, pitch):
    """Distinct cells under ``top`` drawn as a ``pitch`` crosspoint, by name-free geometry."""
    drawn = [geometry(crosspoint(NMOS, plane, programmed, pitch))
             for plane in Plane for programmed in (False, True)]
    return {id(cell) for cell in top.descendants() if geometry(cell) in drawn}


class TestNorPlane:
    """The PLA, the decoder and the ROM instantiate one set of crosspoints."""

    def bricks(self, pitch, *planes):
        return {id(crosspoint(NMOS, plane, programmed, pitch))
                for plane in planes for programmed in (False, True)}

    def test_generators_share_crosspoint_masters(self):
        for style, pitch in (("compact", 10), ("relaxed", 12)):
            pla = PlaGenerator(NMOS, full_adder_table(), style=style,
                               name=f"pla_shared_{style}").cell()
            decoder = DecoderGenerator(NMOS, address_bits=3, pitch=pitch).cell()
            rom = RomGenerator(NMOS, [0b1010, 0b0110, 0b1111], bits_per_word=4,
                               pitch=pitch).cell()
            both = self.bricks(pitch, Plane.INPUT, Plane.OUTPUT)
            assert crosspoint_masters(pla, pitch) == both
            assert crosspoint_masters(decoder, pitch) == self.bricks(pitch, Plane.INPUT)
            assert crosspoint_masters(rom, pitch) == both

    def test_family_chip_defines_each_crosspoint_once(self):
        _assembler, chip = build_chip("plane_family", 8, 2)
        assert crosspoint_masters(chip, 10) == self.bricks(10, Plane.INPUT, Plane.OUTPUT)
        assert not crosspoint_masters(chip, 12)

    def test_place_row_counts_pull_downs(self):
        row = Cell("plane_row")
        assert place_row(NMOS, row, Plane.INPUT, 0, 0, 10, "10-") == 2
        assert place_row(NMOS, row, Plane.OUTPUT, 0, 10, 10, "1011") == 3
        pull_downs = {id(crosspoint(NMOS, plane, True, 10)) for plane in Plane}
        programmed = [instance.transform.translation.x for instance in row.instances
                      if id(instance.cell) in pull_downs]
        # Input plane: '1' programs the complement column, '0' the true one.
        assert programmed == [10, 20, 0, 20, 30]
        assert len(row.instances) == 6 + 4


class TestRam:
    def test_sram_bit_cell(self):
        bit = SramBitCell(NMOS)
        cell = bit.cell()
        assert bit.transistor_count == 6
        assert {"word", "bit", "bitbar"} <= set(cell.port_names())

    def test_ram_behavioural_model(self):
        ram = RamGenerator(NMOS, words=16, bits_per_word=8)
        ram.write(5, 0xAB)
        assert ram.read(5) == 0xAB
        assert ram.read(6) == 0
        with pytest.raises(IndexError):
            ram.write(16, 1)

    def test_ram_write_masks_to_width(self):
        ram = RamGenerator(NMOS, words=4, bits_per_word=4)
        ram.write(1, 0xFF)
        assert ram.read(1) == 0xF

    def test_ram_report(self):
        ram = RamGenerator(NMOS, words=8, bits_per_word=4)
        ram.cell()
        assert ram.report.bits == 32
        assert ram.report.transistors >= 6 * 32

    def test_ram_regularity_dominated_by_bit_cell(self):
        cell = RamGenerator(NMOS, words=8, bits_per_word=8).cell()
        assert cell_statistics(cell).regularity > 10


class TestDatapath:
    def columns(self):
        return [
            DatapathColumn("register", "acc"),
            DatapathColumn("adder", "alu"),
            DatapathColumn("shifter", "shift"),
            DatapathColumn("bus", "bus"),
        ]

    def test_report(self):
        generator = DatapathGenerator(NMOS, self.columns(), bits=8)
        generator.cell()
        report = generator.report
        assert report.bits == 8 and report.columns == 4
        assert report.transistors == 8 * (6 + 14 + 3 + 2)

    def test_height_scales_linearly_with_bits(self):
        four = DatapathGenerator(NMOS, self.columns(), bits=4)
        eight = DatapathGenerator(NMOS, self.columns(), bits=8)
        four.cell(), eight.cell()
        assert eight.report.height > 1.8 * four.report.height

    def test_control_ports_exported(self):
        cell = DatapathGenerator(NMOS, self.columns(), bits=4).cell()
        assert "acc_ctl0" in cell.port_names()
        assert "bus_in0" in cell.port_names() and "bus_out3" in cell.port_names()

    def test_unknown_column_kind_rejected(self):
        with pytest.raises(ValueError):
            DatapathColumn("quantum", "q")

    def test_empty_column_list_rejected(self):
        with pytest.raises(ValueError):
            DatapathGenerator(NMOS, [], bits=4)


class TestFsmLayout:
    def traffic_light(self):
        fsm = FSM("tl", inputs=["car"], outputs=["go"])
        fsm.add_state("G", {"go": 1}, reset=True)
        fsm.add_state("R", {})
        fsm.add_transition("G", "R", {"car": 1})
        fsm.add_transition("G", "G", {"car": 0})
        fsm.add_transition("R", "G")
        return fsm

    def test_builds_pla_plus_register(self):
        generator = FsmLayoutGenerator(NMOS, self.traffic_light())
        cell = generator.cell()
        report = generator.report
        assert report.states == 2 and report.state_bits == 1
        assert report.transistors > 0
        assert {"car", "go", "phi1", "phi2"} <= set(cell.port_names())

    def test_one_hot_uses_more_state_bits(self):
        binary = FsmLayoutGenerator(NMOS, self.traffic_light(), encoding="binary")
        one_hot = FsmLayoutGenerator(NMOS, self.traffic_light(), encoding="one_hot")
        binary.cell(), one_hot.cell()
        assert one_hot.report.state_bits > binary.report.state_bits
        assert one_hot.report.area >= binary.report.area
