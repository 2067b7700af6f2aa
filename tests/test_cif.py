"""Tests for the CIF writer and parser (the manufacturing interface)."""

import pytest

from repro.cif import CifSyntaxError, cell_to_cif, parse_cif, write_cif
from repro.diagnostics import DiagnosticCollector
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.library import Library
from repro.technology import NMOS


def simple_library():
    lib = Library("test", NMOS)
    inv = lib.new_cell("inv")
    inv.add_box("diffusion", 0, 0, 2, 10)
    inv.add_box("poly", -2, 4, 4, 6)
    inv.add_wire("metal", [Point(0, 0), Point(20, 0), Point(20, 10)], 3)
    inv.add_port("out", Point(1, 9), "metal", "output")
    top = lib.new_cell("top")
    top.place(inv, 10, 0, Orientation.R90)
    top.place(inv, 40, 0, Orientation.MX)
    return lib


def flat_rects(cell):
    return {layer: sorted(rects) for layer, rects in
            flatten_cell(cell).rects_by_layer().items()}


class TestWriter:
    def test_output_structure(self):
        text = write_cif(simple_library())
        assert text.startswith("(")
        assert "DS 1" in text and "DF;" in text
        assert text.rstrip().endswith("E")
        assert "9 inv;" in text and "9 top;" in text

    def test_layer_names_are_cif_names(self):
        text = write_cif(simple_library())
        assert "L ND;" in text and "L NP;" in text and "L NM;" in text

    def test_box_emitted_for_even_centre(self):
        lib = Library("b", NMOS)
        cell = lib.new_cell("c")
        cell.add_box("metal", 0, 0, 4, 6)
        assert "B 4 6 2 3;" in write_cif(lib)

    def test_odd_centre_box_becomes_polygon(self):
        lib = Library("b", NMOS)
        cell = lib.new_cell("c")
        cell.add_box("metal", 0, 0, 3, 3)
        text = write_cif(lib)
        assert "P " in text

    def test_wire_command(self):
        text = write_cif(simple_library())
        assert "W 3 0 0 20 0 20 10;" in text

    def test_labels_emitted_as_94(self):
        text = write_cif(simple_library())
        assert "94 out 1 9 NM;" in text

    def test_scale_uses_technology_lambda(self):
        text = write_cif(simple_library())
        assert "DS 1 250 1;" in text

    def test_cell_to_cif_single_hierarchy(self):
        lib = simple_library()
        text = cell_to_cif(lib.cell("top"), NMOS)
        assert "9 top;" in text and "9 inv;" in text


class TestRoundTrip:
    def test_geometry_roundtrips_exactly(self):
        lib = simple_library()
        text = write_cif(lib)
        parsed = parse_cif(text)
        for name in ("inv", "top"):
            assert flat_rects(lib.cell(name)) == flat_rects(parsed.cell(name))

    def test_all_orientations_roundtrip(self):
        lib = Library("o", NMOS)
        leaf = lib.new_cell("leaf")
        leaf.add_box("metal", 0, 0, 6, 3)
        leaf.add_box("poly", 1, 1, 3, 2)
        top = lib.new_cell("top")
        for index, orientation in enumerate(Orientation):
            top.place(leaf, index * 40, 7, orientation)
        parsed = parse_cif(write_cif(lib))
        assert flat_rects(lib.cell("top")) == flat_rects(parsed.cell("top"))

    def test_cell_names_preserved(self):
        parsed = parse_cif(write_cif(simple_library()))
        assert set(parsed.cell_names()) == {"inv", "top"}

    def test_labels_roundtrip(self):
        lib = simple_library()
        parsed = parse_cif(write_cif(lib))
        labels = {label.text for label in parsed.cell("inv").labels}
        assert "out" in labels

    def test_library_name_comes_from_the_header(self):
        assert parse_cif(write_cif(simple_library())).name == "test"
        assert parse_cif("DS 1; 9 c; L NM; B 4 4 2 2; DF; E").name == "parsed"
        assert parse_cif(write_cif(simple_library()),
                         library_name="given").name == "given"


@pytest.fixture(scope="module")
def example_chips():
    """The four example designs' chip cells, assembled (not signed off)."""
    # test_pnr puts examples/ on the path: import it first.
    from test_pnr import adder_pla, build_chip, build_fsm, wrap_in_chip
    from pdp8_subset_compiler import compiled_machine_summary

    from repro.generators import FsmLayoutGenerator

    chips = {
        "quickstart": wrap_in_chip("cif_quickstart", adder_pla(NMOS), NMOS),
        "fsm": wrap_in_chip("cif_fsm", FsmLayoutGenerator(
            NMOS, build_fsm()).cell(), NMOS),
        "family": build_chip("cif_family_4b", 4, 0)[0],
        "pdp8": wrap_in_chip("cif_pdp8", compiled_machine_summary()[1], NMOS),
    }
    return {name: assembler._chip for name, assembler in chips.items()}


class TestExampleChipsRoundTrip:
    @pytest.mark.parametrize("name", ["quickstart", "fsm", "family", "pdp8"])
    def test_write_parse_write_is_byte_identical(self, example_chips, name):
        library = Library(f"roundtrip_{name}", NMOS)
        library.add_cell(example_chips[name])
        text = write_cif(library)
        assert write_cif(parse_cif(text, NMOS)) == text


class TestParser:
    def test_comments_ignored(self):
        text = "(a comment); DS 1 100 1; 9 c; L NM; B 4 4 2 2; DF; C 1; E"
        lib = parse_cif(text)
        assert lib.cell("c").shapes[0].bbox == Rect(0, 0, 4, 4)

    def test_round_flash_becomes_square(self):
        text = "DS 1 100 1; 9 c; L NM; R 4 10 10; DF; C 1; E"
        lib = parse_cif(text)
        assert lib.cell("c").shapes[0].bbox == Rect(8, 8, 12, 12)

    def test_box_with_direction_swaps_axes(self):
        text = "DS 1 100 1; 9 c; L NM; B 6 2 10 10 0 1; DF; C 1; E"
        lib = parse_cif(text)
        rect = lib.cell("c").shapes[0].bbox
        assert (rect.width, rect.height) == (2, 6)

    def test_unknown_user_extension_ignored(self):
        text = "DS 1 100 1; 9 c; 92 whatever; L NM; B 4 4 2 2; DF; C 1; E"
        assert len(parse_cif(text).cell("c").shapes) == 1

    def test_missing_end_raises(self):
        with pytest.raises(CifSyntaxError):
            parse_cif("DS 1 100 1; DF; C 1;")

    def test_unterminated_symbol_raises(self):
        with pytest.raises(CifSyntaxError):
            parse_cif("DS 1 100 1; L NM; B 4 4 2 2; E")

    def test_geometry_outside_symbol_raises(self):
        with pytest.raises(CifSyntaxError):
            parse_cif("L NM; B 4 4 2 2; E")

    def test_call_to_undefined_symbol_raises(self):
        with pytest.raises(CifSyntaxError):
            parse_cif("DS 1 100 1; 9 a; C 7; DF; C 1; E")

    def test_malformed_polygon_raises(self):
        with pytest.raises(CifSyntaxError):
            parse_cif("DS 1 100 1; L NM; P 0 0 1; DF; E")

    def test_odd_sized_rect_parses_back_as_a_rect(self):
        lib = Library("odd", NMOS)
        cell = lib.new_cell("c")
        cell.add_box("metal", 0, 0, 3, 3)
        cell.add_box("poly", -1, 2, 5, 9)
        text = write_cif(lib)
        assert "P 0 0 3 0 3 3 0 3;" in text and "P -1 2 5 2 5 9 -1 9;" in text
        parsed = parse_cif(text).cell("c")
        assert [shape.geometry for shape in parsed.shapes] == \
            [Rect(0, 0, 3, 3), Rect(-1, 2, 5, 9)]
        assert write_cif(parse_cif(text)) == text

    @pytest.mark.parametrize("coords", [
        "0 0 4 0 6 4 2 4",        # skewed: a parallelogram
        "0 0 3 1 3 4 0 3",        # four vertices, not axis-aligned
        "0 0 0 3 3 3 3 0",        # a rectangle, clockwise
        "3 0 3 3 0 3 0 0",        # a rectangle, from another corner
        "0 0 4 0 4 4 0 4",        # centre on the grid: written as B
        "0 0 3 0 3 0 0 0",        # zero height
    ])
    def test_any_other_four_vertex_polygon_stays_a_polygon(self, coords):
        text = f"DS 1 100 1; 9 c; L NM; P {coords}; DF; C 1; E"
        shape = parse_cif(text).cell("c").shapes[0]
        assert isinstance(shape.geometry, Polygon)
        assert [coord for vertex in shape.geometry.vertices
                for coord in vertex] == [int(c) for c in coords.split()]

    @pytest.mark.parametrize("coords", ["0 0 1", "0 0 3 0", "0 0 3 0 3 3 0"])
    def test_degenerate_polygon_is_cif009_raised_or_collected(self, coords):
        text = f"DS 1 100 1; 9 c; L NM; P {coords}; DF; C 1; E"
        with pytest.raises(CifSyntaxError) as raised:
            parse_cif(text)
        assert raised.value.diagnostic.code == "CIF009"
        collector = DiagnosticCollector("cif")
        parse_cif(text, collector=collector)
        assert "CIF009" in collector.codes()

    def test_unknown_command_raises(self):
        with pytest.raises(CifSyntaxError):
            parse_cif("DS 1 100 1; Q 1 2; DF; E")

    def test_unknown_cif_layer_kept_verbatim(self):
        text = "DS 1 100 1; 9 c; L ZZ; B 4 4 2 2; DF; C 1; E"
        assert parse_cif(text).cell("c").shapes[0].layer == "ZZ"
