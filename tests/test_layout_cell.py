"""Tests for the layout database: cells, instances, ports, libraries."""

import time

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.library import Library
from repro.layout.shapes import Shape
from repro.layout.stats import hierarchy_depth
from repro.technology import NMOS


def make_leaf(name="leaf"):
    cell = Cell(name)
    cell.add_box("diffusion", 0, 0, 4, 10)
    cell.add_box("poly", -2, 4, 6, 6)
    cell.add_port("in", Point(-1, 5), "poly", "input")
    cell.add_port("out", Point(3, 9), "metal", "output")
    return cell


class TestCellConstruction:
    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Cell("bad name")
        with pytest.raises(ValueError):
            Cell("")

    def test_add_shapes_and_bbox(self):
        cell = make_leaf()
        assert cell.bbox() == Rect(-2, 0, 6, 10)
        assert cell.width == 8 and cell.height == 10

    def test_degenerate_rect_rejected(self):
        cell = Cell("c")
        with pytest.raises(ValueError):
            cell.add_box("metal", 0, 0, 0, 5)

    def test_ports(self):
        cell = make_leaf()
        assert set(cell.port_names()) == {"in", "out"}
        assert cell.port("in").direction == "input"
        with pytest.raises(KeyError):
            cell.port("zz")
        with pytest.raises(ValueError):
            cell.add_port("in", Point(0, 0), "metal")

    def test_add_wire_and_layers(self):
        cell = Cell("wires")
        cell.add_wire("metal", [Point(0, 0), Point(20, 0)], 3)
        assert cell.own_layers() == ["metal"]
        assert cell.shapes_on_layer("metal")[0].kind.value == "wire"

    def test_labels(self):
        cell = Cell("lab")
        cell.add_label("clk", Point(5, 5), "poly")
        assert cell.labels[0].text == "clk"


class TestHierarchy:
    def test_place_and_bbox(self):
        leaf = make_leaf()
        parent = Cell("parent")
        parent.place(leaf, 100, 50)
        assert parent.bbox() == Rect(98, 50, 106, 60)

    def test_cycle_detection(self):
        a, b = Cell("a"), Cell("b")
        a.add_instance(b)
        with pytest.raises(ValueError):
            b.add_instance(a)
        with pytest.raises(ValueError):
            a.add_instance(a)

    def test_port_position_through_instance(self):
        leaf = make_leaf()
        parent = Cell("p")
        instance = parent.place(leaf, 10, 20, Orientation.R0)
        assert instance.port_position("out") == Point(13, 29)

    def test_mirrored_instance_bbox(self):
        leaf = make_leaf()
        parent = Cell("p")
        parent.place(leaf, 0, 0, Orientation.MX)
        box = parent.bbox()
        assert box.width == leaf.width

    def test_descendants_bottom_up(self):
        leaf = make_leaf()
        mid = Cell("mid")
        mid.place(leaf, 0, 0)
        top = Cell("top")
        top.place(mid, 0, 0)
        names = [c.name for c in top.descendants()]
        assert names.index("leaf") < names.index("mid")

    def test_children_distinct(self):
        leaf = make_leaf()
        parent = Cell("p")
        parent.place(leaf, 0, 0)
        parent.place(leaf, 20, 0)
        assert len(parent.children()) == 1
        assert parent.instance_count() == 2

    def test_references(self):
        leaf = make_leaf()
        parent = Cell("p")
        parent.place(leaf, 0, 0)
        assert parent.references(leaf)
        assert not leaf.references(parent)

    def test_hierarchy_counts_visit_cells_not_paths(self):
        # Thirty shape-less cells, each placing the next twice, over one
        # leaf: 31 cells, 60 instances, 2**31 - 2 instance *paths*.  A count
        # that recursed per instance would never return.
        cell = Cell("chain_leaf")
        for level in range(30):
            parent = Cell(f"chain_{level}")
            parent.place(cell, 0, 0)
            parent.place(cell, 10, 0)
            cell = parent
        started = time.perf_counter()
        assert cell.instance_count() == 2 ** 31 - 2
        assert hierarchy_depth(cell) == 31
        assert time.perf_counter() - started < 1.0


class TestLibrary:
    def test_new_cell_and_lookup(self):
        lib = Library("lib", NMOS)
        cell = lib.new_cell("x")
        assert lib.cell("x") is cell
        assert "x" in lib
        assert lib.get("missing") is None
        with pytest.raises(KeyError):
            lib.cell("missing")

    def test_duplicate_name_rejected(self):
        lib = Library("lib", NMOS)
        lib.new_cell("x")
        with pytest.raises(ValueError):
            lib.new_cell("x")

    def test_add_cell_registers_descendants(self):
        lib = Library("lib", NMOS)
        leaf = make_leaf()
        parent = Cell("parent")
        parent.place(leaf, 0, 0)
        lib.add_cell(parent)
        assert "leaf" in lib and "parent" in lib

    def test_add_cell_name_collision_with_different_object(self):
        lib = Library("lib", NMOS)
        lib.add_cell(make_leaf())
        with pytest.raises(ValueError):
            lib.add_cell(make_leaf())   # same name, different object

    def test_top_cells(self):
        lib = Library("lib", NMOS)
        leaf = make_leaf()
        parent = Cell("parent")
        parent.place(leaf, 0, 0)
        lib.add_cell(parent)
        assert [c.name for c in lib.top_cells()] == ["parent"]

    def test_remove_cell_in_use_rejected(self):
        lib = Library("lib", NMOS)
        leaf = make_leaf()
        parent = Cell("parent")
        parent.place(leaf, 0, 0)
        lib.add_cell(parent)
        with pytest.raises(ValueError):
            lib.remove_cell("leaf")
        lib.remove_cell("parent")
        lib.remove_cell("leaf")
        assert len(lib) == 0

    def test_cells_bottom_up(self):
        lib = Library("lib", NMOS)
        leaf = make_leaf()
        parent = Cell("parent")
        parent.place(leaf, 0, 0)
        lib.add_cell(parent)
        ordering = [c.name for c in lib.cells_bottom_up()]
        assert ordering.index("leaf") < ordering.index("parent")
