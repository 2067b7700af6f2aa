"""E6 — structured, hierarchical description leverage.

"Structured designs can be described by structured programs and ... data
type extensions provides a method of putting together hierarchical
descriptions."  This benchmark measures the leverage: for regular structures
of increasing size, the hierarchical description (distinct cells and shapes,
CIF text size) stays nearly constant while the flattened design grows —
quantified by the regularity index and the hierarchical-vs-flat CIF sizes.
"""

import io

import pytest

from benchmarks.conftest import emit, record_bench, register_file
from repro.cells import RegisterBitCell
from repro.cif import CifWriter
from repro.generators import DecoderGenerator
from repro.layout import Library, cell_statistics, flatten_cell
from repro.layout.cell import Cell
from repro.metrics import format_table


def hierarchical_cif_size(cell, technology):
    buffer = io.StringIO()
    CifWriter().write_cell(cell, buffer, technology=technology)
    return len(buffer.getvalue())


def flattened_cif_size(cell, technology):
    flat = flatten_cell(cell)
    flat_cell = Cell(f"{cell.name}_flat")
    for shape in flat.shapes:
        flat_cell.add_shape(shape)
    buffer = io.StringIO()
    CifWriter().write_cell(flat_cell, buffer, technology=technology)
    return len(buffer.getvalue())


def build_designs(technology):
    designs = []
    register = RegisterBitCell(technology).cell()
    for count in (4, 16, 64):
        designs.append((f"register_file_{count}",
                        register_file(f"regfile_{count}", register, count)))
    designs.append(("decoder_5bit", DecoderGenerator(technology, address_bits=5).cell()))
    return designs


def test_e6_hierarchy_leverage(benchmark, technology):
    designs = benchmark(build_designs, technology)
    rows = []
    for name, cell in designs:
        stats = cell_statistics(cell)
        hier_size = hierarchical_cif_size(cell, technology)
        flat_size = flattened_cif_size(cell, technology)
        rows.append([
            name, stats.distinct_cell_count, stats.flattened_shape_count,
            f"{stats.regularity:.1f}", hier_size, flat_size,
            f"{flat_size / hier_size:.1f}x",
        ])
    emit(format_table(
        ["design", "distinct cells", "flattened shapes", "regularity",
         "hierarchical CIF bytes", "flat CIF bytes", "CIF leverage"],
        rows, "E6: hierarchy and regularity leverage"))

    # The register file family: flattened size grows ~16x from 4 to 64 bits
    # while the hierarchical description grows far more slowly, so the CIF
    # leverage (flat bytes / hierarchical bytes) increases with array size.
    reg_rows = [row for row in rows if row[0].startswith("register_file")]
    assert reg_rows[-1][2] > 10 * reg_rows[0][2]          # flattened shapes grow
    hier_growth = reg_rows[-1][4] / reg_rows[0][4]
    flat_growth = reg_rows[-1][5] / reg_rows[0][5]
    assert hier_growth < flat_growth / 2
    assert float(reg_rows[-1][6][:-1]) > float(reg_rows[0][6][:-1])
    # Every regular structure beats 4x regularity; regularity grows along the
    # register files and the 64-row file beats 100x.
    assert all(float(row[3]) >= 4.0 for row in rows[1:])
    regularity = [float(row[3]) for row in reg_rows]
    assert regularity == sorted(regularity) and regularity[-1] > 100.0

    record_bench(
        "e6", benchmark,
        designs=len(rows),
        flattened_shapes=sum(row[2] for row in rows),
        best_regularity=max(float(row[3]) for row in rows),
        best_cif_leverage=max(float(row[6][:-1]) for row in rows),
    )
