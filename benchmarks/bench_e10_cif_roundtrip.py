"""E10 — fidelity and economy of the manufacturing interface (CIF).

CIF is the interface the compiler hands to mask making [8]; this benchmark
writes every major generated block to CIF, re-parses it, verifies the
geometry is preserved exactly, and reports the file sizes — including the
economy that hierarchical symbol definitions provide over flat geometry.
"""

import io

import pytest

from benchmarks.conftest import emit, record_bench, register_file
from repro.cells import InverterCell, RegisterBitCell
from repro.cif import CifWriter, parse_cif, write_cif
from repro.generators import DecoderGenerator, PlaGenerator, RomGenerator
from repro.layout import Library, flatten_cell
from repro.layout.cell import Cell
from repro.logic import TruthTable, parse_expr
from repro.metrics import format_table


def build_blocks(technology):
    table = TruthTable.from_expressions(
        {"s": parse_expr("a ^ b ^ c"), "m": parse_expr("a&b | b&c | a&c")},
        input_names=["a", "b", "c"])
    return [
        ("inverter", InverterCell(technology).cell()),
        ("register_file_16", register_file("e10_regfile",
                                           RegisterBitCell(technology).cell(), 16)),
        ("adder_pla", PlaGenerator(technology, table, name="e10_pla").cell()),
        ("decoder_4", DecoderGenerator(technology, address_bits=4).cell()),
        ("rom_32x8", RomGenerator(technology, [i % 251 for i in range(32)],
                                  bits_per_word=8).cell()),
    ]


def roundtrip_all(technology):
    results = []
    for name, cell in build_blocks(technology):
        library = Library(f"lib_{name}", technology)
        library.add_cell(cell)
        text = write_cif(library)
        parsed = parse_cif(text)
        original = {layer: sorted(r) for layer, r in
                    flatten_cell(cell).rects_by_layer().items()}
        recovered = {layer: sorted(r) for layer, r in
                     flatten_cell(parsed.cell(cell.name)).rects_by_layer().items()}
        flat_cell = Cell(f"{cell.name}_flat")
        for shape in flatten_cell(cell).shapes:
            flat_cell.add_shape(shape)
        buffer = io.StringIO()
        CifWriter().write_cell(flat_cell, buffer, technology=technology)
        flat_bytes = len(buffer.getvalue())
        results.append((name, original == recovered, len(text), flat_bytes,
                        len(flatten_cell(cell).shapes)))
    return results


def test_e10_cif_roundtrip_fidelity(benchmark, technology):
    results = benchmark(roundtrip_all, technology)
    rows = [[name, "yes" if ok else "NO", hier_bytes, flat_bytes,
             f"{flat_bytes / hier_bytes:.1f}x", shapes]
            for name, ok, hier_bytes, flat_bytes, shapes in results]
    emit(format_table(
        ["block", "exact roundtrip", "hierarchical CIF bytes", "flat CIF bytes",
         "hierarchy economy", "flattened shapes"],
        rows, "E10: CIF as the manufacturing interface"))

    assert all(ok for _name, ok, *_rest in results)
    # Hierarchy pays: for the regular blocks the flat file is much larger.
    economy = {name: flat / hier for name, _ok, hier, flat, _shapes in results}
    assert economy["register_file_16"] > 3.0
    assert economy["rom_32x8"] > 3.0

    record_bench(
        "e10", benchmark,
        blocks=len(results),
        total_flattened_shapes=sum(shapes for *_x, shapes in results),
        best_economy=round(max(economy.values()), 2),
    )
