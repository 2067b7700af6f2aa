"""E3 — parameterised regular-block compilation (the microscopic compiler).

"Regular blocks, such as memories and PLAs, are programmed for specific
functions."  This benchmark sweeps the generator parameters (PLA inputs and
product terms, ROM words) and reports how the generated area and
transistor counts scale — the predictability that makes generators usable
as compilers.
"""

import random

import pytest

from benchmarks.conftest import emit, record_bench
from repro.generators import PlaGenerator, RomGenerator
from repro.logic import TruthTable
from repro.metrics import format_table


def random_table(num_inputs, num_outputs, seed):
    rng = random.Random(seed)
    table = TruthTable([f"i{k}" for k in range(num_inputs)],
                       [f"o{k}" for k in range(num_outputs)])
    for row in range(2 ** num_inputs):
        for name in table.output_names:
            table.set_output(row, name, rng.randint(0, 1) & rng.randint(0, 1))
    return table


def sweep_plas(technology):
    rows = []
    for num_inputs in (4, 6, 8, 10):
        table = random_table(num_inputs, 4, seed=num_inputs)
        generator = PlaGenerator(technology, table, name=f"e3_pla_{num_inputs}")
        generator.cell()
        report = generator.report
        rows.append([num_inputs, 4, report.terms, report.width, report.height,
                     report.area, report.total_transistors])
    return rows


def sweep_roms(technology):
    rows = []
    rng = random.Random(42)
    for words in (16, 64, 256):
        contents = [rng.randrange(256) for _ in range(words)]
        generator = RomGenerator(technology, contents, bits_per_word=8)
        generator.cell()
        report = generator.report
        rows.append([words, 8, report.area, report.transistors])
    return rows


def test_e3_pla_parameter_sweep(benchmark, technology):
    rows = benchmark(sweep_plas, technology)
    emit(format_table(
        ["inputs", "outputs", "terms", "width", "height", "area", "transistors"],
        rows, "E3a: PLA generator parameter sweep"))
    # Area grows monotonically with the number of inputs in the sweep.
    areas = [row[5] for row in rows]
    assert areas == sorted(areas)


def test_e3_rom_parameter_sweep(benchmark, technology):
    rows = benchmark(sweep_roms, technology)
    emit(format_table(["words", "bits/word", "area", "transistors"], rows,
                      "E3b: ROM generator parameter sweep"))
    areas = [row[2] for row in rows]
    assert areas == sorted(areas)
    # Area per bit falls (or at least does not explode) as the array grows:
    # the decoder is amortised over more words.
    per_bit = [row[2] / (row[0] * row[1]) for row in rows]
    assert per_bit[-1] < per_bit[0] * 1.5

    # One file per experiment: the PLA counts come from the same sweep,
    # whose cells the generator cache already holds.
    pla_rows = sweep_plas(technology)
    record_bench(
        "e3", benchmark,
        pla_sweeps=len(pla_rows),
        largest_pla_terms=pla_rows[-1][2],
        largest_pla_transistors=pla_rows[-1][6],
        rom_sweeps=len(rows),
        largest_rom_transistors=rows[-1][3],
    )
