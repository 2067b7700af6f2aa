"""E11 — the spatial-index geometry engine vs the all-pairs reference.

Not a paper experiment: this benchmark tracks the cost of the analysis
passes themselves.  It builds the ``examples/chip_assembly.py`` chip family
and runs DRC plus extraction twice — once on the production (indexed)
engines and once on the all-pairs oracles
(``repro.reference.BruteDrcChecker`` / ``BruteExtractor``) — asserting the
results are identical and recording the speedup in ``BENCH_e11.json``.  This is the number the ROADMAP's "fast as the
hardware allows" goal is graded on: the indexed engine must scale
near-linearly where the reference scales quadratically.

A second block times one flat sign-off of E12's 64-tile chip (77 322 flat
shapes) step by step — ``flatten_cell``, flat DRC, flat extraction and
``measure_cell``, each the median of ``CHIP_RUNS`` on a view of its own —
and asserts that violations, netlist and metrics equal a ``HierAnalyzer``
sign-off.  The chip-scale ``*_seconds`` fields are wall times on the
recording machine (see the file's ``cpu_count``), not gated ratios.
"""

import os
import statistics
import sys
import time

import pytest

from benchmarks.bench_e12_hier_analysis import build_tile_chip, netlist_identity
from benchmarks.conftest import emit, record_bench
from repro.analysis import HierAnalyzer
from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.layout.flatten import flatten_cell
from repro.metrics import format_table, measure_cell
from repro.reference import BruteDrcChecker, BruteExtractor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402  (examples/ is not a package)


CHIP_RUNS = 3


def netlist_signature(circuit):
    return (
        sorted(circuit.node_names),
        circuit.summary(),
        sorted((t.name, t.gate, t.source, t.drain, t.kind.value)
               for t in circuit.network.transistors),
    )


def analyse(chips, technology, checker_class, extractor_class):
    """DRC + extract every chip; returns (seconds, drc results, netlists).

    Each chip's top is flattened afresh first, untimed, so every call's
    engines build their layer merges again instead of reading the ones an
    earlier call left on the cached view.
    """
    for chip in chips:
        chip._flat_cache = None
        flatten_cell(chip)
    checker = checker_class(technology)
    extractor = extractor_class(technology)
    violations = []
    netlists = []
    start = time.perf_counter()
    for chip in chips:
        violations.append([str(v) for v in checker.check(chip)])
        netlists.append(netlist_signature(extractor.extract(chip)))
    return time.perf_counter() - start, violations, netlists


def median_seconds(step, before=None):
    """Median wall time of ``CHIP_RUNS`` calls of ``step``, each after an
    untimed call of ``before`` (if given); its last result."""
    samples = []
    for _ in range(CHIP_RUNS):
        if before is not None:
            before()
        start = time.perf_counter()
        result = step()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def chip_scale_flat_signoff(technology):
    """Seconds of each flat sign-off step on the 64-tile chip.

    Each DRC, extraction and ``measure_cell`` call gets a fresh flat view of
    the top, its rectangles decomposed, untimed: so every call builds the
    layer merges it reads instead of finding those an earlier call left.
    """
    chip, _rom = build_tile_chip(technology, name="e11_tile_chip")
    cells = chip.descendants() + [chip]

    def cold_flatten():
        for cell in cells:
            cell._flat_cache = None
        return flatten_cell(chip)

    def fresh_view():
        chip._flat_cache = None
        flatten_cell(chip).rects_by_layer()

    flatten_seconds, flat = median_seconds(cold_flatten)
    drc_seconds, violations = median_seconds(
        lambda: DrcChecker(technology).check(chip), fresh_view)
    extract_seconds, circuit = median_seconds(
        lambda: Extractor(technology).extract(chip), fresh_view)
    measure_seconds, chip_metrics = median_seconds(
        lambda: measure_cell(chip, technology), fresh_view)

    analyzer = HierAnalyzer(technology)
    assert violations == analyzer.drc(chip)
    assert netlist_identity(circuit) == netlist_identity(analyzer.extract(chip))
    assert chip_metrics == analyzer.measure(chip)
    return {"chip_flat_shapes": len(flat.shapes),
            "chip_flatten_seconds": round(flatten_seconds, 4),
            "chip_drc_seconds": round(drc_seconds, 4),
            "chip_extract_seconds": round(extract_seconds, 4),
            "chip_measure_seconds": round(measure_seconds, 4)}


def test_e11_indexed_analysis_vs_brute_force(benchmark, technology):
    chips = [build_chip(f"e11_chip_{bits}b", bits, extra)[1]
             for bits, extra in ((4, 0), (8, 2), (16, 4))]
    shape_counts = [len(flatten_cell(chip).shapes) for chip in chips]

    indexed_seconds, indexed_drc, indexed_netlists = benchmark(
        analyse, chips, technology, DrcChecker, Extractor)
    brute_seconds, brute_drc, brute_netlists = analyse(
        chips, technology, BruteDrcChecker, BruteExtractor)

    # The index is pure optimisation: identical violations and netlists.
    assert indexed_drc == brute_drc
    assert indexed_netlists == brute_netlists

    speedup = brute_seconds / max(indexed_seconds, 1e-9)
    rows = [[f"{chips[i].name}", shape_counts[i], len(indexed_drc[i]),
             indexed_netlists[i][1]["transistors"]] for i in range(len(chips))]
    rows.append(["TOTAL", sum(shape_counts),
                 sum(len(v) for v in indexed_drc),
                 sum(n[1]["transistors"] for n in indexed_netlists)])
    emit(format_table(
        ["chip", "flattened shapes", "DRC violations", "transistors"],
        rows,
        f"E11: indexed DRC+extract {indexed_seconds:.3f}s vs "
        f"all-pairs {brute_seconds:.3f}s ({speedup:.1f}x)"))

    # Conservative floor so CI noise does not flake the build; the measured
    # number (recorded below) is typically far higher.
    assert speedup > 2.0

    chip_scale = chip_scale_flat_signoff(technology)
    emit(format_table(
        ["step", "seconds"],
        [[step, f"{chip_scale[f'chip_{step}_seconds']:.3f}"]
         for step in ("flatten", "drc", "extract", "measure")],
        f"E11: flat sign-off of the 64-tile chip "
        f"({chip_scale['chip_flat_shapes']} flat shapes, median of "
        f"{CHIP_RUNS})"))

    record_bench(
        "e11", benchmark,
        flattened_shapes=sum(shape_counts),
        transistors=sum(n[1]["transistors"] for n in indexed_netlists),
        drc_violations=sum(len(v) for v in indexed_drc),
        indexed_seconds=round(indexed_seconds, 4),
        brute_force_seconds=round(brute_seconds, 4),
        speedup=round(speedup, 2),
        **chip_scale,
    )
