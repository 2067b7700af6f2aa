"""E11 — the spatial-index geometry engine vs the all-pairs reference.

Not a paper experiment: this benchmark tracks the cost of the analysis
passes themselves.  It builds the ``examples/chip_assembly.py`` chip family
and runs DRC plus extraction twice — once on the production (indexed)
engines and once on the all-pairs oracles
(``repro.reference.BruteDrcChecker`` / ``BruteExtractor``) — asserting the
results are identical and recording the speedup in ``BENCH_e11.json``.  This is the number the ROADMAP's "fast as the
hardware allows" goal is graded on: the indexed engine must scale
near-linearly where the reference scales quadratically.
"""

import os
import sys
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.layout.flatten import flatten_cell
from repro.metrics import format_table
from repro.reference import BruteDrcChecker, BruteExtractor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402  (examples/ is not a package)


def netlist_signature(circuit):
    return (
        sorted(circuit.node_names),
        circuit.summary(),
        sorted((t.name, t.gate, t.source, t.drain, t.kind.value)
               for t in circuit.network.transistors),
    )


def analyse(chips, technology, checker_class, extractor_class):
    """DRC + extract every chip; returns (seconds, drc results, netlists)."""
    checker = checker_class(technology)
    extractor = extractor_class(technology)
    violations = []
    netlists = []
    start = time.perf_counter()
    for chip in chips:
        violations.append([str(v) for v in checker.check(chip)])
        netlists.append(netlist_signature(extractor.extract(chip)))
    return time.perf_counter() - start, violations, netlists


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

    record_bench(
        "e11", benchmark,
        flattened_shapes=sum(shape_counts),
        transistors=sum(n[1]["transistors"] for n in indexed_netlists),
        drc_violations=sum(len(v) for v in indexed_drc),
        indexed_seconds=round(indexed_seconds, 4),
        brute_force_seconds=round(brute_seconds, 4),
        speedup=round(speedup, 2),
    )
