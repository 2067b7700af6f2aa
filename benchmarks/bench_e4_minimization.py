"""E4 — logic minimisation leverage in PLA compilation.

A programmed PLA's area is proportional to its product-term count, so the
minimiser is the difference between a usable and an unusable PLA compiler.
This benchmark compares no minimisation, the heuristic (consensus) minimiser
and the exact (Quine-McCluskey) minimiser on structured and random
personalities, reporting terms and resulting PLA area.  It is also the
ablation for the PLA generator's choice of minimisation algorithm.
"""

import random

import pytest

from benchmarks.conftest import emit, record_bench
from repro.generators import PlaGenerator
from repro.logic import TruthTable, minimize, parse_expr
from repro.metrics import format_table


def personalities():
    """A mix of structured and random multi-output functions."""
    result = {}
    result["bcd_to_7seg_like"] = TruthTable.from_expressions(
        {
            "seg_a": parse_expr("~b & ~d | a | b & d | c & d"),
            "seg_b": parse_expr("~b | ~c & ~d | c & d"),
            "seg_c": parse_expr("b | ~c | d"),
        },
        input_names=["a", "b", "c", "d"],
    )
    result["priority_encoder"] = TruthTable.from_expressions(
        {
            "y1": parse_expr("r3 | r2"),
            "y0": parse_expr("r3 | ~r2 & r1"),
            "valid": parse_expr("r3 | r2 | r1 | r0"),
        },
        input_names=["r3", "r2", "r1", "r0"],
    )
    rng = random.Random(1979)
    random_table = TruthTable([f"i{k}" for k in range(6)], ["f", "g"])
    for row in range(64):
        random_table.set_row(row, [int(rng.random() < 0.3), int(rng.random() < 0.3)])
    result["random_6in"] = random_table
    return result


def run_ablation(technology):
    rows = []
    for name, table in personalities().items():
        canonical = table.to_cover()
        for method in ("none", "heuristic", "exact"):
            reduced = minimize(table, method) if method != "none" else canonical
            generator = PlaGenerator(technology, reduced, minimize_cover=False,
                                     name=f"e4_{name}_{method}")
            generator.cell()
            rows.append([name, method, reduced.num_terms, reduced.literal_count(),
                         generator.report.area])
            assert reduced.is_equivalent_to(canonical)
    return rows


def test_e4_minimisation_ablation(benchmark, technology):
    rows = benchmark(run_ablation, technology)
    emit(format_table(
        ["personality", "minimiser", "terms", "literals", "PLA area"],
        rows, "E4: PLA area vs minimisation method"))

    # For every personality both minimisers are no worse than the canonical
    # cover, the PLA area follows the term count, and at least one
    # personality shows a strict area win (the point of experiment E4).
    by_name = {}
    for name, method, terms, _literals, area in rows:
        by_name.setdefault(name, {})[method] = (terms, area)
    strict_win = False
    for name, methods in by_name.items():
        assert methods["exact"][0] <= methods["none"][0]
        assert methods["heuristic"][0] <= methods["none"][0]
        assert methods["exact"][1] <= methods["none"][1]
        if methods["exact"][1] < methods["none"][1]:
            strict_win = True
    assert strict_win

    record_bench(
        "e4", benchmark,
        personalities=len(by_name),
        exact_terms=sum(methods["exact"][0] for methods in by_name.values()),
        canonical_terms=sum(methods["none"][0] for methods in by_name.values()),
    )
