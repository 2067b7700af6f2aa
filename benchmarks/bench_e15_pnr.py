"""E15 — place & route: wirelength refinement and short-free pad routing.

The chip assembler used to draw every pad connection as a blind L-shaped
wire straight through whatever lay in its path.  This experiment measures
the replacement subsystem (:mod:`repro.pnr`) on the chip-assembly family's
8-bit member, the densest routing case in the examples:

* **placement** — the annealer must strictly improve (or match) the
  shelf-packed floorplan's half-perimeter wirelength, with zero block
  overlaps;
* **routing** — every pad-to-core net must complete through the
  obstacle-aware maze router (completion 1.0), and the drawn nets must be
  pairwise disjoint;
* **sign-off** — the routed chip must be DRC-clean.

``BENCH_e15.json`` records the figures; ``wirelength_speedup`` (initial
over refined HPWL, >= 1.0 by construction) is the ratio CI gates with
``check_regression.py`` — both sides are measured in the same run, so the
guard is machine-independent.  The router's work is recorded as counts
(``maze_calls``, ``maze_expansions``, ``maze_unreachable``) that repeat
exactly from run to run, beside the wall time of ``route_all``; CI fails
when a count or ``total_route_length`` differs from the committed file
(``check_regression.py --exact``), because either means the search order
moved.

Every reachability flood the assemble asks is recorded with a copy of the
blocked-cell array it read, and replayed twice in the same run: through the
cell-by-cell :func:`repro.reference.cell_flood` and through the production
:func:`repro.pnr.router.span_flood`, which must answer alike.
``flood_speedup`` (cell seconds over span seconds, medians of
``FLOOD_RUNS`` alternated passes over all the queries) rides on CI's 2x
ratio gate with ``wirelength_speedup``.
"""

import os
import statistics
import sys
import time

from benchmarks.conftest import emit, record_bench
from repro.metrics import format_table
from repro.obs import metrics as obs_metrics
from repro.pnr import PnrRouter
from repro.pnr.router import MazeRouter, span_flood
from repro.reference import cell_flood

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402

#: Alternated passes of each flood over every recorded query.
FLOOD_RUNS = 7


def flood_seconds(flood, queries):
    start = time.perf_counter()
    for query in queries:
        flood(*query)
    return time.perf_counter() - start


def test_e15_place_and_route(monkeypatch):
    floods = []
    reachable = MazeRouter._reachable

    def recorded_reachable(self, start, goal, opened):
        floods.append((bytes(self._blocked), self._stride, start, goal,
                       frozenset(opened)))
        return reachable(self, start, goal, opened)

    monkeypatch.setattr(MazeRouter, "_reachable", recorded_reachable)
    route_seconds = []
    route_all = PnrRouter.route_all

    def timed_route_all(self, cell, requests):
        start = time.perf_counter()
        try:
            return route_all(self, cell, requests)
        finally:
            route_seconds.append(time.perf_counter() - start)

    monkeypatch.setattr(PnrRouter, "route_all", timed_route_all)
    before = obs_metrics.snapshot(prefix="pnr.maze.")
    start = time.perf_counter()
    assembler, chip = build_chip("e15_family_8b", 8, 0)
    assemble_seconds = time.perf_counter() - start
    after = obs_metrics.snapshot(prefix="pnr.maze.")
    maze = {name: after[f"pnr.maze.{name}"] - before.get(f"pnr.maze.{name}", 0)
            for name in ("calls", "expansions", "unreachable")}

    placement = assembler.placement_report
    assert placement is not None
    assert not placement.overlaps
    assert placement.final_wirelength <= placement.initial_wirelength

    routing = assembler.routing_report
    assert routing is not None
    assert routing.completion == 1.0, [exc for _, exc in routing.failed]

    start = time.perf_counter()
    report = assembler.sign_off()
    sign_off_seconds = time.perf_counter() - start
    assert report.clean, f"{len(report.violations)} DRC violations"

    wirelength_speedup = (placement.initial_wirelength
                          / max(placement.final_wirelength, 1))
    assert wirelength_speedup >= 1.0

    assert len(floods) == maze["calls"]
    answers = [span_flood(*query)[0] for query in floods]
    assert answers == [cell_flood(*query) for query in floods]
    assert answers.count(False) == maze["unreachable"]
    cell_runs, span_runs = [], []
    for _ in range(FLOOD_RUNS):
        cell_runs.append(flood_seconds(cell_flood, floods))
        span_runs.append(flood_seconds(span_flood, floods))
    cell_seconds = statistics.median(cell_runs)
    span_seconds = statistics.median(span_runs)
    flood_speedup = cell_seconds / span_seconds

    rows = [[net.name, str(net.length)] for net in routing.routed]
    emit(format_table(
        ["net", "length (lambda)"], rows,
        f"E15: pad routing of the 8-bit family chip "
        f"({assembler.report.chip_width} x {assembler.report.chip_height} "
        f"lambda, {len(routing.routed)} nets, completion "
        f"{routing.completion:.0%})"))
    emit(format_table(
        ["stage", "value"],
        [["initial HPWL", str(placement.initial_wirelength)],
         ["refined HPWL", str(placement.final_wirelength)],
         ["improvement", f"{placement.improvement:.1%}"],
         ["moves accepted", f"{placement.moves_accepted}"
                            f"/{placement.moves_tried}"],
         ["DRC violations", str(len(report.violations))],
         ["maze searches", f"{maze['calls']} "
                           f"({maze['unreachable']} sealed)"],
         ["maze expansions", str(maze["expansions"])],
         ["flood time, cell / span (ms)", f"{cell_seconds * 1e3:.1f} / "
                                          f"{span_seconds * 1e3:.1f}"],
         ["lattice cells", str(after["pnr.maze.grid_cells"])],
         ["assemble time (s)", f"{assemble_seconds:.2f}"],
         ["  of which routing (s)", f"{sum(route_seconds):.2f}"],
         ["sign-off time (s)", f"{sign_off_seconds:.2f}"]],
        "E15: placement refinement and sign-off"))

    record_bench(
        "e15", None,
        nets_routed=len(routing.routed),
        nets_failed=len(routing.failed),
        route_completion=routing.completion,
        total_route_length=sum(net.length for net in routing.routed),
        initial_wirelength=placement.initial_wirelength,
        final_wirelength=placement.final_wirelength,
        placement_improvement=round(placement.improvement, 4),
        placement_overlaps=len(placement.overlaps),
        drc_violations=len(report.violations),
        erc_errors=len(report.erc.errors()),
        maze_calls=maze["calls"],
        maze_expansions=maze["expansions"],
        maze_unreachable=maze["unreachable"],
        assemble_seconds=round(assemble_seconds, 4),
        route_seconds=round(sum(route_seconds), 4),
        sign_off_seconds=round(sign_off_seconds, 4),
        wirelength_speedup=round(wirelength_speedup, 4),
        flood_speedup=round(flood_speedup, 4),
    )
