"""Metrics: the numbers the evaluation section of a 1979 DA paper reports.

Area (in square lambda and square millimetres), transistor counts, wire
length, regularity, estimated speed from the technology's inverter pair
delay, and simple fixed-width table formatting so every benchmark prints
rows the way the paper's tables would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.geometry.path import Path
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.stats import cell_statistics
from repro.runtime import gc_paused
from repro.technology.technology import Technology


@dataclass
class DesignMetrics:
    """Summary metrics for one layout block."""

    name: str
    width_lambda: int
    height_lambda: int
    area_sq_lambda: int
    area_sq_mm: float
    mask_area_sq_lambda: int
    density: float
    regularity: float
    hierarchy_depth: int
    distinct_cells: int
    wire_length_lambda: int

    def row(self) -> List[str]:
        return [
            self.name,
            str(self.width_lambda),
            str(self.height_lambda),
            str(self.area_sq_lambda),
            f"{self.area_sq_mm:.3f}",
            f"{self.density:.2f}",
            f"{self.regularity:.1f}",
            str(self.hierarchy_depth),
        ]

    @staticmethod
    def header() -> List[str]:
        return ["block", "width", "height", "area(l^2)", "area(mm^2)",
                "density", "regularity", "depth"]


def measure_cell(cell: Cell, technology: Technology) -> DesignMetrics:
    """Compute the standard metrics for a cell.

    :meth:`repro.analysis.HierAnalyzer.measure` computes the same numbers
    from per-cell cached statistics instead of a full flatten.
    """
    with gc_paused():
        stats = cell_statistics(cell)
        return metrics_from_stats(stats, technology,
                                  wire_length=wire_length_estimate(cell))


def metrics_from_stats(stats, technology: Technology,
                       wire_length: int = 0) -> DesignMetrics:
    """Build :class:`DesignMetrics` from already-computed cell statistics.

    Shared by the flat path above and the hierarchical analyzer
    (:mod:`repro.analysis.hier`), so both derive every reported number with
    exactly the same arithmetic.
    """
    lambda_mm = technology.lambda_nm / 1e6
    area_mm2 = stats.bbox_area * lambda_mm * lambda_mm
    return DesignMetrics(
        name=stats.name,
        width_lambda=stats.bbox_width,
        height_lambda=stats.bbox_height,
        area_sq_lambda=stats.bbox_area,
        area_sq_mm=area_mm2,
        mask_area_sq_lambda=stats.total_mask_area,
        density=stats.density(),
        regularity=stats.regularity,
        hierarchy_depth=stats.hierarchy_depth,
        distinct_cells=stats.distinct_cell_count,
        wire_length_lambda=wire_length,
    )


def wire_length_estimate(cell: Cell) -> int:
    """Total centre-line length of all explicit wires in the hierarchy."""
    flat = flatten_cell(cell)
    total = 0
    for shape in flat.shapes:
        if isinstance(shape.geometry, Path):
            total += shape.geometry.length
    return total


def speed_estimate_ns(logic_depth: int, technology: Technology,
                      wire_length_lambda: int = 0) -> float:
    """Crude cycle-time estimate: logic depth times the inverter pair delay,
    plus a wire-delay term proportional to the routed length.

    Absolute values are era-scale, not calibrated; only ratios between two
    designs compiled in the same technology are meaningful (which is how the
    benchmarks use them).
    """
    pair_delay = technology.property("inverter_pair_delay_ns", 30.0)
    wire_penalty = 0.002 * wire_length_lambda
    return logic_depth * pair_delay / 2.0 + wire_penalty


@dataclass
class SlackHistogram:
    """Endpoint slacks bucketed for the timing sign-off report."""

    bin_edges: List[float]          # len(bins) + 1 edges
    counts: List[int]
    violations: int                 # endpoints with negative slack
    worst_ns: float                 # most negative (or smallest) slack
    total: int

    def rows(self) -> List[List[str]]:
        table = []
        for index, count in enumerate(self.counts):
            lo, hi = self.bin_edges[index], self.bin_edges[index + 1]
            table.append([f"[{lo:.1f}, {hi:.1f})", str(count)])
        return table


def slack_histogram(slacks_ns: Sequence[float], bins: int = 8) -> SlackHistogram:
    """Bucket endpoint slacks into equal-width bins.

    Negative slacks (violations) are counted separately so a sign-off
    report can lead with them; a degenerate range (all slacks equal)
    collapses to one bin.
    """
    values = list(slacks_ns)
    if not values:
        return SlackHistogram([0.0, 0.0], [0], 0, 0.0, 0)
    low, high = min(values), max(values)
    violations = sum(1 for s in values if s < 0)
    if high <= low:
        return SlackHistogram([low, low], [len(values)], violations, low,
                              len(values))
    width = (high - low) / bins
    edges = [low + i * width for i in range(bins + 1)]
    counts = [0] * bins
    for value in values:
        index = min(int((value - low) / width), bins - 1)
        counts[index] += 1
    return SlackHistogram(edges, counts, violations, low, len(values))


def format_histogram(histogram: SlackHistogram, width: int = 40,
                     title: Optional[str] = None) -> str:
    """ASCII bar rendering of a slack histogram."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = max(histogram.counts) if histogram.counts else 0
    for index, count in enumerate(histogram.counts):
        lo = histogram.bin_edges[index]
        hi = histogram.bin_edges[min(index + 1, len(histogram.bin_edges) - 1)]
        bar = "#" * (0 if peak == 0 else max(1 if count else 0,
                                             round(count * width / peak)))
        lines.append(f"{lo:>9.1f} .. {hi:>9.1f} ns | {bar} {count}")
    lines.append(f"endpoints: {histogram.total}, violations: "
                 f"{histogram.violations}, worst slack: "
                 f"{histogram.worst_ns:.2f} ns")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Fixed-width text table (the benchmarks print these as their output)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, value in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(value))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)))
    return "\n".join(lines)
