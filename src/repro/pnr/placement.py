"""Wirelength-driven placement refinement.

Shelf packing (:func:`repro.assembly.floorplan.pack_shelves`) decides block
positions from dimensions alone; connectivity never enters.  The refiner
here keeps the packer as the legalizer — every candidate is a shelf packing
of the real cells (their extents are memoised, so a candidate costs one
pass over the block list), overlap-free by construction — and anneals over
the *order* in which blocks are handed to it, scoring each candidate by the
half-perimeter wirelength (HPWL) of the pad+block connection list.  Pads
are anchored at the core-edge positions the pad ring's deterministic
side-assignment will give them, so the placer pulls each block toward the
side its pads land on before the ring is even built.

The report carries the validation the Structured-ASIC flows run after
placement: bounding-box utilisation, an explicit overlap scan through the
spatial index, and the initial/final wirelength pair the benchmarks track.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.assembly.floorplan import (
    Floorplan,
    UnknownTerminalError,
    pack_shelves,
)
from repro.assembly.padframe import PadSpec, distribute_pads
from repro.diagnostics import Budget, BudgetExceeded
from repro.geometry.index import build_index
from repro.geometry.rect import Rect
from repro.layout.cell import Cell

#: A connection endpoint: a pad name, or a ``(block, port)`` pair.
Terminal = Union[str, Tuple[str, str]]


@dataclass
class PlacementReport:
    """Outcome of placement refinement, with validation figures."""

    floorplan: Floorplan
    initial_wirelength: int
    final_wirelength: int
    moves_tried: int = 0
    moves_accepted: int = 0
    overlaps: List[Tuple[str, str]] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def improvement(self) -> float:
        """Fraction of the initial HPWL removed by refinement."""
        if self.initial_wirelength == 0:
            return 0.0
        return 1.0 - self.final_wirelength / self.initial_wirelength

    @property
    def utilisation(self) -> float:
        return self.floorplan.utilisation

    @property
    def legal(self) -> bool:
        return not self.overlaps


def refine_placement(blocks: Sequence[Tuple[str, Cell]],
                     connections: Sequence[Tuple[Terminal, Terminal]],
                     pads: Sequence[PadSpec] = (),
                     max_width: Optional[int] = None,
                     spacing: int = 10,
                     iterations: int = 400,
                     seed: int = 0,
                     budget: Optional[Budget] = None) -> PlacementReport:
    """Anneal the block order fed to the shelf packer to minimise HPWL.

    ``connections`` lists point-to-point nets; each endpoint is either a pad
    name (anchored at the side :func:`distribute_pads` will deal it to) or a
    ``(block, port)`` pair resolved against the packed floorplan.  The
    annealer is deterministic for a given ``seed``.  A ``budget``
    (code ROU007 recommended) bounds the work; on exhaustion the best
    placement found so far is returned with ``budget_exhausted`` set rather
    than raising, so a slow anneal can never block assembly.

    A malformed problem is rejected up front: duplicate block names or
    negative ``spacing`` raise :class:`PlacementError` (ROU010); an endpoint
    that is not a known pad name or a ``(known block, port)`` pair raises
    :class:`UnknownTerminalError` (ROU011).
    """
    baseline = pack_shelves(blocks, max_width=max_width, spacing=spacing)
    _check_terminals(connections, {name for name, _ in blocks},
                     {spec.name for spec in pads})
    anchors = _pad_anchors(pads, baseline.width, baseline.height)
    initial = _wirelength(baseline, connections, anchors)
    if len(blocks) <= 1 or not connections:
        return PlacementReport(baseline, initial, initial)

    rng = random.Random(seed)
    order = list(blocks)
    # The height-sorted packing is the seed candidate: never return worse.
    best_order: Optional[List[str]] = None
    best_cost = initial
    current_cost = initial
    # Geometric cooling from a temperature that accepts ~half the early
    # uphill moves down to effectively greedy.
    temperature = max(1.0, initial * 0.05)
    cooling = 0.995
    tried = accepted = 0
    exhausted = False
    try:
        for _ in range(iterations):
            if budget is not None:
                budget.tick("placement annealing exceeded its budget")
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
            tried += 1
            plan = pack_shelves(order, max_width=max_width, spacing=spacing,
                                keep_order=True)
            cost = _wirelength(plan, connections, anchors)
            delta = cost - current_cost
            if delta <= 0 or rng.random() < _accept(delta, temperature):
                current_cost = cost
                accepted += 1
                if cost < best_cost:
                    best_cost = cost
                    best_order = [name for name, _ in order]
            else:
                order[i], order[j] = order[j], order[i]
            temperature *= cooling
    except BudgetExceeded:
        exhausted = True

    by_name = dict(blocks)
    if best_order is None:
        best_plan = baseline
    else:
        best_plan = pack_shelves([(name, by_name[name]) for name in best_order],
                                 max_width=max_width, spacing=spacing,
                                 keep_order=True)
    report = PlacementReport(best_plan, initial, best_cost,
                             moves_tried=tried, moves_accepted=accepted,
                             budget_exhausted=exhausted)
    _validate(report)
    return report


def _accept(delta: float, temperature: float) -> float:
    if temperature <= 0:
        return 0.0
    try:
        return math.exp(-delta / temperature)
    except OverflowError:
        return 0.0


def _pad_anchors(pads: Sequence[PadSpec], core_width: int,
                 core_height: int) -> Dict[str, Tuple[int, int]]:
    """Approximate core-edge coordinates for each pad.

    Pads are dealt to sides deterministically; each pad is anchored at its
    proportional position along its side of the core bounding box, which is
    where its tail will face once the ring is built.
    """
    anchors: Dict[str, Tuple[int, int]] = {}
    for side, specs in distribute_pads(pads).items():
        count = len(specs)
        for index, spec in enumerate(specs):
            fraction = (index + 1) / (count + 1)
            if side == "south":
                anchors[spec.name] = (int(core_width * fraction), 0)
            elif side == "north":
                anchors[spec.name] = (int(core_width * fraction), core_height)
            elif side == "west":
                anchors[spec.name] = (0, int(core_height * fraction))
            else:
                anchors[spec.name] = (core_width, int(core_height * fraction))
    return anchors


def _check_terminals(connections: Sequence[Tuple[Terminal, Terminal]],
                     block_names: Set[str], pad_names: Set[str]) -> None:
    """Every endpoint must resolve, or its net would silently score zero."""
    for connection in connections:
        if not isinstance(connection, (tuple, list)) or len(connection) != 2:
            raise UnknownTerminalError(
                f"connection {connection!r} is not a pair of terminals")
        for terminal in connection:
            if isinstance(terminal, str):
                if terminal not in pad_names:
                    raise UnknownTerminalError(f"no pad named {terminal!r}")
            elif (isinstance(terminal, (tuple, list)) and len(terminal) == 2
                    and all(isinstance(part, str) for part in terminal)):
                if terminal[0] not in block_names:
                    raise UnknownTerminalError(
                        f"no core block named {terminal[0]!r}")
            else:
                raise UnknownTerminalError(
                    f"terminal {terminal!r} is neither a pad name nor a "
                    "(block, port) pair")


def _wirelength(plan: Floorplan,
                connections: Sequence[Tuple[Terminal, Terminal]],
                anchors: Dict[str, Tuple[int, int]]) -> int:
    total = 0
    for a, b in connections:
        pa = _terminal_position(plan, a, anchors)
        pb = _terminal_position(plan, b, anchors)
        # HPWL of a two-terminal net is its Manhattan length.
        total += abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
    return total


def _terminal_position(plan: Floorplan, terminal: Terminal,
                       anchors: Dict[str, Tuple[int, int]],
                       ) -> Tuple[int, int]:
    if isinstance(terminal, str):
        return anchors[terminal]
    block, port_name = terminal
    item = plan.item(block)
    if item.cell.has_port(port_name):
        position = item.cell.port(port_name).position
        return (item.x + position.x, item.y + position.y)
    return (item.x + item.width // 2, item.y + item.height // 2)


def _validate(report: PlacementReport) -> None:
    """Overlap scan through the spatial index (shelf packing should be legal
    by construction; this catches regressions in the packer itself)."""
    items = report.floorplan.items
    rects = [Rect(i.x, i.y, i.x + i.width, i.y + i.height) for i in items]
    index = build_index(rects)
    for i, rect in enumerate(rects):
        for j in index.query(rect, strict=True):
            if j > i:
                report.overlaps.append((items[i].name, items[j].name))
