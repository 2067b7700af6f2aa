"""The maze router's search and flood as first written: plain Dijkstra, a
cell-by-cell fill.

:class:`DijkstraMazeRouter` is :class:`~repro.pnr.router.MazeRouter` with
the frontier ordered by cost so far alone — the search the router ran
before it took the Manhattan bound.  Lattice, blockage bookkeeping,
terminal clearance, reachability flood, snapping and taps are the
parent's, so the two differ in exactly the order states are popped: the
path *cost* must be equal on every instance, and the states A* settles —
what both count, superseded heap entries left out — are no more than the
ones settled here (``tests/test_pnr.py::TestSearchAgainstDijkstra``).

:func:`cell_flood` is the reachability flood the router ran before it
walked free row spans (:func:`~repro.pnr.router.span_flood`): the
breadth-first fill of Lee's maze router, one cell at a time, over the same
blocked-cell array.  Both must give the same answer on every query
(``tests/test_pnr.py::TestSpanFlood``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import Budget
from repro.obs import metrics as obs_metrics
from repro.pnr.router import _TURN_COST, MazeRouter, _walk_back


def cell_flood(blocked: Sequence[int], stride: int, start: int, goal: int,
               opened: Set[int]) -> bool:
    """Whether a 4-connected path of free cells joins ``start`` and
    ``goal`` over a router's ``_blocked`` array of ``stride``-cell rows (a
    cell is free when it is zero or in ``opened``).

    Breadth-first from both ends, one cell at a time, always growing the
    smaller frontier.
    """
    if start == goal:
        return True
    side_of = bytearray(len(blocked))
    side_of[start], side_of[goal] = 1, 2
    frontiers = {1: [start], 2: [goal]}
    while True:
        side = 1 if len(frontiers[1]) <= len(frontiers[2]) else 2
        grown: List[int] = []
        for cell in frontiers[side]:
            for near in (cell + 1, cell - 1, cell + stride, cell - stride):
                if side_of[near] == side or (
                        blocked[near] and near not in opened):
                    continue
                if side_of[near]:
                    return True
                side_of[near] = side
                grown.append(near)
        if not grown:
            return False
        frontiers[side] = grown


class DijkstraMazeRouter(MazeRouter):
    """:class:`MazeRouter` whose priced search expands by cost alone."""

    def _search(self, net: str, start: int, goal: int,
                opened: Set[int]) -> Optional[List[int]]:
        blocked = self._blocked
        pitch = self.pitch
        steps = ((1, 1), (-1, 1), (self._stride, 2), (-self._stride, 2))
        budget = Budget(iterations=self.max_expansions,
                        label="maze expansion", code="ROU006")
        message = (f"maze router exceeded {self.max_expansions} expansions "
                   f"routing net {net!r}")
        came: Dict[int, int] = {}
        costs: Dict[int, int] = {3 * start: 0}
        frontier: List[Tuple[int, int, int]] = [(0, 0, 3 * start)]
        tie = 0
        found: Optional[int] = None
        try:
            while frontier:
                cost, _, state = heapq.heappop(frontier)
                if cost > costs.get(state, cost):
                    continue
                budget.tick(message)
                cell, heading = divmod(state, 3)
                if cell == goal:
                    found = state
                    break
                for offset, new_heading in steps:
                    near = cell + offset
                    if blocked[near] and near not in opened:
                        continue
                    next_cost = cost + pitch
                    if heading and new_heading != heading:
                        next_cost += _TURN_COST
                    next_state = 3 * near + new_heading
                    if next_cost < costs.get(next_state, next_cost + 1):
                        costs[next_state] = next_cost
                        came[next_state] = state
                        tie += 1
                        heapq.heappush(frontier, (next_cost, tie, next_state))
        finally:
            obs_metrics.counter("pnr.maze.expansions").inc(budget.count)
        if found is None:
            return None
        return _walk_back(came, found)
