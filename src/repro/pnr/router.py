"""Obstacle-aware grid routing (A* maze search on a rasterised lattice).

The maze router works on a uniform lattice over the routing region.  A
lattice node is usable when a wire footprint centred there, grown by the
technology's spacing, overlaps no blockage — blockages being every metal
rectangle of the placed blocks and pad ring plus the wires of previously
routed nets.  That predicate is evaluated once per obstacle, not once per
visit: each :class:`MazeRouter` rasterises its blockages into a blocked-cell
array over the lattice, a routed net stamps and un-stamps its own cells by
name, and the search reads one byte per neighbour.  Metal is the routing
layer and only metal blocks it: poly and diffusion running underneath
cannot short to a route without a contact cut, which the router never
draws.

Search is A* with unit step cost, a small turn penalty (fewer corners
means fewer rectangles and less capacitance) and the Manhattan distance to
the goal as its bound — admissible and consistent, so the path found costs
exactly what Dijkstra's would (``repro.reference.DijkstraMazeRouter`` is
the oracle).  It is budget-bounded, so a huge maze terminates with a
diagnostic instead of flooding, and preceded by a two-sided reachability
flood, so a sealed net fails after exhausting its pocket.  The flood's unit
is a maximal free span of one lattice row, not a cell: two spans in
adjacent rows touch when their columns overlap (the scan-line view of
line-search routing), so an open region costs one visit per row
(``repro.reference.cell_flood`` is the cell-by-cell oracle).

The cells a terminal's own shapes block are re-checked against the static
obstacles once per terminal pair and lattice, and filtered by the nets
blocked at each call.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import (
    Budget,
    BudgetExceeded,
    Diagnostic,
    DiagnosticError,
    Severity,
)
from repro.geometry.index import SpatialIndex, build_index
from repro.geometry.path import Path
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.technology.technology import Technology


class RoutingError(DiagnosticError, ValueError):
    """No path exists between the requested terminals."""

    default_code = "ROU005"

    def __init__(self, message: str, diagnostic: Optional[Diagnostic] = None,
                 reason: str = "unreachable"):
        super().__init__(message, diagnostic)
        #: Why, as the ``reason`` attribute of the routing spans reads:
        #: ``"unreachable"`` (the lattice does not join the terminals) or
        #: ``"blocked_terminal"`` (a terminal cannot get onto the lattice).
        self.reason = reason


@dataclass(frozen=True)
class RouteRequest:
    """One two-terminal connection to route."""

    name: str
    source: Point
    target: Point


@dataclass
class RoutedNet:
    """One successfully routed connection."""

    name: str
    points: List[Point]
    length: int
    #: What the search paid for the lattice part of the path: ``pitch`` per
    #: step plus the turn penalty per bend (taps excluded).
    cost: int = 0


@dataclass
class RoutingReport:
    """Outcome of routing a batch of requests."""

    routed: List[RoutedNet] = field(default_factory=list)
    failed: List[Tuple[RouteRequest, Exception]] = field(default_factory=list)

    @property
    def completion(self) -> float:
        total = len(self.routed) + len(self.failed)
        if total == 0:
            return 1.0
        return len(self.routed) / total


#: Cost of a bend, on top of the unit step: keeps wires straight.
_TURN_COST = 2

#: Non-zero values of a lattice cell in ``MazeRouter._blocked``: blocked by
#: the obstacle set or ``bounds`` alone, or by a routed net (whatever else).
_STATIC, _ROUTED = 1, 2

#: A maximal span of free cells in one lattice row.
_FREE_SPAN = re.compile(rb"\x00+")


class MazeRouter:
    """Grid router over a fixed obstacle set plus the nets blocked so far.

    The lattice is rasterised once into a flat ``bytearray`` with a one-cell
    sentinel ring: a cell is non-zero when a wire footprint centred on its
    node, grown by the spacing rule, would leave ``bounds`` or strictly
    overlap a blockage.  The search then tests a neighbour with one array
    read, and the ring means it never needs a range check.
    """

    def __init__(self, bounds: Rect, obstacles: Sequence[Rect],
                 wire_width: int = 3, spacing: int = 3,
                 grid: Optional[int] = None,
                 max_expansions: int = 200_000):
        self.bounds = bounds
        self.wire_width = wire_width
        self.spacing = spacing
        self.pitch = grid if grid is not None else wire_width + spacing
        if self.pitch < 1:
            raise ValueError(
                f"lattice pitch must be positive, got {self.pitch}")
        self.max_expansions = max_expansions
        self._obstacles = list(obstacles)
        self._index: SpatialIndex = build_index(self._obstacles)
        #: Wire rectangles of each blocked net, by net name.
        self._nets: Dict[str, List[Rect]] = {}
        #: Per terminal tuple, the cells only the terminals' own shapes
        #: block in ``_static`` (see :meth:`_opened`).
        self._clearances: Dict[Tuple[Point, ...], List[int]] = {}

        half = wire_width // 2
        other = wire_width - half
        # A node is blocked by a rectangle when it lies strictly inside the
        # rectangle grown by these reaches (low side, high side).
        self._reach = (other + spacing, half + spacing)
        # Nodes whose bare footprint fits inside ``bounds``.
        first = -(-half // self.pitch)
        self._columns = max((bounds.width - other) // self.pitch + 1, 0)
        self._rows = max((bounds.height - other) // self.pitch + 1, 0)
        self._stride = self._columns + 2
        self._static = bytearray([_STATIC]) * (self._stride * (self._rows + 2))
        inside = bytes(max(self._columns - first, 0))
        for row in range(first, self._rows):
            base = (row + 1) * self._stride + 1 + first
            self._static[base:base + len(inside)] = inside
        for rect in self._obstacles:
            self._stamp(self._static, rect, _STATIC)
        #: ``_static`` plus the blocked nets' cells: what the search reads.
        self._blocked = bytearray(self._static)

    @property
    def grid_cells(self) -> int:
        """Lattice nodes inside ``bounds`` (the sentinel ring excluded)."""
        return self._columns * self._rows

    def at_pitch(self, pitch: int) -> "MazeRouter":
        """A router over the same obstacles and blocked nets on another
        lattice (the half-pitch retry's)."""
        other = type(self)(self.bounds, self._obstacles,
                            wire_width=self.wire_width, spacing=self.spacing,
                            grid=pitch, max_expansions=self.max_expansions)
        for net, rects in self._nets.items():
            other.block(net, rects)
        return other

    # -- blockage bookkeeping --------------------------------------------------------

    def block(self, net: str, rects: Sequence[Rect]) -> None:
        """Block future routes with the wires of ``net`` (just drawn)."""
        if net in self._nets:
            raise _bookkeeping_error(f"net {net!r} is already blocked")
        self._nets[net] = list(rects)
        for rect in rects:
            self._stamp(self._blocked, rect, _ROUTED)

    def unblock(self, net: str) -> None:
        """Free the cells only ``net`` blocked (it is being ripped up)."""
        if net not in self._nets:
            raise _bookkeeping_error(f"net {net!r} was never blocked")
        for rect in self._nets.pop(net):
            for lo, hi in self._row_slices(rect):
                self._blocked[lo:hi] = self._static[lo:hi]
        # Cells shared with a net that stays must stay blocked.
        for rects in self._nets.values():
            for rect in rects:
                self._stamp(self._blocked, rect, _ROUTED)

    def _row_slices(self, rect: Rect) -> Iterator[Tuple[int, int]]:
        """Per lattice row, the ``[lo, hi)`` cell range ``rect`` blocks."""
        low, high = self._reach
        pitch = self.pitch
        x_lo = rect.x1 - low - self.bounds.x1
        x_hi = rect.x2 + high - self.bounds.x1
        y_lo = rect.y1 - low - self.bounds.y1
        y_hi = rect.y2 + high - self.bounds.y1
        first_column = max(x_lo // pitch + 1, 0)
        last_column = min(-(-x_hi // pitch) - 1, self._columns - 1)
        if first_column > last_column:
            return
        first_row = max(y_lo // pitch + 1, 0)
        last_row = min(-(-y_hi // pitch) - 1, self._rows - 1)
        for row in range(first_row, last_row + 1):
            base = (row + 1) * self._stride + 1
            yield base + first_column, base + last_column + 1

    def _stamp(self, cells: bytearray, rect: Rect, value: int) -> None:
        for lo, hi in self._row_slices(rect):
            cells[lo:hi] = bytes([value]) * (hi - lo)

    def _node(self, cell: int) -> Tuple[int, int]:
        row, column = divmod(cell, self._stride)
        return (self.bounds.x1 + (column - 1) * self.pitch,
                self.bounds.y1 + (row - 1) * self.pitch)

    def _footprint(self, x: int, y: int) -> Rect:
        half = self.wire_width // 2
        other = self.wire_width - half
        return Rect(x - half, y - half, x + other, y + other)

    def _landing(self, point: Point) -> Rect:
        """The square around a terminal inside which metal counts as the
        terminal's own: whatever touches it is what the route lands on."""
        reach = self.wire_width // 2 + self.spacing
        return Rect(point.x - reach, point.y - reach,
                    point.x + reach, point.y + reach)

    def _exempt_ids(self, *points: Point) -> Set[int]:
        """Static obstacles a route may legally touch: the terminal shapes.

        Everything overlapping a terminal's immediate footprint is the metal
        the route must land on (pad tail, block port tab); spacing to it is
        not required — connecting to it is the point.
        """
        exempt: Set[int] = set()
        for point in points:
            exempt.update(self._index.query(self._landing(point)))
        return exempt

    def _static_clear(self, probe: Rect, exempt: Set[int]) -> bool:
        return all(i in exempt
                   for i in self._index.query(probe, strict=True))

    def _opened(self, *terminals: Point) -> Set[int]:
        """Cells that only the terminals' own shapes block.

        The grid cannot tell which obstacle stamped a cell, so the cells
        under the exempt shapes are re-checked exactly, once per terminal
        tuple: the check reads the fixed obstacle set only.  Each call keeps
        the survivors no routed net blocks; the search treats them as free.
        """
        clear = self._clearances.get(terminals)
        if clear is None:
            exempt = self._exempt_ids(*terminals)
            static = self._static
            candidates = {cell for i in exempt
                          for lo, hi in self._row_slices(self._obstacles[i])
                          for cell in range(lo, hi) if static[cell] == _STATIC}
            clear = self._clearances[terminals] = []
            for cell in candidates:
                foot = self._footprint(*self._node(cell))
                if (self.bounds.contains_rect(foot) and self._static_clear(
                        foot.expanded(self.spacing), exempt)):
                    clear.append(cell)
        blocked = self._blocked
        return {cell for cell in clear if blocked[cell] == _STATIC}

    # -- search ---------------------------------------------------------------------

    def route(self, request: RouteRequest) -> RoutedNet:
        """Find a Manhattan path from source to target.

        Raises :class:`RoutingError` (ROU005) when a terminal cannot get
        onto the lattice (no free node nearby, or no tap to it that keeps
        the spacing rule) or the terminals cannot be joined — decided by a
        reachability flood before any priced search, so a sealed net costs
        its pocket's cells, not the budget — or
        :class:`~repro.diagnostics.BudgetExceeded` (ROU006) when a reachable
        target is not found within the expansion budget.
        """
        obs_metrics.counter("pnr.maze.calls").inc()
        source, target = request.source, request.target
        if source == target:
            # Nothing to draw; off the lattice the L-taps to and from the
            # nearest node would otherwise cancel into a zero-length path.
            return RoutedNet(request.name, [source], 0)
        opened = self._opened(source, target)
        start = self._snap(source, opened)
        goal = self._snap(target, opened)
        if start is None or goal is None:
            raise RoutingError(
                f"net {request.name!r}: no free grid node near "
                f"{'source' if start is None else 'target'}",
                Diagnostic(Severity.ERROR, "ROU005",
                           f"terminals of net {request.name!r} are blocked",
                           hint="clear the area around the terminals or "
                                "widen the routing region"),
                reason="blocked_terminal")
        head, tail = self._taps(request, start, goal)

        path = None
        if self._reachable(start, goal, opened):
            path = self._search(request.name, start, goal, opened)
        else:
            obs_metrics.counter("pnr.maze.unreachable").inc()
        if path is None:
            raise RoutingError(
                f"net {request.name!r}: no path from {source} to {target}",
                Diagnostic(Severity.ERROR, "ROU005",
                           f"maze router found no path for net {request.name!r}",
                           hint="the routing region may be fully blocked"))

        points = _simplify(head + [Point(*self._node(cell)) for cell in path]
                           + tail[::-1])
        return RoutedNet(request.name, points, _length(points),
                         cost=self._path_cost(path))

    def _path_cost(self, path: Sequence[int]) -> int:
        """What the search pays for a cell path: steps and bends."""
        turns = sum(1 for a, b, c in zip(path, path[1:], path[2:])
                    if b - a != c - b)
        return self.pitch * (len(path) - 1) + _TURN_COST * turns

    def _taps(self, request: RouteRequest, start: int,
              goal: int) -> Tuple[List[Point], List[Point]]:
        """The source's and the target's tap onto their lattice cells."""
        terminals = (request.source, request.target)
        exempt = self._exempt_ids(*terminals)
        # An earlier net that already runs over a terminal is exempt like the
        # terminal's own shapes: no tap can keep clear of it.
        landings = [self._landing(point) for point in terminals]
        wires = [rect for rects in self._nets.values() for rect in rects
                 if not any(rect.overlaps(landing, strict=False)
                            for landing in landings)]
        return (self._tap(request.name, request.source,
                          Point(*self._node(start)), exempt, wires),
                self._tap(request.name, request.target,
                          Point(*self._node(goal)), exempt, wires))

    def _tap(self, net: str, terminal: Point, anchor: Point,
             exempt: Set[int], wires: Sequence[Rect]) -> List[Point]:
        """The points joining an off-lattice terminal to its lattice node
        ``anchor`` (excluded): an L, whichever way round keeps the spacing
        rule to every non-exempt obstacle and to ``wires``, the blocked
        nets' rectangles.

        The lattice guarantees clearance only at its nodes; a tap runs
        between them.  Raises :class:`RoutingError` when neither L is clear,
        so the caller escalates to a finer lattice (whose nodes sit nearer
        the terminal) instead of drawing a short.
        """
        if terminal == anchor:
            return []
        if terminal.x == anchor.x or terminal.y == anchor.y:
            taps = [[terminal]]
        else:
            taps = [[terminal, Point(terminal.x, anchor.y)],
                    [terminal, Point(anchor.x, terminal.y)]]
        for tap in taps:
            probes = [rect.expanded(self.spacing) for rect in
                      Path(tap + [anchor], self.wire_width).to_rects()]
            if all(self._static_clear(probe, exempt) and not any(
                    probe.overlaps(wire, strict=True) for wire in wires)
                    for probe in probes):
                return tap
        raise RoutingError(
            f"net {net!r}: no clear tap from {terminal} to the lattice",
            Diagnostic(Severity.ERROR, "ROU005",
                       f"terminal {terminal} of net {net!r} cannot reach "
                       f"lattice node {anchor} without a spacing violation",
                       hint="a finer lattice or more room around the "
                            "terminal would let the tap through"),
            reason="blocked_terminal")

    def _reachable(self, start: int, goal: int, opened: Set[int]) -> bool:
        """Whether any lattice path joins the two cells (:func:`span_flood`),
        as a ``pnr.maze.flood`` trace span saying how many free row spans
        it visited and what it answered."""
        with obs_trace.span("pnr.maze.flood", cat="pnr") as span:
            reachable, visited = span_flood(self._blocked, self._stride,
                                            start, goal, opened)
            span.set(spans=visited, reachable=reachable)
        return reachable

    def _search(self, net: str, start: int, goal: int,
                opened: Set[int]) -> Optional[List[int]]:
        """Cheapest cell path (A*, unit steps plus a turn penalty).

        A state is ``3 * cell + heading`` with headings 0=none,
        1=horizontal, 2=vertical.  The frontier is ordered by cost so far
        plus ``pitch`` times the Manhattan distance to ``goal`` — a bound
        no step can undercut (each costs at least ``pitch`` and closes at
        most one cell), so the first time the goal is popped its cost is
        the cheapest there is — then by insertion order.  Returns ``None``
        when the frontier empties before the goal is reached.

        The expansion budget and ``pnr.maze.expansions`` count *settled*
        states; a heap entry a cheaper push superseded is dropped uncounted.
        The bound is consistent, so every state settled before the goal has
        cost below the path's, and Dijkstra
        (:class:`repro.reference.DijkstraMazeRouter`) settles all of those:
        this search never counts more.
        """
        blocked = self._blocked
        pitch = self.pitch
        stride = self._stride
        goal_row, goal_column = divmod(goal, stride)
        # (cell offset, heading, column step, row step)
        steps = ((1, 1, 1, 0), (-1, 1, -1, 0),
                 (stride, 2, 0, 1), (-stride, 2, 0, -1))
        budget = Budget(iterations=self.max_expansions,
                        label="maze expansion", code="ROU006")
        message = (f"maze router exceeded {self.max_expansions} expansions "
                   f"routing net {net!r}")
        came: Dict[int, int] = {}
        costs: Dict[int, int] = {3 * start: 0}
        # (cost + bound, insertion order, cost, state)
        frontier: List[Tuple[int, int, int, int]] = [(0, 0, 0, 3 * start)]
        tie = 0
        found: Optional[int] = None
        try:
            while frontier:
                _, _, cost, state = heapq.heappop(frontier)
                if cost > costs.get(state, cost):
                    continue                # superseded: a cheaper push won
                budget.tick(message)
                cell, heading = divmod(state, 3)
                if cell == goal:
                    found = state
                    break
                row, column = divmod(cell, stride)
                across, up = column - goal_column, row - goal_row
                for offset, new_heading, dx, dy in steps:
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
                        bound = pitch * (abs(across + dx) + abs(up + dy))
                        heapq.heappush(frontier, (next_cost + bound, tie,
                                                  next_cost, next_state))
        finally:
            obs_metrics.counter("pnr.maze.expansions").inc(budget.count)
        if found is None:
            return None
        return _walk_back(came, found)

    def _usable(self, column: int, row: int,
                opened: Set[int]) -> Optional[int]:
        """The cell of lattice node ``(column, row)`` if a wire may sit
        there.  Range-checked, unlike the search's reads: a node off the
        lattice must not wrap into the array."""
        if not (0 <= column < self._columns and 0 <= row < self._rows):
            return None
        cell = (row + 1) * self._stride + column + 1
        if self._blocked[cell] and cell not in opened:
            return None
        return cell

    def _snap(self, point: Point, opened: Set[int]) -> Optional[int]:
        """Nearest free lattice cell to ``point`` (searching outwards)."""
        pitch = self.pitch
        base_column = round((point.x - self.bounds.x1) / pitch)
        base_row = round((point.y - self.bounds.y1) / pitch)
        for ring in range(4):
            candidates = []
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    candidates.append((base_column + dx, base_row + dy))
            candidates.sort(key=lambda c: (
                abs(self.bounds.x1 + c[0] * pitch - point.x)
                + abs(self.bounds.y1 + c[1] * pitch - point.y)))
            for column, row in candidates:
                cell = self._usable(column, row, opened)
                if cell is not None:
                    return cell
        return None


class PnrRouter:
    """Route a batch of chip-level connections, one net at a time.

    Each finished net becomes an obstacle for the next; a net the coarse
    lattice cannot thread escalates to the half-pitch lattice, then to
    ripping up one earlier net.
    """

    def __init__(self, technology: Technology, bounds: Rect,
                 obstacles: Sequence[Rect], layer: str = "metal",
                 grid: Optional[int] = None,
                 max_expansions: int = 200_000):
        rules = technology.rules
        self.layer = layer
        self.wire_width = rules.min_width(layer, default=3)
        self.spacing = rules.min_spacing(layer, default=3)
        self.maze = MazeRouter(bounds, obstacles,
                               wire_width=self.wire_width,
                               spacing=self.spacing, grid=grid,
                               max_expansions=max_expansions)
        #: Lazily built half-pitch lattice for nets the coarse grid cannot
        #: thread (four times the nodes, so only paid for on failure).
        self._fine_maze: Optional[MazeRouter] = None
        #: Per-net drawn geometry for maze-routed nets, so a net that seals
        #: the region against a later one can be ripped up and rerouted.
        self._drawn: Dict[str, Tuple["Shape", List[Rect], RouteRequest]] = {}
        obs_metrics.gauge("pnr.maze.grid_cells").set(self.maze.grid_cells)

    @property
    def pitch(self) -> int:
        return self.maze.pitch

    def _lattices(self) -> List[MazeRouter]:
        if self._fine_maze is None:
            return [self.maze]
        return [self.maze, self._fine_maze]

    def _block(self, net: str, rects: Sequence[Rect]) -> None:
        """Every wire drawn blocks both lattices, whichever routed it."""
        for maze in self._lattices():
            maze.block(net, rects)

    def _unblock(self, net: str) -> None:
        for maze in self._lattices():
            maze.unblock(net)

    @contextmanager
    def _attempt(self, name: str, level: str, request: RouteRequest):
        """One escalation level for one net, as a span carrying its cost:
        the Manhattan lower bound it started from, the expansions it spent
        and, when the level gives up, why."""
        expansions = obs_metrics.counter("pnr.maze.expansions")
        before = expansions.value
        with obs_trace.span(name, cat="pnr", net=request.name, level=level,
                            bound=_length((request.source, request.target))
                            ) as span:
            try:
                yield span
            except BudgetExceeded:
                span.set(reason="budget")
                raise
            except RoutingError as error:
                span.set(reason=error.reason)
                raise
            finally:
                span.set(expansions=expansions.value - before)

    def route_all(self, cell: Cell,
                  requests: Sequence[RouteRequest]) -> RoutingReport:
        """Route every request into ``cell``; failures are collected, not
        raised, so the report names every net that could not be routed."""
        report = RoutingReport()
        with obs_trace.span("pnr.route_all", cat="pnr", cell=cell.name,
                            nets=len(requests)) as span:
            for request in requests:
                try:
                    with self._attempt("pnr.maze", "coarse",
                                       request) as attempt:
                        net = self.route_one(cell, request)
                        attempt.set(path_cost=net.cost)
                    obs_metrics.counter("pnr.route.maze").inc()
                except (RoutingError, BudgetExceeded) as error:
                    try:
                        with self._attempt("pnr.half_pitch", "half_pitch",
                                           request) as attempt:
                            net = self._retry_fine(cell, request)
                            attempt.set(path_cost=net.cost)
                        obs_metrics.counter("pnr.route.half_pitch").inc()
                    except (RoutingError, BudgetExceeded):
                        with self._attempt("pnr.ripup", "ripup",
                                           request) as ripup:
                            net = self._rip_and_reroute(cell, request, report,
                                                        ripup)
                        if net is None:
                            obs_metrics.counter("pnr.route.failed").inc()
                            report.failed.append((request, error))
                            continue
                        obs_metrics.counter("pnr.ripup.success").inc()
                report.routed.append(net)
            span.set(routed=len(report.routed), failed=len(report.failed))
        return report

    def route_one(self, cell: Cell, request: RouteRequest) -> RoutedNet:
        net = self.maze.route(request)
        self._draw(cell, request, net.points)
        return net

    def _retry_fine(self, cell: Cell, request: RouteRequest) -> RoutedNet:
        """Second attempt on a half-pitch lattice.

        A corridor narrower than one coarse pitch is invisible to the main
        grid; halving the pitch recovers those nets.  The fine lattice
        starts from the coarse one's obstacles and blocked nets and is kept
        in step with it from then on, so wires drawn by either block both.
        """
        fine = self.pitch // 2
        if fine < 2:
            raise RoutingError(f"net {request.name!r}: no lattice finer "
                               f"than pitch {self.pitch} to retry on")
        if self._fine_maze is None:
            self._fine_maze = self.maze.at_pitch(fine)
            obs_metrics.gauge("pnr.maze.grid_cells").set(
                sum(maze.grid_cells for maze in self._lattices()))
        net = self._fine_maze.route(request)
        self._draw(cell, request, net.points)
        return net

    def _route_either(self, cell: Cell,
                      request: RouteRequest) -> Optional[RoutedNet]:
        """Coarse lattice, then half pitch; ``None`` when neither threads it."""
        for route in (self.route_one, self._retry_fine):
            try:
                return route(cell, request)
            except (RoutingError, BudgetExceeded):
                continue
        return None

    def _rip_and_reroute(self, cell: Cell, request: RouteRequest,
                         report: RoutingReport, span) -> Optional[RoutedNet]:
        """Last resort: rip up an earlier net that seals the failed one in.

        Earlier maze routes become obstacles, and in a tight corridor the
        route that happens to go first can wall off the only path a later
        net has.  Try each earlier net as the victim, nearest to the failed
        net's bounding box first: rip it, route the failed net, then reroute
        the victim.  If either step fails the victim's original wire is
        restored and the next candidate is tried.  One level only — a
        victim's reroute never rips a third net.  ``span`` records how many
        victims were tried and which one made room.
        """
        bbox = Rect(min(request.source.x, request.target.x),
                    min(request.source.y, request.target.y),
                    max(request.source.x, request.target.x),
                    max(request.source.y, request.target.y))

        def distance(rects: List[Rect]) -> int:
            best = None
            for rect in rects:
                dx = max(bbox.x1 - rect.x2, rect.x1 - bbox.x2, 0)
                dy = max(bbox.y1 - rect.y2, rect.y1 - bbox.y2, 0)
                if best is None or dx + dy < best:
                    best = dx + dy
            return best if best is not None else 0

        candidates = sorted(self._drawn.items(),
                            key=lambda item: distance(item[1][1]))
        attempts = 0
        for victim_name, (shape, rects, victim_request) in candidates:
            if victim_name == request.name:
                continue
            attempts += 1
            span.set(attempts=attempts)
            obs_metrics.counter("pnr.ripup.attempts").inc()
            self._undraw(cell, victim_name)
            net = self._route_either(cell, request)
            if net is None:
                self._restore(cell, victim_name, shape, rects, victim_request)
                continue
            victim_net = self._route_either(cell, victim_request)
            if victim_net is None:
                # The victim can no longer route around the new wire: undo.
                self._undraw(cell, request.name)
                self._restore(cell, victim_name, shape, rects, victim_request)
                continue
            for index, routed in enumerate(report.routed):
                if routed.name == victim_name:
                    report.routed[index] = victim_net
                    break
            span.set(victim=victim_name)
            return net
        return None

    def _undraw(self, cell: Cell, name: str) -> None:
        shape, _rects, _ = self._drawn.pop(name)
        cell.remove_shape(shape)
        self._unblock(name)

    def _restore(self, cell: Cell, name: str, shape, rects: List[Rect],
                 request: RouteRequest) -> None:
        cell.add_shape(shape)
        self._block(name, rects)
        self._drawn[name] = (shape, rects, request)

    def _draw(self, cell: Cell, request: RouteRequest,
              points: List[Point]) -> None:
        if len(points) < 2:
            return
        shape = cell.add_wire(self.layer, points, self.wire_width)
        rects = shape.as_rects()
        self._block(request.name, rects)
        self._drawn[request.name] = (shape, rects, request)


# -- reachability -------------------------------------------------------------------


def span_flood(blocked: bytes, stride: int, start: int, goal: int,
               opened: Set[int]) -> Tuple[bool, int]:
    """Whether a 4-connected path of free cells joins ``start`` and
    ``goal``, and how many free row spans the flood visited to decide it.

    ``blocked`` is a router's ``_blocked`` array of ``stride``-cell rows
    with a blocked sentinel ring; a cell is free when it is zero or in
    ``opened``, and both terminals must be free.  The unit is a maximal
    free span of one row, found when the flood first reaches the row; two
    spans in adjacent rows touch when their columns overlap.  Like a
    cell-by-cell flood it grows both ends, always the smaller frontier, so
    a sealed terminal's pocket is exhausted after a handful of spans; it is
    bounded by the grid and needs no budget.
    """
    opened_rows: Dict[int, List[int]] = {}
    for cell in opened:
        opened_rows.setdefault(cell // stride, []).append(cell % stride)
    # Per row reached: span start columns, span end columns, side per span.
    rows: Dict[int, Tuple[List[int], List[int], bytearray]] = {}

    def spans(row: int) -> Tuple[List[int], List[int], bytearray]:
        found = rows.get(row)
        if found is None:
            line = blocked[row * stride:(row + 1) * stride]
            if row in opened_rows:
                line = bytearray(line)
                for column in opened_rows[row]:
                    line[column] = 0
            starts: List[int] = []
            ends: List[int] = []
            for span in _FREE_SPAN.finditer(line):
                starts.append(span.start())
                ends.append(span.end())
            found = rows[row] = (starts, ends, bytearray(len(starts)))
        return found

    frontiers: Dict[int, List[Tuple[int, int, int]]] = {}
    for side, cell in ((1, start), (2, goal)):
        row, column = divmod(cell, stride)
        starts, ends, sides = spans(row)
        index = bisect_right(starts, column) - 1
        if sides[index]:
            return True, 1                  # one span holds both terminals
        sides[index] = side
        frontiers[side] = [(row, starts[index], ends[index])]
    visited = 2
    while True:
        side = 1 if len(frontiers[1]) <= len(frontiers[2]) else 2
        grown: List[Tuple[int, int, int]] = []
        for row, lo, hi in frontiers[side]:
            for near in (row - 1, row + 1):
                starts, ends, sides = spans(near)
                # The spans overlapping columns [lo, hi): from the first one
                # ending past ``lo`` while they start before ``hi``.
                index = bisect_right(ends, lo)
                while index < len(starts) and starts[index] < hi:
                    mark = sides[index]
                    if mark != side:
                        if mark:
                            return True, visited
                        sides[index] = side
                        grown.append((near, starts[index], ends[index]))
                        visited += 1
                    index += 1
        if not grown:
            return False, visited
        frontiers[side] = grown


# -- geometry helpers ---------------------------------------------------------------


def _bookkeeping_error(message: str) -> RoutingError:
    return RoutingError(message, Diagnostic(
        Severity.ERROR, "ROU009", message,
        hint="block() and unblock() must pair up, once each per net"))


def _walk_back(came: Dict[int, int], found: int) -> List[int]:
    """The cell path ending in search state ``found``."""
    path = [found // 3]
    state = found
    while state in came:
        state = came[state]
        path.append(state // 3)
    path.reverse()
    return path


def _simplify(points: List[Point]) -> List[Point]:
    """Drop collinear intermediate points."""
    if len(points) < 3:
        return points
    out = [points[0]]
    for i in range(1, len(points) - 1):
        prev, cur, nxt = out[-1], points[i], points[i + 1]
        if (prev.x == cur.x == nxt.x) or (prev.y == cur.y == nxt.y):
            continue
        out.append(cur)
    out.append(points[-1])
    return out


def _length(points: Sequence[Point]) -> int:
    return sum(abs(a.x - b.x) + abs(a.y - b.y)
               for a, b in zip(points, points[1:]))
