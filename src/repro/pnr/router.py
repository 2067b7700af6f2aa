"""Obstacle-aware grid routing (Lee/Dijkstra maze search).

The maze router works on a uniform lattice over the routing region.  A
lattice node is usable when a wire footprint centred there, grown by the
technology's spacing, overlaps no blockage — blockages being every metal
rectangle of the placed blocks and pad ring (queried through the spatial
index built once per assembly) plus the wires of previously routed nets.
Metal is the routing layer and only metal blocks it: poly and diffusion
running underneath cannot short to a route without a contact cut, which the
router never draws.

Search is Dijkstra with unit step cost and a small turn penalty (fewer
corners means fewer rectangles and less capacitance), budget-bounded so an
unroutable maze terminates with a diagnostic instead of flooding.  Where a
whole group of connections faces one pad-ring side across an empty
corridor, :class:`PnrRouter` skips the maze entirely and hands the group to
the planar river router — the cheap, provably non-crossing special case.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.assembly.river import RiverRoutingError, river_route
from repro.diagnostics import (
    Budget,
    BudgetExceeded,
    Diagnostic,
    DiagnosticError,
    Severity,
)
from repro.geometry.index import SpatialIndex, build_index
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.cell import Cell
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.technology.technology import Technology


class RoutingError(DiagnosticError, ValueError):
    """No path exists between the requested terminals."""

    default_code = "ROU005"


@dataclass(frozen=True)
class RouteRequest:
    """One two-terminal connection to route."""

    name: str
    source: Point
    target: Point
    #: Pad-ring side the source sits on, when known ("south"/"north"/
    #: "east"/"west"); enables the river-corridor fast path.
    side: str = ""


@dataclass
class RoutedNet:
    """One successfully routed connection."""

    name: str
    points: List[Point]
    length: int
    method: str = "maze"    # "maze" or "river"


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


class MazeRouter:
    """Grid router over a fixed obstacle set plus accumulated routes."""

    def __init__(self, bounds: Rect, obstacles: Sequence[Rect],
                 wire_width: int = 3, spacing: int = 3,
                 grid: Optional[int] = None,
                 turn_cost: int = 2,
                 max_expansions: int = 200_000):
        self.bounds = bounds
        self.wire_width = wire_width
        self.spacing = spacing
        self.pitch = grid if grid is not None else wire_width + spacing
        self.turn_cost = turn_cost
        self.max_expansions = max_expansions
        self._obstacles = list(obstacles)
        self._index: SpatialIndex = build_index(self._obstacles)
        #: Wires routed so far (checked in addition to the static index).
        self._routed_rects: List[Rect] = []

    # -- obstacle bookkeeping --------------------------------------------------------

    def add_obstacles(self, rects: Sequence[Rect]) -> None:
        """Block future routes with ``rects`` (e.g. a net just drawn)."""
        self._routed_rects.extend(rects)

    def remove_obstacles(self, rects: Sequence[Rect]) -> None:
        """Unblock ``rects`` previously added (e.g. a ripped-up net)."""
        for rect in rects:
            try:
                self._routed_rects.remove(rect)
            except ValueError:
                pass

    def _footprint(self, x: int, y: int) -> Rect:
        half = self.wire_width // 2
        other = self.wire_width - half
        return Rect(x - half, y - half, x + other, y + other)

    def _exempt_ids(self, *points: Point) -> Set[int]:
        """Static obstacles a route may legally touch: the terminal shapes.

        Everything overlapping a terminal's immediate footprint is the metal
        the route must land on (pad tail, block port tab); spacing to it is
        not required — connecting to it is the point.
        """
        reach = self.wire_width // 2 + self.spacing
        exempt: Set[int] = set()
        for point in points:
            probe = Rect(point.x - reach, point.y - reach,
                         point.x + reach, point.y + reach)
            exempt.update(self._index.query(probe))
        return exempt

    def _free(self, x: int, y: int, exempt: Set[int]) -> bool:
        foot = self._footprint(x, y)
        if not (self.bounds.x1 <= foot.x1 and foot.x2 <= self.bounds.x2
                and self.bounds.y1 <= foot.y1 and foot.y2 <= self.bounds.y2):
            return False
        probe = foot.expanded(self.spacing)
        for i in self._index.query(probe, strict=True):
            if i not in exempt:
                return False
        for rect in self._routed_rects:
            if probe.overlaps(rect, strict=True):
                return False
        return True

    # -- search ---------------------------------------------------------------------

    def route(self, request: RouteRequest) -> RoutedNet:
        """Find a Manhattan path from source to target.

        Raises :class:`RoutingError` (ROU005) when the terminals cannot be
        joined, or :class:`~repro.diagnostics.BudgetExceeded` (ROU006) when
        the expansion budget runs out first.
        """
        source, target = request.source, request.target
        exempt = self._exempt_ids(source, target)
        start = self._snap(source, exempt)
        goal = self._snap(target, exempt)
        if start is None or goal is None:
            raise RoutingError(
                f"net {request.name!r}: no free grid node near "
                f"{'source' if start is None else 'target'}",
                Diagnostic(Severity.ERROR, "ROU005",
                           f"terminals of net {request.name!r} are blocked",
                           hint="clear the area around the terminals or "
                                "widen the routing region"))

        budget = Budget(iterations=self.max_expansions,
                        label=f"maze expansion for {request.name}",
                        code="ROU006")
        came: Dict[Tuple[int, int, int], Tuple[int, int, int]] = {}
        # State: (x, y, heading); headings 0=none, 1=horizontal, 2=vertical.
        costs: Dict[Tuple[int, int, int], int] = {(start[0], start[1], 0): 0}
        frontier: List[Tuple[int, int, Tuple[int, int, int]]] = [
            (0, 0, (start[0], start[1], 0))]
        tie = 0
        found: Optional[Tuple[int, int, int]] = None
        while frontier:
            budget.tick(
                f"maze router exceeded {self.max_expansions} expansions "
                f"routing net {request.name!r}")
            cost, _, state = heapq.heappop(frontier)
            if cost > costs.get(state, cost):
                continue
            x, y, heading = state
            if (x, y) == goal:
                found = state
                break
            for dx, dy, new_heading in ((self.pitch, 0, 1), (-self.pitch, 0, 1),
                                        (0, self.pitch, 2), (0, -self.pitch, 2)):
                nx, ny = x + dx, y + dy
                if not self._free(nx, ny, exempt):
                    continue
                step = self.pitch
                if heading and new_heading != heading:
                    step += self.turn_cost
                next_state = (nx, ny, new_heading)
                next_cost = cost + step
                if next_cost < costs.get(next_state, next_cost + 1):
                    costs[next_state] = next_cost
                    came[next_state] = state
                    tie += 1
                    heapq.heappush(frontier, (next_cost, tie, next_state))
        if found is None:
            raise RoutingError(
                f"net {request.name!r}: no path from {source} to {target}",
                Diagnostic(Severity.ERROR, "ROU005",
                           f"maze router found no path for net {request.name!r}",
                           hint="the routing region may be fully blocked"))

        points = self._reconstruct(came, found, start)
        points = _attach(source, points, prepend=True)
        points = _attach(target, points, prepend=False)
        points = _simplify(points)
        return RoutedNet(request.name, points, _length(points))

    def _snap(self, point: Point, exempt: Set[int],
              ) -> Optional[Tuple[int, int]]:
        """Nearest free lattice node to ``point`` (searching outwards)."""
        base_x = self.bounds.x1 + round((point.x - self.bounds.x1) / self.pitch) * self.pitch
        base_y = self.bounds.y1 + round((point.y - self.bounds.y1) / self.pitch) * self.pitch
        for ring in range(4):
            candidates = []
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    candidates.append((base_x + dx * self.pitch,
                                       base_y + dy * self.pitch))
            candidates.sort(key=lambda c: abs(c[0] - point.x) + abs(c[1] - point.y))
            for x, y in candidates:
                if self._free(x, y, exempt):
                    return (x, y)
        return None

    def _reconstruct(self, came: Dict, state: Tuple[int, int, int],
                     start: Tuple[int, int]) -> List[Point]:
        points = [Point(state[0], state[1])]
        while state in came:
            state = came[state]
            point = Point(state[0], state[1])
            if point != points[-1]:
                points.append(point)
        if points[-1] != Point(start[0], start[1]):
            points.append(Point(start[0], start[1]))
        points.reverse()
        return points


class PnrRouter:
    """Route a batch of chip-level connections, corridor-first.

    Connections whose pads share one ring side, whose terminals are planar
    and whose corridor is free of blockages go to the river router as one
    group (no tracks burnt on straight runs, provably crossing-free);
    everything else is maze-routed one net at a time, each finished net
    becoming an obstacle for the next.
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

    @property
    def pitch(self) -> int:
        return self.maze.pitch

    def route_all(self, cell: Cell,
                  requests: Sequence[RouteRequest]) -> RoutingReport:
        """Route every request into ``cell``; failures are collected, not
        raised, so the report names every net that could not be routed."""
        report = RoutingReport()
        with obs_trace.span("pnr.route_all", cat="pnr", cell=cell.name,
                            nets=len(requests)) as span:
            remaining = list(requests)
            for side in ("south", "north"):
                group = [r for r in remaining if r.side == side]
                with obs_trace.span("pnr.river", cat="pnr", side=side,
                                    nets=len(group)):
                    routed = self._try_river(cell, group, side)
                if routed:
                    obs_metrics.counter("pnr.route.river").inc(len(routed))
                    report.routed.extend(routed)
                    remaining = [r for r in remaining if r.side != side]
            for request in remaining:
                try:
                    with obs_trace.span("pnr.maze", cat="pnr",
                                        net=request.name):
                        net = self.route_one(cell, request)
                    obs_metrics.counter("pnr.route.maze").inc()
                except (RoutingError, BudgetExceeded) as error:
                    with obs_trace.span("pnr.half_pitch", cat="pnr",
                                        net=request.name):
                        net = self._retry_fine(cell, request)
                    if net is not None:
                        obs_metrics.counter("pnr.route.half_pitch").inc()
                    else:
                        with obs_trace.span("pnr.ripup", cat="pnr",
                                            net=request.name):
                            net = self._rip_and_reroute(cell, request, report)
                        if net is not None:
                            obs_metrics.counter("pnr.ripup.success").inc()
                    if net is None:
                        obs_metrics.counter("pnr.route.failed").inc()
                        report.failed.append((request, error))
                        continue
                report.routed.append(net)
            span.set(routed=len(report.routed), failed=len(report.failed))
        return report

    def route_one(self, cell: Cell, request: RouteRequest) -> RoutedNet:
        net = self.maze.route(request)
        self._draw(cell, request, net.points)
        return net

    def _retry_fine(self, cell: Cell,
                    request: RouteRequest) -> Optional[RoutedNet]:
        """Second attempt on a half-pitch lattice.

        A corridor narrower than one coarse pitch is invisible to the main
        grid; halving the pitch recovers those nets.  The fine maze shares
        the routed-wire list with the coarse one, so wires drawn by either
        block both.
        """
        fine = self.pitch // 2
        if fine < 2:
            return None
        if self._fine_maze is None:
            self._fine_maze = MazeRouter(self.maze.bounds,
                                         self.maze._obstacles,
                                         wire_width=self.wire_width,
                                         spacing=self.spacing, grid=fine,
                                         max_expansions=self.maze.max_expansions)
            self._fine_maze._routed_rects = self.maze._routed_rects
        try:
            net = self._fine_maze.route(request)
        except (RoutingError, BudgetExceeded):
            return None
        self._draw(cell, request, net.points)
        return net

    def _rip_and_reroute(self, cell: Cell, request: RouteRequest,
                         report: RoutingReport) -> Optional[RoutedNet]:
        """Last resort: rip up an earlier net that seals the failed one in.

        Earlier maze routes become obstacles, and in a tight corridor the
        route that happens to go first can wall off the only path a later
        net has.  Try each earlier net as the victim, nearest to the failed
        net's bounding box first: rip it, route the failed net, then reroute
        the victim.  If either step fails the victim's original wire is
        restored and the next candidate is tried.  One level only — a
        victim's reroute never rips a third net.
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
        for victim_name, (shape, rects, victim_request) in candidates:
            if victim_name == request.name:
                continue
            obs_metrics.counter("pnr.ripup.attempts").inc()
            self._undraw(cell, victim_name)
            try:
                net = self.route_one(cell, request)
            except (RoutingError, BudgetExceeded):
                net = self._retry_fine(cell, request)
            if net is None:
                self._restore(cell, victim_name, shape, rects, victim_request)
                continue
            try:
                victim_net = self.route_one(cell, victim_request)
            except (RoutingError, BudgetExceeded):
                victim_net = self._retry_fine(cell, victim_request)
            if victim_net is None:
                # The victim can no longer route around the new wire: undo.
                self._undraw(cell, request.name)
                self._restore(cell, victim_name, shape, rects, victim_request)
                continue
            for index, routed in enumerate(report.routed):
                if routed.name == victim_name:
                    report.routed[index] = victim_net
                    break
            return net
        return None

    def _undraw(self, cell: Cell, name: str) -> None:
        shape, rects, _ = self._drawn.pop(name)
        try:
            cell.shapes.remove(shape)
        except ValueError:
            pass
        self.maze.remove_obstacles(rects)

    def _restore(self, cell: Cell, name: str, shape, rects: List[Rect],
                 request: RouteRequest) -> None:
        cell.shapes.append(shape)
        self.maze.add_obstacles(rects)
        self._drawn[name] = (shape, rects, request)

    # -- river-corridor fast path ----------------------------------------------------

    def _try_river(self, cell: Cell, group: List[RouteRequest],
                   side: str) -> Optional[List[RoutedNet]]:
        """Route a whole side's pad connections as one planar river channel.

        Applicable when the group has two or more nets, both terminal rows
        are ordered identically left-to-right with room for vertical runs,
        and the corridor between the rows contains no blockage.  Returns
        ``None`` (try the maze) otherwise.
        """
        if len(group) < 2:
            return None
        ordered = sorted(group, key=lambda r: r.source.x)
        sources = [r.source for r in ordered]
        targets = [r.target for r in ordered]
        if [t.x for t in targets] != sorted(t.x for t in targets):
            return None
        min_gap = self.wire_width + self.spacing
        for row in (sources, targets):
            if any(b.x - a.x < min_gap for a, b in zip(row, row[1:])):
                return None
        if side == "south":
            bottom, top = sources, targets
        else:
            bottom, top = targets, sources
        if not all(b.y < t.y for b, t in zip(bottom, top)):
            return None
        floor = max(p.y for p in bottom)
        ceiling = min(p.y for p in top)
        jogs = sum(1 for b, t in zip(bottom, top) if b.x != t.x)
        pitch = self.pitch + 1
        if floor + (jogs + 1) * pitch >= ceiling:
            return None
        corridor = Rect(min(p.x for p in bottom + top) - min_gap, floor + 1,
                        max(p.x for p in bottom + top) + min_gap, ceiling - 1)
        exempt = self.maze._exempt_ids(*(bottom + top))
        blocked = [i for i in self.maze._index.query(
            corridor.expanded(self.spacing), strict=True) if i not in exempt]
        if blocked or any(corridor.expanded(self.spacing).overlaps(r, strict=True)
                          for r in self.maze._routed_rects):
            return None
        try:
            route = river_route(cell, bottom, top, layer=self.layer,
                                wire_width=self.wire_width, pitch=pitch,
                                start_y=floor, spacing=self.spacing)
        except RiverRoutingError:
            return None
        routed: List[RoutedNet] = []
        for request, points in zip(ordered, route.wires):
            rects = _wire_rects(points, self.wire_width)
            self.maze.add_obstacles(rects)
            routed.append(RoutedNet(request.name, list(points),
                                    _length(points), method="river"))
        return routed

    def _draw(self, cell: Cell, request: RouteRequest,
              points: List[Point]) -> None:
        if len(points) < 2:
            return
        shape = cell.add_wire(self.layer, points, self.wire_width)
        rects = shape.as_rects()
        self.maze.add_obstacles(rects)
        self._drawn[request.name] = (shape, rects, request)


# -- geometry helpers ---------------------------------------------------------------


def _attach(terminal: Point, points: List[Point], prepend: bool) -> List[Point]:
    """Join an off-grid terminal to the grid path with an L-tap."""
    anchor = points[0] if prepend else points[-1]
    if terminal == anchor:
        return points
    if terminal.x == anchor.x or terminal.y == anchor.y:
        joint: List[Point] = [terminal]
    else:
        joint = [terminal, Point(terminal.x, anchor.y)]
    if prepend:
        return joint + points
    return points + list(reversed(joint))


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


def _wire_rects(points: Sequence[Point], width: int) -> List[Rect]:
    half = width // 2
    other = width - half
    rects: List[Rect] = []
    for a, b in zip(points, points[1:]):
        if a.y == b.y:
            x1, x2 = sorted((a.x, b.x))
            rects.append(Rect(x1 - half, a.y - half, x2 + other, a.y + other))
        else:
            y1, y2 = sorted((a.y, b.y))
            rects.append(Rect(a.x - half, y1 - half, a.x + other, y2 + other))
    return rects
