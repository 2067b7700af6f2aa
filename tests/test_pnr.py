"""Place & route: short-free routing properties and sign-off goldens.

Two layers:

* **properties** — for every router (channel, river, maze/PnR) the drawn
  geometry of different nets must never touch on the same layer, verified
  through the spatial index over the per-net rectangle sets.  This is the
  property the legacy blind L-route violated: it drew straight through
  whatever lay between a pad and its core port.
* **goldens** — the four example designs, assembled into chips and signed
  off through one shared analyzer: zero DRC violations, full routing
  completion, and a sane extracted capacitance for every pad route.
"""

import json
import os
import sys
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.assembly.channel import (ChannelNet, ChannelRouter,
                                    ChannelRoutingError)
from repro.assembly.river import river_route
from repro.analysis import HierAnalyzer
from repro.generators import FsmLayoutGenerator, PlaGenerator
from repro.geometry.index import build_index
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.diagnostics import BudgetExceeded
from repro.layout.cell import Cell
from repro.layout.flatten import flat_layer_rects, flatten_cell
from repro.logic import TruthTable, parse_expr
from repro.obs import metrics
from repro.pnr import PlacementError, UnknownTerminalError, refine_placement
from repro.pnr.router import (_TURN_COST, MazeRouter, PnrRouter, RouteRequest,
                              RoutingError)
from repro.reference import DijkstraMazeRouter, cell_flood
from repro.store import cell_digest
from repro.technology import nmos_technology
from repro.timing.parasitics import ParasiticModel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402
from traffic_light_controller import build_fsm  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
UPDATE_GOLDENS = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


def assert_nets_disjoint(rects_of_net):
    """No two rectangles of different nets may touch on the same layer.

    ``rects_of_net`` maps net name -> list of ``(layer, Rect)``.  Uses the
    spatial index (touch-inclusive query) per layer, so the check is the
    same primitive the router's own obstacle tests run on.
    """
    by_layer = defaultdict(list)
    for net, entries in rects_of_net.items():
        for layer, rect in entries:
            by_layer[layer].append((net, rect))
    for layer, entries in by_layer.items():
        owners = [net for net, _ in entries]
        rects = [rect for _, rect in entries]
        index = build_index(rects)
        for i, rect in enumerate(rects):
            for j in index.query(rect):
                assert owners[j] == owners[i], (
                    f"short on {layer}: net {owners[i]!r} rect {rect} "
                    f"touches net {owners[j]!r} rect {rects[j]}")


def channel_rects(result):
    """Per-net (layer, rect) pairs from a ChannelResult."""
    return {net: [(shape.layer, rect)
                  for shape in shapes for rect in shape.as_rects()]
            for net, shapes in result.shapes_of_net.items()}


def wire_rects(points, width):
    """Rectangles of a Manhattan centre-line wire of the given width."""
    half, other = width // 2, width - width // 2
    rects = []
    for a, b in zip(points, points[1:]):
        if a.y == b.y:
            x1, x2 = sorted((a.x, b.x))
            rects.append(Rect(x1 - half, a.y - half, x2 + other, a.y + other))
        else:
            y1, y2 = sorted((a.y, b.y))
            rects.append(Rect(a.x - half, y1 - half, a.x + other, y2 + other))
    return rects


# -- channel router properties ------------------------------------------------


class TestChannelRouter:
    def test_column_conflict_is_short_free(self, technology):
        # The regression that motivated the vertical-constraint rewrite: net
        # A leaves column 50 upward while net B arrives at column 50 from
        # below.  Without the constraint the left-edge packer may stack A's
        # trunk above B's, overlapping their vertical stubs into a short.
        cell = Cell("channel_vcg")
        nets = [ChannelNet("A", bottom_pins=[50], top_pins=[100]),
                ChannelNet("B", bottom_pins=[10], top_pins=[50])]
        router = ChannelRouter.for_technology(technology)
        result = router.route(cell, nets, bottom_y=0)
        assert result.tracks_used >= 2
        assert result.track_of_net["A"] < result.track_of_net["B"]
        assert_nets_disjoint(channel_rects(result))

    def test_cyclic_constraint_breaks_with_dogleg(self, technology):
        # A swap channel: each net has a bottom pin in the other's top
        # column, so the constraint graph is a 2-cycle that only a dogleg
        # can break.
        cell = Cell("channel_cycle")
        nets = [ChannelNet("A", bottom_pins=[10], top_pins=[60]),
                ChannelNet("B", bottom_pins=[60], top_pins=[10])]
        router = ChannelRouter.for_technology(technology)
        result = router.route(cell, nets, bottom_y=0)
        assert result.doglegs >= 1
        assert_nets_disjoint(channel_rects(result))

    def test_conflicting_pin_columns_raise_typed_diagnostic(self, technology):
        # Same-edge pins of different nets closer than a stub pitch short
        # regardless of track order; the router must refuse, not draw.
        cell = Cell("channel_conflict")
        nets = [ChannelNet("A", bottom_pins=[10], top_pins=[40]),
                ChannelNet("B", bottom_pins=[12], top_pins=[80])]
        router = ChannelRouter.for_technology(technology)
        with pytest.raises(ChannelRoutingError) as excinfo:
            router.route(cell, nets, bottom_y=0)
        assert excinfo.value.diagnostic.code == "ROU003"

    def test_dense_channel_is_short_free(self, technology):
        cell = Cell("channel_dense")
        nets = [ChannelNet(f"n{i}", bottom_pins=[10 * i + 5],
                           top_pins=[10 * ((i + 3) % 8) + 5])
                for i in range(8)]
        router = ChannelRouter.for_technology(technology)
        result = router.route(cell, nets, bottom_y=0)
        assert result.tracks_used >= 1
        assert_nets_disjoint(channel_rects(result))


# -- river router properties --------------------------------------------------


class TestRiverRouter:
    def test_offset_river_is_short_free(self, technology):
        cell = Cell("river_offset")
        bottom = [Point(10 * i, 0) for i in range(5)]
        top = [Point(10 * i + 25, 80) for i in range(5)]
        route = river_route(cell, bottom, top, wire_width=3, pitch=7,
                            spacing=3)
        assert len(route.wires) == 5
        rects = {f"w{i}": [("metal", rect)
                           for rect in wire_rects(points, 3)]
                 for i, points in enumerate(route.wires)}
        assert_nets_disjoint(rects)

    def test_channel_height_matches_tracks_used(self, technology):
        cell = Cell("river_height")
        bottom = [Point(0, 0), Point(20, 0)]
        top = [Point(40, 60), Point(60, 60)]
        route = river_route(cell, bottom, top, wire_width=3, pitch=7)
        # One track per jogged wire, plus one pitch of clearance above.
        assert route.tracks_used >= 1
        assert route.channel_height == (route.tracks_used + 1) * 7


# -- maze router: blocked-cell grid == geometric predicate --------------------


def oracle_exempt(obstacles, width, spacing, terminals):
    """Ids of the obstacles touching a terminal's immediate footprint."""
    reach = width // 2 + spacing
    return {i for i, rect in enumerate(obstacles) for p in terminals
            if Rect(p.x - reach, p.y - reach, p.x + reach,
                    p.y + reach).overlaps(rect, strict=False)}


def oracle_free(bounds, obstacles, wires, width, spacing, exempt, x, y):
    """The per-point predicate the router evaluated before it rasterised:
    a wire footprint centred on (x, y) stays inside ``bounds`` and, grown by
    the spacing, strictly overlaps no non-exempt obstacle and no wire."""
    half = width // 2
    foot = Rect(x - half, y - half, x + width - half, y + width - half)
    if not bounds.contains_rect(foot):
        return False
    probe = foot.expanded(spacing)
    if any(probe.overlaps(rect, strict=True)
           for i, rect in enumerate(obstacles) if i not in exempt):
        return False
    return not any(probe.overlaps(rect, strict=True) for rect in wires)


def assert_grid_matches_oracle(maze, obstacles, wires, terminals):
    """Every lattice node, and one ring of nodes outside ``bounds``."""
    bounds, pitch = maze.bounds, maze.pitch
    opened = maze._opened(*terminals)
    exempt = oracle_exempt(obstacles, maze.wire_width, maze.spacing,
                           terminals)
    for column in range(-1, bounds.width // pitch + 2):
        for row in range(-1, bounds.height // pitch + 2):
            x, y = bounds.x1 + column * pitch, bounds.y1 + row * pitch
            expected = oracle_free(bounds, obstacles, wires, maze.wire_width,
                                   maze.spacing, exempt, x, y)
            usable = maze._usable(column, row, opened) is not None
            assert usable == expected, (
                f"node ({x}, {y}) at pitch {pitch}: oracle says "
                f"{'free' if expected else 'blocked'}")


@st.composite
def rects(draw, low=-8, high=48, max_side=20):
    x = draw(st.integers(low, high))
    y = draw(st.integers(low, high))
    return Rect(x, y, x + draw(st.integers(0, max_side)),
                y + draw(st.integers(0, max_side)))


points = st.builds(Point, st.integers(-4, 44), st.integers(-4, 44))


@st.composite
def mazes(draw):
    """(coarse maze, half-pitch maze, obstacles) over one random region."""
    x, y = draw(st.integers(-10, 10)), draw(st.integers(-10, 10))
    bounds = Rect(x, y, x + draw(st.integers(0, 40)),
                  y + draw(st.integers(0, 40)))
    obstacles = draw(st.lists(rects(), max_size=8))
    width, spacing = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    coarse = MazeRouter(bounds, obstacles, wire_width=width, spacing=spacing,
                        max_expansions=10**6)
    return coarse, coarse.at_pitch(max(coarse.pitch // 2, 1)), obstacles


@st.composite
def walled_mazes(draw):
    """(coarse maze, half-pitch maze, two terminals inside the region) with
    walls across it, whole or gapped, so sealed pockets are common."""
    side = draw(st.integers(30, 60))
    obstacles = draw(st.lists(rects(0, side, 12), max_size=6))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(4, side - 6))
        gap = draw(st.integers(0, side))
        opening = draw(st.sampled_from((0, 0, 4, 10)))
        for lo, hi in ((0, gap), (gap + opening, side)):
            if lo < hi:
                obstacles.append(Rect(lo, at, hi, at + 2)
                                 if draw(st.booleans())
                                 else Rect(at, lo, at + 2, hi))
    coarse = MazeRouter(Rect(0, 0, side, side), obstacles,
                        wire_width=draw(st.integers(1, 3)),
                        spacing=draw(st.integers(0, 2)),
                        max_expansions=10**6)
    inside = st.builds(Point, st.integers(2, side - 2),
                       st.integers(2, side - 2))
    return (coarse, coarse.at_pitch(max(coarse.pitch // 2, 1)),
            draw(inside), draw(inside))


def walled(side, obstacles, width, spacing, source, target):
    """One :func:`walled_mazes` draw, given: for ``@example`` pins."""
    coarse = MazeRouter(Rect(0, 0, side, side), obstacles, wire_width=width,
                        spacing=spacing, max_expansions=10**6)
    return (coarse, coarse.at_pitch(max(coarse.pitch // 2, 1)), source, target)


class TestBlockedCellGrid:
    @settings(max_examples=60, deadline=None)
    @given(setup=mazes(), terminals=st.lists(points, max_size=2),
           edits=st.lists(st.tuples(st.sampled_from("abc"),
                                    st.lists(rects(), min_size=1, max_size=3)),
                          max_size=6))
    def test_grid_equals_predicate_under_block_and_unblock(
            self, setup, terminals, edits):
        coarse, fine, obstacles = setup
        blocked = {}
        for maze in (coarse, fine):
            assert_grid_matches_oracle(maze, obstacles, [], terminals)
        # Each edit toggles one net: blocked nets are ripped up, others drawn.
        for net, wires in edits:
            for maze in (coarse, fine):
                if net in blocked:
                    maze.unblock(net)
                else:
                    maze.block(net, wires)
            if net in blocked:
                del blocked[net]
            else:
                blocked[net] = wires
            drawn = [rect for rects_ in blocked.values() for rect in rects_]
            for maze in (coarse, fine):
                assert_grid_matches_oracle(maze, obstacles, drawn, terminals)

    def test_a_cell_under_300_stacked_rects_frees_with_the_last(self):
        cover = Rect(18, 18, 24, 24)
        obstacles = [Rect(40, 40, 44, 44)] * 300
        maze = MazeRouter(Rect(0, 0, 60, 60), obstacles)
        assert maze._usable(3, 3, set()) is not None
        assert maze._usable(7, 7, set()) is None
        # All 300 static rects are the terminal's own shape: exempt together.
        assert maze._usable(7, 7, maze._opened(Point(42, 42))) is not None
        for k in range(300):
            maze.block(f"n{k}", [cover])
        for k in range(300):
            assert maze._usable(3, 3, set()) is None
            maze.unblock(f"n{k}")
        assert maze._usable(3, 3, set()) is not None
        assert_grid_matches_oracle(maze, obstacles, [], [])

    def test_unpaired_block_and_unblock_are_typed_errors(self):
        maze = MazeRouter(Rect(0, 0, 60, 60), [])
        with pytest.raises(RoutingError) as caught:
            maze.unblock("ghost")
        assert caught.value.diagnostic.code == "ROU009"
        maze.block("a", [Rect(10, 10, 20, 13)])
        with pytest.raises(RoutingError) as caught:
            maze.block("a", [Rect(30, 30, 40, 33)])
        assert caught.value.diagnostic.code == "ROU009"

    @settings(max_examples=100, deadline=None)
    @given(setup=walled_mazes())
    @example(setup=walled(54, [Rect(9, 0, 11, 54), Rect(0, 46, 54, 48)],
                          width=3, spacing=2, source=Point(2, 2),
                          target=Point(15, 52)))
    def test_flood_reaches_iff_priced_search_finds_a_path(self, setup):
        source, target = setup[2:]
        request = RouteRequest("n", source, target)
        for maze in setup[:2]:
            if source == target:      # nothing to draw, walled in or not
                assert maze.route(request).length == 0
                continue
            opened = maze._opened(source, target)
            start = maze._snap(source, opened)
            goal = maze._snap(target, opened)
            if start is None or goal is None:
                with pytest.raises(RoutingError) as caught:
                    maze.route(request)
                assert caught.value.diagnostic.code == "ROU005"
                continue
            path = maze._search("n", start, goal, opened)
            assert maze._reachable(start, goal, opened) == (path is not None)
            if path is None:
                sealed = metrics.counter("pnr.maze.unreachable")
                before = sealed.value
                with pytest.raises(RoutingError) as caught:
                    maze.route(request)
                if caught.value.reason == "blocked_terminal":
                    # The taps are checked before the flood: a refused tap
                    # raises first, and the flood never runs.
                    with pytest.raises(RoutingError):
                        maze._taps(request, start, goal)
                    assert sealed.value == before
                else:
                    assert sealed.value == before + 1
                continue
            assert path[0] == start and path[-1] == goal
            for here, there in zip(path, path[1:]):
                assert abs(here - there) in (1, maze._stride)
                assert not maze._blocked[there] or there in opened


# -- maze router: the span flood == the cell flood ---------------------------


class TestSpanFlood:
    """The flood walks maximal free row runs; ``repro.reference.cell_flood``
    is the cell-by-cell fill it replaced, over the same blocked array."""

    #: Every answer the property below compared, for the coverage test.
    answers = set()

    @settings(max_examples=100, deadline=None)
    @given(setup=walled_mazes(),
           edits=st.lists(st.tuples(st.sampled_from("abc"),
                                    st.lists(rects(0, 60, 12), min_size=1,
                                             max_size=3)),
                          max_size=6))
    @example(setup=walled(54, [Rect(9, 0, 11, 54), Rect(0, 46, 54, 48)],
                          width=3, spacing=2, source=Point(2, 2),
                          target=Point(15, 52)),
             edits=[])
    @example(setup=walled(40, [Rect(0, 20, 30, 22)], width=3, spacing=1,
                          source=Point(4, 4), target=Point(4, 36)),
             edits=[("a", [Rect(30, 20, 40, 22)]), ("a", [])])
    def test_span_flood_equals_cell_flood_under_block_and_unblock(
            self, setup, edits):
        source, target = setup[2:]
        lattices = setup[:2]
        blocked = set()

        def compare():
            for maze in lattices:
                opened = maze._opened(source, target)
                start = maze._snap(source, opened)
                goal = maze._snap(target, opened)
                if start is None or goal is None:
                    continue
                for a, b in ((start, goal), (goal, start)):
                    expected = cell_flood(maze._blocked, maze._stride, a, b,
                                          opened)
                    assert maze._reachable(a, b, opened) == expected
                    self.answers.add(expected)

        compare()
        # Each edit toggles one net: blocked nets are ripped up, others drawn.
        for net, wires in edits:
            for maze in lattices:
                if net in blocked:
                    maze.unblock(net)
                else:
                    maze.block(net, wires)
            blocked ^= {net}
            compare()

    def test_both_answers_occurred(self):
        if not self.answers:
            pytest.skip("the property above was not run")
        assert self.answers == {True, False}


# -- maze router: A* == Dijkstra in cost, cheaper in expansions ---------------


def priced(maze, path):
    """``pitch * steps + _TURN_COST * turns`` of a cell path, from scratch."""
    cost, heading = 0, None
    for here, there in zip(path, path[1:]):
        step = "h" if abs(there - here) == 1 else "v"
        cost += maze.pitch + (_TURN_COST if heading not in (None, step) else 0)
        heading = step
    return cost


def outcome(maze, request):
    """``(net, None)`` or ``(None, (exception type, code))``, plus the
    expansions the call spent."""
    expansions = metrics.counter("pnr.maze.expansions")
    before = expansions.value
    try:
        result = maze.route(request), None
    except (RoutingError, BudgetExceeded) as error:
        result = None, (type(error), error.diagnostic.code)
    return result + (expansions.value - before,)


class TestSearchAgainstDijkstra:
    """``repro.reference.DijkstraMazeRouter`` is the search the router ran
    before it took the Manhattan bound: same lattice, same flood, same
    taps, frontier ordered by cost alone."""

    #: (expansions A*, expansions Dijkstra) of every priced search the
    #: property ran, for the "prove it ran" test below.
    spent = []

    @settings(max_examples=150, deadline=None)
    @given(setup=walled_mazes(), budget=st.sampled_from((40, 400, 10**6)))
    @example(setup=walled(36, [Rect(29, 0, 31, 1), Rect(5, 29, 36, 31),
                               Rect(11, 0, 13, 36)],
                          width=3, spacing=1, source=Point(6, 2),
                          target=Point(6, 34)),
             budget=400)
    def test_same_cost_same_errors_fewer_expansions(self, setup, budget):
        source, target = setup[2:]
        request = RouteRequest("n", source, target)
        for maze in setup[:2]:          # coarse and half pitch
            maze.max_expansions = budget
            oracle = DijkstraMazeRouter(
                maze.bounds, maze._obstacles, wire_width=maze.wire_width,
                spacing=maze.spacing, grid=maze.pitch, max_expansions=budget)
            net, error, spent = outcome(maze, request)
            again, error_again, spent_again = outcome(maze, request)
            expected, expected_error, oracle_spent = outcome(oracle, request)
            # Deterministic: the identical point list, twice.
            assert (net, error, spent) == (again, error_again, spent_again)
            # Both count settled states, superseded heap entries left out.
            # With a consistent bound every state A* settles before the
            # goal costs less than the path, and Dijkstra settles all of
            # those.  Heap pops would not do: A* pushes a state again,
            # cheaper, round a turn more often, and the pinned maze's
            # half-pitch search pops 146 against Dijkstra's 143.
            assert spent <= oracle_spent
            if expected is None:
                # A* may still find, inside the budget, what Dijkstra ran
                # out of budget looking for; every other failure is shared.
                assert error == expected_error or (
                    expected_error[1] == "ROU006" and net is not None)
                continue
            assert net is not None, error
            assert net.cost == expected.cost
            if source != target:
                opened = maze._opened(source, target)
                start = maze._snap(source, opened)
                goal = maze._snap(target, opened)
                path = maze._search("n", start, goal, opened)
                assert priced(maze, path) == maze._path_cost(path) == net.cost
                self.spent.append((spent, oracle_spent))

    def test_the_bound_was_in_force(self):
        """A heuristic silently returning 0 would pass the property above
        with equal counts everywhere."""
        if not self.spent:
            pytest.skip("the property did not run in this session")
        assert any(fast < slow for fast, slow in self.spent)
        assert (sum(fast for fast, _ in self.spent)
                < sum(slow for _, slow in self.spent))
        # Fixed instance, so the claim does not rest on what hypothesis drew:
        # an open field, from its centre — Dijkstra floods a diamond all
        # round the source, A* only the rectangle between the terminals.
        request = RouteRequest("far", Point(120, 120), Point(180, 150))
        maze = MazeRouter(Rect(0, 0, 240, 240), [])
        oracle = DijkstraMazeRouter(Rect(0, 0, 240, 240), [])
        net, _error, spent = outcome(maze, request)
        expected, _error, oracle_spent = outcome(oracle, request)
        assert net.cost == expected.cost == 60 + 30 + _TURN_COST
        assert spent * 3 < oracle_spent

    def test_at_pitch_keeps_the_oracle_an_oracle(self):
        oracle = DijkstraMazeRouter(Rect(0, 0, 60, 60), [])
        assert type(oracle.at_pitch(3)) is DijkstraMazeRouter


# -- maze router: taps keep the spacing rule ----------------------------------


@st.composite
def routing_jobs(draw):
    """(maze, three requests) over one random obstacle field, at the coarse
    or the half pitch."""
    side = draw(st.integers(30, 80))
    obstacles = draw(st.lists(rects(0, side, 14).filter(
        lambda rect: rect.width and rect.height), max_size=8))
    maze = MazeRouter(Rect(0, 0, side, side), obstacles,
                      wire_width=draw(st.integers(1, 4)),
                      spacing=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        maze = maze.at_pitch(max(maze.pitch // 2, 1))
    inside = st.builds(Point, st.integers(2, side - 2),
                       st.integers(2, side - 2))
    return maze, [RouteRequest(f"n{index}", draw(inside), draw(inside))
                  for index in range(3)]


class TestTapsKeepSpacing:
    """ROADMAP 6(d): the lattice guarantees clearance at its nodes only; the
    L-tap from an off-lattice terminal runs between them."""

    @settings(max_examples=300, deadline=None)
    @given(job=routing_jobs())
    def test_every_drawn_rect_keeps_spacing(self, job):
        maze, requests = job
        drawn = []
        for request in requests:
            try:
                net = maze.route(request)
            except (RoutingError, BudgetExceeded):
                continue
            if len(net.points) < 2:
                continue
            wires = wire_rects(net.points, maze.wire_width)
            # Exempt: what touches a terminal's landing square — its own
            # metal, or an earlier net already run over it (no tap can
            # clear that; the request was a short before it was routed).
            landings = [maze._landing(point)
                        for point in (request.source, request.target)]
            others = [rect for rect in maze._obstacles + drawn
                      if not any(rect.overlaps(landing, strict=False)
                                 for landing in landings)]
            for wire in wires:
                probe = wire.expanded(maze.spacing)
                for rect in others:
                    assert not probe.overlaps(rect, strict=True), (
                        f"net {request.name} {net.points}: {wire} within "
                        f"{maze.spacing} of {rect}")
            maze.block(request.name, wires)
            drawn.extend(wires)

    def test_a_blocked_tap_takes_the_other_l_or_escalates(self):
        # Terminal (8, 23) snaps to node (6, 24).  The default L goes up
        # x=8 first and its end cap comes within the spacing of the block's
        # corner at (11, 28); the other L (along y=23, then up x=6) clears it.
        maze = MazeRouter(Rect(0, 0, 60, 60), [Rect(11, 28, 24, 36)])
        net = maze.route(RouteRequest("t", Point(8, 23), Point(12, 48)))
        assert net.points[:3] == [Point(8, 23), Point(6, 23), Point(6, 48)]
        # Terminal (22, 4) under a bar: the nearest free node, (24, 18), is
        # across it, and so is either L.  Typed error, reason for the span.
        maze = MazeRouter(Rect(0, 0, 60, 60), [Rect(14, 9, 28, 12)])
        with pytest.raises(RoutingError) as caught:
            maze.route(RouteRequest("t", Point(22, 4), Point(12, 48)))
        assert caught.value.diagnostic.code == "ROU005"
        assert caught.value.reason == "blocked_terminal"


# -- rip-up keeps the cell's version counter honest ---------------------------


class TestRipUpGoesThroughTheCell:
    """``_undraw`` / ``_restore`` used to edit ``cell.shapes`` directly: a
    restored victim changed the shape order with no version bump, so the
    flat view and the content digest memoised before the rip-up stayed."""

    def test_restored_victims_leave_no_stale_memo(self, technology,
                                                  monkeypatch):
        cell = Cell("pnr_ripup")
        walls = [Rect(58, 0, 62, 54), Rect(58, 66, 62, 120),   # one-track gap
                 Rect(88, 88, 112, 92), Rect(88, 108, 112, 112),   # a sealed
                 Rect(88, 88, 92, 112), Rect(108, 88, 112, 112)]   # pocket
        for wall in walls:
            cell.add_rect("metal", wall)
        router = PnrRouter(technology, Rect(0, 0, 120, 120), walls)
        through = RouteRequest("a", Point(18, 60), Point(102, 60))
        first = router.route_all(cell, [
            through, RouteRequest("c", Point(18, 18), Point(42, 18)),
            RouteRequest("e", Point(18, 30), Point(42, 30))])
        assert first.completion == 1.0

        def assert_memos_fresh():
            fresh = Cell("pnr_ripup_fresh")
            for shape in cell.shapes:
                fresh.add_shape(shape)
            assert flatten_cell(cell).shapes == flatten_cell(fresh).shapes
            assert cell.bbox() == fresh.bbox()
            assert cell_digest(cell) == cell_digest(fresh)

        assert_memos_fresh()      # and fills all three memos
        # Hopeless: the target is sealed whoever is ripped, so every victim
        # is removed, found not to help, and put back — behind the others.
        hopeless = router.route_all(cell, [
            RouteRequest("b", Point(18, 102), Point(100, 100))])
        assert [request.name for request, _ in hopeless.failed] == ["b"]
        assert_memos_fresh()
        # Undo: "d" needs the gap "a" holds.  Ripping "a" lets "d" through,
        # but then "a" cannot re-route: "d" is undrawn and "a" restored.
        undrawn = []
        undraw = router._undraw
        monkeypatch.setattr(router, "_undraw", lambda cell, name: (
            undrawn.append(name), undraw(cell, name))[1])
        undone = router.route_all(cell, [
            RouteRequest("d", Point(18, 84), Point(102, 78))])
        assert [request.name for request, _ in undone.failed] == ["d"]
        assert "d" in undrawn and sorted(router._drawn) == ["a", "c", "e"]
        assert_memos_fresh()
        assert sum(1 for shape in cell.shapes if shape.kind.name == "WIRE") == 3


# -- chip-level place & route -------------------------------------------------


class TestChipPnr:
    @pytest.fixture(scope="class")
    def family_chip(self):
        return build_chip("pnr_family_4b", 4, 0)

    def test_placement_is_legal(self, family_chip):
        assembler, _chip = family_chip
        report = assembler.placement_report
        assert report is not None
        assert not report.overlaps
        assert 0.0 < report.utilisation <= 1.0
        assert report.final_wirelength <= report.initial_wirelength

    def test_all_nets_route_without_fallback(self, family_chip):
        assembler, _chip = family_chip
        assert assembler.routing_report.completion == 1.0
        assert not assembler.routing_report.failed

    def test_routed_nets_are_pairwise_disjoint(self, family_chip):
        assembler, _chip = family_chip
        _layer, width, _spacing = assembler.route_style()
        rects = {net.name: [("metal", rect)
                            for rect in wire_rects(net.points, width)]
                 for net in assembler.routing_report.routed}
        assert len(rects) == len(assembler.routing_report.routed)
        assert_nets_disjoint(rects)

    @pytest.mark.parametrize("strict", ["0", "1"])
    def test_unroutable_net_is_a_typed_error(self, technology, monkeypatch,
                                             strict):
        """A port sealed inside a block-wide metal ring cannot be reached:
        assembly raises the router's typed error in every mode instead of
        drawing a wire across the ring."""
        from repro.assembly import ChipAssembler
        from repro.pnr.router import RoutingError

        monkeypatch.setenv("REPRO_STRICT", strict)
        block = Cell("pnr_walled_block")
        for x1, y1, x2, y2 in ((0, 0, 80, 4), (0, 76, 80, 80),
                               (0, 0, 4, 80), (76, 0, 80, 80),
                               (38, 38, 42, 42)):
            block.add_box("metal", x1, y1, x2, y2)
        block.add_port("a", Point(40, 40), "metal")
        assembler = ChipAssembler("pnr_walled", technology)
        assembler.add_block("core", block)
        assembler.add_supply_pads()
        assembler.add_pad("a_pad", connect_to=("core", "a"))
        with pytest.raises(RoutingError) as caught:
            assembler.assemble()
        assert caught.value.diagnostic.code == "ROU005"
        assert "a_pad" in str(caught.value)


class TestMalformedPlacementIsTyped:
    """A placement problem with no legal answer is rejected, not mis-solved."""

    @staticmethod
    def plain_block(name, width, height):
        cell = Cell(name)
        cell.add_box("metal", 0, 0, width, height)
        return cell

    def five_blocks(self):
        return [(name, self.plain_block(f"mp_{name}", width, height))
                for name, width, height in (
                    ("a", 10, 10), ("b", 40, 40), ("c", 30, 12),
                    ("d", 18, 26), ("e", 22, 22))]

    NETS = [(("a", "p"), ("e", "p")), (("b", "p"), ("d", "p")),
            (("c", "p"), ("a", "p"))]

    def test_duplicate_block_name_never_drops_a_block(self, technology):
        from repro.assembly import ChipAssembler

        blocks = self.five_blocks()
        blocks[1] = ("a", blocks[1][1])       # two blocks both called "a"
        for seed in range(6):
            with pytest.raises(PlacementError) as caught:
                refine_placement(blocks, self.NETS, max_width=120, seed=seed)
            assert caught.value.diagnostic.code == "ROU010"
        assembler = ChipAssembler("mp_dup", technology)
        assembler.add_block("a", blocks[0][1])
        with pytest.raises(PlacementError) as caught:
            assembler.add_block("a", blocks[1][1])
        assert caught.value.diagnostic.code == "ROU010"

    def test_negative_spacing_is_rejected_not_overlapped(self):
        with pytest.raises(PlacementError) as caught:
            refine_placement(self.five_blocks(), self.NETS, spacing=-15)
        assert caught.value.diagnostic.code == "ROU010"

    def test_unknown_block_in_a_connection_is_typed(self, technology):
        from repro.assembly import ChipAssembler

        nets = self.NETS + [(("ghost", "p"), ("a", "p"))]
        with pytest.raises(UnknownTerminalError) as caught:
            refine_placement(self.five_blocks(), nets)
        assert caught.value.diagnostic.code == "ROU011"
        assert str(caught.value) == "no core block named 'ghost'"
        assembler = ChipAssembler("mp_ghost", technology)
        assembler.add_block("core", self.plain_block("mp_core", 50, 50))
        assembler.add_supply_pads()
        assembler.add_pad("x", "input", connect_to=("ghost", "p"))
        with pytest.raises(UnknownTerminalError) as caught:
            assembler.assemble()
        assert caught.value.diagnostic.code == "ROU011"


# -- sign-off goldens over the four example designs ---------------------------


def adder_pla(technology):
    table = TruthTable.from_expressions(
        {"sum": parse_expr("a ^ b ^ cin"),
         "carry": parse_expr("a & b | a & cin | b & cin")},
        input_names=["a", "b", "cin"])
    return PlaGenerator(technology, table, name="pnr_adder_pla").cell()


def wrap_in_chip(name, cell, technology):
    from repro.assembly import ChipAssembler

    assembler = ChipAssembler(name, technology)
    assembler.add_block("core", cell)
    assembler.add_supply_pads()
    assembler.assemble()
    return assembler


@pytest.fixture(scope="module")
def signed_off_chips(technology):
    """The four example designs, assembled and signed off once."""
    analyzer = HierAnalyzer(technology)
    chips = {}
    quickstart = wrap_in_chip("pnr_quickstart", adder_pla(technology),
                              technology)
    chips["quickstart"] = (quickstart, quickstart.sign_off(analyzer))
    fsm_cell = FsmLayoutGenerator(technology, build_fsm()).cell()
    fsm = wrap_in_chip("pnr_fsm", fsm_cell, technology)
    chips["fsm"] = (fsm, fsm.sign_off(analyzer))
    family, _chip = build_chip("pnr_golden_4b", 4, 0)
    chips["family"] = (family, family.sign_off(analyzer))
    from pdp8_subset_compiler import compiled_machine_summary
    _compiled, layout, _report = compiled_machine_summary()
    pdp8 = wrap_in_chip("pnr_pdp8", layout, technology)
    chips["pdp8"] = (pdp8, pdp8.sign_off(analyzer))
    return chips


class TestSignOffGoldens:
    def test_every_example_chip_is_drc_clean(self, signed_off_chips):
        for name, (_assembler, report) in signed_off_chips.items():
            assert report.clean, (
                f"{name}: {len(report.violations)} DRC violations, first: "
                f"{report.violations[:3]}")

    def test_every_chip_routes_completely(self, signed_off_chips):
        for name, (assembler, _report) in signed_off_chips.items():
            expected = (len(assembler._connections)
                        + len(assembler._block_connections))
            if assembler.routing_report is None:
                # Supply-only chips have nothing to route.
                assert expected == 0, name
                continue
            assert assembler.routing_report.completion == 1.0, name
            assert assembler.report.routed_connections == expected

    def test_single_layer_walker_lists_what_the_flat_view_lists(
            self, signed_off_chips):
        # In order: the router's obstacle ids are positions in this list.
        for name, (assembler, _report) in signed_off_chips.items():
            by_layer = flatten_cell(assembler._chip).rects_by_layer()
            assert len(by_layer["metal"]) > 20, name
            for layer in list(by_layer) + ["no_such_layer"]:
                assert (flat_layer_rects(assembler._chip, layer)
                        == by_layer.get(layer, [])), (name, layer)

    def test_per_net_capacitance_is_sane(self, signed_off_chips, technology):
        # Every pad route's drawn wire must extract to a small positive
        # capacitance: a zero says the route vanished, a huge value says a
        # route merged with something it should not have touched.
        model = ParasiticModel(technology)
        checked = 0
        for name, (assembler, report) in signed_off_chips.items():
            for path in report.timing.io_paths:
                assert path.route_length > 0, (name, path.pad)
                wire = Rect(0, 0, path.route_length, 3)
                cap_ff = model.rect_cap_ff("metal", wire)
                assert 0.0 < cap_ff < 2000.0, (name, path.pad, cap_ff)
                assert path.route_delay_ns >= 0.0
                checked += 1
        assert checked > 0


def routes_of(assembler):
    """JSON-ready record of every routed net of an assembled chip."""
    if assembler.routing_report is None:
        return []
    return [{"name": net.name, "length": net.length,
             "points": [[point.x, point.y] for point in net.points]}
            for net in assembler.routing_report.routed]


class TestRoutesPinned:
    """Every routed point of the example chips, pinned to the golden.

    ``tests/golden/routes.json`` was generated before the router's blockage
    test was rasterised; equality here is the proof that the blocked-cell
    grid visits lattice points in the same order as the geometric predicate
    it replaced (same neighbour order, costs and tie counter), so the CIF
    does not move by a byte.
    """

    def test_routes_match_golden(self, signed_off_chips):
        produced = {name: routes_of(assembler)
                    for name, (assembler, _report) in signed_off_chips.items()}
        # The larger members of the example family; the 8-bit one is the
        # chip the E15 and end-to-end benchmarks measure (five nets, eight
        # sealed searches, four rip-up attempts).
        for bits, extra in ((8, 0), (16, 4)):
            produced[f"family_{bits}b"] = routes_of(
                build_chip(f"pnr_golden_{bits}b", bits, extra)[0])
        golden_path = os.path.join(GOLDEN_DIR, "routes.json")
        if UPDATE_GOLDENS:
            with open(golden_path, "w") as handle:
                json.dump(produced, handle, sort_keys=True)
                handle.write("\n")
        with open(golden_path) as handle:
            assert produced == json.load(handle)
