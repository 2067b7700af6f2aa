"""Fault-injection harness: mutate inputs, assert the flow fails *typed*.

The robustness contract of the toolchain, checked by hypothesis-driven
mutation of every external input format:

* **never crash unstructured** — whatever bytes arrive, the only
  exceptions that may escape a parser or analysis pass are the typed
  :class:`~repro.diagnostics.DiagnosticError` family (which still subclass
  their historical builtins) or the documented builtins of the
  construction APIs; in collector (recovery) mode the parsers must not
  raise at all;
* **never silently return wrong results** — on inputs both execution
  paths accept, the compiled/indexed/incremental fast paths must agree
  with the retained reference implementations exactly.

This module is deliberately *not* named ``test_*``: the mutation budget
makes it too slow for the tier-1 suite.  CI runs it explicitly::

    FAULT_INJECTION_EXAMPLES=25 pytest tests/fault_injection.py

The default budget (120 examples per property, 8 properties) exercises
more than 500 mutated inputs per full run.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells import InverterCell, NandCell
from repro.cif import parse_cif, write_cif
from repro.cif.parser import CifSyntaxError
from repro.diagnostics import (
    BudgetExceeded,
    DiagnosticCollector,
    DiagnosticError,
)
from repro.drc import DrcChecker
from repro.erc import ErcChecker
from repro.extract.extractor import Extractor
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout import Library
from repro.layout.cell import Cell
from repro.netlist import GateType, Module, NetlistError
from repro.netlist.gate_sim import GateLevelSimulator
from repro.netlist.switch_sim import (
    SwitchLevelSimulator,
    SwitchNetwork,
    TransistorKind,
)
from repro.obs import metrics
from repro.pnr import PnrRouter, RouteRequest
from repro.rtl import parse_rtl
from repro.rtl.parser import RtlSyntaxError
from repro.technology import nmos_technology

EXAMPLES = int(os.environ.get("FAULT_INJECTION_EXAMPLES", "120"))
settings.register_profile(
    "fault_injection", max_examples=EXAMPLES, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much,
                           HealthCheck.data_too_large])
settings.load_profile("fault_injection")

TECHNOLOGY = nmos_technology()


def seed_cif_text() -> str:
    """Real compiler output as the mutation seed: two leaf cells, one top."""
    library = Library("fault_seed", TECHNOLOGY)
    inverter = library.add_cell(InverterCell(TECHNOLOGY).cell())
    nand = library.add_cell(NandCell(TECHNOLOGY).cell())
    top = Cell("fault_top")
    top.place(inverter, 0, 0)
    top.place(nand, 40, 0)
    top.add_label("a", Point(2, 2), "poly")
    library.add_cell(top)
    return write_cif(library)


SEED_CIF = seed_cif_text()

SEED_RTL = """
machine seed;
input a[1], b[1];
output q[2];
register acc[2];
always begin
    acc <- acc + (a & b);
    q = acc;
end
"""

NOISE = st.text(
    alphabet="DSPBWLC9E0123456789 ;-\n().,ambq", min_size=1, max_size=8)


@st.composite
def mutations(draw, seed):
    """A handful of splice/delete/duplicate edits applied to seed text."""
    text = seed
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("insert", "delete", "duplicate",
                                     "truncate")))
        if not text:
            break
        at = draw(st.integers(min_value=0, max_value=len(text) - 1))
        if kind == "insert":
            text = text[:at] + draw(NOISE) + text[at:]
        elif kind == "delete":
            span = draw(st.integers(min_value=1, max_value=20))
            text = text[:at] + text[at + span:]
        elif kind == "duplicate":
            span = draw(st.integers(min_value=1, max_value=20))
            text = text[:at] + text[at:at + span] + text[at:]
        else:
            text = text[:at]
    return text


# -- parsers ------------------------------------------------------------------


class TestCifMutation:
    @given(text=mutations(SEED_CIF))
    def test_recovery_mode_never_raises(self, text):
        collector = DiagnosticCollector("cif")
        library = parse_cif(text, collector=collector)
        assert library is not None
        for diagnostic in collector:
            assert diagnostic.code.startswith("CIF")

    @given(text=mutations(SEED_CIF))
    def test_raising_mode_raises_only_typed_errors(self, text):
        try:
            parse_cif(text)
        except CifSyntaxError as error:
            assert isinstance(error, (DiagnosticError, ValueError))
            assert error.diagnostic.code.startswith("CIF")

    @given(cut=st.integers(min_value=0, max_value=len(SEED_CIF)))
    def test_every_truncation_point_is_structured(self, cut):
        collector = DiagnosticCollector("cif")
        parse_cif(SEED_CIF[:cut], collector=collector)
        try:
            parse_cif(SEED_CIF[:cut])
        except CifSyntaxError:
            pass


class TestRtlMutation:
    @given(text=mutations(SEED_RTL))
    def test_recovery_mode_never_raises(self, text):
        collector = DiagnosticCollector("rtl")
        machine = parse_rtl(text, collector=collector)
        assert machine is not None
        for diagnostic in collector:
            assert diagnostic.code.startswith("RTL")

    @given(text=mutations(SEED_RTL))
    def test_raising_mode_raises_only_typed_errors(self, text):
        try:
            parse_rtl(text)
        except RtlSyntaxError as error:
            assert isinstance(error, ValueError)
            assert error.diagnostic.code.startswith("RTL")


# -- netlists -----------------------------------------------------------------


GATE_POOL = (GateType.AND, GateType.OR, GateType.XOR, GateType.NOT,
             GateType.BUF, GateType.NAND, GateType.DFF)
NET_NAMES = tuple(f"n{i}" for i in range(6))

random_gates = st.lists(
    st.tuples(st.sampled_from(GATE_POOL),
              st.sampled_from(NET_NAMES),
              st.lists(st.sampled_from(NET_NAMES), max_size=3)),
    min_size=1, max_size=8)


class TestNetlistMutation:
    @given(gates=random_gates,
           vector=st.lists(st.integers(min_value=0, max_value=1),
                           min_size=6, max_size=6))
    def test_random_netlists_fail_typed_and_simulate_differentially(
            self, gates, vector):
        module = Module("mut")
        for gate, output, inputs in gates:
            try:
                module.add_gate(gate, output, inputs)
            except NetlistError as error:
                assert error.diagnostic.code.startswith("NET")
                return
        # ERC and validation must be total on whatever was constructed.
        ErcChecker().check_module(module)
        module.validate()

        sims = []
        for compiled in (True, False):
            try:
                sims.append(GateLevelSimulator(module, settle_limit=64,
                                               use_compiled=compiled))
            except ValueError as error:
                sims.append(str(error))
        if isinstance(sims[0], str) or isinstance(sims[1], str):
            assert sims[0] == sims[1]   # both reject, same message
            return
        assignment = dict(zip(NET_NAMES, vector))
        results = []
        for sim in sims:
            inputs = {name: value for name, value in assignment.items()
                      if name in sim.module.nets}
            try:
                sim.set_inputs(inputs)
                sim.settle()
                results.append(dict(sim.values))
            except BudgetExceeded as error:
                results.append(str(error))
        assert results[0] == results[1]


# -- layouts ------------------------------------------------------------------


LAYERS = ("diffusion", "poly", "metal", "contact", "implant", "buried")
boxes = st.lists(
    st.tuples(st.sampled_from(LAYERS),
              st.integers(min_value=-12, max_value=12),
              st.integers(min_value=-12, max_value=12),
              st.integers(min_value=1, max_value=10),
              st.integers(min_value=1, max_value=10)),
    min_size=1, max_size=12)
labels = st.lists(
    st.tuples(st.sampled_from(("a", "b", "vdd", "gnd", "out")),
              st.integers(min_value=-12, max_value=12),
              st.integers(min_value=-12, max_value=12)),
    max_size=3)


class TestLayoutMutation:
    @given(rects=boxes, marks=labels)
    def test_arbitrary_geometry_flows_end_to_end(self, rects, marks):
        cell = Cell("mut_layout")
        for layer, x, y, w, h in rects:
            cell.add_box(layer, x, y, x + w, y + h)
        for text, x, y in marks:
            cell.add_label(text, Point(x, y), "metal")

        # DRC: indexed and brute-force agree on arbitrary geometry.
        indexed = DrcChecker(TECHNOLOGY).check(cell)
        brute = DrcChecker(TECHNOLOGY, use_index=False).check(cell)
        assert indexed == brute

        # Extraction: both paths produce the same netlist; ERC is total.
        fast = Extractor(TECHNOLOGY).extract(cell)
        slow = Extractor(TECHNOLOGY, use_index=False).extract(cell)
        assert fast.transistor_count == slow.transistor_count
        assert fast.node_names == slow.node_names
        fast_report = ErcChecker().check_circuit(fast)
        slow_report = ErcChecker().check_circuit(slow)
        assert fast_report.codes() == slow_report.codes()


# -- switch networks ----------------------------------------------------------


NODE_POOL = ("vdd", "gnd", "a", "b", "x", "y", "z")
random_devices = st.lists(
    st.tuples(st.sampled_from(NODE_POOL), st.sampled_from(NODE_POOL),
              st.sampled_from(NODE_POOL),
              st.sampled_from((TransistorKind.ENHANCEMENT,
                               TransistorKind.DEPLETION))),
    min_size=1, max_size=10)


class TestSwitchNetworkMutation:
    @given(devices=random_devices,
           a=st.sampled_from((0, 1)), b=st.sampled_from((0, 1)))
    def test_erc_total_and_settle_paths_agree(self, devices, a, b):
        network = SwitchNetwork("mut_switch")
        for gate, source, drain, kind in devices:
            network.add_transistor(gate, source, drain, kind)
        network.add_input("a")
        network.add_input("b")
        network.add_output("z")
        ErcChecker().check_network(network)   # total on any topology

        results = []
        for incremental in (True, False):
            sim = SwitchLevelSimulator(network, settle_limit=60,
                                       use_incremental=incremental)
            try:
                results.append(sim.evaluate({"a": a, "b": b}))
            except BudgetExceeded as error:
                results.append(str(error))
        assert results[0] == results[1]


# -- place & route ------------------------------------------------------------


PNR_BOUNDS = Rect(0, 0, 120, 120)
PNR_BUDGET = 4000
#: Terminals on the coarse lattice (pitch 6), up to two nodes outside bounds.
pnr_nodes = st.builds(lambda i, j: Point(6 * i, 6 * j),
                      st.integers(-2, 22), st.integers(-2, 22))
pnr_obstacles = st.lists(
    st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
              st.integers(-10, 120), st.integers(-10, 120),
              st.integers(0, 60), st.integers(0, 60)),
    max_size=10)


def route_net(obstacles, source, target, bounds=PNR_BOUNDS,
              max_expansions=PNR_BUDGET):
    """Route one net through every escalation level; check the contract.

    The outcome is either a typed ``ROU*`` failure or a wire — one that,
    between terminals on the lattice, keeps the spacing rule to every
    obstacle other than the shapes its terminals sit on — reached within
    the expansion budget, never a traceback.
    """
    router = PnrRouter(TECHNOLOGY, bounds, obstacles,
                       max_expansions=max_expansions)
    expansions = metrics.counter("pnr.maze.expansions")
    before = expansions.value
    report = router.route_all(Cell("pnr_fault"),
                              [RouteRequest("n", source, target)])
    assert len(report.routed) + len(report.failed) == 1
    for _request, error in report.failed:
        assert isinstance(error, DiagnosticError)
        assert error.diagnostic.code.startswith("ROU")
    # Coarse attempt plus at most one half-pitch retry (no victims to rip).
    assert expansions.value - before <= 2 * (max_expansions + 1)
    # The lattice path is what the blockage grid vouches for; the L-tap that
    # joins an off-lattice terminal to its nearest free node is drawn blind.
    width, pitch = router.wire_width, router.pitch
    half, other = width // 2, width - width // 2
    if not all(p.x % pitch == 0 and p.y % pitch == 0 and bounds.contains_rect(
            Rect(p.x - half, p.y - half, p.x + other, p.y + other))
            for p in (source, target)):
        return report
    reach = half + router.spacing
    terminal_shapes = [
        rect for rect in obstacles for p in (source, target)
        if Rect(p.x - reach, p.y - reach, p.x + reach, p.y + reach)
        .overlaps(rect, strict=False)]
    for net in report.routed:
        for a, b in zip(net.points, net.points[1:]):
            halo = Rect(min(a.x, b.x) - half, min(a.y, b.y) - half,
                        max(a.x, b.x) + other,
                        max(a.y, b.y) + other).expanded(router.spacing)
            for rect in obstacles:
                assert (rect in terminal_shapes
                        or not halo.overlaps(rect, strict=True)), (net, rect)
    return report


class TestPnrFaults:
    def test_coincident_terminals_need_no_wire(self):
        for point in (Point(60, 60), Point(61, 59), Point(0, 6)):
            report = route_net([], point, point)
            assert [net.length for net in report.routed] == [0]

    def test_terminal_outside_bounds_is_typed(self):
        report = route_net([], Point(60, 60), Point(400, 60))
        assert report.failed[0][1].diagnostic.code == "ROU005"
        report = route_net([], Point(-300, -300), Point(60, 60))
        assert report.failed[0][1].diagnostic.code == "ROU005"

    def test_degenerate_bounds_are_typed(self):
        for bounds in (Rect(0, 0, 0, 0), Rect(0, 0, 2, 200),
                       Rect(5, 5, 5, 90)):
            report = route_net([], Point(0, 0), Point(0, 60), bounds=bounds)
            assert report.failed[0][1].diagnostic.code == "ROU005"

    def test_zero_width_corridor_is_unroutable_not_shorted(self):
        # Two slabs abut (corridor width 0), then leave a gap one lambda
        # too narrow for wire + spacing on both lattices: sealed either way.
        for gap in (0, 8):
            walls = [Rect(0, 50, 60, 58), Rect(60 + gap, 50, 120, 58)]
            report = route_net(walls, Point(60, 24), Point(60, 96))
            assert report.failed[0][1].diagnostic.code == "ROU005"
        walls = [Rect(0, 50, 54, 58), Rect(66, 50, 120, 58)]
        report = route_net(walls, Point(60, 24), Point(60, 96))
        assert report.routed and report.routed[0].length >= 72

    def test_pad_inside_a_block_lands_or_fails_typed(self):
        # The terminal's own block is exempt (landing on it is the point);
        # a ring of slabs over the block, clear of the terminal, is not,
        # and seals it.
        block = Rect(30, 30, 90, 90)
        report = route_net([block], Point(60, 60), Point(6, 6))
        assert report.routed
        lid = [Rect(20, 20, 50, 100), Rect(20, 20, 100, 50),
               Rect(70, 20, 100, 100), Rect(20, 70, 100, 100)]
        report = route_net([block] + lid, Point(60, 60), Point(6, 6))
        assert report.failed[0][1].diagnostic.code == "ROU005"

    def test_exhausted_budget_is_typed(self):
        report = route_net([], Point(6, 6), Point(114, 114), max_expansions=50)
        error = report.failed[0][1]
        assert isinstance(error, BudgetExceeded)
        assert error.diagnostic.code == "ROU006"

    @given(obstacles=pnr_obstacles, source=pnr_nodes, target=pnr_nodes)
    def test_random_obstacle_fields_route_or_fail_typed(
            self, obstacles, source, target):
        route_net(obstacles, source, target)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
