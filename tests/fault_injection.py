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
  paths accept, the compiled/indexed fast paths and the switch simulator
  must agree with their :mod:`repro.reference` oracles exactly.

This module is deliberately *not* named ``test_*``: the mutation budget
makes it too slow for the tier-1 suite.  CI runs it explicitly::

    FAULT_INJECTION_EXAMPLES=25 pytest tests/fault_injection.py

The default budget (120 examples per property, 12 properties) exercises
more than 1000 mutated inputs per full run.
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
    Diagnostic,
    DiagnosticCollector,
    DiagnosticError,
    Severity,
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
from repro.assembly.padframe import PadSpec
from repro.pnr import (
    PlacementError,
    PnrRouter,
    RouteRequest,
    UnknownTerminalError,
    refine_placement,
)
from repro.reference import (
    BruteDrcChecker,
    BruteExtractor,
    GateLevelInterpreter,
    RtlInterpreter,
    SwitchLevelReference,
)
from repro.rtl import (
    RtlCompiler,
    RtlSemanticError,
    RtlSimulator,
    RtlSynthesisError,
    RtlSyntaxError,
    check_machine,
    parse_rtl,
)
from repro.rtl import ast as rtl
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


# -- RTL semantics --------------------------------------------------------------


def check_back_ends(machine, data):
    """One machine through check, both simulators and the gate compiler.

    Either the check finds ``RTL1xx`` errors and all three back ends refuse
    the machine at construction with that same error, or all three accept
    it: the simulators then agree cycle for cycle and the compiler produces
    a netlist or declines with ``RTL2xx`` — no bare builtin error anywhere.
    """
    diagnostics = check_machine(machine)
    assert all(isinstance(d, Diagnostic) and "RTL100" < d.code < "RTL200"
               for d in diagnostics)
    errors = [d for d in diagnostics if Severity.ERROR <= d.severity]
    back_ends = (RtlSimulator, RtlInterpreter, RtlCompiler)
    if errors:
        for back_end in back_ends:
            with pytest.raises(RtlSemanticError) as info:
                back_end(machine)
            assert info.value.diagnostics == errors
        return
    production, reference, compiler = (b(machine) for b in back_ends)
    for _ in range(4):
        vector = {d.name: data.draw(st.integers(0, d.mask))
                  for d in machine.inputs}
        assert production.step(vector) == reference.step(vector)
        assert production.values == reference.values
    try:
        compiler.compile()
    except RtlSynthesisError as error:
        assert "RTL200" < error.diagnostic.code < "RTL300"


#: ``input a[2]; output y[2]; wire w[2]; register r[2]; memory mem[4][2]``:
#: each choice below is legal eleven times in twelve, so about half of the
#: machines pass the check and half break one rule or another.
def mostly(legal, illegal):
    return st.integers(0, 11).flatmap(lambda n: legal if n else illegal)


def names(*pool):
    return st.sampled_from(pool)


rtl_signals = st.builds(rtl.Identifier, mostly(names("a", "y", "w", "r"),
                                               names("mem", "ghost")))
rtl_memories = mostly(st.just("mem"), names("nomem", "r"))
rtl_expressions = st.recursive(
    st.one_of(st.builds(rtl.Constant, st.integers(0, 3)), rtl_signals),
    lambda inner: st.one_of(
        st.builds(rtl.UnaryOp, mostly(names("~", "-", "!"), st.just("?")),
                  inner),
        st.builds(rtl.BinaryOp,
                  mostly(names("+", "-", "&", "|", "^", "==", "<", ">=", ">>",
                               "&&", "||", "*", "<<"), st.just("**")),
                  inner, inner),
        st.builds(lambda base, low: rtl.BitSelect(base, low + 1, low),
                  rtl_signals, st.integers(0, 2)),
        st.builds(rtl.MemoryAccess, rtl_memories, inner),
        st.builds(lambda left, right: rtl.Concatenate((left, right)),
                  inner, inner)),
    max_leaves=4)


def rtl_writes(kind_names, clocked):
    """Assignments to (a field of) a signal of one kind, or to a memory word."""
    whole = st.builds(rtl.Identifier, mostly(names(*kind_names),
                                             names("mem", "ghost")))
    field = st.builds(lambda base, low: rtl.BitSelect(base, low, low),
                      mostly(whole, rtl_expressions), st.integers(0, 2))
    return st.builds(rtl.Assignment, st.one_of(whole, whole, field),
                     rtl_expressions,
                     mostly(st.just(clocked), st.just(not clocked)))


rtl_assignments = st.one_of(
    rtl_writes(("y", "w", "a"), clocked=False),
    rtl_writes(("y", "r"), clocked=True),
    st.builds(rtl.Assignment,
              st.builds(rtl.MemoryAccess, rtl_memories, rtl_expressions),
              rtl_expressions, mostly(st.just(True), st.just(False))))
#: Half the conditionals are dead (constant 0): a rule must hold there too.
rtl_statements = st.one_of(
    rtl_assignments,
    st.builds(lambda condition, then, otherwise: rtl.IfStatement(
                  condition, rtl.Block((then,)),
                  None if otherwise is None else rtl.Block((otherwise,))),
              st.one_of(st.just(rtl.Constant(0)), rtl_expressions),
              rtl_assignments, st.one_of(st.none(), rtl_assignments)))


@st.composite
def small_machines(draw):
    machine = rtl.MachineDescription("small")
    machine.declare(rtl.DeclKind.INPUT, "a", 2)
    machine.declare(rtl.DeclKind.OUTPUT, "y", 2)
    machine.declare(rtl.DeclKind.WIRE, "w", 2)
    machine.declare(rtl.DeclKind.REGISTER, "r", 2)
    machine.declare(rtl.DeclKind.MEMORY, "mem", 2, depth=4)
    machine.body = rtl.Block(tuple(draw(
        st.lists(rtl_statements, min_size=1, max_size=3))))
    return machine


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

    @given(text=mutations(SEED_RTL), data=st.data())
    def test_mutants_that_parse_are_rejected_typed_or_run_everywhere(
            self, text, data):
        try:
            machine = parse_rtl(text)
        except RtlSyntaxError:
            return
        check_back_ends(machine, data)

    @given(machine=small_machines(), data=st.data())
    def test_back_ends_accept_and_reject_the_same_machines(self, machine, data):
        check_back_ends(machine, data)


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
        # ERC and validation must be total on whatever was constructed,
        # and report the structural rules from the one pass.
        problems = module.validate()
        assert all(isinstance(d, Diagnostic) for d in problems)
        assert [d.code for d in problems] == [
            code for code in ErcChecker().check_module(module).codes()
            if code != "ERC004"]

        sims = []
        for simulator in (GateLevelSimulator, GateLevelInterpreter):
            try:
                sims.append(simulator(module, settle_limit=64))
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
        brute = BruteDrcChecker(TECHNOLOGY).check(cell)
        assert indexed == brute

        # Extraction: both paths produce the same netlist; ERC is total.
        fast = Extractor(TECHNOLOGY).extract(cell)
        slow = BruteExtractor(TECHNOLOGY).extract(cell)
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
        for simulator in (SwitchLevelSimulator, SwitchLevelReference):
            sim = simulator(network, settle_limit=60)
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


# -- placement ----------------------------------------------------------------


def plain_block(name, width, height):
    cell = Cell(f"pf_{name}_{width}x{height}")
    if width and height:
        cell.add_box("metal", 0, 0, width, height)
    return cell


def place(blocks, connections=(), **options):
    """Refine one placement problem; check the contract.

    The outcome is either a typed ``ROU*`` rejection (returned) or a
    report whose floorplan is overlap-free and holds every input block
    exactly once under its own name — never a bare builtin error, never a
    cell placed twice or dropped.
    """
    try:
        report = refine_placement(blocks, connections, **options)
    except (PlacementError, UnknownTerminalError) as error:
        assert error.diagnostic.code.startswith("ROU")
        return error.diagnostic.code
    assert report.legal, report.overlaps
    assert sorted((item.name, id(item.cell)) for item in report.floorplan.items) \
        == sorted((name, id(cell)) for name, cell in blocks)
    assert report.final_wirelength <= report.initial_wirelength
    return report


PLACEMENT_BLOCKS = [("a", plain_block("a", 10, 10)),
                    ("b", plain_block("b", 40, 40)),
                    ("c", plain_block("c", 30, 12)),
                    ("d", plain_block("d", 18, 26)),
                    ("e", plain_block("e", 22, 22))]
PLACEMENT_NETS = [(("a", "p"), ("e", "p")), (("b", "p"), ("d", "p")),
                  (("c", "p"), ("a", "p"))]

block_names = st.sampled_from(("a", "b", "c", "d", "ghost"))
placement_terminals = st.one_of(
    st.tuples(block_names, st.sampled_from(("p", "q"))),
    st.sampled_from(("pad0", "nopad")),
    st.tuples(block_names),                               # malformed
    st.tuples(block_names, st.just("p"), st.just("extra")),
    st.integers(0, 3))
placement_problems = st.fixed_dictionaries({
    "blocks": st.lists(st.tuples(block_names, st.integers(0, 40),
                                 st.integers(0, 40)), max_size=6),
    "connections": st.lists(st.tuples(placement_terminals,
                                      placement_terminals), max_size=5),
    "max_width": st.one_of(st.none(), st.integers(-10, 150)),
    "spacing": st.integers(-5, 20),
    "iterations": st.integers(-5, 60),
    "seed": st.integers(0, 5),
})


class TestPlacementFaults:
    def test_empty_block_list_is_an_empty_floorplan(self):
        assert place([]).floorplan.items == []
        assert place([], [("pad0", "pad0")],
                     pads=[PadSpec("pad0")]).floorplan.items == []

    def test_zero_area_cell_is_placed(self):
        blocks = PLACEMENT_BLOCKS + [("z", plain_block("z", 0, 0)),
                                     ("flat", plain_block("flat", 25, 0))]
        nets = PLACEMENT_NETS + [(("z", "p"), ("flat", "p"))]
        assert not isinstance(place(blocks, nets), str)

    def test_duplicate_names_are_typed(self):
        blocks = list(PLACEMENT_BLOCKS)
        blocks[1] = ("a", blocks[1][1])
        for seed in range(6):
            assert place(blocks, PLACEMENT_NETS, max_width=120,
                         seed=seed) == "ROU010"

    def test_max_width_below_widest_block_still_packs_legally(self):
        for max_width in (0, 1, 39, -7):
            report = place(PLACEMENT_BLOCKS, PLACEMENT_NETS,
                           max_width=max_width)
            # Nothing fits beside anything: one block per shelf.
            assert len({item.y for item in report.floorplan.items}) == 5

    def test_negative_spacing_and_iterations(self):
        assert place(PLACEMENT_BLOCKS, PLACEMENT_NETS, spacing=-1) == "ROU010"
        report = place(PLACEMENT_BLOCKS, PLACEMENT_NETS, iterations=-10)
        assert report.moves_tried == 0

    def test_unknown_block_and_port_terminals(self):
        assert place(PLACEMENT_BLOCKS,
                     [(("ghost", "p"), ("a", "p"))]) == "ROU011"
        assert place(PLACEMENT_BLOCKS, [("nopad", ("a", "p"))]) == "ROU011"
        # An unknown *port* is anchored at its block's centre, by design.
        assert not isinstance(
            place(PLACEMENT_BLOCKS, [(("a", "nosuch"), ("b", "p"))]), str)

    def test_malformed_terminal_tuples_are_typed(self):
        for connection in ((("a",), ("b", "p")),
                           (("a", "p", "extra"), ("b", "p")),
                           (("a", 3), ("b", "p")),
                           (None, ("b", "p")),
                           (("a", "p"),),
                           (("a", "p"), ("b", "p"), ("c", "p"))):
            assert place(PLACEMENT_BLOCKS, [connection]) == "ROU011"

    @given(problem=placement_problems)
    def test_random_problems_place_legally_or_fail_typed(self, problem):
        blocks = [(name, plain_block(name, width, height))
                  for name, width, height in problem.pop("blocks")]
        place(blocks, problem.pop("connections"), pads=[PadSpec("pad0")],
              **problem)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
