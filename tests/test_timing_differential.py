"""Differential suite for the static timing subsystem.

Three layers of pinning:

* **gate level** — :class:`repro.timing.TimingGraph` arrival times and
  K-worst path enumeration against brute-force enumeration of *every*
  launch-to-capture path on small netlists (hand-built and
  hypothesis-generated DAGs, with and without register feedback loops);
* **switch level** — parasitic annotation identical between the flat
  extractor and the hierarchical composition (which share one fold, so that
  fold has a per-rectangle oracle of its own here), and block timing as a
  pure function of the extracted circuit (two runs are float-identical);
* **incremental** — re-timing a chip after a single-cell mutation
  recomputes only the affected cells' timing artifacts (pinned by the
  analyzer's cache-hit counters) and produces results exactly equal to a
  cold run on a fresh analyzer.

Plus the sign-off acceptance check: :meth:`ChipAssembler.sign_off` reports
a positive max-frequency estimate for all four example designs.
"""

import os
import sys
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import HierAnalyzer
from repro.analysis import hier as hier_module
from repro.assembly import ChipAssembler
from repro.extract import compose as compose_module
from repro.extract import extractor as extractor_module
from repro.extract.extractor import Extractor, partition_nodes
from repro.generators import FsmLayoutGenerator, PlaGenerator
from repro.geometry.index import UnionFind
from repro.geometry.rect import Rect
from repro.logic import TruthTable, parse_expr
from repro.metrics import format_histogram, slack_histogram
from repro.netlist import GateType, Module
from repro.netlist.switch_sim import SwitchNetwork, Transistor
from repro.rtl import RtlCompiler, parse_rtl
from repro.sim.kernel import OP_LATCH, CompiledNetlist
from repro.technology import nmos_technology
from repro.timing import (
    GateDelayModel,
    NetParasitics,
    ParasiticModel,
    SwitchTimingAnalyzer,
    TimingGraph,
    analyze_module,
    annotate_parasitics,
    register_paths,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402
from traffic_light_controller import build_fsm  # noqa: E402

from test_pnr import signed_off_chips  # noqa: E402,F401  (fixture)
from tile_array import TileArray  # noqa: E402


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


# -- brute-force gate-level reference -----------------------------------------


def brute_force_paths(graph: TimingGraph):
    """Every launch-to-capture path, by exhaustive DFS over the arcs."""
    compiled = graph.compiled
    out_arcs = defaultdict(list)
    for gate_id in range(compiled.num_gates):
        if compiled.gate_ops[gate_id] == OP_LATCH:
            continue
        for net_id in set(compiled.gate_ins[gate_id]):
            if net_id != compiled.x_slot:
                out_arcs[net_id].append(
                    (gate_id, compiled.gate_outs[gate_id],
                     graph.arc_delay_ns[gate_id]))
    capture = set(graph.capture_nets())
    paths = []

    def dfs(net_id, delay, steps):
        if net_id in capture:
            paths.append((delay, tuple(steps)))
        for gate_id, out, arc in out_arcs[net_id]:
            dfs(out, delay + arc, steps + ((gate_id, out),))

    for start in graph._path_starts():
        dfs(start, 0.0, ())
    return paths


def assert_matches_brute_force(module, k=8):
    graph = TimingGraph(CompiledNetlist(module))
    assert not graph.is_cyclic
    reference = brute_force_paths(graph)
    worst = max((delay for delay, _ in reference), default=0.0)
    assert graph.worst_delay_ns() == pytest.approx(worst, abs=1e-9)
    enumerated = graph.worst_paths(k)
    reference_top = sorted((d for d, _ in reference), reverse=True)[:k]
    assert [p.delay_ns for p in enumerated] == pytest.approx(reference_top)
    # Non-increasing order and internally consistent step arithmetic.
    for path in enumerated:
        assert path.steps[-1].at_ns == pytest.approx(path.delay_ns)
    return graph


class TestGateLevelDifferential:
    def test_two_gate_chain_hand_numbers(self, technology):
        m = Module("chain")
        m.add_input("a")
        m.add_input("b")
        m.add_output("y")
        m.add_gate(GateType.AND, "n1", ["a", "b"])
        m.add_gate(GateType.NOT, "y", ["n1"])
        report = analyze_module(m, technology, k_paths=4)
        model = GateDelayModel(technology)
        # AND = two stages, NOT = one stage; no fan-in/fanout penalties.
        expected = 3 * model.stage_ns
        assert report.worst_delay_ns == pytest.approx(expected)
        assert {p.start for p in report.paths} == {"a", "b"}
        assert all(p.end == "y" for p in report.paths)
        assert report.max_frequency_mhz == pytest.approx(1000.0 / expected)

    def test_reconvergent_fanout(self):
        m = Module("reconverge")
        m.add_input("a")
        m.add_output("y")
        m.add_gate(GateType.NOT, "n1", ["a"])
        m.add_gate(GateType.BUF, "n2", ["n1"])
        m.add_gate(GateType.AND, "y", ["n1", "n2"])
        assert_matches_brute_force(m)

    def test_register_loop_is_broken(self):
        # A counter bit: q feeds back through an inverter into its own D.
        m = Module("loop")
        m.add_output("q")
        m.add_gate(GateType.NOT, "d", ["q"])
        m.add_gate(GateType.DFF, "q", ["d"])
        graph = TimingGraph(CompiledNetlist(m))
        assert not graph.is_cyclic      # the DFF broke the cycle
        paths = graph.worst_paths(4)
        assert paths, "register loop produced no timing paths"
        worst = paths[0]
        assert worst.start == "q"       # launched at the register output
        assert worst.end == "d"         # captured at the register input
        assert worst.delay_ns > 0

    def test_combinational_cycle_reported(self):
        m = Module("latch_pair")
        m.add_input("s")
        m.add_input("r")
        m.add_output("q")
        m.add_gate(GateType.NAND, "q", ["s", "qb"])
        m.add_gate(GateType.NAND, "qb", ["r", "q"])
        graph = TimingGraph(CompiledNetlist(m))
        assert graph.is_cyclic
        assert graph.worst_delay_ns() > 0
        paths = graph.worst_paths(3)
        assert len(paths) == 1          # relaxation fallback: one path

    def test_slacks_and_required_consistency(self, technology):
        m = Module("slack")
        m.add_input("a")
        m.add_output("y")
        m.add_output("z")
        m.add_gate(GateType.NOT, "n1", ["a"])
        m.add_gate(GateType.NOT, "y", ["n1"])
        m.add_gate(GateType.BUF, "z", ["a"])
        graph = TimingGraph(CompiledNetlist(m),
                            delay_model=GateDelayModel(technology))
        clock = graph.worst_delay_ns()
        slacks = graph.slacks_ns(clock)
        assert min(slacks.values()) == pytest.approx(0.0)
        required = graph.required_ns(clock)
        for name, net_id in graph.compiled.net_index.items():
            if required[net_id] != float("inf"):
                # required >= arrival everywhere at the critical clock
                assert required[net_id] >= graph.arrival_ns[net_id] - 1e-9

    def test_net_caps_increase_delay(self, technology):
        m = Module("loaded")
        m.add_input("a")
        m.add_output("y")
        m.add_gate(GateType.NOT, "y", ["a"])
        bare = analyze_module(m, technology)
        loaded = analyze_module(m, technology, net_caps_ff={"y": 100.0})
        assert loaded.worst_delay_ns > bare.worst_delay_ns


# -- hypothesis-generated DAGs and register loops -----------------------------


_COMB_GATES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
               GateType.XOR, GateType.NOT, GateType.BUF]


@st.composite
def dag_modules(draw, with_registers=False):
    module = Module("rnd")
    nets = []
    for index in range(draw(st.integers(1, 3))):
        module.add_input(f"i{index}")
        nets.append(f"i{index}")
    register_count = draw(st.integers(1, 2)) if with_registers else 0
    for index in range(register_count):
        module.add_net(f"q{index}")
        nets.append(f"q{index}")
    gate_count = draw(st.integers(1, 9))
    for index in range(gate_count):
        gate = draw(st.sampled_from(_COMB_GATES))
        arity = 1 if gate in (GateType.NOT, GateType.BUF) else draw(
            st.integers(2, 3))
        inputs = [draw(st.sampled_from(nets)) for _ in range(arity)]
        out = f"w{index}"
        module.add_gate(gate, out, inputs)
        nets.append(out)
    module.add_net(nets[-1], is_output=True)
    for index in range(register_count):
        # Register feedback: D comes from anywhere, including logic that
        # itself depends on this register's Q.
        module.add_gate(GateType.DFF, f"q{index}",
                        [draw(st.sampled_from(nets))])
    return module


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dag_modules())
    def test_random_dag_matches_brute_force(self, module):
        assert_matches_brute_force(module)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dag_modules(with_registers=True))
    def test_random_register_loops_match_brute_force(self, module):
        graph = assert_matches_brute_force(module)
        # Loop breaking: every enumerated path is finite and acyclic.
        for path in graph.worst_paths(6):
            nets = [step.net for step in path.steps]
            assert len(nets) == len(set(nets))


# -- RTL source mapping -------------------------------------------------------


LFSR_RTL = """
machine tap4;
input seed[4], load[1];
output q[4];
register state[4];
always begin
    if (load) state <- seed;
    else state <- {state[2:0], state[3] ^ state[2]};
    q = state;
end
"""


class TestRtlMapping:
    def test_register_paths_name_rtl_signals(self, technology):
        compiled = RtlCompiler(parse_rtl(LFSR_RTL)).compile()
        paths = register_paths(compiled, technology, k_paths=6)
        assert paths
        ends = {p.end_signal for p in paths}
        assert ends <= {"state", "q"}
        starts = {p.start_signal for p in paths}
        assert starts <= {"state", "seed", "load"}
        state_paths = [p for p in paths if p.end_signal == "state"]
        assert state_paths, "no path captured at the state register"
        # The writer statements of the capture register are rendered source.
        rendered = "\n".join(state_paths[0].statements)
        assert "state <-" in rendered

    def test_writers_recorded_in_order(self):
        compiled = RtlCompiler(parse_rtl(LFSR_RTL)).compile()
        writers = compiled.register_writers
        assert "state" in writers and len(writers["state"]) == 2
        assert "q" in writers and len(writers["q"]) == 1


# -- switch-level: parasitics and block timing --------------------------------


def adder_pla(technology):
    table = TruthTable.from_expressions(
        {"sum": parse_expr("a ^ b ^ cin"),
         "carry": parse_expr("a & b | a & cin | b & cin")},
        input_names=["a", "b", "cin"])
    return PlaGenerator(technology, table, name="timing_adder_pla").cell()


def parasitic_identity(circuit):
    return {name: (p.wire_cap_ff, p.wire_res_ohm, p.gate_cap_ff,
                   p.gate_count, p.channel_count)
            for name, p in circuit.parasitics.items()}


class TestSwitchLevel:
    def test_parasitics_flat_equals_hier(self, technology):
        for cell in (adder_pla(technology),
                     FsmLayoutGenerator(technology, build_fsm()).cell()):
            flat = Extractor(technology).extract(cell)
            hier = HierAnalyzer(technology).extract(cell)
            assert parasitic_identity(hier) == parasitic_identity(flat)
            assert flat.parasitics, "no parasitics annotated"

    def test_parasitics_physically_sensible(self, technology):
        circuit = Extractor(technology).extract(adder_pla(technology))
        supplies = [circuit.parasitics[name] for name in ("vdd", "gnd")
                    if name in circuit.parasitics]
        assert supplies, "no supply nets annotated"
        assert all(p.wire_cap_ff > 0 for p in supplies)
        gate_loaded = [p for p in circuit.parasitics.values()
                       if p.gate_count > 0]
        assert gate_loaded
        assert all(p.gate_cap_ff > 0 for p in gate_loaded)

    def test_block_timing_deterministic(self, technology):
        circuit = Extractor(technology).extract(adder_pla(technology))
        analyzer = SwitchTimingAnalyzer(technology)
        first = analyzer.analyze(circuit)
        second = analyzer.analyze(circuit)
        assert first == second
        assert first.worst_delay_ns > 0
        assert first.max_frequency_mhz > 0
        assert first.device_count == circuit.transistor_count

    def test_slack_histogram_rendering(self, technology):
        circuit = Extractor(technology).extract(adder_pla(technology))
        timing = SwitchTimingAnalyzer(technology).analyze(circuit)
        histogram = slack_histogram(timing.slacks_ns(), bins=4)
        assert histogram.total == len(timing.endpoint_arrivals)
        assert sum(histogram.counts) == histogram.total
        assert histogram.violations == 0    # critical-period slacks are >= 0
        text = format_histogram(histogram, title="slack")
        assert "endpoints:" in text and "slack" in text


# -- the parasitic fold against a per-rectangle sum -----------------------------
#
# Flat and hierarchical extraction share the per-node wire fold and the
# per-net sum of node sums, so comparing them cannot see a bug in either.
# The oracle below asks the model for every rectangle's terms, adds them per
# node in item order and the nodes' sums per net name in node order (first
# occurrence in item order); production must produce the same floats — the
# hierarchical side splicing replayed instances' node sums — while asking
# once per (layer, width, height).  Items come as ``(layer, rects)`` blocks,
# a list possibly repeated.


def each_item(items):
    """``(layer, rect)`` per item, in item-id order."""
    return [(layer, rect) for layer, rects in items for rect in rects]


def per_rect_parasitics(model, items, node_of_item, name_of_node, devices,
                        channels):
    wires = {}                  # per node, in order of first occurrence
    for node, (layer, rect) in zip(node_of_item, each_item(items)):
        cap, res = wires.get(node, (0.0, 0.0))
        wires[node] = (cap + model.rect_cap_ff(layer, rect),
                       res + model.rect_res_ohm(layer, rect))
    nets = defaultdict(lambda: [0.0, 0.0, 0.0, 0, 0])
    for node, (cap, res) in wires.items():
        entry = nets[name_of_node[node]]
        entry[0] += cap
        entry[1] += res
    for device, channel in zip(devices, channels):
        gate = nets[device.gate]
        gate[2] += model.gate_cap_ff(channel)
        gate[3] += 1
        for terminal in {device.source, device.drain}:
            nets[terminal][4] += 1
    return {name: NetParasitics(name, *fields)
            for name, fields in nets.items()}


class CountingModel(ParasiticModel):
    """Counts how often the fold asks for a rectangle's capacitance."""

    def __init__(self, technology):
        super().__init__(technology)
        self.cap_calls = 0

    def rect_cap_ff(self, layer, rect):
        self.cap_calls += 1
        return super().rect_cap_ff(layer, rect)


def rect_classes(items):
    return {(layer, rect.width, rect.height) for layer, rect in each_item(items)}


NET_NAMES = ["vdd", "gnd", "a", "b", "n0", "n1"]


@st.composite
def parasitic_cases(draw):
    """Items, a group per item (items of a group are one node), a net name
    per group — two groups may share one, as label text merges nodes —
    devices and their channels."""
    rects = st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(0, 6), st.integers(0, 6))     # few classes, some degenerate
    layers = st.sampled_from(["diffusion", "poly", "metal", "unlisted"])
    lists = draw(st.lists(st.lists(rects, max_size=8), min_size=1, max_size=4))
    items = draw(st.lists(st.tuples(layers, st.sampled_from(lists)),
                          max_size=8))
    count = len(each_item(items))
    groups = draw(st.lists(st.integers(0, 5), min_size=count, max_size=count))
    group_names = draw(st.lists(st.sampled_from(NET_NAMES), min_size=6,
                                max_size=6))
    node = st.sampled_from(NET_NAMES)
    devices = draw(st.lists(
        st.builds(Transistor, st.just("m"), node, node, node,
                  width=st.integers(2, 8), length=st.integers(2, 8)),
        max_size=8))
    channels = draw(st.lists(rects, min_size=len(devices),
                             max_size=len(devices)))
    return items, groups, group_names, devices, channels


class TestParasiticFold:
    @settings(max_examples=200, deadline=None)
    @given(parasitic_cases())
    def test_random_items_match_the_per_rect_sum(self, technology, case):
        items, groups, group_names, devices, channels = case
        finder = UnionFind(len(groups))
        first = {}
        for item, group in enumerate(groups):
            finder.union(first.setdefault(group, item), item)
        model = CountingModel(technology)
        nodes = partition_nodes(finder, model, items)
        names = [None] * nodes.count
        for item, node in enumerate(nodes.node_of):
            names[node] = group_names[groups[item]]
        network = SwitchNetwork("devices")
        for device in devices:
            network.add_transistor(device.gate, device.source, device.drain,
                                   device.kind, device.width, device.length,
                                   device.name)
        assert (annotate_parasitics(model, network.intern(names),
                                    nodes.wire_cap, nodes.wire_res, network,
                                    channels)
                == per_rect_parasitics(ParasiticModel(technology), items,
                                       groups, group_names, devices, channels))
        assert model.cap_calls == len(rect_classes(items))

    def test_example_chips_match_the_per_rect_sum_one_call_per_class(
            self, technology, signed_off_chips, monkeypatch):
        finished, folds = [], []
        circuit_of = hier_module.circuit_of
        annotate = extractor_module.annotate_parasitics
        partition = compose_module.partition_nodes

        def recording_circuit_of(technology, cell, view, art):
            # The items the finisher's partition (``art.nodes``) covers.
            items = [(layer, rects) for layer, blocks in (
                ("diffusion", art.pieces), ("poly", view.layer("poly")),
                ("metal", view.layer("metal")))
                for rects in blocks.frame_free_lists()]
            finished.append((items, art.nodes))
            return circuit_of(technology, cell, view, art)

        def recording_annotate(model, net_of, wire_cap, wire_res, network,
                               channels):
            nets = annotate(model, net_of, wire_cap, wire_res, network,
                            channels)
            names = [network.node_names[net] for net in net_of]
            items, nodes = finished[-1]
            folds.append((items, nodes.node_of, names, network.transistors,
                          channels, nets, nodes))
            return nets

        def counting_partition(finder, model, items):
            counting = CountingModel(model.technology)
            nodes = partition(finder, counting, items)
            assert counting.cap_calls == len(rect_classes(items))
            return nodes

        monkeypatch.setattr(hier_module, "circuit_of", recording_circuit_of)
        monkeypatch.setattr(extractor_module, "annotate_parasitics",
                            recording_annotate)
        monkeypatch.setattr(compose_module, "partition_nodes",
                            counting_partition)
        analyzer = HierAnalyzer(technology)
        for assembler, _report in signed_off_chips.values():
            assembler.sign_off(analyzer)
        tiles = TileArray(technology, "fold_tiles", rom_grid=(3, 2))
        circuit = analyzer.extract(tiles.top)
        assert circuit.parasitics is folds[-1][5]

        model = ParasiticModel(technology)
        assert len(folds) == len(finished) > len(signed_off_chips)
        for *case, nets, _nodes in folds:
            assert nets == per_rect_parasitics(model, *case)
        # The tile array's thousands of items fall in a few dozen classes;
        # its partition was spliced from the replayed tiles, and names merge
        # nodes across tiles, so node sums added per name is what matched.
        tile_items, _node_of, tile_names, *_, tile_nodes = folds[-1]
        assert len(each_item(tile_items)) > 4000
        assert len(rect_classes(tile_items)) < 40
        assert tile_nodes.spliced > 0
        assert len(set(tile_names)) < tile_nodes.count


class TestReportSurface:
    """The report/formatting surface the sign-off consumers rely on."""

    def test_timing_report_meets_and_describe(self, technology):
        m = Module("surface")
        m.add_input("a")
        m.add_output("y")
        m.add_gate(GateType.NOT, "y", ["a"])
        report = analyze_module(m, technology, k_paths=2)
        assert report.meets(report.worst_delay_ns)
        assert not report.meets(report.worst_delay_ns / 2)
        text = report.critical_path.describe()
        assert "a -> y" in text
        slacks = report.slacks_ns()
        assert slacks["y"] == pytest.approx(0.0)

    def test_block_timing_meets_and_summary(self, technology):
        circuit = Extractor(technology).extract(adder_pla(technology))
        timing = SwitchTimingAnalyzer(technology).analyze(circuit)
        assert timing.meets(timing.worst_delay_ns)
        assert not timing.meets(timing.worst_delay_ns / 2)
        summary = timing.summary()
        assert summary["devices"] == circuit.transistor_count
        assert summary["max_frequency_mhz"] > 0

    def test_chip_timing_report_rows(self, technology):
        assembler, _chip = build_chip("surface_rows_4b", 4, 0)
        report = assembler.sign_off(HierAnalyzer(technology))
        rows = report.timing.rows()
        header = report.timing.header()
        assert len(header) == len(rows[0])
        assert rows[-1][0] == "surface_rows_4b"    # chip totals row last
        described = report.timing.io_paths[0]
        assert described.total_ns == pytest.approx(
            described.route_delay_ns + described.block_depth_ns)

    def test_empty_histogram(self):
        histogram = slack_histogram([])
        assert histogram.total == 0
        assert format_histogram(histogram)

    def test_degenerate_histogram_single_value(self):
        histogram = slack_histogram([5.0, 5.0, 5.0], bins=4)
        assert histogram.counts == [3]
        assert histogram.violations == 0

    def test_memory_machine_register_paths(self, technology):
        rtl = """
        machine memo;
        input addr[2], din[2], we[1];
        output dout[2];
        memory store[4][2];
        always begin
            if (we) store[addr] <- din;
            dout = store[addr];
        end
        """
        compiled = RtlCompiler(parse_rtl(rtl)).compile()
        paths = register_paths(compiled, technology, k_paths=4)
        assert paths
        assert {p.end_signal for p in paths} <= {"store", "dout"}
        described = paths[0].describe()
        assert "->" in described


# -- incremental STA ----------------------------------------------------------


class TestIncrementalSta:
    def test_incremental_retime_matches_cold_run(self, technology):
        assembler, chip = build_chip("timing_incr_4b", 4, 0)
        analyzer = HierAnalyzer(technology)
        cold = analyzer.timing(chip)
        built = analyzer.stats["timing_artifacts"]
        assert built > 0

        # Warm: everything served from cache, nothing rebuilt.
        warm = analyzer.timing(chip)
        assert warm == cold
        assert analyzer.stats["timing_artifacts"] == built

        # Mutate exactly one block cell (the control PLA).
        victim = dict(assembler._blocks)["control"]
        victim.add_box("metal", -40, -40, -36, -36)

        incremental = analyzer.timing(chip)
        rebuilt = analyzer.stats["timing_artifacts"] - built
        affected = [cell for cell in [chip] + chip.descendants()
                    if cell is victim or cell.references(victim)]
        # Only the mutated cell and its ancestors were re-timed...
        assert rebuilt == len(affected)
        assert rebuilt < built
        # ...and the result matches a cold run on a fresh analyzer exactly.
        fresh = HierAnalyzer(technology)
        assert incremental == fresh.timing(chip)
        assert fresh.stats["timing_artifacts"] == built

    def test_family_shares_block_artifacts(self, technology):
        analyzer = HierAnalyzer(technology)
        chip_a = build_chip("timing_share_a", 4, 0)[1]
        chip_b = build_chip("timing_share_b", 4, 0)[1]
        analyzer.timing(chip_a)
        built = analyzer.stats["timing_artifacts"]
        analyzer.timing(chip_b)
        rebuilt = analyzer.stats["timing_artifacts"] - built
        # The second chip's generator blocks are shared cells; only the
        # chip-specific cells (chip, core, routed top) are new.
        assert rebuilt < built
        assert analyzer.stats["timing_hits"] > 0


# -- sign-off acceptance ------------------------------------------------------


def wrap_in_chip(name, cell, technology):
    assembler = ChipAssembler(name, technology)
    assembler.add_block("core", cell)
    assembler.add_supply_pads()
    assembler.assemble()
    return assembler


class TestSignOffTiming:
    def test_sign_off_reports_max_frequency_for_all_four_examples(
            self, technology):
        analyzer = HierAnalyzer(technology)
        reports = {}

        # 1. Quickstart adder PLA.
        assembler = wrap_in_chip("so_quickstart", adder_pla(technology),
                                 technology)
        reports["quickstart"] = assembler.sign_off(analyzer)

        # 2. Traffic-light FSM.
        fsm_cell = FsmLayoutGenerator(technology, build_fsm()).cell()
        assembler = wrap_in_chip("so_fsm", fsm_cell, technology)
        reports["fsm"] = assembler.sign_off(analyzer)

        # 3. Chip-assembly family member (its own assembler).
        family_assembler, _chip = build_chip("so_family_4b", 4, 0)
        reports["family"] = family_assembler.sign_off(analyzer)

        # 4. PDP-8 subset compiler layout.
        from pdp8_subset_compiler import compiled_machine_summary
        _compiled, layout, _report = compiled_machine_summary()
        assembler = wrap_in_chip("so_pdp8", layout, technology)
        reports["pdp8"] = assembler.sign_off(analyzer)

        for name, report in reports.items():
            assert report.timing is not None, name
            assert report.timing.max_frequency_mhz > 0, name
            assert report.max_frequency_mhz == pytest.approx(
                report.timing.chip.max_frequency_mhz)
            assert report.timing.chip.worst_delay_ns > 0, name
            assert report.timing.chip.critical_path is not None, name

        # The family sign-off composes block timing through boundary pins.
        family = reports["family"].timing
        assert {name for name, _ in family.blocks} == {
            "datapath", "control", "microcode"}
        assert family.io_paths
        for io in family.io_paths:
            assert io.route_delay_ns > 0
            assert io.total_ns >= io.route_delay_ns

    def test_io_paths_carry_block_depth_for_input_and_output_pads(
            self, technology):
        # A block whose pin nodes carry devices must contribute its
        # boundary-pin burden to both directions of IO path.
        from repro.cells.inverter import InverterCell

        inverter = InverterCell(technology).cell()
        assembler = ChipAssembler("so_io_depth", technology)
        assembler.add_block("inv", inverter)
        assembler.add_supply_pads()
        assembler.add_pad("din", "input", connect_to=("inv", "in"))
        assembler.add_pad("dout", "output", connect_to=("inv", "out"))
        assembler.assemble()
        report = assembler.sign_off(HierAnalyzer(technology))

        by_pad = {io.pad: io for io in report.timing.io_paths}
        block = dict(report.timing.blocks)["inv"]
        assert by_pad["din"].block_depth_ns == pytest.approx(
            block.input_depth_ns["in"])
        assert by_pad["dout"].block_depth_ns == pytest.approx(
            block.output_arrival_ns["out"])
        assert by_pad["din"].block_depth_ns > 0
        assert by_pad["dout"].block_depth_ns > 0
