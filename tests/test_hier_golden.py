"""Differential golden suite: hierarchical analysis == flat reference.

The hierarchical engine (:mod:`repro.analysis.hier`) must be a pure
optimisation: for every design, its DRC violations, extracted netlist and
metrics must be **byte-identical** — ordering, node names, device names,
violation locations included — to the flat reference path.  The reference
here is the all-pairs :mod:`repro.reference` engines for the small example
designs and the indexed flat path for the big PDP-8 layout (the indexed
path is itself pinned to the brute-force one by ``test_index_golden``).

Randomized coverage comes from a hypothesis strategy that grows nested
cells with rotated and mirrored instances, overlapping abutments and
deliberate violations straddling instance boundaries — exactly the
geometry the interface pass must get right.

Small cells *collapse*: below ``hier._DIRECT_THRESHOLD`` rectangles per
instance a cell is analysed directly on its flat view, and every randomized
hierarchy and boundary case here is that small.  So those suites run twice —
``collapsed`` (the default threshold) and ``composed`` (threshold 0, every
instance its own source) — and each run asserts which path it took, or the
interface pass would go untested without anyone noticing (as it did until
PR 17, hiding a dropped-label bug).  The example budget scales with the
active hypothesis profile: ``--hypothesis-profile=hier-deep`` (registered in
``conftest.py``) is the CI robustness budget.
"""

import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import HierAnalyzer, hier
from repro.drc import DrcChecker
from repro.extract import extractor as extractor_module
from repro.extract.extractor import Extractor
from repro.generators import FsmLayoutGenerator, PlaGenerator
from repro.geometry.point import Point
from repro.geometry.transform import Orientation
from repro.layout.cell import Cell
from repro.logic import TruthTable, parse_expr
from repro.metrics import measure_cell
from repro.obs import metrics, trace
from repro.reference import BruteDrcChecker, BruteExtractor
from repro.store import MemoryStore
from repro.technology import nmos_technology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402
from traffic_light_controller import build_fsm  # noqa: E402
from pdp8_subset_compiler import compiled_machine_summary  # noqa: E402

from tile_array import TileArray  # noqa: E402


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


def netlist_identity(circuit):
    """The full netlist, order-sensitive: names, devices, ports, counts, and
    every net's parasitics, float for float."""
    return (
        circuit.cell_name,
        circuit.node_names,
        circuit.network.transistors,
        circuit.network.inputs,
        circuit.network.outputs,
        circuit.summary(),
        circuit.parasitics,
    )


def partition_identity(nodes):
    """A node partition: node per item (first-occurrence numbering) and
    each node's wire sums, float for float."""
    return nodes.node_of, nodes.wire_cap, nodes.wire_res


def on_both_paths(test):
    """Run ``test(self, technology, check)`` collapsed, then composed, as one
    test under its own name.

    ``check(top)`` is the differential assertion; it returns the analyzer and
    notes which path the top cell took, and each run ends by asserting the
    large majority of its tops took the path it was meant to exercise.
    ``check`` also asserts that exactly the one-source views' DRC and
    extraction builds took the composers' one-source case
    (``hier.compose.one_source``): every collapsed top's, and on the
    composed run only leaves'.  ``check.path`` names the run.
    """
    def run(self, technology):
        for path, threshold in (("collapsed", hier._DIRECT_THRESHOLD),
                                ("composed", 0)):
            composed = []

            def check(top):
                one_source = metrics.counter("hier.compose.one_source")
                before = one_source.value
                analyzer = assert_hier_equals_flat(
                    top, technology,
                    analyzer=HierAnalyzer(technology, store=MemoryStore()))
                view = analyzer.store.get(
                    analyzer._key("view", top, Orientation.R0))
                composed.append(len(view.sources) > 1)
                cells = one_source_cells(analyzer, top)
                assert one_source.value - before == 2 * len(cells)
                if path == "composed":
                    assert all(not cell.instances for cell in cells)
                return analyzer

            check.path = path
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hier, "_DIRECT_THRESHOLD", threshold)
                test(self, technology, check)
            share = sum(composed) / len(composed)
            assert (share >= 0.9) if path == "composed" else (share <= 0.1), (
                f"{sum(composed)} of {len(composed)} top views composed on "
                f"the {path} run")
    run.__name__ = test.__name__
    run.__doc__ = test.__doc__
    return run


def one_source_cells(analyzer, top):
    """The cells under ``top`` (``top`` included) whose DRC and extraction
    artifacts ``analyzer`` built on a one-source view, one per distinct
    artifact: what the composers' one-source case must have counted."""
    found, seen = [], set()
    pending = [(top, Orientation.R0)]
    while pending:
        cell, orientation = pending.pop()
        key = analyzer._key("view", cell, orientation)
        if key in seen:
            continue
        seen.add(key)
        view = analyzer.store.get(key)
        if len(view.sources) == 1:
            found.append(cell)
        else:
            pending.extend((source.cell, source.orientation)
                           for source in view.sources[1:])
    return found


def examples(tier1):
    """The tier-1 example budget, scaled by the active hypothesis profile."""
    return tier1 * settings.default.max_examples // 100


#: What the composers count, per composable build: instances replayed as
#: one block / composed by the interface pass, and the extraction's node
#: partition's nodes spliced whole from replayed instances / items that went
#: through its union-find.
COMPOSE_COUNTS = ("replayed", "interface", "nodes_spliced", "items_unioned")


def compose_counts(kinds=COMPOSE_COUNTS):
    """The ``hier.compose.<kind>`` counters, summed over every build so far."""
    return tuple(metrics.counter(f"hier.compose.{kind}").value
                 for kind in kinds)


def assert_both_kinds_ran(check, before):
    """On the composed run, the examples since ``before`` replayed some
    instances and passed others through the interface pass, and their node
    partitions both spliced nodes and unioned items: both paths of every
    composer were under test."""
    if check.path != "composed":
        return
    gained = [after - was for after, was in zip(compose_counts(), before)]
    assert all(count > 0 for count in gained), dict(zip(COMPOSE_COUNTS,
                                                        gained))


def flat_extraction(extractor, cell):
    """The flat circuit of ``cell`` and the node partition its union-find
    made (what the flat path hands the shared finisher)."""
    partitions = []
    finish = extractor_module.finish_circuit

    def recording(technology, cell, labels, label_hits, nodes, *rest):
        partitions.append(nodes)
        return finish(technology, cell, labels, label_hits, nodes, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extractor_module, "finish_circuit", recording)
        circuit = extractor.extract(cell)
    return circuit, partitions[-1]


def assert_hier_equals_flat(cell, technology,
                            flat=(BruteDrcChecker, BruteExtractor),
                            analyzer=None, check_metrics=True):
    """The differential assertion: hierarchical == flat, byte for byte —
    the netlist with its parasitics, and the cell's node partition (the
    extraction artifact's, spliced or not, against the flat union-find's)."""
    if analyzer is None:
        analyzer = HierAnalyzer(technology)
    flat_checker, flat_extractor = flat
    flat_violations = flat_checker(technology).check(cell)
    hier_violations = analyzer.drc(cell)
    assert hier_violations == flat_violations
    flat_circuit, flat_nodes = flat_extraction(flat_extractor(technology), cell)
    hier_circuit = analyzer.extract(cell)
    assert netlist_identity(hier_circuit) == netlist_identity(flat_circuit)
    artifact = analyzer.store.get(analyzer._key("extract", cell,
                                                Orientation.R0))
    assert partition_identity(artifact.nodes) == partition_identity(flat_nodes)
    if check_metrics:
        assert analyzer.measure(cell) == measure_cell(cell, technology)
    return analyzer


# -- the four example designs -------------------------------------------------


class TestExampleDesigns:
    def test_quickstart_adder_pla(self, technology):
        table = TruthTable.from_expressions(
            {"sum": parse_expr("a ^ b ^ cin"),
             "carry": parse_expr("a & b | a & cin | b & cin")},
            input_names=["a", "b", "cin"])
        pla = PlaGenerator(technology, table, name="adder_pla").cell()
        assert_hier_equals_flat(pla, technology)

    def test_traffic_light_controller(self, technology):
        for encoding in ("binary", "one_hot"):
            cell = FsmLayoutGenerator(technology, build_fsm(),
                                      encoding=encoding).cell()
            assert_hier_equals_flat(cell, technology)

    def test_chip_assembly_family(self, technology):
        # One shared analyzer across the family: the chips share every
        # generator cell, so the per-cell caches carry over.
        analyzer = HierAnalyzer(technology)
        for bits, extra in ((4, 0), (8, 2)):
            chip = build_chip(f"golden_hier_{bits}b", bits, extra)[1]
            assert_hier_equals_flat(chip, technology, analyzer=analyzer)

    def test_pdp8_subset_compiler(self, technology):
        # The PDP-8 layout is too large for the all-pairs reference in
        # tier-1 time; the indexed flat path stands in (it is pinned to the
        # brute-force path by test_index_golden / bench E11).
        _compiled, layout, _report = compiled_machine_summary()
        assert_hier_equals_flat(layout, technology,
                                flat=(DrcChecker, Extractor))


# -- deliberate boundary violations -------------------------------------------


class TestBoundaryViolations:
    """Violations that exist only because of how instances are placed."""

    @on_both_paths
    def test_spacing_violation_straddles_abutting_instances(self, technology, check):
        leaf = Cell("bv_leaf")
        leaf.add_box("metal", 0, 0, 6, 4)
        top = Cell("bv_top")
        top.place(leaf, 0, 0)
        top.place(leaf, 8, 0)     # gap 2 < metal spacing 3: interface violation
        top.place(leaf, 20, 0)    # far away: clean
        analyzer = check(top)
        violations = analyzer.drc(top)
        assert any(v.rule_name == "S.M.M" and v.actual == 2 for v in violations)

    @on_both_paths
    def test_enclosure_satisfied_only_across_instance_edge(self, technology, check):
        # The contact's metal surround is completed by a neighbouring
        # instance's metal: the per-cell verdict (violation) must be
        # overturned by the interface pass.
        cut = Cell("bv_cut")
        cut.add_box("contact", 0, 0, 2, 2)
        cut.add_box("metal", -1, -1, 2, 3)    # covers only the left part
        cap = Cell("bv_cap")
        cap.add_box("metal", 0, -1, 3, 3)
        top = Cell("bv_enclosure")
        top.place(cut, 0, 0)
        top.place(cap, 2, 0)                  # completes the surround
        check(top)
        # And without the cap, the violation must survive composition.
        alone = Cell("bv_enclosure_alone")
        alone.place(cut, 0, 0)
        analyzer = HierAnalyzer(technology)
        assert analyzer.drc(alone) == BruteDrcChecker(technology).check(alone)
        assert any(v.rule_name == "N.M.C" for v in analyzer.drc(alone))

    @on_both_paths
    def test_nets_merge_across_instance_boundary(self, technology, check):
        # Two instances abut so their diffusion fuses into one node; a label
        # in one instance must name geometry of the other.
        half = Cell("bv_half")
        half.add_box("diffusion", 0, 0, 6, 2)
        named = Cell("bv_named")
        named.add_box("diffusion", 0, 0, 6, 2)
        named.add_label("bus", Point(1, 1), "diffusion")
        top = Cell("bv_net_merge")
        top.place(named, 0, 0)
        top.place(half, 6, 0)                 # abuts: same electrical node
        analyzer = check(top)
        circuit = analyzer.extract(top)
        assert "bus" in circuit.node_names

    @on_both_paths
    def test_transistor_formed_across_instance_boundary(self, technology, check):
        # Poly from one instance crosses diffusion from another: the channel
        # exists only in the composed view.
        poly_cell = Cell("bv_poly")
        poly_cell.add_box("poly", 0, 0, 2, 10)
        diff_cell = Cell("bv_diff")
        diff_cell.add_box("diffusion", -4, 0, 6, 2)
        top = Cell("bv_device")
        top.place(poly_cell, 0, 0)
        top.place(diff_cell, 0, 4)
        analyzer = check(top)
        flat = BruteExtractor(technology).extract(top)
        assert analyzer.extract(top).transistor_count == flat.transistor_count

    @on_both_paths
    def test_label_outside_its_cells_shapes_names_a_neighbour(self, technology, check):
        # A view's bbox spans shapes only, so a label may lie outside its own
        # cell's box — and on another instance's geometry.  (Composed
        # extraction dropped it: hypothesis-shrunk, PR 17.)
        labelled = Cell("bv_label_outside")
        labelled.add_box("diffusion", 0, 2, 1, 3)
        labelled.add_label("a", Point(0, 0))
        target = Cell("bv_label_target")
        target.add_box("diffusion", 0, 0, 1, 1)
        top = Cell("bv_stray_label")
        top.place(labelled, 0, 0)
        top.place(target, 0, 0)
        circuit = check(top).extract(top)
        assert circuit.node_names == ["a", "n0"]
        assert circuit.network.outputs == ["a"]

    @on_both_paths
    def test_own_label_names_a_replayed_instance(self, technology, check):
        # The cell's own labels do not stop an instance being replayed:
        # they are resolved in the cell, by probing the instance.
        wire = Cell("bv_wire")
        wire.add_box("metal", 0, 0, 10, 3)
        top = Cell("bv_own_label")
        top.place(wire, 0, 0)
        top.place(wire, 0, 20)
        top.add_label("out", Point(5, 21), "metal")
        analyzer = check(top)
        assert analyzer.extract(top).node_names == ["n0", "out"]
        if check.path == "composed":
            view = analyzer.store.get(analyzer._key("view", top,
                                                    Orientation.R0))
            assert view.isolated == [False, True, True]


# -- randomized hierarchies ---------------------------------------------------

LAYERS = ("diffusion", "poly", "metal", "contact", "buried", "implant")
LABELS = ("a", "b", "x", "vdd", "gnd")

coords = st.integers(min_value=-12, max_value=12)
sizes = st.integers(min_value=1, max_value=9)

rect_shapes = st.tuples(st.sampled_from(LAYERS), coords, coords, sizes, sizes)
labels = st.tuples(st.sampled_from(LABELS), coords, coords,
                   st.sampled_from(("", "poly", "metal", "diffusion")))
placements = st.tuples(st.integers(min_value=0, max_value=5),
                       st.sampled_from(list(Orientation)),
                       coords, coords)


@st.composite
def hierarchies(draw):
    """A 2-3 level cell DAG with rotated/mirrored, possibly abutting or
    overlapping instances, and geometry dense enough that some shapes land
    exactly on instance boundaries."""
    cells = []
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        cell = Cell(f"hyp_leaf_{index}")
        for layer, x, y, w, h in draw(st.lists(rect_shapes, min_size=1,
                                               max_size=5)):
            cell.add_box(layer, x, y, x + w, y + h)
        for text, x, y, layer in draw(st.lists(labels, max_size=2)):
            cell.add_label(text, Point(x, y), layer)
        cells.append(cell)
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        cell = Cell(f"hyp_mid_{index}")
        for layer, x, y, w, h in draw(st.lists(rect_shapes, max_size=3)):
            cell.add_box(layer, x, y, x + w, y + h)
        for which, orientation, x, y in draw(st.lists(placements, min_size=1,
                                                      max_size=3)):
            cell.place(cells[which % len(cells)], x, y, orientation)
        cells.append(cell)
    top = Cell("hyp_top")
    for layer, x, y, w, h in draw(st.lists(rect_shapes, max_size=3)):
        top.add_box(layer, x, y, x + w, y + h)
    for text, x, y, layer in draw(st.lists(labels, max_size=2)):
        top.add_label(text, Point(x, y), layer)
    for which, orientation, x, y in draw(st.lists(placements, min_size=2,
                                                  max_size=5)):
        top.place(cells[which % len(cells)], x, y, orientation)
    return top


class TestRandomizedHierarchies:
    @on_both_paths
    def test_hierarchical_equals_brute_force(self, technology, check):
        """Netlist, parasitics, DRC, metrics — and the extraction artifact's
        node partition equals the flat extractor's first-occurrence one."""
        @settings(max_examples=examples(30), deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(top=hierarchies())
        def hierarchical_equals_brute_force(top):
            check(top)

        before = compose_counts()
        hierarchical_equals_brute_force()
        assert_both_kinds_ran(check, before)

    @on_both_paths
    def test_incremental_reanalysis_after_mutation(self, technology, check):
        """Mutating any cell at any depth must invalidate exactly the right
        caches: the SAME analyzer must keep matching the flat reference."""
        @settings(max_examples=examples(15), deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(top=hierarchies(), data=st.data())
        def incremental_reanalysis_after_mutation(top, data):
            analyzer = check(top)
            victims = top.descendants() or [top]
            victim = data.draw(st.sampled_from(victims))
            layer = data.draw(st.sampled_from(LAYERS))
            x = data.draw(coords)
            victim.add_box(layer, x, x, x + 3, x + 2)
            assert_hier_equals_flat(top, technology, analyzer=analyzer)

        before = compose_counts()
        incremental_reanalysis_after_mutation()
        assert_both_kinds_ran(check, before)


# -- replayed instances -------------------------------------------------------


def top_blocks(analyzer, top):
    """``(source, block)`` of every rect list the top's composed artifacts
    hold: view layers, DRC merge inputs and outputs, extraction lists."""
    def get(kind):
        return analyzer.store.get(analyzer._key(kind, top, Orientation.R0))

    view = get("view")
    sources = len(view.sources)
    lists = list(view.rects.values())
    for merge in get("drc").merges.values():
        lists += [merge.inputs, merge.merged]
    extract = get("extract")
    lists += [extract.diffusion, extract.channels, extract.pieces]
    return view, [(index % sources, part)
                  for rects in lists for index, part in enumerate(rects.parts)]


class TestReplayedInstances:
    def test_tile_array_replays_the_clear_tiles_and_places_none(self, technology):
        """The tile array's rail abuts the bottom ROM row: those two tiles
        take the interface pass, every other tile is replayed as one block
        and no replayed block is ever placed (translated) — while the
        sign-off still equals the flat engines'."""
        tiles = TileArray(technology, "replayed_tiles")
        metrics.reset_metrics("hier.compose.")
        analyzer = HierAnalyzer(technology)
        assert_hier_equals_flat(tiles.top, technology, analyzer=analyzer,
                                flat=(DrcChecker, Extractor))
        tiles.sign_off(analyzer)

        view, blocks = top_blocks(analyzer, tiles.top)
        names = [instance.name for instance in tiles.top.instances]
        replayed = {names[k - 1] for k in range(1, len(view.sources))
                    if view.isolated[k]}
        assert replayed == {"rom_0_1", "rom_1_1", "pla_0_0", "pla_1_0"}
        assert view.isolated[0] is False
        # view, areas, drc and extract each composed the six instances once.
        assert compose_counts(("replayed", "interface")) == (4 * 4, 4 * 2)
        # A block is placed once its translated copy exists.
        placed = {names[k - 1] for k, part in blocks
                  if k and part._placed is not None
                  and any(dx or dy for _rects, dx, dy in part.runs)}
        assert not placed & replayed
        assert placed        # the interface pass did read the abutting tiles
        assert metrics.counter("hier.compose.placed").value > 0

    def test_tile_array_unions_only_its_own_and_interface_items(
            self, technology):
        """The top's node partition unions the rail's and the two abutting
        tiles' items and nothing else: the four replayed tiles' nodes are
        spliced in whole, and the circuit build's span says how many."""
        tiles = TileArray(technology, "spliced_tiles")
        metrics.reset_metrics("hier.compose.")
        analyzer = HierAnalyzer(technology)
        trace.reset()
        trace.enable()
        try:
            assert_hier_equals_flat(tiles.top, technology, analyzer=analyzer,
                                    flat=(DrcChecker, Extractor))
            events = trace.drain()
        finally:
            trace.disable()
            trace.reset()

        def get(kind, cell, orientation=Orientation.R0):
            return analyzer.store.get(analyzer._key(kind, cell, orientation))

        view, extract = get("view", tiles.top), get("extract", tiles.top)
        sources, isolated = len(view.sources), view.isolated
        joined = [k for k in range(sources) if not isolated[k]]
        unioned = (sum(part.size for block, part
                       in enumerate(extract.pieces.parts)
                       if not isolated[block % sources])
                   + sum(view.layer(layer).parts[k].size
                         for layer in ("poly", "metal") for k in joined))
        nodes = extract.nodes
        assert 0 < unioned < len(nodes.node_of)
        assert compose_counts(("items_unioned",)) == (unioned,)
        # Every node of a replayed tile, and nothing else, was spliced.
        assert nodes.spliced == sum(
            get("extract", source.cell, source.orientation).nodes.count
            for k, source in enumerate(view.sources) if isolated[k])
        assert 0 < nodes.spliced < nodes.count
        assert compose_counts(("nodes_spliced",)) == (nodes.spliced,)
        [span] = [event for event in events
                  if event["name"] == "hier.build.circuit"
                  and event["args"]["cell"] == tiles.top.name]
        assert (span["args"]["nodes"], span["args"]["spliced"]) == (
            nodes.count, nodes.spliced)


# -- cache behaviour ----------------------------------------------------------


class TestArtifactCaching:
    def test_repeated_analysis_hits_cache(self, technology):
        table = TruthTable.from_expressions(
            {"q": parse_expr("a & b | ~a & c")}, input_names=["a", "b", "c"])
        pla = PlaGenerator(technology, table, name="cache_pla").cell()
        top = Cell("cache_top")
        for index in range(8):
            top.place(pla, index * (pla.width + 10), 0)
        analyzer = HierAnalyzer(technology)
        first = analyzer.drc(top)
        built = analyzer.stats["drc_artifacts"]
        assert analyzer.drc(top) == first
        assert analyzer.stats["drc_artifacts"] == built  # pure cache hit

    def test_shared_cells_reused_across_designs(self, technology):
        table = TruthTable.from_expressions(
            {"q": parse_expr("a ^ b")}, input_names=["a", "b"])
        pla = PlaGenerator(technology, table, name="shared_pla").cell()
        chip_a = Cell("cache_chip_a")
        chip_a.place(pla, 0, 0)
        chip_b = Cell("cache_chip_b")
        chip_b.place(pla, 0, 0)
        chip_b.place(pla, pla.width + 20, 0)
        analyzer = HierAnalyzer(technology)
        analyzer.drc(chip_a)
        built = analyzer.stats["drc_artifacts"]
        analyzer.drc(chip_b)
        # Only chip_b's own artifact is new; the PLA's is shared.
        assert analyzer.stats["drc_artifacts"] == built + 1

    def test_results_are_shared_but_cannot_be_poisoned(self, technology):
        """The sharing contract of the result cache: ``drc`` hands out a
        fresh list each call; ``extract`` hands out the one cached, read-only
        circuit until an edit makes a new one."""
        leaf = Cell("share_leaf")
        leaf.add_box("poly", 4, 0, 6, 12)
        leaf.add_box("diffusion", 0, 4, 20, 8)
        leaf.add_box("metal", 0, 20, 9, 21)          # too narrow: a violation
        top = Cell("share_top")
        top.place(leaf, 0, 0)
        top.place(leaf, 40, 0)
        analyzer = HierAnalyzer(technology)

        flat = DrcChecker(technology).check(top)
        first = analyzer.drc(top)
        assert first == flat and flat
        first.reverse()
        first.append("not a violation")
        assert analyzer.drc(top) == flat

        circuit = analyzer.extract(top)
        assert analyzer.extract(top) is circuit
        leaf.add_box("poly", 14, 0, 16, 12)           # a second device
        edited = analyzer.extract(top)
        assert edited is not circuit
        assert edited.transistor_count == circuit.transistor_count + 2
        assert netlist_identity(edited) == netlist_identity(
            Extractor(technology).extract(top))
