"""Tests for the regular-structure generators (PLA, ROM, decoder, datapath, FSM),
and for two rules read from one recorded run of the examples and the
end-to-end benchmark's reference jobs: every cell generator in ``repro``
draws a cell, and every production module has a function called."""

import ast
import contextlib
import fnmatch
import gc
import glob
import importlib
import inspect
import os
import pkgutil
import runpy
import sys
import types

import pytest

import repro
from repro.generators import (
    DatapathColumn,
    DatapathGenerator,
    DecoderGenerator,
    FsmLayoutGenerator,
    PlaGenerator,
    RomGenerator,
)
from repro.generators.plane import Plane, crosspoint, place_row
from repro.lang import parameters
from repro.lang.parameters import ParameterizedCell
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.stats import cell_statistics
from repro.logic import FSM, TruthTable, parse_expr
from repro.technology import NMOS

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [ROOT, os.path.join(ROOT, "examples")]
from benchmarks.e2e import flow, tracing  # noqa: E402
from chip_assembly import build_chip  # noqa: E402


def full_adder_table():
    return TruthTable.from_expressions(
        {"s": parse_expr("a ^ b ^ cin"), "cout": parse_expr("a&b | a&cin | b&cin")},
        input_names=["a", "b", "cin"],
    )


class TestPlaGenerator:
    def test_report_dimensions(self):
        generator = PlaGenerator(NMOS, full_adder_table())
        generator.cell()
        report = generator.report
        assert report.inputs == 3 and report.outputs == 2
        assert report.terms == 7          # minimal SOP of the full adder
        assert report.area > 0

    def test_ports_match_signal_names(self):
        generator = PlaGenerator(NMOS, full_adder_table())
        cell = generator.cell()
        assert {"a", "b", "cin", "s", "cout", "vdd", "gnd"} <= set(cell.port_names())

    def test_functional_model_matches_truth_table(self):
        table = full_adder_table()
        generator = PlaGenerator(NMOS, table)
        for minterm in range(8):
            assignment = table.assignment_for(minterm)
            outputs = generator.evaluate(assignment)
            assert outputs["s"] == table.output(minterm, "s")
            assert outputs["cout"] == table.output(minterm, "cout")

    def test_minimisation_reduces_terms_and_area(self):
        # A deliberately redundant personality: f depends only on a, g only
        # on a&b, so minimisation collapses the canonical cover dramatically.
        table = TruthTable.from_expressions(
            {"f": parse_expr("a"), "g": parse_expr("a & b")},
            input_names=["a", "b", "c"])
        minimised = PlaGenerator(NMOS, table, minimize_cover=True, name="pla_min_red")
        raw = PlaGenerator(NMOS, table, minimize_cover=False, name="pla_raw_red")
        minimised.cell(), raw.cell()
        assert minimised.report.terms < raw.report.terms
        assert minimised.report.area < raw.report.area

    def test_area_grows_with_inputs(self):
        small = PlaGenerator(NMOS, TruthTable.from_expressions({"f": parse_expr("a & b")}))
        large = PlaGenerator(NMOS, TruthTable.from_expressions(
            {"f": parse_expr("a & b & c & d")}))
        small.cell(), large.cell()
        assert large.report.width > small.report.width

    def test_relaxed_style_is_larger(self):
        table = full_adder_table()
        compact = PlaGenerator(NMOS, table, style="compact", name="pla_c")
        relaxed = PlaGenerator(NMOS, table, style="relaxed", name="pla_r")
        compact.cell(), relaxed.cell()
        assert relaxed.report.area > compact.report.area

    def test_regularity_is_high(self):
        cell = PlaGenerator(NMOS, full_adder_table()).cell()
        assert cell_statistics(cell).regularity > 3.0


class TestDecoderAndRom:
    def test_decoder_select_lines(self):
        generator = DecoderGenerator(NMOS, address_bits=3)
        cell = generator.cell()
        assert generator.report.select_lines == 8
        assert {f"select{i}" for i in range(8)} <= set(cell.port_names())
        assert {f"addr{i}" for i in range(3)} <= set(cell.port_names())

    def test_decoder_transistor_count(self):
        generator = DecoderGenerator(NMOS, address_bits=2)
        generator.cell()
        # Each of the 4 rows has 2 crosspoint transistors plus a pullup.
        assert generator.report.transistors == 4 * 2 + 4

    def test_rom_read_model(self):
        rom = RomGenerator(NMOS, [1, 2, 3, 250], bits_per_word=8)
        assert rom.read(3) == 250
        assert rom.read(100) == 0
        with pytest.raises(IndexError):
            rom.read(-1)

    def test_rom_contents_must_fit(self):
        with pytest.raises(ValueError):
            RomGenerator(NMOS, [256], bits_per_word=8)
        with pytest.raises(ValueError):
            RomGenerator(NMOS, [], bits_per_word=8)

    def test_rom_report_counts_stored_ones(self):
        rom = RomGenerator(NMOS, [0b1111, 0b0000, 0b1010], bits_per_word=4)
        rom.cell()
        assert rom.report.stored_ones == 6
        assert rom.report.words == 3

    def test_rom_area_scales_with_words(self):
        small = RomGenerator(NMOS, [i % 16 for i in range(8)], bits_per_word=4)
        large = RomGenerator(NMOS, [i % 16 for i in range(32)], bits_per_word=4)
        small.cell(), large.cell()
        assert large.report.height > small.report.height


def geometry(cell):
    return {layer: sorted(rects)
            for layer, rects in flatten_cell(cell).rects_by_layer().items()}


def crosspoint_masters(top, pitch):
    """Distinct cells under ``top`` drawn as a ``pitch`` crosspoint, by name-free geometry."""
    drawn = [geometry(crosspoint(NMOS, plane, programmed, pitch))
             for plane in Plane for programmed in (False, True)]
    return {id(cell) for cell in top.descendants() if geometry(cell) in drawn}


class TestNorPlane:
    """The PLA, the decoder and the ROM instantiate one set of crosspoints."""

    def bricks(self, pitch, *planes):
        return {id(crosspoint(NMOS, plane, programmed, pitch))
                for plane in planes for programmed in (False, True)}

    def test_generators_share_crosspoint_masters(self):
        for style, pitch in (("compact", 10), ("relaxed", 12)):
            pla = PlaGenerator(NMOS, full_adder_table(), style=style,
                               name=f"pla_shared_{style}").cell()
            decoder = DecoderGenerator(NMOS, address_bits=3, pitch=pitch).cell()
            rom = RomGenerator(NMOS, [0b1010, 0b0110, 0b1111], bits_per_word=4,
                               pitch=pitch).cell()
            both = self.bricks(pitch, Plane.INPUT, Plane.OUTPUT)
            assert crosspoint_masters(pla, pitch) == both
            assert crosspoint_masters(decoder, pitch) == self.bricks(pitch, Plane.INPUT)
            assert crosspoint_masters(rom, pitch) == both

    def test_family_chip_defines_each_crosspoint_once(self):
        _assembler, chip = build_chip("plane_family", 8, 2)
        assert crosspoint_masters(chip, 10) == self.bricks(10, Plane.INPUT, Plane.OUTPUT)
        assert not crosspoint_masters(chip, 12)

    def test_place_row_counts_pull_downs(self):
        row = Cell("plane_row")
        assert place_row(NMOS, row, Plane.INPUT, 0, 0, 10, "10-") == 2
        assert place_row(NMOS, row, Plane.OUTPUT, 0, 10, 10, "1011") == 3
        pull_downs = {id(crosspoint(NMOS, plane, True, 10)) for plane in Plane}
        programmed = [instance.transform.translation.x for instance in row.instances
                      if id(instance.cell) in pull_downs]
        # Input plane: '1' programs the complement column, '0' the true one.
        assert programmed == [10, 20, 0, 20, 30]
        assert len(row.instances) == 6 + 4


class TestDatapath:
    def columns(self):
        return [
            DatapathColumn("register", "acc"),
            DatapathColumn("adder", "alu"),
            DatapathColumn("shifter", "shift"),
            DatapathColumn("bus", "bus"),
        ]

    def test_report(self):
        generator = DatapathGenerator(NMOS, self.columns(), bits=8)
        generator.cell()
        report = generator.report
        assert report.bits == 8 and report.columns == 4
        assert report.transistors == 8 * (6 + 14 + 3 + 2)

    def test_height_scales_linearly_with_bits(self):
        four = DatapathGenerator(NMOS, self.columns(), bits=4)
        eight = DatapathGenerator(NMOS, self.columns(), bits=8)
        four.cell(), eight.cell()
        assert eight.report.height > 1.8 * four.report.height

    def test_control_ports_exported(self):
        cell = DatapathGenerator(NMOS, self.columns(), bits=4).cell()
        assert "acc_ctl0" in cell.port_names()
        assert "bus_in0" in cell.port_names() and "bus_out3" in cell.port_names()

    def test_unknown_column_kind_rejected(self):
        with pytest.raises(ValueError):
            DatapathColumn("quantum", "q")

    def test_empty_column_list_rejected(self):
        with pytest.raises(ValueError):
            DatapathGenerator(NMOS, [], bits=4)


class TestFsmLayout:
    def traffic_light(self):
        fsm = FSM("tl", inputs=["car"], outputs=["go"])
        fsm.add_state("G", {"go": 1}, reset=True)
        fsm.add_state("R", {})
        fsm.add_transition("G", "R", {"car": 1})
        fsm.add_transition("G", "G", {"car": 0})
        fsm.add_transition("R", "G")
        return fsm

    def test_builds_pla_plus_register(self):
        generator = FsmLayoutGenerator(NMOS, self.traffic_light())
        cell = generator.cell()
        report = generator.report
        assert report.states == 2 and report.state_bits == 1
        assert report.transistors > 0
        assert {"car", "go", "phi1", "phi2"} <= set(cell.port_names())

    def test_one_hot_uses_more_state_bits(self):
        binary = FsmLayoutGenerator(NMOS, self.traffic_light(), encoding="binary")
        one_hot = FsmLayoutGenerator(NMOS, self.traffic_light(), encoding="one_hot")
        binary.cell(), one_hot.cell()
        assert one_hot.report.state_bits > binary.report.state_bits
        assert one_hot.report.area >= binary.report.area


def cell_generators():
    """Every :class:`ParameterizedCell` subclass defined in an imported
    ``repro`` module (:func:`repro_sources` imports them all)."""
    found, pending = set(), [ParameterizedCell]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro."):
                found.add(subclass)
    return found


def repro_sources():
    """Name -> source text of every module of the installed ``repro``
    package, each imported."""
    names = ["repro"] + [module.name for module in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    return {name: inspect.getsource(importlib.import_module(name)) for name in names}


@contextlib.contextmanager
def recording_calls():
    """The ``__name__`` of every module a Python function is called in
    inside the block: a ``sys.setprofile`` hook, nothing more."""
    called = set()
    add = called.add

    def profile(frame, event, _arg):
        if event == "call":
            add(frame.f_globals.get("__name__"))

    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(None)


def defines_function(source):
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
               for node in ast.walk(ast.parse(source)))


def uncalled(sources, called):
    """The modules of ``sources`` (name -> source text) that define a
    function but had none in ``called``.

    A module that defines none (a package's re-exports, a table of
    constants) has nothing to call and is never reported.
    """
    return sorted(name for name, source in sources.items()
                  if name not in called and defines_function(source))


@pytest.fixture(scope="module")
def everything_drawn(tmp_path_factory):
    """One run of the four examples and of the end-to-end benchmark's three
    reference jobs (a chip build, a tile-array edit loop and the LFSR logic
    job, one iteration each): which generators drew a cell, and which
    ``repro`` modules had a function called.

    Every module is imported before recording starts, so code that runs
    only at import is no call.  The jobs' ``verify`` (the flat and
    interpreted oracles) is left out: it reaches no further production
    module, and under the profiler it adds a third to the jobs' time.
    """
    sources = repro_sources()
    out = tmp_path_factory.mktemp("drawn")
    drawn = set()
    original = ParameterizedCell.cell

    def recording_cell(self):
        drawn.add(type(self))
        return original(self)

    checks = flow.Checks()
    run = flow.Run("reached", 1979, NMOS, tracing.Recorder(),
                   tracing.SpeedProbe(), checks, str(out))
    # What the suite built so far is no garbage of this run: keep it out of
    # the jobs' per-iteration collections, as the benchmark harness does.
    gc.collect()
    gc.freeze()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ParameterizedCell, "cell", recording_cell)
            # Empty caches, so a cell an earlier test built is built again and
            # the generators it composes are reached; both go together, or a
            # cached brick would hold the old master of a rebuilt leaf cell.
            patch.setattr(parameters, "_GENERATED_CELL_CACHE", {})
            patch.setattr(parameters, "_SHARED_BRICK_CACHE", {})
            with recording_calls() as called:
                # Examples without an --out option take no arguments at all.
                for script in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
                    patch.setattr(sys, "argv", [script, "--out", str(out)])
                    runpy.run_path(script, run_name="__main__")
                for job, _repetitions in flow.reference_jobs(run):
                    try:
                        job.prepare()
                        job.iterate()
                    finally:
                        job.close()
    finally:
        gc.unfreeze()
    assert checks.failures == []
    return types.SimpleNamespace(drawn=drawn, sources=sources,
                                 called=called)


class TestEveryGeneratorIsDrawn:
    """A cell generator stays in ``src/`` only if something draws with it.

    "Something" is an example run as a script or a design the end-to-end
    benchmark builds; a generator only its own tests instantiate is dead code.
    """

    def test_every_generator_is_instantiated(self, everything_drawn):
        undrawn = sorted(generator.__name__ for generator
                         in cell_generators() - everything_drawn.drawn)
        assert not undrawn, f"nothing draws with {', '.join(undrawn)}"


#: Production modules that nothing in that run calls, and why each stays.
NOT_REACHED = {
    "repro.reference.*": "test oracles; production never imports them",
    "repro.obs.__main__": "the trace CLI, run as python -m repro.obs",
    "repro.assembly.channel": "no chip routes through it yet; the ROADMAP "
                              "router-estate item keeps or deletes it",
    "repro.assembly.river": "no chip routes through it yet; the ROADMAP "
                            "router-estate item keeps or deletes it",
}


class TestEveryModuleIsReached:
    """A production module stays in ``src/`` only if an example or an
    end-to-end reference job calls one of its functions, or it is in
    :data:`NOT_REACHED` with a reason."""

    def test_every_module_is_reached(self, everything_drawn):
        unexplained = [name for name in uncalled(everything_drawn.sources,
                                                 everything_drawn.called)
                       if not any(fnmatch.fnmatchcase(name, pattern)
                                  for pattern in NOT_REACHED)]
        assert not unexplained, (
            f"no example or reference job calls {', '.join(unexplained)}")

    def test_every_allowlist_entry_is_still_unreached(self, everything_drawn):
        sources = everything_drawn.sources
        unreached = set(uncalled(sources, everything_drawn.called))
        for pattern in NOT_REACHED:
            named = {name for name in sources if fnmatch.fnmatchcase(name, pattern)
                     and defines_function(sources[name])}
            assert named, f"{pattern} names no module with a function"
            assert named <= unreached, f"{sorted(named - unreached)} are reached now"

    def test_the_scan_recognises_an_uncalled_module(self):
        sources = {"made_up.called": "def run():\n    return 1\n",
                   "made_up.uncalled": "def dead():\n    return 2\n",
                   "made_up.constants": "WIDTH = 4\n"}
        modules = {}
        for name, source in sources.items():
            modules[name] = types.ModuleType(name)
            exec(compile(source, name, "exec"), modules[name].__dict__)
        with recording_calls() as called:
            modules["made_up.called"].run()
        assert uncalled(sources, called) == ["made_up.uncalled"]
