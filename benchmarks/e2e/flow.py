"""The three jobs, the four workloads built from them, and the reference job.

A workload is one job at one size, and its measured iterations run that job
and nothing else:

* :class:`BuildJob` — description -> generators -> chip -> CIF -> parse ->
  cold sign-off (``family8_build``: the routed family chip;
  ``tile64_signoff``: the 64-tile array, which is never placed or routed);
* :class:`EditLoopJob` — a long-lived analyzer over a populated memory+disk
  store: warm re-sign-off, sign-off by a fresh analyzer over the disk tier,
  edit one leaf cell and re-sign-off (``tile64_edit_loop``);
* :class:`LogicJob` — RTL -> gates -> scalar and multi-stream simulation ->
  equivalence -> STA (``lfsr_verify``).

The driver wants all fifteen end-to-end metrics from every run, but a job
measures only its own.  The rest are read from the **reference job**: the
same three jobs at a fixed small size (:func:`reference_jobs`), run a few
times during set-up, identically on every workload, where they also serve
as the warm-up.  They are no part of any iteration, stage table or share.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import HierAnalyzer
from repro.assembly import ChipAssembler, SignOffReport
from repro.cif import parse_cif, write_cif
from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.lang.parameters import clear_generated_cell_cache
from repro.layout import Cell, Library, flatten_cell
from repro.metrics import measure_cell
from repro.netlist import GateLevelSimulator, compare_netlists
from repro.obs import metrics as obs_metrics
from repro.rtl import RtlCompiler, parse_rtl
from repro.rtl.simulator import RtlSimulator
from repro.sim import CompiledNetlist, run_streams
from repro.store import DiskStore, MemoryStore, TieredStore
from repro.timing import analyze_module

from benchmarks.e2e import designs
from benchmarks.e2e.tracing import Recorder, Span, SpeedProbe


class Checks:
    """Correctness checks attempted and failed: the source of ``ok_ratio``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - len(self.failures)) / self.attempted


@dataclass
class Sample:
    """One timed span that becomes an end-to-end metric.

    ``work`` is 0 for a duration metric; for a throughput metric it is the
    cycles the span simulated, and the metric is ``work`` over the time.
    """

    span: Span
    work: float = 0.0


@dataclass
class Iteration:
    """Timings and outputs of one complete job."""

    #: The whole job, on the clock and less the harness's own overhead
    #: (``elapsed_s`` with it: what the job took out of the run).
    wall_s: float = 0.0
    elapsed_s: float = 0.0
    #: End-to-end metric -> the samples of it this iteration took.
    samples: Dict[str, List[Sample]] = field(
        default_factory=lambda: defaultdict(list))
    #: Counts of the compiled output; they must repeat exactly.
    quality: Dict[str, float] = field(default_factory=dict)
    #: Digest of every output that must be identical across iterations
    #: ("" where each iteration works on different inputs: the edit loop).
    fingerprint: str = ""
    #: Per-layer counts read from public report objects.
    counts: Dict[str, float] = field(default_factory=dict)
    #: What each ``repro.obs.metrics`` counter gained.
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Run:
    """What every job of one process shares."""

    workload: str
    seed: int
    technology: object
    recorder: Recorder
    probe: SpeedProbe
    checks: Checks
    tmp_root: str

    @contextmanager
    def iteration(self, out: Iteration) -> Iterator[None]:
        """The root span of one job, timed less the harness's own overhead."""
        gc.collect()        # every iteration starts from the same heap state
        before = obs_metrics.snapshot()
        settled = self.recorder.settle_s
        with self.recorder.span("flow.iteration") as root:
            yield
        out.elapsed_s = root.seconds
        out.wall_s = (root.seconds - (self.recorder.settle_s - settled)
                      - self.probe.spent_between(root.start, root.end))
        after = obs_metrics.snapshot()
        out.counters = {name: value - before.get(name, 0)
                        for name, value in after.items()
                        if isinstance(value, (int, float))}
        # A silently degraded fast path measures the wrong program.
        self.checks.expect("no fallback.* counter fired", not any(
            name.startswith("fallback.") and gained
            for name, gained in out.counters.items()))

    @contextmanager
    def timed(self, out: Iteration, metric: str, name: str,
              work: float = 0.0) -> Iterator[None]:
        with self.recorder.sample(name) as span:
            yield
        out.samples[metric].append(Sample(span, work))


def _fingerprint(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
    return hasher.hexdigest()


# -- chips -----------------------------------------------------------------------------

#: ("family", bits, extra_control) | ("small",) | ("tile", words, rom_grid, pla_grid)
ChipSpec = Tuple

FAMILY8: ChipSpec = ("family", 8, 2)
TILE64: ChipSpec = ("tile", 32, (8, 5), (6, 4))
SMALL: ChipSpec = ("small",)
TILE6: ChipSpec = ("tile", 16, (2, 2), (2, 1))


@dataclass
class Design:
    top: Cell
    leaf: Cell                      # the cell the edit loop patches
    leaf_top: int
    assembler: Optional[ChipAssembler] = None


def build_design(chip: ChipSpec, name: str, run: Run) -> Design:
    if chip[0] == "tile":
        top, leaf = designs.tile_array(run.technology, name, *chip[1:], run.seed)
        return Design(top, leaf, leaf.bbox().y2)
    if chip[0] == "family":
        assembler, leaf = designs.family_chip(run.technology, name, *chip[1:],
                                              run.seed)
    else:
        assembler, leaf = designs.small_chip(run.technology, name, run.seed)
    with run.recorder.span("assembly.assemble"):
        top = assembler.assemble()
    return Design(top, leaf, leaf.bbox().y2, assembler)


def sign_off(design: Design, analyzer: HierAnalyzer,
             recorder: Recorder) -> SignOffReport:
    """Full physical verification: DRC, extract, measure, timing, ERC."""
    if design.assembler is not None:
        with recorder.span("assembly.sign_off"):
            return design.assembler.sign_off(analyzer)
    cell = design.top
    report = SignOffReport(
        violations=analyzer.drc(cell), circuit=analyzer.extract(cell),
        metrics=analyzer.measure(cell), timing=analyzer.timing(cell),
        erc=analyzer.erc(cell))
    report.store = analyzer.store.stats()
    return report


def netlist_identity(circuit) -> Tuple:
    return (circuit.node_names, circuit.network.transistors,
            circuit.network.inputs, circuit.network.outputs, circuit.summary())


def signoff_identity(report: SignOffReport) -> Tuple:
    """What two sign-offs of the same geometry must agree on, exactly."""
    return (report.violations, netlist_identity(report.circuit),
            report.metrics, report.max_frequency_mhz,
            report.erc.violations)


def store_counts(stats: Dict) -> Dict[str, float]:
    """The ``store.*`` per-layer counts of one analyzer's store."""
    memory = stats.get("memory", stats)
    disk = stats.get("disk", {})
    lookups = stats["hits"] + stats["misses"]
    return {
        "store.get_calls": lookups,
        "store.put_calls": stats["puts"],
        "store.hit_ratio": stats["hits"] / max(lookups, 1),
        "store.memory_evictions": memory["evictions"],
        "store.disk_bytes_written": disk.get("bytes_written", 0),
        "store.disk_entries": disk.get("entries", 0),
    }


def flat_oracle(design: Design, report: SignOffReport, run: Run) -> Dict[str, float]:
    """Check ``report`` against the flat engines, which see every rectangle."""
    technology, checks = run.technology, run.checks
    flat_violations = DrcChecker(technology).check(design.top)
    flat_circuit = Extractor(technology).extract(design.top)
    checks.expect("hierarchical DRC equals the flat checker",
                  report.violations == flat_violations)
    checks.expect("hierarchical netlist equals the flat extractor",
                  netlist_identity(report.circuit) == netlist_identity(flat_circuit))
    checks.expect("hierarchical metrics equal measure_cell",
                  report.metrics == measure_cell(design.top, technology))
    return {"drc.violations": len(flat_violations),
            "extract.transistors": flat_circuit.transistor_count,
            "layout.flat_shapes": len(flatten_cell(design.top).shapes)}


# -- the jobs --------------------------------------------------------------------------


class Job:
    """One kind of complete job; a workload is a job at a size.

    ``prepare`` runs once in set-up, ``iterate`` is one measured job,
    ``verify`` checks the last iteration's outputs against independent
    oracles and returns the per-layer counts only they know, ``close``
    removes what the job wrote.
    """

    #: Boundary-table entries (attribute paths) a traced iteration plus
    #: ``verify`` must call at least once.
    boundaries: frozenset = frozenset()
    #: The chip the per-layer probes (index speed, sharded flat sign-off)
    #: run on after ``verify``; ``None`` for a job without layout.
    design: Optional[Design] = None

    def __init__(self, run: Run) -> None:
        self.run = run

    def prepare(self) -> None:
        pass

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def verify(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


_ANALYSIS = {"flatten_cell", "HierAnalyzer.drc", "HierAnalyzer.extract",
             "HierAnalyzer.erc", "HierAnalyzer.timing", "HierAnalyzer.measure",
             "MemoryStore.get", "MemoryStore.put",
             "DrcChecker.check", "Extractor.extract"}


class BuildJob(Job):
    """description -> generators -> chip cell -> CIF -> parse -> cold sign-off.

    Every iteration builds the chip again from the description (the
    generator cache is cleared) and signs it off on a fresh analyzer over a
    fresh ``MemoryStore``: the store is written, never read.
    """

    def __init__(self, run: Run, name: str, chip: ChipSpec) -> None:
        super().__init__(run)
        self.name = name
        self.chip = chip
        generators = {"PlaGenerator.build", "RomGenerator.build"}
        if chip[0] == "tile":
            self.boundaries = frozenset(_ANALYSIS | generators)
        else:
            self.boundaries = frozenset(_ANALYSIS | generators | {
                "refine_placement", "PadRing.build", "PnrRouter.route_all",
                "MazeRouter.route"} | (
                    {"DatapathGenerator.build"} if chip[0] == "family" else set()))
        self.cold: Optional[SignOffReport] = None

    def iterate(self) -> Iteration:
        run, out = self.run, Iteration()
        recorder, technology, checks = run.recorder, run.technology, run.checks
        self.design = self.cold = None      # one chip alive at a time
        with run.iteration(out):
            clear_generated_cell_cache()
            with run.timed(out, "compile_s", "flow.compile"):
                design = build_design(self.chip, self.name, run)
                library = Library(self.name, technology)
                library.add_cell(design.top)
                with recorder.span("cif.write"):
                    cif_text = write_cif(library)
            with recorder.span("cif.parse"):
                parsed = parse_cif(cif_text, technology)
            checks.expect("cif parses to the same cell set",
                          sorted(cell.name for cell in parsed)
                          == sorted(cell.name for cell in library))
            assembler = design.assembler
            if assembler is not None:
                checks.expect("route completion is 1.0",
                              assembler.routing_report.completion == 1.0)
                checks.expect("no ROU008 fallback route",
                              "ROU008" not in assembler.diagnostics.codes())
                checks.expect("no placement overlaps",
                              not assembler.placement_report.overlaps)
            analyzer = HierAnalyzer(technology, store=MemoryStore())
            with run.timed(out, "signoff_cold_s", "flow.signoff_cold"):
                cold = sign_off(design, analyzer, recorder)
            checks.expect("0 DRC violations", not cold.violations)
        self.design, self.cold = design, cold

        out.quality = {"fmax_mhz": cold.max_frequency_mhz,
                       "cif_bytes": len(cif_text)}
        out.counts = {"cif.bytes": len(cif_text), **store_counts(cold.store)}
        if assembler is not None:
            placement, routing = assembler.placement_report, assembler.routing_report
            out.quality.update(
                chip_area_lambda2=assembler.report.chip_area,
                route_length_lambda=assembler.report.total_route_length)
            out.counts.update({
                "pnr.place.moves_tried": placement.moves_tried,
                "pnr.place.hpwl_final": placement.final_wirelength,
                "pnr.route.nets": len(routing.routed) + len(routing.failed),
                "pnr.route.completion": routing.completion,
                "pnr.route.ripup_attempts": out.counters.get("pnr.ripup.attempts", 0),
            })
        out.fingerprint = _fingerprint(
            hashlib.sha256(cif_text.encode("ascii")).hexdigest(), out.quality,
            signoff_identity(cold))
        return out

    def verify(self) -> Dict[str, float]:
        """Flat engines on the last chip; its CIF written, read and compared.

        ``write_cif(parse_cif(text))`` is not byte-stable today, so the
        round trip is compared as geometry: sorted flat rectangles by layer.
        """
        design, technology = self.design, self.run.technology
        counts = flat_oracle(design, self.cold, self.run)
        library = Library(self.name, technology)
        library.add_cell(design.top)
        parsed = parse_cif(write_cif(library), technology)
        round_trip = flatten_cell(parsed.cell(design.top.name)).rects_by_layer()
        original = flatten_cell(design.top).rects_by_layer()
        self.run.checks.expect("CIF round trip preserves the geometry", (
            {layer: sorted(rects) for layer, rects in round_trip.items()}
            == {layer: sorted(rects) for layer, rects in original.items()}))
        return counts


class EditLoopJob(Job):
    """The loop a designer sits in: re-verify, restart, edit, re-verify.

    ``prepare`` builds the chip once and populates a long-lived analyzer's
    ``TieredStore(MemoryStore(), DiskStore(tmp))`` with one cold sign-off.
    An iteration is one round on that state:
    ``passes`` unchanged re-sign-offs (warm memory), ``passes`` sign-offs by
    a *fresh* analyzer over the disk tier (warm disk), and one seeded
    leaf-cell edit followed by a full re-sign-off (incremental).  The store
    is read where :class:`BuildJob` only writes it.
    """

    boundaries = frozenset(_ANALYSIS | {
        "DiskStore.get_sized", "DiskStore.put_payload",
        "TieredStore.get", "TieredStore.put"})

    def __init__(self, run: Run, name: str, chip: ChipSpec, passes: int) -> None:
        super().__init__(run)
        self.name = name
        self.chip = chip
        self.passes = passes
        self.store_dir = ""
        self.analyzer: Optional[HierAnalyzer] = None
        self.current: Optional[SignOffReport] = None    # of the chip as it is now
        self.slots: List[Tuple[int, int]] = []
        self.edits = 0

    def _analyzer(self) -> HierAnalyzer:
        return HierAnalyzer(self.run.technology, store=TieredStore(
            MemoryStore(), DiskStore(self.store_dir)))

    def prepare(self) -> None:
        run = self.run
        clear_generated_cell_cache()
        self.design = build_design(self.chip, self.name, run)
        self.slots = designs.edit_slots(run.seed, self.design.leaf.width)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=run.tmp_root)
        self.analyzer = self._analyzer()
        self.current = sign_off(self.design, self.analyzer, run.recorder)
        run.checks.expect("0 DRC violations", not self.current.violations)

    def iterate(self) -> Iteration:
        run, out, design = self.run, Iteration(), self.design
        recorder, checks = run.recorder, run.checks
        identity = signoff_identity(self.current)
        with run.iteration(out):
            for _ in range(self.passes):
                with run.timed(out, "signoff_warm_s", "flow.signoff_warm"):
                    warm = sign_off(design, self.analyzer, recorder)
                checks.expect("warm sign-off equals the last one",
                              signoff_identity(warm) == identity)

            for _ in range(self.passes):
                restarted = self._analyzer()
                with run.timed(out, "signoff_warm_disk_s",
                               "flow.signoff_warm_disk"):
                    disk = sign_off(design, restarted, recorder)
                checks.expect("warm-disk sign-off equals the last one",
                              signoff_identity(disk) == identity)
                checks.expect("warm-disk sign-off puts nothing",
                              disk.store["puts"] == 0)

            designs.patch_cell(design.leaf, self.slots.pop(), design.leaf_top)
            with run.timed(out, "signoff_incremental_s",
                           "flow.signoff_incremental"):
                self.current = sign_off(design, self.analyzer, recorder)
        out.counts = store_counts(self.current.store)
        if not self.edits:
            self._expect_equals_fresh_cold("first")
        self.edits += 1
        return out

    def _expect_equals_fresh_cold(self, which: str) -> None:
        with self.run.recorder.span("flow.verify_cold"):
            fresh = sign_off(self.design, HierAnalyzer(
                self.run.technology, store=MemoryStore()), self.run.recorder)
        self.run.checks.expect(
            f"incremental sign-off after the {which} edit equals a fresh cold analyzer",
            signoff_identity(self.current) == signoff_identity(fresh))

    def verify(self) -> Dict[str, float]:
        """The edited chip against the flat engines and a fresh cold analyzer.

        Edits need not be DRC-clean; the check is agreement with the oracle.
        """
        self._expect_equals_fresh_cold("last")
        return flat_oracle(self.design, self.current, self.run)

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


class LogicJob(Job):
    """Behaviour -> gates -> simulate -> compare -> time.

    ``lfsrs`` compiled LFSRs in a bank: a scalar gate-level simulation of
    ``cycles`` cycles (timed in ``slices`` slices of one continuous run:
    that many throughput samples an iteration instead of one), a
    bitplane simulation of ``STREAMS`` stimulus streams of ``stream_cycles``
    cycles, functional equivalence against the hand-built LFSR, and STA.
    """

    STREAMS = 64

    def __init__(self, run: Run, lfsrs: int, cycles: int, slices: int,
                 stream_cycles: int) -> None:
        super().__init__(run)
        self.lfsrs = lfsrs
        self.cycles = cycles
        self.slices = slices
        self.stream_cycles = stream_cycles
        self.vectors: List[designs.Vector] = []
        self.streams: List[List[designs.Vector]] = []
        self.machine = None
        self.gate_trace: List[Dict[str, int]] = []

    def prepare(self) -> None:
        seed = self.run.seed
        self.vectors = designs.lfsr_stimulus(seed, 0, self.cycles)
        # Stream 0 replays the head of the scalar stimulus so the two
        # kernels can be compared cycle for cycle.
        self.streams = [self.vectors[:self.stream_cycles]] + [
            designs.lfsr_stimulus(seed, stream, self.stream_cycles)
            for stream in range(1, self.STREAMS)]

    def iterate(self) -> Iteration:
        run, out = self.run, Iteration()
        recorder, checks = run.recorder, run.checks
        slice_cycles = self.cycles // self.slices
        with run.iteration(out):
            with recorder.span("rtl.parse"):
                machine = parse_rtl(designs.LFSR_RTL)
            with recorder.span("rtl.compile"):
                lfsr = RtlCompiler(machine).compile().module
            bank = designs.lfsr_bank(lfsr, self.lfsrs)
            with recorder.span("netlist.flatten"):
                flat = bank.flattened()
            with recorder.span("sim.lower"):
                lowered = CompiledNetlist(flat)
                simulator = GateLevelSimulator(bank)
                simulator.reset(0)
            gate_trace: List[Dict[str, int]] = []
            for start in range(0, self.cycles, slice_cycles):
                with run.timed(out, "sim_cycles_per_s", "sim.scalar_run",
                               work=slice_cycles):
                    gate_trace += simulator.run(
                        self.vectors[start:start + slice_cycles]).cycles
            watch = flat.input_names() + flat.output_names()
            with run.timed(out, "stream_cycles_per_s", "sim.stream_run",
                           work=self.STREAMS * self.stream_cycles):
                stream_traces = run_streams(lowered, self.streams, record=watch)
            with recorder.span("netlist.compare"):
                equivalence = compare_netlists(designs.reference_lfsr(), lfsr,
                                               functional=True, seed=run.seed)
            with recorder.span("timing.sta"):
                sta = analyze_module(bank)
        checks.expect("stream 0 equals the scalar trace",
                      stream_traces[0] == gate_trace[:self.stream_cycles])
        checks.expect("compiled LFSR equivalent to the hand reference",
                      equivalence.matches)
        self.machine, self.gate_trace = machine, gate_trace

        gates = flat.gate_count()
        scalar_s = sum(sample.span.seconds
                       for sample in out.samples["sim_cycles_per_s"])
        out.counts = {
            "rtl.gates": gates,
            "sim.gate_evals_per_s": gates * self.cycles / scalar_s,
            "sim.settle_iterations": out.counters.get("sim.settle.iterations", 0),
        }
        out.fingerprint = _fingerprint(gate_trace[-1], stream_traces[-1][-1],
                                       sta.worst_delay_ns)
        return out

    def verify(self) -> Dict[str, float]:
        """The behavioural RTL simulator re-derives the gate-level trace."""
        with self.run.recorder.span("rtl.reference_sim"):
            behaviour = RtlSimulator(self.machine).run(
                self.cycles, designs.behavioural_inputs(self.vectors))
        gate_words = [sum(cycle[f"u0_q_{bit}"] << bit for bit in range(8))
                      for cycle in self.gate_trace]
        self.run.checks.expect(
            "gate-level outputs equal the behavioural simulator",
            gate_words == [cycle["q"] for cycle in behaviour])
        return {}


# -- workloads -------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: Callable[[Run], Job]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "family8_build",
        "the routed 8-bit family chip, built and signed off cold: repro.pnr "
        "does ~95% of the work, so a router change must show here; the store "
        "and sim layers idle",
        lambda run: BuildJob(run, "family8_build", FAMILY8)),
    Workload(
        "tile64_signoff",
        "64 repeated ROM/PLA tiles, built and signed off cold, never routed: "
        "hierarchical analysis does the work and the store is write-only; a "
        "router change must not move it",
        lambda run: BuildJob(run, "tile64_signoff", TILE64)),
    Workload(
        "tile64_edit_loop",
        "same chip, the store used the other way round: warm, warm-from-disk "
        "and edit-then-re-verify passes on a long-lived analyzer; heavier puts "
        "or broken incremental reuse show their cost here",
        lambda run: EditLoopJob(run, "tile64_edit_loop", TILE64, passes=1)),
    Workload(
        "lfsr_verify",
        "a 32-LFSR bank (~1.2k gates): rtl, netlist, sim and gate-level STA do "
        "all the work while every layout layer idles",
        lambda run: LogicJob(run, lfsrs=32, cycles=4096, slices=8,
                             stream_cycles=2048)),
)}


def reference_jobs(run: Run) -> List[Tuple[Job, int]]:
    """The three jobs at reference size, and how often to iterate each.

    Together they take every metric.  The chip that is built is the small
    assembled one (it has a ``ChipReport``); the edit loop runs on a
    six-tile array, whose warm pass is 7 ms where the small chip's is 2.5,
    and takes three warm and three warm-disk passes a round, because a
    millisecond timing needs the samples.
    """
    return [(BuildJob(run, "reference", SMALL), 6),
            (EditLoopJob(run, "reference", TILE6, passes=3), 10),
            (LogicJob(run, lfsrs=4, cycles=1024, slices=2, stream_cycles=256), 6)]
