"""The harness's own span recorder, boundary proxies and trace folding.

Layers are measured from outside: the flow wraps its own calls in direct
spans, and for the traced iteration a *boundary table* of public callables
is wrapped with timing proxies and restored afterwards.  Nothing in
``src/`` is edited and nothing private is touched; spans inside the
program are a later change.

A span is ``(id, parent id, name, start, end)`` kept in memory; the layer
is the part of the name before the first dot.  :func:`fold` turns a span
list into per-name inclusive and self times, :func:`chrome_events` into
the trace-event JSON ``python -m repro.obs`` validates.
"""

from __future__ import annotations

import gc
import importlib
import os
import signal
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _reference_kernel() -> None:
    total = 0
    for value in range(30_000):
        total += value * value % 7


class SpeedProbe:
    """Reads how fast the core is running, with a fixed kernel, all run long.

    On a small cloud VM the physical core is shared with other tenants: a
    fixed pure-Python kernel runs in one of two states — alone, or ~1.3x
    slower beside a busy sibling — flipping anywhere from every few tens of
    milliseconds to every few minutes, with no steal time to show for it
    (README, "Noise").  Raw times then spread by the same quarter from run
    to run, however many samples a run holds, because whole runs fall
    inside one state.

    The probe times a ~1.1 ms kernel every ``PERIOD_S`` from an interval
    timer for the life of the run.  The *slowdown* of a stretch of the run
    is the mean of the readings taken inside it (the nearest one, if it was
    too short to hold any) over ``REFERENCE_S``; raw seconds over slowdown
    are **reference-speed seconds**: what the stretch would have taken on a
    core that runs the kernel in exactly ``REFERENCE_S``.  Nothing else is
    modelled: the kernel is the measurement of how fast the core was.

    ``start`` installs a ``SIGALRM`` handler (main thread only).
    """

    PERIOD_S = 0.020
    #: The kernel on a quiet core of the machine the baseline was taken on
    #: takes 1.06 ms; a round figure, because it is a unit, not a measurement.
    REFERENCE_S = 0.001

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 kernel: Callable[[], None] = _reference_kernel) -> None:
        self._clock = clock
        self._kernel = kernel
        #: When each reading ended, and what it read: parallel, in time order.
        self.times: List[float] = []
        self.readings: List[float] = []

    def on_timer(self, signum=None, frame=None) -> None:
        start = self._clock()
        self._kernel()
        end = self._clock()
        self.times.append(end)
        self.readings.append(end - start)

    def start(self) -> None:
        """Read every ``PERIOD_S`` from now until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self.on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def spent_between(self, start: float, end: float) -> float:
        """Time the readings that ended in [start, end] took.

        Callers subtract it from an interval that spans readings.
        """
        return sum(self.readings[bisect_left(self.times, start):
                                 bisect_right(self.times, end)])

    def _slowdown(self, readings: Sequence[float]) -> float:
        return sum(readings) / len(readings) / self.REFERENCE_S

    def slowdown_between(self, start: float, end: float) -> float:
        """How much slower than the reference speed [start, end] ran.

        Only readings inside the stretch count: the core's speed flips on
        a scale of tens of milliseconds, and a reading a quarter of a second
        away says little.
        """
        first = bisect_left(self.times, start)
        last = bisect_right(self.times, end)
        if first == last:           # none inside: the nearest one
            nearest = min(range(max(first - 1, 0), min(first + 1, len(self.times))),
                          key=lambda index: abs(self.times[index] - start))
            return self._slowdown([self.readings[nearest]])
        return self._slowdown(self.readings[first:last])

    def slowdown_outside(self, start: float, end: float) -> float:
        """The same for the whole run *except* [start, end]."""
        return self._slowdown(
            self.readings[:bisect_left(self.times, start)]
            + self.readings[bisect_right(self.times, end):])


class Recorder:
    """Times every span; keeps it only while ``tracing`` is on.

    The untraced pass uses the same ``with recorder.span(...)`` calls to
    read durations (two clock reads each) but stores nothing, so the
    end-to-end numbers are taken with tracing off.  ``sample`` is ``span``
    for the spans whose durations become metrics.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.spans: List[Span] = []
        #: Time spent in ``sample``'s own collections, which callers
        #: subtract from an interval that spans samples.
        self.settle_s = 0.0
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def sample(self, name: str) -> Iterator[Span]:
        """A span that becomes a metric: a full collection, then the span.

        Every sample then starts with the same collector state, so the
        collections its own allocations trigger fall at the same points
        each time (a warm sign-off otherwise alternates 0.19 s / 0.28 s
        with whether a full collection lands in it).  The collection shows
        as ``obs.settle``.
        """
        with self.span("obs.settle") as settle:
            gc.collect()
        self.settle_s += settle.seconds
        with self.span(name) as span:
            yield span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        if not self.tracing:
            span = Span(-1, None, name, time.perf_counter())
            try:
                yield span
            finally:
                span.end = time.perf_counter()
            return
        span = Span(self._next_id, self._stack[-1] if self._stack else None,
                    name, 0.0)
        self._next_id += 1
        self._stack.append(span.id)
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


# -- boundary proxies ------------------------------------------------------------------

#: (span name, module, attribute path).  A one-part path is a module-level
#: function, rebound in every loaded ``repro`` module that imported it by
#: name; a two-part path is a method, rebound on its class.  Only public
#: names, and nothing called more than ~10^4 times in an iteration.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("generators.datapath", "repro.generators.datapath", "DatapathGenerator.build"),
    ("generators.pla", "repro.generators.pla", "PlaGenerator.build"),
    ("generators.rom", "repro.generators.rom", "RomGenerator.build"),
    ("pnr.place", "repro.pnr.placement", "refine_placement"),
    ("assembly.pad_ring", "repro.assembly.padframe", "PadRing.build"),
    ("pnr.route", "repro.pnr.router", "PnrRouter.route_all"),
    ("pnr.route.maze", "repro.pnr.router", "MazeRouter.route"),
    ("layout.flatten", "repro.layout.flatten", "flatten_cell"),
    ("analysis.drc", "repro.analysis.hier", "HierAnalyzer.drc"),
    ("analysis.extract", "repro.analysis.hier", "HierAnalyzer.extract"),
    ("analysis.erc", "repro.analysis.hier", "HierAnalyzer.erc"),
    ("analysis.timing", "repro.analysis.hier", "HierAnalyzer.timing"),
    ("analysis.measure", "repro.analysis.hier", "HierAnalyzer.measure"),
    ("store.get", "repro.store.artifact", "MemoryStore.get"),
    ("store.put", "repro.store.artifact", "MemoryStore.put"),
    ("store.get", "repro.store.artifact", "DiskStore.get_sized"),
    ("store.put", "repro.store.artifact", "DiskStore.put_payload"),
    ("store.get", "repro.store.artifact", "TieredStore.get"),
    ("store.put", "repro.store.artifact", "TieredStore.put"),
    ("drc.flat_check", "repro.drc.checker", "DrcChecker.check"),
    ("extract.flat_extract", "repro.extract.extractor", "Extractor.extract"),
)


def resolve(module_name: str, path: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, callable)`` of one boundary-table entry."""
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _proxy(recorder: Recorder, name: str, target: Callable,
           calls: Dict[str, int], key: str) -> Callable:
    def timed(*args, **kwargs):
        calls[key] += 1
        with recorder.span(name):
            return target(*args, **kwargs)
    timed.__wrapped__ = target
    return timed


@contextmanager
def boundaries_wrapped(recorder: Recorder) -> Iterator[Dict[str, int]]:
    """Wrap every boundary for the duration of the block, then restore.

    Yields the live call count of each table entry, keyed by its attribute
    path, so the caller can refuse a boundary that never fired.
    """
    undo: List[Tuple[object, str, object]] = []
    calls: Dict[str, int] = {}
    try:
        for name, module_name, path in BOUNDARIES:
            owner, attribute, target = resolve(module_name, path)
            calls[path] = 0
            proxy = _proxy(recorder, name, target, calls, path)
            if "." in path:
                holders = [owner]
            else:
                # ``from x import f`` copies the binding: rebind every copy,
                # or calls through the copies would read as "0 s".
                holders = [module for key, module in list(sys.modules.items())
                           if key.split(".")[0] == "repro"
                           and getattr(module, attribute, None) is target]
            for holder in holders:
                undo.append((holder, attribute, target))
                setattr(holder, attribute, proxy)
        yield calls
    finally:
        for holder, attribute, target in reversed(undo):
            setattr(holder, attribute, target)


# -- folding ---------------------------------------------------------------------------


@dataclass
class Stage:
    name: str
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def self_seconds(span: Span, children: Sequence[Span]) -> float:
    """Duration minus the part of the interval the child spans cover."""
    covered = 0.0
    edge = span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, edge), min(child.end, span.end)
        if end > start:
            covered += end - start
            edge = end
    return span.seconds - covered


def fold(spans: Sequence[Span]) -> Dict[str, Stage]:
    """Per-name call count, inclusive time and self time.

    A span nested (at any depth) under another of the same name adds to the
    call count and the self time but not to the inclusive time, which
    would otherwise count the inner interval twice.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    stages: Dict[str, Stage] = {}
    for span in spans:
        stage = stages.setdefault(span.name, Stage(span.name))
        stage.calls += 1
        stage.self_s += self_seconds(span, children.get(span.id, ()))
        ancestor = span.parent
        while ancestor is not None and by_id[ancestor].name != span.name:
            ancestor = by_id[ancestor].parent
        if ancestor is None:
            stage.inclusive_s += span.seconds
    return stages


def subtree(spans: Sequence[Span], root: Span) -> List[Span]:
    """``root`` and every span below it, in recording order."""
    keep = {root.id}
    out = []
    for span in spans:              # parents are always recorded first
        if span.id in keep or span.parent in keep:
            keep.add(span.id)
            out.append(span)
    return out


def stage_table(stages: Dict[str, Stage], wall_s: float) -> List[List[str]]:
    """Rows ``[stage, inclusive s, self s, calls, share of wall]``."""
    rows = []
    for stage in sorted(stages.values(), key=lambda s: -s.self_s):
        rows.append([stage.name, f"{stage.inclusive_s:.4f}",
                     f"{stage.self_s:.4f}", str(stage.calls),
                     f"{100.0 * stage.self_s / wall_s:.1f}%"])
    return rows


def chrome_events(spans: Sequence[Span], workload: str) -> List[dict]:
    """Complete ("X") trace events, microseconds from the first span."""
    if not spans:
        return []
    origin = min(span.start for span in spans)
    pid = os.getpid()
    return [{
        "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
        "ts": int((span.start - origin) * 1e6),
        "dur": max(int(span.seconds * 1e6), 0),
        "pid": pid, "tid": 0,
        "args": {"id": span.id, "parent": span.parent, "workload": workload},
    } for span in spans]
