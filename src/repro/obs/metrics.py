"""Process-wide metrics registry: counters, gauges and histograms.

Every subsystem records its operational numbers through one registry with
stable dotted names, so a sign-off can snapshot the whole flow's state in
one call instead of each layer growing its own ad-hoc stats dict:

* ``fallback.<code>``                 — :func:`repro.diagnostics.run_with_fallback`
                                        recoveries by STO code;
* ``diagnostics.<code>``              — diagnostics recorded by collectors;
* ``budget.exceeded.<code>``          — budget trips by GRD/ROU code;
* ``budget.<label>.consumed_fraction``— how much of an iteration budget a
                                        loop used (gauge, 0.0–1.0+);
* ``store.*``                         — artifact-store hit/miss/byte gauges,
                                        synced from ``store.stats()`` at
                                        sign-off;
* ``pnr.route.*`` / ``pnr.ripup.*``   — routing escalation and rip-up counts;
* ``pnr.maze.*``                      — maze searches (``calls``), those the
                                        reachability flood ended
                                        (``unreachable``), priced-search
                                        ``expansions``, and lattice cells
                                        rasterised (``grid_cells``, gauge);
* ``sim.settle.*``                    — simulator settle calls/iterations;
* ``layout.flat.merges``              — layer merges a flat view built
                                        (:meth:`repro.layout.flatten.FlatLayout.layer_merge`);
* ``runtime.gc.gen{0,1,2}.collections`` / ``runtime.gc.pause_s``
                                      — runs of the cyclic collector and the
                                        time they took, counted only while
                                        tracing is armed
                                        (:mod:`repro.obs.trace`).

:meth:`MetricsRegistry.snapshot` returns a flat, JSON-serialisable dict;
:meth:`~repro.assembly.ChipAssembler.sign_off` stores one on
``SignOffReport.flow_metrics``.  When ``REPRO_METRICS=<path>`` is set the
process dumps a final snapshot there at exit.

All operations are plain attribute updates on small objects — cheap enough
for hot loops when the instance is cached (``self._m = counter("x")`` once,
``self._m.inc()`` per event).
"""

from __future__ import annotations

import atexit
import json
import os
from typing import Dict, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset_metrics",
    "dump_json",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (events, seconds, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    # ``add`` reads better for quantities ("add 0.3 seconds").
    add = inc


class Gauge:
    """A point-in-time value that can go up or down (occupancy, fractions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Summary statistics of an observed distribution (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, Number]:
        mean = self.total / self.count if self.count else 0
        return {"count": self.count, "sum": self.total,
                "min": self.min if self.min is not None else 0,
                "max": self.max if self.max is not None else 0,
                "mean": mean}


class MetricsRegistry:
    """Name → metric map with type checking and prefix-scoped snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """Flat ``{name: value}`` dict, sorted by name, JSON-serialisable.

        Counters and gauges map to their number; histograms map to their
        ``{count, sum, min, max, mean}`` summary.
        """
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            if prefix is not None and not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop all metrics, or only those whose name starts with ``prefix``.

        Dropping (rather than zeroing) keeps snapshots free of stale names,
        but invalidates cached metric handles — hot-path callers re-acquire
        through :meth:`counter` after a reset (the tests do this between
        cases; production flows never reset).
        """
        if prefix is None:
            self._metrics.clear()
            return
        for name in [n for n in self._metrics if n.startswith(prefix)]:
            del self._metrics[name]

    def dump_json(self, path: str) -> str:
        """Write a full snapshot as pretty-printed JSON; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


#: The process-global registry every subsystem records into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def snapshot(prefix: Optional[str] = None) -> Dict[str, object]:
    return _REGISTRY.snapshot(prefix)


def reset_metrics(prefix: Optional[str] = None) -> None:
    _REGISTRY.reset(prefix)


def dump_json(path: str) -> str:
    return _REGISTRY.dump_json(path)


def _register_exit_dump() -> None:
    """Arm the ``REPRO_METRICS`` exit dump (parent process only)."""
    from repro import config

    path = config.metrics_path()
    if not path:
        return
    owner = os.getpid()

    def _dump() -> None:
        if os.getpid() != owner:
            return      # forked child inheriting the hook: not its file
        try:
            dump_json(path)
        except OSError:
            pass        # an exit hook must never mask the real exit status

    atexit.register(_dump)


_register_exit_dump()
