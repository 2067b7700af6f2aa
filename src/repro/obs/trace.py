"""Structured tracing: nested spans exported as Chrome trace-event JSON.

Every long-running stage of the flow opens a :func:`span` around its work::

    from repro.obs import trace

    with trace.span("hier.drc", cat="drc", cell=cell.name):
        ...

When tracing is disabled (the default) ``span()`` returns one shared no-op
context manager — the per-call cost is a module-global check plus a
constant return, so instrumented hot paths stay effectively free.  When
enabled (``REPRO_TRACE=<path>`` or :func:`enable`), each span records one
Chrome *complete* event (``"ph": "X"``) with epoch-microsecond start time,
duration, pid, tid and its keyword attributes.

The buffer is process-local; timestamps are epoch-based so traces written
by separate processes share one clock.

While tracing is armed a ``gc.callbacks`` hook records every run of the
cyclic collector as a ``runtime.gc`` complete event (category ``runtime``)
and accumulates ``runtime.gc.gen{0,1,2}.collections`` and
``runtime.gc.pause_s`` in the metrics registry — collector time would
otherwise hide inside whichever span it happened to interrupt.  Nothing is
installed while tracing is disabled.

:func:`write` emits ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` —
the JSON object form of the trace-event format — which loads directly in
Perfetto (ui.perfetto.dev) or ``chrome://tracing``.  With ``REPRO_TRACE``
set, the file is written automatically at process exit.  :func:`read_trace`
is the matching in-repo reader/validator used by tests and CI.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import metrics

__all__ = [
    "span",
    "instant",
    "enabled",
    "enable",
    "disable",
    "reset",
    "drain",
    "write",
    "read_trace",
]

#: Chrome trace events require numeric thread ids; Python thread idents can
#: exceed what the viewers render comfortably, so they are folded to 32 bits.
_TID_MASK = 0xFFFFFFFF

_ENABLED = False
_PATH: Optional[str] = None
_OWNER_PID: Optional[int] = None
_EVENTS: List[dict] = []


class _NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL = _NullSpan()


class _Span:
    """One live span; records a complete event when the block exits."""

    __slots__ = ("name", "cat", "args", "_start")

    def __init__(self, name: str, cat: str, args: dict):
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (counts, outcomes)."""
        self.args.update(attrs)

    def __enter__(self) -> "_Span":
        self._start = time.time_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.time_ns()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        _EVENTS.append({
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self._start // 1000,
            "dur": max((end - self._start) // 1000, 0),
            "pid": os.getpid(),
            "tid": threading.get_ident() & _TID_MASK,
            "args": self.args,
        })
        return False


def span(name: str, cat: str = "flow", **args):
    """A context manager timing one stage; no-op while tracing is disabled."""
    if not _ENABLED:
        return _NULL
    return _Span(name, cat, args)


def instant(name: str, cat: str = "flow", **args) -> None:
    """Record a zero-duration marker event (``"ph": "i"``)."""
    if not _ENABLED:
        return
    _EVENTS.append({
        "name": name, "cat": cat, "ph": "i", "s": "p",
        "ts": time.time_ns() // 1000,
        "pid": os.getpid(),
        "tid": threading.get_ident() & _TID_MASK,
        "args": args,
    })


_GC_STARTED = 0


def _on_gc(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` hook: one event and two counters per collection."""
    global _GC_STARTED
    if phase == "start":
        _GC_STARTED = time.time_ns()
        return
    elapsed = time.time_ns() - _GC_STARTED
    metrics.counter(f"runtime.gc.gen{info['generation']}.collections").inc()
    metrics.counter("runtime.gc.pause_s").add(elapsed / 1e9)
    _EVENTS.append({
        "name": "runtime.gc", "cat": "runtime", "ph": "X",
        "ts": _GC_STARTED // 1000, "dur": elapsed // 1000,
        "pid": os.getpid(),
        "tid": threading.get_ident() & _TID_MASK,
        "args": {"generation": info["generation"],
                 "collected": info["collected"]},
    })


def enabled() -> bool:
    return _ENABLED


def enable(path: Optional[str] = None) -> None:
    """Turn span recording on; ``path`` arms the exit-time :func:`write`."""
    global _ENABLED, _PATH, _OWNER_PID
    _ENABLED = True
    if path is not None:
        _PATH = path
    _OWNER_PID = os.getpid()
    if _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)


def disable() -> None:
    global _ENABLED
    _ENABLED = False
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)


def reset() -> None:
    """Drop all buffered events (does not change enablement)."""
    _EVENTS.clear()


def drain() -> List[dict]:
    """Remove and return all buffered events."""
    events = _EVENTS[:]
    _EVENTS.clear()
    return events


def write(path: Optional[str] = None) -> str:
    """Write the buffered events as a Chrome trace JSON file.

    Adds ``process_name`` metadata events so Perfetto labels each pid.  The
    buffer is left intact (callers may keep tracing).
    """
    target = path or _PATH
    if target is None:
        raise ValueError("no trace path: pass one or enable(path=...)")
    pids = sorted({event["pid"] for event in _EVENTS})
    metadata = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "repro"},
    } for pid in pids]
    document = {"traceEvents": metadata + _EVENTS, "displayTimeUnit": "ms"}
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return target


# -- the in-repo reader/validator ---------------------------------------------


_REQUIRED_COMPLETE = ("name", "cat", "ts", "dur", "pid", "tid")


def validate_events(events: List[dict]) -> Tuple[Set[str], Set[int]]:
    """Schema-check a list of trace events; returns (categories, pids).

    Raises ``ValueError`` naming the first malformed event.  Checks the
    subset of the trace-event format this module emits: complete events
    carry name/cat/ts/dur/pid/tid with the right types, metadata and
    instant events are structurally sound.
    """
    categories: Set[str] = set()
    pids: Set[int] = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        phase = event.get("ph")
        if phase == "M":
            if not isinstance(event.get("name"), str):
                raise ValueError(f"metadata event {index} has no name")
            continue
        if phase not in ("X", "i"):
            raise ValueError(f"event {index} has unsupported phase {phase!r}")
        for key in _REQUIRED_COMPLETE:
            if phase == "i" and key == "dur":
                continue
            if key not in event:
                raise ValueError(f"event {index} missing {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise ValueError(f"event {index} has a bad name")
        if not isinstance(event["cat"], str) or not event["cat"]:
            raise ValueError(f"event {index} has a bad category")
        for key in ("ts", "pid", "tid") + (("dur",) if phase == "X" else ()):
            if not isinstance(event[key], int) or event[key] < 0:
                raise ValueError(f"event {index} has a bad {key!r}")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"event {index} has non-object args")
        categories.add(event["cat"])
        pids.add(event["pid"])
    return categories, pids


def read_trace(path: str) -> Dict[str, object]:
    """Load and validate a trace file written by :func:`write`.

    Returns ``{"events": [...], "categories": set, "pids": set}`` with
    metadata events filtered out of ``events``.  Raises ``ValueError`` on
    any structural problem, so tests and CI can use it as the oracle.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a trace-event JSON object")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    categories, pids = validate_events(events)
    return {"events": [e for e in events if e.get("ph") != "M"],
            "categories": categories, "pids": pids}


def _auto_enable() -> None:
    """Arm tracing (and the exit-time write) from ``REPRO_TRACE``."""
    from repro import config

    path = config.trace_path()
    if path:
        enable(path)


def _exit_write() -> None:
    if (_ENABLED and _PATH is not None and _EVENTS
            and os.getpid() == _OWNER_PID):
        try:
            write()
        except OSError:
            pass        # an exit hook must never mask the real exit status


_auto_enable()
atexit.register(_exit_write)
