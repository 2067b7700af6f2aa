"""Centralized environment-knob parsing for the whole toolchain.

Every behavioural environment variable the toolchain reads is parsed and
validated here, once, so the knobs cannot drift between subsystems (the
diagnostics layer and the artifact store used to parse their own copies).
The full table:

===================== ============ ===================================================
Variable              Default      Meaning
===================== ============ ===================================================
``REPRO_STRICT``      off          ``1`` (any non-``0`` value) makes the artifact
                                   store's STO corruption recoveries fatal, so CI
                                   surfaces a bad blob or a failed write instead
                                   of hiding it behind recomputation.
``REPRO_STORE``       unset        Directory of the persistent content-addressed
                                   artifact store (:mod:`repro.store`).  When set,
                                   every :class:`~repro.analysis.HierAnalyzer`
                                   layers a durable :class:`~repro.store.DiskStore`
                                   under its in-memory cache, so analysis warm
                                   starts survive process restarts.
``REPRO_TRACE``       unset        Path of a Chrome trace-event JSON file.  When
                                   set, :mod:`repro.obs.trace` records spans for
                                   every flow stage (analysis passes, PnR
                                   escalation, sim settle, store traffic) and
                                   writes the trace there at process exit; open
                                   it in Perfetto.  Unset, tracing is off and the
                                   instrumentation is a no-op.
``REPRO_METRICS``     unset        Path of a JSON file receiving a final
                                   :mod:`repro.obs.metrics` registry snapshot
                                   (fallback/diagnostic counts, store and PnR
                                   counters, phase timings) at process exit.
===================== ============ ===================================================

Parsing raises ``ValueError`` on malformed values (a typo'd knob silently
not persisting is exactly the kind of configuration bug this module exists
to catch).
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "strict_mode",
    "store_dir",
    "trace_path",
    "metrics_path",
]

def strict_mode() -> bool:
    """True when ``REPRO_STRICT`` is set (CI): store recoveries become fatal."""
    return os.environ.get("REPRO_STRICT", "") not in ("", "0")


def store_dir() -> Optional[str]:
    """The persistent artifact store directory from ``REPRO_STORE``.

    ``None`` when unset or empty (analysis caches stay purely in-memory).
    The directory is created on first use by the store itself; here the
    value is only validated to be a plausible path (an existing *file* at
    the location is a configuration error worth failing loudly on).
    """
    raw = os.environ.get("REPRO_STORE", "").strip()
    if not raw:
        return None
    if os.path.exists(raw) and not os.path.isdir(raw):
        raise ValueError(
            f"REPRO_STORE points at a non-directory: {raw!r}")
    return raw


def _output_path(variable: str) -> Optional[str]:
    """A writable-file knob: ``None`` when unset, a directory is an error."""
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return None
    if os.path.isdir(raw):
        raise ValueError(f"{variable} points at a directory: {raw!r}")
    return raw


def trace_path() -> Optional[str]:
    """Chrome trace-event output path from ``REPRO_TRACE``.

    When set, :mod:`repro.obs.trace` enables span recording at import and
    writes the trace there at process exit; ``None`` disables tracing.
    """
    return _output_path("REPRO_TRACE")


def metrics_path() -> Optional[str]:
    """Metrics snapshot output path from ``REPRO_METRICS``.

    When set, :mod:`repro.obs.metrics` dumps a final registry snapshot as
    JSON there at process exit; ``None`` disables the dump.
    """
    return _output_path("REPRO_METRICS")
