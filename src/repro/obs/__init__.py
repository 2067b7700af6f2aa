"""Flow-wide observability: tracing, metrics and waveform export.

Three pillars, one package:

* :mod:`repro.obs.trace` — nested context-manager spans across every
  subsystem (DRC/extract/ERC, hier artifact builds, PnR escalation,
  compiled-sim settle, STA, store get/put), exported as Chrome trace-event
  JSON (``REPRO_TRACE=<path>``) viewable in Perfetto;
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges and histograms with stable dotted names (store recoveries by STO
  code, store hits/misses, rip-up counts, settle iterations, ...),
  snapshotted onto ``SignOffReport.flow_metrics`` and dumpable as JSON
  (``REPRO_METRICS=<path>``);
* :mod:`repro.obs.vcd` — a streaming, GTKWave-compatible
  :class:`~repro.obs.vcd.VcdWriter` for the two/three-valued simulators,
  plus the minimal reader the golden-trace tests use.

``python -m repro.obs <files...>`` validates trace JSON and VCD files with
the in-repo readers (used by CI on the artifacts the examples emit).
"""

from repro.obs import metrics, trace, vcd
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               counter, gauge, histogram, registry,
                               reset_metrics, snapshot)
from repro.obs.trace import read_trace, span
from repro.obs.vcd import VcdTrace, VcdWriter, parse_vcd, read_vcd, trace_to_vcd

__all__ = [
    "metrics",
    "trace",
    "vcd",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "reset_metrics",
    "snapshot",
    "span",
    "read_trace",
    "VcdTrace",
    "VcdWriter",
    "parse_vcd",
    "read_vcd",
    "trace_to_vcd",
]
