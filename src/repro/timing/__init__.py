"""Static timing analysis.

The missing verification question after DRC ("is it manufacturable"),
extraction + simulation ("does it compute the right function") is **"how
fast can it be clocked?"** — this package answers it at every level of
the stack:

* :mod:`repro.timing.parasitics` turns extracted node geometry into RC
  estimates (layer area/fringe capacitance, sheet-resistance squares,
  gate-oxide loads);
* :mod:`repro.timing.graph` lowers timing graphs straight from the
  compiled simulation kernel's integer-indexed arrays, propagates
  arrival/required/slack over the levelized schedules, breaks sequential
  loops at registers, and enumerates the K worst paths exactly;
* :mod:`repro.timing.switch` prices extracted transistor networks with
  the ratioed-NMOS stage model and SCC loop condensation — the engine
  behind chip-level sign-off timing;
* :mod:`repro.timing.sta` wraps both in reports and maps gate-level
  paths back to RTL source statements.

The hierarchical analyzer (:class:`repro.analysis.HierAnalyzer`) caches
:class:`BlockTiming` artifacts per (cell, mutation version, orientation)
exactly like its DRC/extraction artifacts, so re-timing a chip after an
edit re-analyzes only the affected cells.
"""

from repro.rtl.ast import render_statement
from repro.timing.delay import GateDelayModel, SwitchDelayModel
from repro.timing.graph import PathStep, TimingGraph, TimingPath, timing_graph_for_module
from repro.timing.parasitics import (
    NetParasitics,
    ParasiticModel,
    annotate_parasitics,
    rc_ns,
)
from repro.timing.sta import (
    RegisterPath,
    TimingReport,
    analyze_module,
    register_paths,
)
from repro.timing.switch import BlockTiming, SwitchTimingAnalyzer

__all__ = [
    "GateDelayModel",
    "SwitchDelayModel",
    "PathStep",
    "TimingGraph",
    "TimingPath",
    "timing_graph_for_module",
    "NetParasitics",
    "ParasiticModel",
    "annotate_parasitics",
    "rc_ns",
    "RegisterPath",
    "TimingReport",
    "analyze_module",
    "register_paths",
    "render_statement",
    "BlockTiming",
    "SwitchTimingAnalyzer",
]
