"""Reference implementations: test oracles, not production paths.

Each class here has the public API of a production engine and the seed's
original, obviously-correct algorithm underneath (:func:`cell_flood` and
:func:`flatten_walk` are plain functions; the first is the oracle of
:func:`repro.pnr.router.span_flood`):

==============================  ==========================================
oracle                          production twin
==============================  ==========================================
:class:`GateLevelInterpreter`   :class:`repro.netlist.GateLevelSimulator`
:class:`RtlInterpreter`         :class:`repro.rtl.RtlSimulator`
:class:`SwitchLevelReference`   :class:`repro.netlist.SwitchLevelSimulator`
:class:`BruteDrcChecker`        :class:`repro.drc.DrcChecker`
:class:`BruteExtractor`         :class:`repro.extract.Extractor`
:class:`DijkstraMazeRouter`     :class:`repro.pnr.MazeRouter`
:func:`flatten_walk`            :func:`repro.layout.flatten_cell`
==============================  ==========================================

Every oracle but one subclasses its twin and overrides the one hook that
chooses the algorithm, so run loops, VCD export and state access exist once;
:class:`SwitchLevelReference` shares nothing with its twin but the network
data types, because the model itself is what it checks.  The differential
suites and ``bench_e11``/``bench_e13`` construct oracles from here;
production code never imports this package, and a fault in a production
engine propagates as itself rather than rerunning its oracle
(``tests/test_reference_isolation.py`` enforces the import rule).
"""

from repro.reference.gate_sim import GateLevelInterpreter
from repro.reference.geometry import BruteDrcChecker, BruteExtractor, flatten_walk
from repro.reference.maze import DijkstraMazeRouter, cell_flood
from repro.reference.rtl_sim import RtlInterpreter
from repro.reference.switch_sim import SwitchLevelReference

__all__ = [
    "BruteDrcChecker",
    "BruteExtractor",
    "DijkstraMazeRouter",
    "GateLevelInterpreter",
    "RtlInterpreter",
    "SwitchLevelReference",
    "cell_flood",
    "flatten_walk",
]
