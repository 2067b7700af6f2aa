"""Compiled simulation kernel.

Lowers flattened structural netlists to integer-indexed arrays with
precomputed fanout and topologically levelized schedules
(:mod:`repro.sim.kernel`), and evaluates them either scalar-exact
(:class:`ScalarEngine`, the engine behind ``GateLevelSimulator``) or
bit-parallel over packed vector planes (:mod:`repro.sim.bitplane`, the
engine behind functional equivalence checking and stream co-simulation).
"""

from repro.sim.kernel import CompiledNetlist, ScalarEngine, compile_netlist
from repro.sim.bitplane import (
    BitplaneEvaluator,
    StreamTrace,
    evaluate_vectors,
    exhaustive_input_planes,
    run_streams,
)

__all__ = [
    "CompiledNetlist",
    "ScalarEngine",
    "compile_netlist",
    "BitplaneEvaluator",
    "StreamTrace",
    "evaluate_vectors",
    "exhaustive_input_planes",
    "run_streams",
]
