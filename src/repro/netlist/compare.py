"""Netlist comparison (the LVS step).

Three comparisons are provided:

* :func:`compare_netlists` — structural comparison of two gate-level
  modules: same port signature, same gate census and a greedy
  signature-refinement isomorphism check of the connection graph;
* :func:`compare_netlists` with ``functional=True`` — bit-parallel
  *functional* equivalence: instead of demanding the same gates, it proves
  the two modules compute the same outputs, exhaustively over all input
  patterns when the input count permits (one levelized pass evaluates
  every pattern at once via packed bitplanes) and by seeded random
  stimulus above that; sequential modules are co-simulated from reset over
  many independent stimulus streams in parallel;
* :func:`compare_switch_networks` — transistor-level comparison used to
  check an extracted network against a reference (device census per kind
  and per-node degree signatures).

All return a :class:`ComparisonResult` carrying human-readable mismatch
diagnostics rather than just a boolean, because the interesting output of an
LVS run is *why* the descriptions disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import or_, xor
from typing import Callable, Dict, List, Optional, Tuple

from repro.diagnostics import BudgetExceeded
from repro.netlist.module import Module
from repro.netlist.switch_sim import SwitchNetwork


@dataclass
class ComparisonResult:
    """Outcome of a netlist comparison."""

    matches: bool
    mismatches: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.matches

    def explain(self) -> str:
        if self.matches:
            return "netlists match"
        return "netlists differ:\n  " + "\n  ".join(self.mismatches)


def compare_netlists(golden: Module, candidate: Module,
                     functional: bool = False,
                     exhaustive_limit: int = 12,
                     stimulus_vectors: int = 64,
                     stimulus_cycles: int = 64,
                     seed: int = 0) -> ComparisonResult:
    """Compare two gate-level modules.

    Structurally by default; with ``functional=True`` the gate census and
    connection-graph checks are replaced by a functional equivalence sweep
    (an RTL-compiled netlist and a hand reference are then allowed to use
    entirely different gates as long as they compute the same function).
    """
    golden_flat = golden.flattened()
    candidate_flat = candidate.flattened()
    mismatches: List[str] = []

    golden_inputs = sorted(golden_flat.input_names())
    candidate_inputs = sorted(candidate_flat.input_names())
    if golden_inputs != candidate_inputs:
        mismatches.append(f"input ports differ: {golden_inputs} vs {candidate_inputs}")
    golden_outputs = sorted(golden_flat.output_names())
    candidate_outputs = sorted(candidate_flat.output_names())
    if golden_outputs != candidate_outputs:
        mismatches.append(f"output ports differ: {golden_outputs} vs {candidate_outputs}")

    if functional:
        if not mismatches:
            mismatches.extend(_functional_mismatches(
                golden_flat, candidate_flat, golden_inputs, golden_outputs,
                exhaustive_limit, stimulus_vectors, stimulus_cycles, seed,
            ))
        return ComparisonResult(not mismatches, mismatches)

    golden_census = golden_flat.count_by_type()
    candidate_census = candidate_flat.count_by_type()
    if golden_census != candidate_census:
        mismatches.append(f"gate census differs: {golden_census} vs {candidate_census}")

    if not mismatches:
        if not _signatures_match(golden_flat, candidate_flat):
            mismatches.append("connection graph signatures differ")

    return ComparisonResult(not mismatches, mismatches)


# -- functional equivalence ------------------------------------------------------------


def _functional_mismatches(golden_flat: Module, candidate_flat: Module,
                           inputs: List[str], outputs: List[str],
                           exhaustive_limit: int, stimulus_vectors: int,
                           stimulus_cycles: int, seed: int) -> List[str]:
    from repro.sim import BitplaneEvaluator, compile_netlist, \
        exhaustive_input_planes, run_streams
    from repro.sim.kernel import OP_LATCH

    golden_compiled = compile_netlist(golden_flat)
    candidate_compiled = compile_netlist(candidate_flat)
    # Latches hold state just like flip-flops, and so do cyclic netlists
    # (cross-coupled gates): a single combinational pass cannot distinguish
    # "holds the previous value" from X, so any stateful module must take
    # the co-simulation path for the verdict to be sound.
    sequential = bool(
        golden_compiled.dffs or candidate_compiled.dffs
        or OP_LATCH in golden_compiled.gate_ops
        or OP_LATCH in candidate_compiled.gate_ops
        or golden_compiled.is_cyclic or candidate_compiled.is_cyclic
    )

    if sequential:
        rng = random.Random(seed)
        stimulus = [
            [{name: rng.getrandbits(1) for name in inputs}
             for _cycle in range(stimulus_cycles)]
            for _stream in range(stimulus_vectors)
        ]
        try:
            golden_traces = run_streams(golden_compiled, stimulus,
                                        record=outputs, reset_value=0)
            candidate_traces = run_streams(candidate_compiled, stimulus,
                                           record=outputs, reset_value=0)
        except BudgetExceeded as error:
            # An oscillating (typically cross-coupled) netlist has no
            # settled value to compare; refuse to call that equivalent.
            return [
                f"functional check inconclusive: {error} under random "
                f"stimulus (seed {seed}); not provably equivalent"
            ]
        if not golden_traces:
            return []
        # Compare the recorded planes, all streams of a cycle at once; a
        # mismatch is reported at its lowest stream, then that stream's
        # first differing cycle, then the first differing output.
        golden = golden_traces[0].planes
        candidate = candidate_traces[0].planes
        differing = [
            (cycle, reduce(or_, map(xor, g_hi + g_lo, c_hi + c_lo)))
            for cycle, (g_hi, g_lo, c_hi, c_lo) in enumerate(zip(
                golden.hi, golden.lo, candidate.hi, candidate.lo))
            if g_hi != c_hi or g_lo != c_lo
        ]
        if not differing:
            return []
        streams = reduce(or_, (bits for _cycle, bits in differing))
        stream = (streams & -streams).bit_length() - 1
        cycle = next(cycle for cycle, bits in differing if bits >> stream & 1)

        def value(planes, k: int) -> Optional[int]:
            if planes.hi[cycle][k] >> stream & 1:
                return 1
            if planes.lo[cycle][k] >> stream & 1:
                return 0
            return None

        # A net's hi and lo planes never share a bit, so differing planes
        # are a differing value.
        name, got, expected = next(
            (name, value(candidate, k), value(golden, k))
            for k, name in enumerate(outputs)
            if value(candidate, k) != value(golden, k))
        return [
            "functional mismatch: output "
            f"{name!r} = {got} vs {expected} "
            f"at cycle {cycle} of random stimulus stream {stream} "
            f"(seed {seed}, {stimulus_vectors} parallel streams from reset)"
        ]

    num_inputs = len(inputs)
    if num_inputs <= exhaustive_limit:
        width = 1 << num_inputs
        planes = exhaustive_input_planes(num_inputs)
        described = f"exhaustive over all {width} input patterns"
    else:
        width = stimulus_vectors
        mask = (1 << width) - 1
        rng = random.Random(seed)
        planes = []
        for _name in inputs:
            hi_plane = rng.getrandbits(width) & mask
            planes.append((hi_plane, mask ^ hi_plane))
        described = f"{width} random input patterns (seed {seed})"

    golden_eval = BitplaneEvaluator(golden_compiled, width)
    candidate_eval = BitplaneEvaluator(candidate_compiled, width)
    for name, (hi_plane, lo_plane) in zip(inputs, planes):
        golden_eval.set_input_planes(name, hi_plane, lo_plane)
        candidate_eval.set_input_planes(name, hi_plane, lo_plane)
    golden_eval.evaluate()
    candidate_eval.evaluate()

    for name in outputs:
        golden_hi, golden_lo = golden_eval.get_planes(name)
        candidate_hi, candidate_lo = candidate_eval.get_planes(name)
        diff = (golden_hi ^ candidate_hi) | (golden_lo ^ candidate_lo)
        if not diff:
            continue
        vector = (diff & -diff).bit_length() - 1
        assignment = {
            input_name: (planes[i][0] >> vector) & 1
            for i, input_name in enumerate(inputs)
        }
        def _decode(hi_plane: int, lo_plane: int) -> object:
            if (hi_plane >> vector) & 1:
                return 1
            if (lo_plane >> vector) & 1:
                return 0
            return "X"
        return [
            f"functional mismatch: output {name!r} = "
            f"{_decode(candidate_hi, candidate_lo)} vs "
            f"{_decode(golden_hi, golden_lo)} for inputs {assignment} "
            f"({described})"
        ]
    return []


# -- structural signatures -------------------------------------------------------------


def _net_signatures(module: Module) -> Dict[str, Tuple]:
    """A refinement signature per net: how it is used by gates of each type."""
    signature: Dict[str, List[Tuple[str, str]]] = {name: [] for name in module.nets}
    for instance in module.instances:
        kind = instance.kind_name
        for port, net in instance.connections.items():
            role = "out" if port == "out" else "in"
            signature.setdefault(net, []).append((kind, role))
    result: Dict[str, Tuple] = {}
    for name, uses in signature.items():
        net = module.nets.get(name)
        # Ports are anchored by NAME: an LVS-style comparison must map input
        # "a" to input "a", so a design with two inputs swapped is different
        # even though the unlabelled graphs are isomorphic.
        if net is not None and (net.is_input or net.is_output):
            io_flag = ("port", name)
        else:
            io_flag = ("internal", "")
        result[name] = (io_flag, tuple(sorted(uses)))
    return result


def _signatures_match(golden: Module, candidate: Module, rounds: int = 4) -> bool:
    """Iteratively refined multiset comparison of net signatures.

    This is a necessary (not strictly sufficient) isomorphism test, which in
    practice distinguishes all the netlists this toolchain produces; the
    refinement incorporates neighbour signatures so swapped connections are
    detected.

    Signatures are interned to integer ids shared between both modules, so
    each refinement round appends and sorts small ints instead of building
    (previously ``repr``-keyed) nested tuples whose size doubled per round.
    """
    interner: Dict[Tuple, int] = {}

    def intern(value: Tuple) -> int:
        sig_id = interner.get(value)
        if sig_id is None:
            sig_id = len(interner)
            interner[value] = sig_id
        return sig_id

    golden_ids = {name: intern(sig)
                  for name, sig in _net_signatures(golden).items()}
    candidate_ids = {name: intern(sig)
                     for name, sig in _net_signatures(candidate).items()}

    for _ in range(rounds):
        if sorted(golden_ids.values()) != sorted(candidate_ids.values()):
            return False
        golden_ids = _refine(golden, golden_ids, intern)
        candidate_ids = _refine(candidate, candidate_ids, intern)
    return sorted(golden_ids.values()) == sorted(candidate_ids.values())


_MISSING_SIGNATURE = ("missing",)


def _refine(module: Module, signature: Dict[str, int],
            intern: Callable[[Tuple], int]) -> Dict[str, int]:
    missing = intern(_MISSING_SIGNATURE)
    neighbour: Dict[str, List[int]] = {name: [] for name in signature}
    for instance in module.instances:
        nets = list(instance.connections.values())
        for net in nets:
            bucket = neighbour.setdefault(net, [])
            for other in nets:
                if other != net:
                    bucket.append(signature.get(other, missing))
    return {
        name: intern((base, tuple(sorted(neighbour.get(name, [])))))
        for name, base in signature.items()
    }


def compare_switch_networks(golden: SwitchNetwork, candidate: SwitchNetwork) -> ComparisonResult:
    """Compare two transistor networks (extracted vs reference)."""
    mismatches: List[str] = []
    golden_census = _device_census(golden)
    candidate_census = _device_census(candidate)
    if golden_census != candidate_census:
        mismatches.append(f"device census differs: {golden_census} vs {candidate_census}")

    golden_degrees = _node_degree_multiset(golden)
    candidate_degrees = _node_degree_multiset(candidate)
    if golden_degrees != candidate_degrees:
        mismatches.append("node connectivity signatures differ")
    return ComparisonResult(not mismatches, mismatches)


def _device_census(network: SwitchNetwork) -> Dict[str, int]:
    census: Dict[str, int] = {}
    for device in network.transistors:
        census[device.kind.value] = census.get(device.kind.value, 0) + 1
    return census


def _node_degree_multiset(network: SwitchNetwork) -> List[Tuple[int, int, int]]:
    gate_degree: Dict[str, int] = {}
    channel_degree: Dict[str, int] = {}
    supply_degree: Dict[str, int] = {}
    for device in network.transistors:
        gate_degree[device.gate] = gate_degree.get(device.gate, 0) + 1
        for node in (device.source, device.drain):
            channel_degree[node] = channel_degree.get(node, 0) + 1
            if node in ("vdd", "gnd"):
                supply_degree[node] = supply_degree.get(node, 0) + 1
    nodes = set(gate_degree) | set(channel_degree)
    return sorted(
        (gate_degree.get(node, 0), channel_degree.get(node, 0),
         1 if node in ("vdd", "gnd") else 0)
        for node in nodes
    )
