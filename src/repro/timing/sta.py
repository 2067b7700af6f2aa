"""Gate-level STA reports and RTL source mapping.

:func:`analyze_module` is the front door for structural netlists: lower
once through :class:`~repro.sim.kernel.CompiledNetlist`, price the arcs,
propagate, and wrap the results in a :class:`TimingReport` with the K
worst paths and a slack view against any clock.

:func:`register_paths` closes the loop to the behavioural level: the RTL
compiler names every flip-flop ``dff_<register>_<bit>`` and every port
bit ``<signal>_<bit>``, so a gate-level path's launch and capture points
map straight back to the RTL signals — and, through the compiler's
writer records, to the source statements that created the logic on the
path.  That is the answer to "which line of the machine description is my
critical path?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netlist.module import Module
from repro.rtl.ast import render_statement
from repro.rtl.compiler import CompiledMachine
from repro.sim.kernel import compile_netlist
from repro.timing.delay import GateDelayModel
from repro.timing.graph import TimingGraph, TimingPath


@dataclass
class TimingReport:
    """Arrival/slack summary of one gate-level netlist."""

    name: str
    worst_delay_ns: float
    paths: List[TimingPath] = field(default_factory=list)
    endpoint_arrivals: Dict[str, float] = field(default_factory=dict)
    is_cyclic: bool = False

    @property
    def critical_path(self) -> Optional[TimingPath]:
        return self.paths[0] if self.paths else None

    @property
    def max_frequency_mhz(self) -> float:
        if self.worst_delay_ns <= 0.0:
            return 0.0
        return 1000.0 / self.worst_delay_ns

    def slacks_ns(self, clock_ns: Optional[float] = None) -> Dict[str, float]:
        period = self.worst_delay_ns if clock_ns is None else clock_ns
        return {name: period - arrival
                for name, arrival in self.endpoint_arrivals.items()}

    def meets(self, clock_ns: float) -> bool:
        return self.worst_delay_ns <= clock_ns


def analyze_module(module: Module, technology=None, k_paths: int = 5,
                   net_caps_ff: Optional[Dict[str, float]] = None
                   ) -> TimingReport:
    """Full STA of a structural module (flattened and lowered once)."""
    compiled = compile_netlist(module)
    graph = TimingGraph(compiled, delay_model=GateDelayModel(technology),
                        net_caps_ff=net_caps_ff)
    return TimingReport(
        name=module.name,
        worst_delay_ns=graph.worst_delay_ns(),
        paths=graph.worst_paths(k_paths),
        endpoint_arrivals=graph.endpoint_arrivals(),
        is_cyclic=graph.is_cyclic,
    )


# -- RTL source mapping -------------------------------------------------------


@dataclass
class RegisterPath:
    """One register-to-register (or port-to-register) timing path, mapped
    back to the behavioural description."""

    start_signal: str          # RTL register/input the path launches from
    end_signal: str            # RTL register/output the path is captured by
    delay_ns: float
    path: TimingPath
    statements: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"{self.start_signal} -> {self.end_signal}: "
                 f"{self.delay_ns:.2f} ns"]
        for statement in self.statements:
            lines.append(f"    {statement}")
        return "\n".join(lines)


def _rtl_signal_of_net(net: str, machine) -> str:
    """Map a compiler-generated bit net back to its RTL signal name."""
    base, _, suffix = net.rpartition("_")
    if base and suffix.isdigit():
        name = base
        if name in machine.declarations:
            return name
        # Memory words are flattened as ``mem@word`` before the bit suffix.
        word_base, _, _word = name.rpartition("@")
        if word_base and word_base in machine.declarations:
            return word_base
    return net


def _rtl_signal_of_dff(instance_name: str, machine) -> Optional[str]:
    """Map a ``dff_<register>_<bit>`` instance back to its register."""
    if not instance_name.startswith("dff_"):
        return None
    rest = instance_name[len("dff_"):]
    base, _, suffix = rest.rpartition("_")
    if base and suffix.isdigit():
        for candidate in (base, base.replace("_", "@", 1)):
            if candidate in machine.declarations:
                return candidate
        # Memory words: dff_mem_word_bit (the @ was replaced with _).
        word_base, _, word = base.rpartition("_")
        if word_base and word.isdigit() and word_base in machine.declarations:
            return word_base
    return None


def register_paths(compiled_machine: CompiledMachine, technology=None,
                   k_paths: int = 5) -> List[RegisterPath]:
    """The K worst paths of a compiled machine, in RTL terms.

    Launch and capture nets are folded to their RTL signal names, and each
    path carries the rendered source statements that assign its capture
    register (from the compiler's writer records), so a slow machine can be
    traced to the transfers that caused it.
    """
    machine = compiled_machine.machine
    module = compiled_machine.module
    compiled = compile_netlist(module)
    graph = TimingGraph(compiled, delay_model=GateDelayModel(technology))
    dff_of_d_net: Dict[str, str] = {}
    for name, d_id, _q_id in compiled.dffs:
        if d_id != compiled.x_slot:
            dff_of_d_net[compiled.net_names[d_id]] = name

    results: List[RegisterPath] = []
    for path in graph.worst_paths(k_paths):
        start = _rtl_signal_of_net(path.start, machine)
        dff = dff_of_d_net.get(path.end)
        if dff is not None:
            end = _rtl_signal_of_dff(dff, machine) or path.end
        else:
            end = _rtl_signal_of_net(path.end, machine)
        statements = [render_statement(s) for s in
                      compiled_machine.register_writers.get(end, [])]
        results.append(RegisterPath(start, end, path.delay_ns, path,
                                    statements))
    return results

