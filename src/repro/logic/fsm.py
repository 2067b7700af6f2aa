"""Finite-state machines and their encoding into PLA personalities.

A synchronous Moore/Mealy FSM is the behavioural description of a control
unit.  ``encode_fsm`` turns the symbolic machine into a :class:`Cover`
relating present-state bits and primary inputs to next-state bits and
primary outputs — exactly the personality of the PLA + state register
structure the FSM generator lays out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import Diagnostic, Severity
from repro.logic.cube import Cover, Cube


class StateEncoding(Enum):
    """Supported state-assignment strategies (an ablation axis in E2/E4)."""

    BINARY = "binary"
    GRAY = "gray"
    ONE_HOT = "one_hot"


@dataclass(frozen=True)
class State:
    """A symbolic FSM state with optional Moore outputs."""

    name: str
    moore_outputs: Tuple[Tuple[str, int], ...] = ()

    def moore_dict(self) -> Dict[str, int]:
        return dict(self.moore_outputs)


@dataclass(frozen=True)
class Transition:
    """An edge: from a state, under an input condition, to a next state.

    ``condition`` maps input names to required values; inputs not mentioned
    are don't-cares.  ``mealy_outputs`` are asserted when the edge is taken.
    """

    source: str
    target: str
    condition: Tuple[Tuple[str, int], ...] = ()
    mealy_outputs: Tuple[Tuple[str, int], ...] = ()

    def condition_dict(self) -> Dict[str, int]:
        return dict(self.condition)

    def mealy_dict(self) -> Dict[str, int]:
        return dict(self.mealy_outputs)


class FSM:
    """A symbolic finite-state machine."""

    def __init__(self, name: str, inputs: Sequence[str] = (), outputs: Sequence[str] = ()):
        self.name = name
        self.inputs: List[str] = list(inputs)
        self.outputs: List[str] = list(outputs)
        self.states: Dict[str, State] = {}
        self.transitions: List[Transition] = []
        self.reset_state: Optional[str] = None

    # -- construction ------------------------------------------------------------

    def add_state(self, name: str, moore_outputs: Optional[Dict[str, int]] = None,
                  reset: bool = False) -> State:
        if name in self.states:
            raise ValueError(f"duplicate state {name!r}")
        outputs = tuple(sorted((moore_outputs or {}).items()))
        for output_name, _ in outputs:
            if output_name not in self.outputs:
                raise ValueError(f"unknown output {output_name!r} in state {name!r}")
        state = State(name, outputs)
        self.states[name] = state
        if reset or self.reset_state is None:
            self.reset_state = name if reset or self.reset_state is None else self.reset_state
        return state

    def add_transition(self, source: str, target: str,
                       condition: Optional[Dict[str, int]] = None,
                       mealy_outputs: Optional[Dict[str, int]] = None) -> Transition:
        if source not in self.states:
            raise KeyError(f"unknown source state {source!r}")
        if target not in self.states:
            raise KeyError(f"unknown target state {target!r}")
        for name in (condition or {}):
            if name not in self.inputs:
                raise ValueError(f"unknown input {name!r} in transition condition")
        for name in (mealy_outputs or {}):
            if name not in self.outputs:
                raise ValueError(f"unknown output {name!r} in transition outputs")
        transition = Transition(
            source,
            target,
            tuple(sorted((condition or {}).items())),
            tuple(sorted((mealy_outputs or {}).items())),
        )
        self.transitions.append(transition)
        return transition

    # -- queries -------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state_names(self) -> List[str]:
        return list(self.states)

    def transitions_from(self, state_name: str) -> List[Transition]:
        return [t for t in self.transitions if t.source == state_name]

    def validate(self) -> List[Diagnostic]:
        """Problems of the machine: ``FSM001`` no reset state, ``FSM002`` an
        unreachable state (errors, :func:`encode_fsm` refuses), ``FSM003``
        overlapping transition conditions (a warning)."""
        problems: List[Tuple[Severity, str, str]] = []
        if self.reset_state is None:
            problems.append((Severity.ERROR, "FSM001", "no reset state defined"))
        reachable: Set[str] = set()
        if self.reset_state is not None:
            frontier = [self.reset_state]
            while frontier:
                current = frontier.pop()
                if current in reachable:
                    continue
                reachable.add(current)
                frontier.extend(t.target for t in self.transitions_from(current))
            for name in self.states:
                if name not in reachable:
                    problems.append((Severity.ERROR, "FSM002",
                                     f"state {name!r} unreachable from reset"))
        for state_name in self.states:
            conditions = [t.condition_dict() for t in self.transitions_from(state_name)]
            if _conditions_overlap(conditions, self.inputs):
                problems.append((Severity.WARNING, "FSM003",
                                 f"state {state_name!r} has overlapping transition conditions"))
        return [Diagnostic(*problem, source="fsm") for problem in problems]

    def simulate(self, input_sequence: Iterable[Dict[str, int]],
                 encoding: Optional["EncodedFSM"] = None) -> List[Dict[str, int]]:
        """Symbolically simulate the machine; returns the output trace.

        The trace contains, per cycle, the asserted outputs (Moore outputs of
        the state occupied during the cycle, plus Mealy outputs of the taken
        edge) and the name of the next state under ``"__state__"``.
        """
        if self.reset_state is None:
            raise ValueError("cannot simulate an FSM without a reset state")
        current = self.reset_state
        trace: List[Dict[str, int]] = []
        for inputs in input_sequence:
            outputs = {name: 0 for name in self.outputs}
            outputs.update(self.states[current].moore_dict())
            next_state = current
            for transition in self.transitions_from(current):
                if _condition_matches(transition.condition_dict(), inputs):
                    next_state = transition.target
                    outputs.update(transition.mealy_dict())
                    break
            record = dict(outputs)
            record["__state__"] = next_state
            trace.append(record)
            current = next_state
        return trace


def _condition_matches(condition: Dict[str, int], inputs: Dict[str, int]) -> bool:
    for name, value in condition.items():
        if inputs.get(name, 0) != value:
            return False
    return True


def _conditions_overlap(conditions: List[Dict[str, int]], inputs: List[str]) -> bool:
    """Check whether two distinct fully-specified conditions can both match."""
    for i in range(len(conditions)):
        for j in range(i + 1, len(conditions)):
            if _compatible(conditions[i], conditions[j]):
                return True
    return False


def _compatible(a: Dict[str, int], b: Dict[str, int]) -> bool:
    for name, value in a.items():
        if name in b and b[name] != value:
            return False
    return True


@dataclass
class EncodedFSM:
    """The result of state assignment: codes plus the PLA personality."""

    fsm: FSM
    encoding: StateEncoding
    state_codes: Dict[str, str]
    state_bits: List[str]
    cover: Cover

    @property
    def num_state_bits(self) -> int:
        return len(self.state_bits)


def encode_fsm(fsm: FSM, encoding: StateEncoding = StateEncoding.BINARY) -> EncodedFSM:
    """Assign state codes and derive the next-state/output PLA personality."""
    errors = [d for d in fsm.validate() if Severity.ERROR <= d.severity]
    if errors:
        raise ValueError("FSM is not well formed: "
                         + "; ".join(d.message for d in errors))
    state_names = fsm.state_names()
    codes = _assign_codes(state_names, fsm.reset_state, encoding)
    num_bits = len(next(iter(codes.values()))) if codes else 0
    state_bits = [f"{fsm.name}_s{i}" for i in range(num_bits)]

    input_names = state_bits + list(fsm.inputs)
    next_bits = [f"{fsm.name}_n{i}" for i in range(num_bits)]
    output_names = next_bits + list(fsm.outputs)
    cover = Cover(input_names, output_names)

    for state_name in state_names:
        state = fsm.states[state_name]
        present_code = codes[state_name]
        transitions = fsm.transitions_from(state_name)
        default_next = state_name
        # Moore outputs and the hold/default behaviour: one cube per state for
        # outputs asserted regardless of inputs.
        moore = state.moore_dict()
        for transition in transitions:
            target_code = codes[transition.target]
            input_part = present_code + _condition_to_cube(transition.condition_dict(), fsm.inputs)
            output_values = {name: 0 for name in output_names}
            for position, bit in enumerate(target_code):
                if bit == "1":
                    output_values[next_bits[position]] = 1
            for name, value in moore.items():
                if value:
                    output_values[name] = 1
            for name, value in transition.mealy_dict().items():
                if value:
                    output_values[name] = 1
            output_part = "".join(str(output_values[name]) for name in output_names)
            if "1" in output_part:
                cover.add_term(input_part, output_part)
        # Hold term: when no transition condition matches, stay in the state
        # (encoded only for states whose code or Moore outputs contain a 1).
        hold_needed = "1" in present_code or any(moore.values())
        if hold_needed and not _transitions_cover_all_inputs(transitions, fsm.inputs):
            input_part = present_code + "-" * len(fsm.inputs)
            output_values = {name: 0 for name in output_names}
            for position, bit in enumerate(codes[default_next]):
                if bit == "1":
                    output_values[next_bits[position]] = 1
            for name, value in moore.items():
                if value:
                    output_values[name] = 1
            output_part = "".join(str(output_values[name]) for name in output_names)
            if "1" in output_part and not _term_subsumed(cover, input_part, output_part):
                cover.add_term(input_part, output_part)

    return EncodedFSM(fsm, encoding, codes, state_bits, cover)


def _assign_codes(state_names: List[str], reset_state: Optional[str],
                  encoding: StateEncoding) -> Dict[str, str]:
    ordered = list(state_names)
    if reset_state is not None:
        ordered.remove(reset_state)
        ordered.insert(0, reset_state)
    count = len(ordered)
    if encoding is StateEncoding.ONE_HOT:
        width = count
        return {
            name: "".join("1" if i == index else "0" for i in range(width))
            for index, name in enumerate(ordered)
        }
    width = max(1, (count - 1).bit_length())
    codes: Dict[str, str] = {}
    for index, name in enumerate(ordered):
        value = index if encoding is StateEncoding.BINARY else _gray(index)
        codes[name] = format(value, f"0{width}b")
    return codes


def _gray(value: int) -> int:
    return value ^ (value >> 1)


def _condition_to_cube(condition: Dict[str, int], inputs: List[str]) -> str:
    return "".join(
        "-" if name not in condition else str(condition[name]) for name in inputs
    )


def _transitions_cover_all_inputs(transitions: List[Transition], inputs: List[str]) -> bool:
    """Conservative check: do the transition conditions exhaust the input space?"""
    if any(not t.condition for t in transitions):
        return True
    if not inputs:
        return bool(transitions)
    # Exhaustive check is exponential in inputs; fine for control machines.
    if len(inputs) > 12:
        return False
    for minterm in range(2 ** len(inputs)):
        assignment = {
            name: (minterm >> (len(inputs) - 1 - position)) & 1
            for position, name in enumerate(inputs)
        }
        if not any(_condition_matches(t.condition_dict(), assignment) for t in transitions):
            return False
    return True


def _term_subsumed(cover: Cover, input_part: str, output_part: str) -> bool:
    for cube in cover:
        if cube.inputs == input_part and cube.outputs == output_part:
            return True
    return False
