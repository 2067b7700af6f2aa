"""Behavioural simulation of RTL machines.

"By providing simulation, via compilation and execution of the RTL
description ... it has been possible to construct hardware automatically."
The simulator executes one machine cycle at a time: combinational
assignments take effect immediately (in textual order), clocked transfers
(``<-``) are collected and applied together at the end of the cycle, and
memories behave as word-addressable arrays.

Construction is check, then lower.  An illegal machine (``RTL1xx``) never
becomes a simulator: :func:`repro.rtl.check.require_valid`, the static
check the gate compiler runs too, comes first, and nothing below re-checks
a name or a target kind.  The body is then **compiled once** into Python
closures with widths and masks resolved up front, so a cycle is a chain of
direct calls instead of an ``isinstance`` walk over the AST.  The
tree-walking interpreter lives in :mod:`repro.reference.rtl_sim` as the
golden reference; differential tests pin the two cycle-for-cycle
identical.  It is a test oracle only; a lowering failure propagates as
itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rtl.ast import (
    Assignment,
    BinaryOp,
    BitSelect,
    Block,
    Concatenate,
    Constant,
    DeclKind,
    Expression,
    Identifier,
    MachineDescription,
    MemoryAccess,
    Statement,
    UnaryOp,
    expression_width,
)
from repro.rtl.check import require_valid

#: values, memories -> int
_ExprFn = Callable[[Dict[str, int], Dict[str, List[int]]], int]
#: values, memories, pending, memory_writes -> None
_StmtFn = Callable[
    [Dict[str, int], Dict[str, List[int]], Dict[str, int],
     List[Tuple[str, int, int]]], None
]


class RtlSimulator:
    """Execute a machine description cycle by cycle."""

    def __init__(self, machine: MachineDescription):
        require_valid(machine)
        self.machine = machine
        self.values: Dict[str, int] = {}
        self.memories: Dict[str, List[int]] = {}
        for declaration in machine.declarations.values():
            if declaration.kind is DeclKind.MEMORY:
                self.memories[declaration.name] = [0] * declaration.depth
            else:
                self.values[declaration.name] = 0
        self.cycle_count = 0
        self._body = self._compile_body()

    def _compile_body(self) -> _StmtFn:
        """The machine body as one callable, run once per cycle."""
        return _StatementCompiler(self.machine).compile_block(self.machine.body)

    # -- state access ----------------------------------------------------------------

    def set_register(self, name: str, value: int) -> None:
        declaration = self.machine.declaration(name)
        if declaration.kind is DeclKind.MEMORY:
            raise ValueError(f"{name!r} is a memory; use load_memory")
        self.values[name] = value & declaration.mask

    def get(self, name: str) -> int:
        if name in self.values:
            return self.values[name]
        raise KeyError(f"no such signal {name!r}")

    def load_memory(self, name: str, contents: Sequence[int], offset: int = 0) -> None:
        declaration = self.machine.declaration(name)
        if declaration.kind is not DeclKind.MEMORY:
            raise ValueError(f"{name!r} is not a memory")
        storage = self.memories[name]
        for index, word in enumerate(contents):
            address = offset + index
            if address >= len(storage):
                raise IndexError(f"memory {name!r} overflow at address {address}")
            storage[address] = word & declaration.mask

    def read_memory(self, name: str, address: int) -> int:
        return self.memories[name][address]

    # -- execution ----------------------------------------------------------------------

    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Run one machine cycle and return the output values."""
        if inputs:
            for name, value in inputs.items():
                declaration = self.machine.declaration(name)
                if declaration.kind is not DeclKind.INPUT:
                    raise ValueError(f"{name!r} is not an input")
                self.values[name] = value & declaration.mask

        pending_registers: Dict[str, int] = {}
        pending_memory_writes: List[Tuple[str, int, int]] = []
        self._body(self.values, self.memories,
                   pending_registers, pending_memory_writes)

        self.values.update(pending_registers)      # masked when transferred
        for memory_name, address, value in pending_memory_writes:
            declaration = self.machine.declaration(memory_name)
            storage = self.memories[memory_name]
            if 0 <= address < len(storage):
                storage[address] = value & declaration.mask

        self.cycle_count += 1
        return {d.name: self.values[d.name] for d in self.machine.outputs}

    def run(self, cycles: int, inputs: Optional[Sequence[Dict[str, int]]] = None,
            vcd: Optional[object] = None) -> List[Dict[str, int]]:
        """Run several cycles; ``inputs`` optionally supplies one dict per cycle.

        ``vcd`` optionally streams every non-memory signal (registers, wires,
        inputs, outputs — with their declared multi-bit widths) to a waveform
        dump: pass a path (the writer is opened and closed here) or an open
        :class:`repro.obs.vcd.VcdWriter` (caller keeps ownership).
        """
        from repro.obs import trace as obs_trace
        from repro.obs import vcd as obs_vcd

        trace: List[Dict[str, int]] = []
        with obs_vcd.streaming(vcd, self.machine.name) as writer:
            if writer is not None:
                for declaration in self.machine.declarations.values():
                    if declaration.kind is not DeclKind.MEMORY:
                        writer.add_signal(declaration.name, declaration.width)
            with obs_trace.span("rtl.run", cat="rtl",
                                machine=self.machine.name, cycles=cycles):
                for cycle in range(cycles):
                    vector = (inputs[cycle]
                              if inputs is not None and cycle < len(inputs)
                              else None)
                    trace.append(self.step(vector))
                    if writer is not None:
                        writer.sample(cycle, {
                            name: self.values[name]
                            for name in self.values
                        })
        return trace


class _StatementCompiler:
    """Lower the body of a checked machine to a tree of Python closures."""

    def __init__(self, machine: MachineDescription):
        self.machine = machine

    # -- statements ---------------------------------------------------------------------

    def compile_block(self, block: Block) -> _StmtFn:
        statements = [self.compile_statement(s) for s in block]
        if len(statements) == 1:
            return statements[0]

        def run_block(values, memories, pending, memory_writes):
            for statement in statements:
                statement(values, memories, pending, memory_writes)
        return run_block

    def compile_statement(self, statement: Statement) -> _StmtFn:
        if isinstance(statement, Block):
            return self.compile_block(statement)
        if isinstance(statement, Assignment):
            return self.compile_assignment(statement)
        condition = self.compile_expression(statement.condition)
        then_branch = self.compile_block(statement.then_branch)
        if statement.else_branch is None:
            def run_if(values, memories, pending, memory_writes):
                if condition(values, memories):
                    then_branch(values, memories, pending, memory_writes)
            return run_if
        else_branch = self.compile_block(statement.else_branch)

        def run_if_else(values, memories, pending, memory_writes):
            if condition(values, memories):
                then_branch(values, memories, pending, memory_writes)
            else:
                else_branch(values, memories, pending, memory_writes)
        return run_if_else

    def compile_assignment(self, assignment: Assignment) -> _StmtFn:
        value_fn = self.compile_expression(assignment.value)
        target = assignment.target

        if isinstance(target, MemoryAccess):
            memory_name = target.memory
            address_fn = self.compile_expression(target.address)

            def run_memory_write(values, memories, pending, memory_writes):
                # Interpreter order: value first, then the address.
                value = value_fn(values, memories)
                memory_writes.append(
                    (memory_name, address_fn(values, memories), value)
                )
            return run_memory_write

        if isinstance(target, BitSelect):
            name = target.operand.name
            declaration_mask = self.machine.declaration(name).mask
            low = target.low
            field_mask = ((1 << target.width) - 1) << low

            if assignment.clocked:
                def run_clocked_field(values, memories, pending, memory_writes):
                    current = pending.get(name, values.get(name, 0))
                    new_value = (current & ~field_mask) | (
                        (value_fn(values, memories) << low) & field_mask
                    )
                    pending[name] = new_value & declaration_mask
                return run_clocked_field

            def run_field(values, memories, pending, memory_writes):
                current = values.get(name, 0)
                new_value = (current & ~field_mask) | (
                    (value_fn(values, memories) << low) & field_mask
                )
                values[name] = new_value & declaration_mask
            return run_field

        name = target.name
        declaration_mask = self.machine.declaration(name).mask
        if assignment.clocked:
            def run_clocked(values, memories, pending, memory_writes):
                pending[name] = value_fn(values, memories) & declaration_mask
            return run_clocked

        def run_assign(values, memories, pending, memory_writes):
            values[name] = value_fn(values, memories) & declaration_mask
        return run_assign

    # -- expressions --------------------------------------------------------------------

    def compile_expression(self, expression: Expression) -> _ExprFn:
        if isinstance(expression, Constant):
            constant = expression.value
            return lambda values, memories: constant
        if isinstance(expression, Identifier):
            name = expression.name
            return lambda values, memories: values[name]
        if isinstance(expression, BitSelect):
            operand = self.compile_expression(expression.operand)
            low = expression.low
            mask = (1 << expression.width) - 1
            return lambda values, memories: (operand(values, memories) >> low) & mask
        if isinstance(expression, MemoryAccess):
            memory_name = expression.memory
            address_fn = self.compile_expression(expression.address)
            depth = self.machine.declaration(memory_name).depth

            def read_memory(values, memories):
                address = address_fn(values, memories)
                if not 0 <= address < depth:
                    return 0
                return memories[memory_name][address]
            return read_memory
        if isinstance(expression, Concatenate):
            parts = [(self.compile_expression(part),
                      expression_width(self.machine, part))
                     for part in expression.parts]

            def concatenate(values, memories):
                value = 0
                for part_fn, part_width in parts:
                    value = (value << part_width) | (
                        part_fn(values, memories) & ((1 << part_width) - 1)
                    )
                return value
            return concatenate
        if isinstance(expression, UnaryOp):
            operand = self.compile_expression(expression.operand)
            operator = expression.operator
            if operator == "!":
                return lambda values, memories: 0 if operand(values, memories) else 1
            mask = (1 << expression_width(self.machine, expression.operand)) - 1
            if operator == "~":
                return lambda values, memories: (~operand(values, memories)) & mask
            return lambda values, memories: (-operand(values, memories)) & mask
        return self._compile_binary(expression)

    def _compile_binary(self, expression: BinaryOp) -> _ExprFn:
        left = self.compile_expression(expression.left)
        right = self.compile_expression(expression.right)
        op = expression.operator
        if op in ("+", "-", "*", "<<"):
            mask = (1 << max(expression_width(self.machine, expression.left),
                             expression_width(self.machine, expression.right))) - 1
            if op == "+":
                return lambda v, m: (left(v, m) + right(v, m)) & mask
            if op == "-":
                return lambda v, m: (left(v, m) - right(v, m)) & mask
            if op == "*":
                return lambda v, m: (left(v, m) * right(v, m)) & mask
            return lambda v, m: (left(v, m) << right(v, m)) & mask
        if op == "&":
            return lambda v, m: left(v, m) & right(v, m)
        if op == "|":
            return lambda v, m: left(v, m) | right(v, m)
        if op == "^":
            return lambda v, m: left(v, m) ^ right(v, m)
        if op == "==":
            return lambda v, m: int(left(v, m) == right(v, m))
        if op == "!=":
            return lambda v, m: int(left(v, m) != right(v, m))
        if op == "<":
            return lambda v, m: int(left(v, m) < right(v, m))
        if op == "<=":
            return lambda v, m: int(left(v, m) <= right(v, m))
        if op == ">":
            return lambda v, m: int(left(v, m) > right(v, m))
        if op == ">=":
            return lambda v, m: int(left(v, m) >= right(v, m))
        if op == ">>":
            return lambda v, m: left(v, m) >> right(v, m)
        if op == "&&":
            return lambda v, m: int(bool(left(v, m)) and bool(right(v, m)))
        return lambda v, m: int(bool(left(v, m)) or bool(right(v, m)))
