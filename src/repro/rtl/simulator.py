"""Behavioural simulation of RTL machines.

"By providing simulation, via compilation and execution of the RTL
description ... it has been possible to construct hardware automatically."
The simulator executes one machine cycle at a time: combinational
assignments take effect immediately (in textual order), clocked transfers
(``<-``) are collected and applied together at the end of the cycle, and
memories behave as word-addressable arrays.

The machine body is **compiled once** at construction: every statement
and expression becomes a Python closure with widths, masks and
declaration checks resolved up front, so a cycle is a chain of direct
calls instead of an ``isinstance`` walk over the AST.  The tree-walking
interpreter lives in :mod:`repro.reference.rtl_sim` as the golden
reference; differential tests pin the two cycle-for-cycle identical,
including the statement-ordering and masking semantics, and a lowering
failure degrades to it under ``FBK004``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.diagnostics import run_with_fallback
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
    IfStatement,
    MachineDescription,
    MemoryAccess,
    Statement,
    UnaryOp,
)

#: values, memories -> int
_ExprFn = Callable[[Dict[str, int], Dict[str, List[int]]], int]
#: values, memories, pending, memory_writes -> None
_StmtFn = Callable[
    [Dict[str, int], Dict[str, List[int]], Dict[str, int],
     List[Tuple[str, int, int]]], None
]


def expression_width(machine: MachineDescription, expression: Expression) -> int:
    """Static bit width of an expression (shared by both execution paths)."""
    if isinstance(expression, Identifier):
        return machine.declaration(expression.name).width
    if isinstance(expression, Constant):
        if expression.width is not None:
            return expression.width
        return max(1, expression.value.bit_length())
    if isinstance(expression, BitSelect):
        return expression.width
    if isinstance(expression, MemoryAccess):
        return machine.declaration(expression.memory).width
    if isinstance(expression, Concatenate):
        return sum(expression_width(machine, part) for part in expression.parts)
    if isinstance(expression, UnaryOp):
        return expression_width(machine, expression.operand)
    if isinstance(expression, BinaryOp):
        if expression.operator in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        return max(expression_width(machine, expression.left),
                   expression_width(machine, expression.right))
    raise TypeError(f"unknown expression type {type(expression).__name__}")


class RtlSimulator:
    """Execute a machine description cycle by cycle."""

    def __init__(self, machine: MachineDescription):
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
        machine = self.machine

        def tree_walker() -> _StmtFn:
            from repro.reference.rtl_sim import TreeWalker

            return TreeWalker(machine)

        # Name-resolution errors are deferred into the closures (they
        # surface at step() time, exactly as in the reference), so a
        # failure *here* is a lowering bug: degrade to the tree-walking
        # reference with a warning rather than taking the simulator down.
        return run_with_fallback(
            "rtl simulator",
            lambda: _StatementCompiler(machine).compile_block(machine.body),
            tree_walker, code="FBK004")

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

        for name, value in pending_registers.items():
            declaration = self.machine.declaration(name)
            self.values[name] = value & declaration.mask
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

        owns_writer = isinstance(vcd, str)
        writer = (obs_vcd.VcdWriter(vcd, module=self.machine.name)
                  if owns_writer else vcd)
        if writer is not None:
            for declaration in self.machine.declarations.values():
                if declaration.kind is not DeclKind.MEMORY:
                    writer.add_signal(declaration.name, declaration.width)
        trace: List[Dict[str, int]] = []
        try:
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
        finally:
            if owns_writer and writer is not None:
                writer.close()
        return trace


class _StatementCompiler:
    """Lower a machine body to a tree of Python closures, built once.

    Compilation never raises for semantically invalid constructs the
    interpreter only rejects at execution time (a clocked transfer to a
    wire inside a never-taken branch, an undeclared identifier); instead it
    emits a closure raising the interpreter's exact error, preserving
    error-timing parity between the two paths.
    """

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
        if isinstance(statement, IfStatement):
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
        if isinstance(statement, Assignment):
            return self.compile_assignment(statement)
        message = f"unknown statement type {type(statement).__name__}"
        return self._raising_statement(TypeError, message)

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
            base = target.operand
            if not isinstance(base, Identifier):
                return self._invalid_target(
                    value_fn, ValueError,
                    "bit-select assignment target must be a plain name",
                )
            name = base.name
            if name not in self.machine.declarations:
                return self._invalid_target(
                    value_fn, KeyError,
                    f"machine {self.machine.name!r} has no declaration {name!r}",
                )
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
        if name not in self.machine.declarations:
            return self._invalid_target(
                value_fn, KeyError,
                f"machine {self.machine.name!r} has no declaration {name!r}",
            )
        declaration = self.machine.declaration(name)
        declaration_mask = declaration.mask
        if assignment.clocked:
            if declaration.kind not in (DeclKind.REGISTER, DeclKind.OUTPUT):
                return self._invalid_target(
                    value_fn, ValueError,
                    f"clocked transfer to non-register {name!r}",
                )

            def run_clocked(values, memories, pending, memory_writes):
                pending[name] = value_fn(values, memories) & declaration_mask
            return run_clocked
        if declaration.kind is DeclKind.REGISTER:
            return self._invalid_target(
                value_fn, ValueError,
                f"combinational assignment to register {name!r}; use <-",
            )

        def run_assign(values, memories, pending, memory_writes):
            values[name] = value_fn(values, memories) & declaration_mask
        return run_assign

    @staticmethod
    def _raising_statement(exc_type: type, message: str) -> _StmtFn:
        def raiser(values, memories, pending, memory_writes):
            raise exc_type(message)
        return raiser

    @staticmethod
    def _invalid_target(value_fn: _ExprFn, exc_type: type, message: str) -> _StmtFn:
        """An assignment whose target the interpreter rejects at execution.

        The interpreter evaluates the assigned value *before* inspecting the
        target, so a bad value expression must win the race to raise.
        """
        def raiser(values, memories, pending, memory_writes):
            value_fn(values, memories)
            raise exc_type(message)
        return raiser

    # -- expressions --------------------------------------------------------------------

    def compile_expression(self, expression: Expression) -> _ExprFn:
        if isinstance(expression, Constant):
            constant = expression.value
            return lambda values, memories: constant
        if isinstance(expression, Identifier):
            name = expression.name
            declaration = self.machine.declarations.get(name)
            if declaration is None or declaration.kind is DeclKind.MEMORY:
                message = f"undeclared signal {name!r}"

                def raise_undeclared(values, memories):
                    raise KeyError(message)
                return raise_undeclared
            return lambda values, memories: values[name]
        if isinstance(expression, BitSelect):
            operand = self.compile_expression(expression.operand)
            low = expression.low
            mask = (1 << expression.width) - 1
            return lambda values, memories: (operand(values, memories) >> low) & mask
        if isinstance(expression, MemoryAccess):
            memory_name = expression.memory
            declaration = self.machine.declarations.get(memory_name)
            address_fn = self.compile_expression(expression.address)
            if declaration is None or declaration.kind is not DeclKind.MEMORY:
                message = f"undeclared memory {memory_name!r}"

                def raise_missing(values, memories):
                    # Interpreter order: the address evaluates (and may
                    # raise its own error) before the memory lookup.
                    address_fn(values, memories)
                    raise KeyError(message)
                return raise_missing
            depth = declaration.depth

            def read_memory(values, memories):
                address = address_fn(values, memories)
                if not 0 <= address < depth:
                    return 0
                return memories[memory_name][address]
            return read_memory
        if isinstance(expression, Concatenate):
            compiled_parts = [(self.compile_expression(part), part)
                              for part in expression.parts]
            widths = [self._static_width(part) for part in expression.parts]
            if any(width is None for width in widths):
                # The interpreter computes each part's width just before
                # evaluating it; replay that order so the same error
                # surfaces at the same execution point.
                machine = self.machine

                def concat_deferred(values, memories):
                    value = 0
                    for part_fn, part in compiled_parts:
                        part_width = expression_width(machine, part)
                        value = (value << part_width) | (
                            part_fn(values, memories) & ((1 << part_width) - 1)
                        )
                    return value
                return concat_deferred
            parts = [(fn, width)
                     for (fn, _part), width in zip(compiled_parts, widths)]

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
            if operator in ("~", "-"):
                width = self._static_width(expression.operand)
                if width is None:
                    # Interpreter order: operand first, then its width.
                    machine = self.machine
                    inner = expression.operand

                    def unary_deferred(values, memories):
                        operand(values, memories)
                        mask = (1 << expression_width(machine, inner)) - 1
                        raise AssertionError(f"width of {inner!r} failed "
                                             "statically but not dynamically")
                    return unary_deferred
                mask = (1 << width) - 1
                if operator == "~":
                    return lambda values, memories: (~operand(values, memories)) & mask
                return lambda values, memories: (-operand(values, memories)) & mask
            message = f"unknown unary operator {operator!r}"

            def raise_unary(values, memories):
                raise ValueError(message)
            return raise_unary
        if isinstance(expression, BinaryOp):
            return self._compile_binary(expression)
        message = f"unknown expression type {type(expression).__name__}"

        def raise_expr(values, memories):
            raise TypeError(message)
        return raise_expr

    def _static_width(self, expression: Expression) -> Optional[int]:
        """``expression_width`` or None when a name in the tree is undeclared.

        The interpreter evaluates operands before widths, so an undeclared
        name must surface as *that* execution-time error, not as a
        construction-time failure of the static width computation.
        """
        try:
            return expression_width(self.machine, expression)
        except KeyError:
            return None

    def _compile_binary(self, expression: BinaryOp) -> _ExprFn:
        left = self.compile_expression(expression.left)
        right = self.compile_expression(expression.right)
        op = expression.operator
        if op in ("+", "-", "*", "<<"):
            left_width = self._static_width(expression.left)
            right_width = self._static_width(expression.right)
            if left_width is None or right_width is None:
                # Interpreter order: both operands evaluate first (raising
                # the undeclared-name error there), widths after.
                machine = self.machine
                inner = expression

                def binary_deferred(values, memories):
                    left(values, memories)
                    right(values, memories)
                    expression_width(machine, inner.left)
                    expression_width(machine, inner.right)
                    raise AssertionError(f"width of {inner!r} failed "
                                         "statically but not dynamically")
                return binary_deferred
            mask = (1 << max(left_width, right_width)) - 1
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
            # No short-circuit: the interpreter evaluates both operands.
            def logical_and(v, m):
                left_value = left(v, m)
                right_value = right(v, m)
                return int(bool(left_value) and bool(right_value))
            return logical_and
        if op == "||":
            def logical_or(v, m):
                left_value = left(v, m)
                right_value = right(v, m)
                return int(bool(left_value) or bool(right_value))
            return logical_or
        message = f"unknown binary operator {op!r}"

        def raise_binary(values, memories):
            raise ValueError(message)
        return raise_binary
