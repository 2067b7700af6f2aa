"""Reference RTL interpreter: an ``isinstance`` walk over the AST per cycle.

:class:`TreeWalker` is the seed's statement/expression interpreter, callable
with the signature of a compiled machine body; :class:`RtlInterpreter` is
:class:`~repro.rtl.simulator.RtlSimulator` with that walker as its body.
The differential suite pins the closure compiler cycle-for-cycle identical
to it, error text and error timing included.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
from repro.rtl.simulator import RtlSimulator, expression_width


class TreeWalker:
    """Execute a machine body by walking its AST."""

    def __init__(self, machine: MachineDescription):
        self.machine = machine
        self.values: Dict[str, int] = {}
        self.memories: Dict[str, List[int]] = {}

    def __call__(self, values: Dict[str, int], memories: Dict[str, List[int]],
                 pending: Dict[str, int],
                 memory_writes: List[Tuple[str, int, int]]) -> None:
        self.values, self.memories = values, memories
        self._execute_block(self.machine.body, pending, memory_writes)

    # -- statement execution ---------------------------------------------------------------

    def _execute_block(self, block: Block, pending: Dict[str, int],
                       memory_writes: List[Tuple[str, int, int]]) -> None:
        for statement in block:
            self._execute_statement(statement, pending, memory_writes)

    def _execute_statement(self, statement: Statement, pending: Dict[str, int],
                           memory_writes: List[Tuple[str, int, int]]) -> None:
        if isinstance(statement, Block):
            self._execute_block(statement, pending, memory_writes)
        elif isinstance(statement, IfStatement):
            if self._evaluate(statement.condition, pending):
                self._execute_block(statement.then_branch, pending, memory_writes)
            elif statement.else_branch is not None:
                self._execute_block(statement.else_branch, pending, memory_writes)
        elif isinstance(statement, Assignment):
            self._execute_assignment(statement, pending, memory_writes)
        else:
            raise TypeError(f"unknown statement type {type(statement).__name__}")

    def _execute_assignment(self, assignment: Assignment, pending: Dict[str, int],
                            memory_writes: List[Tuple[str, int, int]]) -> None:
        value = self._evaluate(assignment.value, pending)
        target = assignment.target
        if isinstance(target, MemoryAccess):
            address = self._evaluate(target.address, pending)
            memory_writes.append((target.memory, address, value))
            return
        if isinstance(target, BitSelect):
            base = target.operand
            if not isinstance(base, Identifier):
                raise ValueError("bit-select assignment target must be a plain name")
            name = base.name
            declaration = self.machine.declaration(name)
            current = pending.get(name, self.values.get(name, 0)) if assignment.clocked \
                else self.values.get(name, 0)
            width = target.high - target.low + 1
            mask = ((1 << width) - 1) << target.low
            new_value = (current & ~mask) | ((value << target.low) & mask)
            if assignment.clocked:
                pending[name] = new_value & declaration.mask
            else:
                self.values[name] = new_value & declaration.mask
            return
        name = target.name
        declaration = self.machine.declaration(name)
        if assignment.clocked:
            if declaration.kind not in (DeclKind.REGISTER, DeclKind.OUTPUT):
                raise ValueError(f"clocked transfer to non-register {name!r}")
            pending[name] = value & declaration.mask
        else:
            if declaration.kind is DeclKind.REGISTER:
                raise ValueError(f"combinational assignment to register {name!r}; use <-")
            self.values[name] = value & declaration.mask

    # -- expression evaluation -------------------------------------------------------------

    def _evaluate(self, expression: Expression, pending: Dict[str, int]) -> int:
        if isinstance(expression, Constant):
            return expression.value
        if isinstance(expression, Identifier):
            if expression.name not in self.values:
                raise KeyError(f"undeclared signal {expression.name!r}")
            return self.values[expression.name]
        if isinstance(expression, BitSelect):
            base = self._evaluate(expression.operand, pending)
            width = expression.high - expression.low + 1
            return (base >> expression.low) & ((1 << width) - 1)
        if isinstance(expression, MemoryAccess):
            address = self._evaluate(expression.address, pending)
            storage = self.memories.get(expression.memory)
            if storage is None:
                raise KeyError(f"undeclared memory {expression.memory!r}")
            if not 0 <= address < len(storage):
                return 0
            return storage[address]
        if isinstance(expression, Concatenate):
            value = 0
            for part in expression.parts:
                part_width = self._width_of(part)
                value = (value << part_width) | (self._evaluate(part, pending)
                                                 & ((1 << part_width) - 1))
            return value
        if isinstance(expression, UnaryOp):
            operand = self._evaluate(expression.operand, pending)
            width = self._width_of(expression.operand)
            mask = (1 << width) - 1
            if expression.operator == "~":
                return (~operand) & mask
            if expression.operator == "-":
                return (-operand) & mask
            if expression.operator == "!":
                return 0 if operand else 1
            raise ValueError(f"unknown unary operator {expression.operator!r}")
        if isinstance(expression, BinaryOp):
            left = self._evaluate(expression.left, pending)
            right = self._evaluate(expression.right, pending)
            width = max(self._width_of(expression.left), self._width_of(expression.right))
            mask = (1 << width) - 1
            op = expression.operator
            if op == "+":
                return (left + right) & mask
            if op == "-":
                return (left - right) & mask
            if op == "*":
                return (left * right) & mask
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "==":
                return int(left == right)
            if op == "!=":
                return int(left != right)
            if op == "<":
                return int(left < right)
            if op == "<=":
                return int(left <= right)
            if op == ">":
                return int(left > right)
            if op == ">=":
                return int(left >= right)
            if op == "<<":
                return (left << right) & mask
            if op == ">>":
                return left >> right
            if op == "&&":
                return int(bool(left) and bool(right))
            if op == "||":
                return int(bool(left) or bool(right))
            raise ValueError(f"unknown binary operator {op!r}")
        raise TypeError(f"unknown expression type {type(expression).__name__}")

    def _width_of(self, expression: Expression) -> int:
        return expression_width(self.machine, expression)


class RtlInterpreter(RtlSimulator):
    """:class:`RtlSimulator` whose body is the tree-walking interpreter."""

    def _compile_body(self) -> TreeWalker:
        return TreeWalker(self.machine)
