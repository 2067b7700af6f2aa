"""Reference RTL interpreter: an ``isinstance`` walk over the AST per cycle.

:class:`TreeWalker` is the seed's statement/expression interpreter, callable
with the signature of a compiled machine body; :class:`RtlInterpreter` is
:class:`~repro.rtl.simulator.RtlSimulator` with that walker as its body —
and so with its constructor: parse → check → walk.  The walker only ever
sees a machine that passed :func:`repro.rtl.check.require_valid` (every
name declared, every target of the right kind, every node known), and the
differential suite pins the closure compiler cycle-for-cycle identical to
it on every such machine.
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
    Expression,
    Identifier,
    IfStatement,
    MachineDescription,
    MemoryAccess,
    Statement,
    UnaryOp,
    expression_width,
)
from repro.rtl.simulator import RtlSimulator


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
        else:
            self._execute_assignment(statement, pending, memory_writes)

    def _execute_assignment(self, assignment: Assignment, pending: Dict[str, int],
                            memory_writes: List[Tuple[str, int, int]]) -> None:
        value = self._evaluate(assignment.value, pending)
        target = assignment.target
        if isinstance(target, MemoryAccess):
            address = self._evaluate(target.address, pending)
            memory_writes.append((target.memory, address, value))
            return
        if isinstance(target, BitSelect):
            name = target.operand.name
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
            pending[name] = value & declaration.mask
        else:
            self.values[name] = value & declaration.mask

    # -- expression evaluation -------------------------------------------------------------

    def _evaluate(self, expression: Expression, pending: Dict[str, int]) -> int:
        if isinstance(expression, Constant):
            return expression.value
        if isinstance(expression, Identifier):
            return self.values[expression.name]
        if isinstance(expression, BitSelect):
            base = self._evaluate(expression.operand, pending)
            width = expression.high - expression.low + 1
            return (base >> expression.low) & ((1 << width) - 1)
        if isinstance(expression, MemoryAccess):
            address = self._evaluate(expression.address, pending)
            storage = self.memories[expression.memory]
            if not 0 <= address < len(storage):
                return 0
            return storage[address]
        if isinstance(expression, Concatenate):
            value = 0
            for part in expression.parts:
                part_width = expression_width(self.machine, part)
                value = (value << part_width) | (self._evaluate(part, pending)
                                                 & ((1 << part_width) - 1))
            return value
        if isinstance(expression, UnaryOp):
            operand = self._evaluate(expression.operand, pending)
            width = expression_width(self.machine, expression.operand)
            mask = (1 << width) - 1
            if expression.operator == "~":
                return (~operand) & mask
            if expression.operator == "-":
                return (-operand) & mask
            return 0 if operand else 1
        if isinstance(expression, BinaryOp):
            left = self._evaluate(expression.left, pending)
            right = self._evaluate(expression.right, pending)
            width = max(expression_width(self.machine, expression.left),
                        expression_width(self.machine, expression.right))
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
            return int(bool(left) or bool(right))
        raise TypeError(f"unknown expression type {type(expression).__name__}")


class RtlInterpreter(RtlSimulator):
    """:class:`RtlSimulator` whose body is the tree-walking interpreter."""

    def _compile_body(self) -> TreeWalker:
        return TreeWalker(self.machine)
