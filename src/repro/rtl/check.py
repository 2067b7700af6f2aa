"""The static rules of the register-transfer language, checked in one walk.

:func:`parse_rtl` checks syntax only; what else makes a machine legal is
here, and both back ends run it before they touch the tree — so the
simulator and the gate compiler accept exactly the same language and
neither carries a copy of a rule.  Dead branches are checked like live ones.

``RTL101``  undeclared signal: a name read or assigned that is not declared,
            or that names a memory.
``RTL102``  undeclared memory: ``m[address]`` where ``m`` is not a memory.
``RTL103``  clocked transfer (``<-``) to anything but a register or output.
``RTL104``  combinational assignment (``=``) to a register.
``RTL105``  assignment to something other than a name, a field of a name
            or a memory word.
``RTL106``  combinational memory write.
``RTL107``  unknown operator or node type (hand-built trees only).
``RTL108``  assignment to an input (warning: it overwrites the driven value).
"""

from __future__ import annotations

from typing import List

from repro.diagnostics import Diagnostic, DiagnosticError, Severity, get_logger
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
    render_statement,
)

_OPERATORS = {
    UnaryOp: frozenset(("~", "-", "!")),
    BinaryOp: frozenset(("+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=",
                         ">", ">=", "<<", ">>", "&&", "||")),
}


class RtlSemanticError(DiagnosticError, ValueError):
    """A machine breaks a static rule; ``diagnostics`` lists every breach."""

    default_code = "RTL100"

    def __init__(self, machine_name: str, diagnostics: List[Diagnostic]):
        super().__init__(
            f"machine {machine_name!r} is not legal RTL: "
            + "; ".join(d.message for d in diagnostics), diagnostics[0])
        self.diagnostics = diagnostics


def check_machine(machine: MachineDescription) -> List[Diagnostic]:
    """Every static-rule violation of ``machine``, in source order."""
    found: List[Diagnostic] = []
    declarations = machine.declarations

    def report(code: str, message: str, statement: Statement,
               severity: Severity = Severity.ERROR) -> None:
        found.append(Diagnostic(
            severity, code, f"{message} in `{render_statement(statement)}`",
            source="rtl"))

    def signal_kind(name: str, statement: Statement):
        declaration = declarations.get(name)
        if declaration is None or declaration.kind is DeclKind.MEMORY:
            report("RTL101", f"undeclared signal {name!r}", statement)
            return None
        return declaration.kind

    def expression(node: Expression, statement: Statement) -> None:
        if isinstance(node, Identifier):
            signal_kind(node.name, statement)
        elif isinstance(node, BitSelect):
            expression(node.operand, statement)
        elif isinstance(node, MemoryAccess):
            declaration = declarations.get(node.memory)
            if declaration is None or declaration.kind is not DeclKind.MEMORY:
                report("RTL102", f"undeclared memory {node.memory!r}", statement)
            expression(node.address, statement)
        elif isinstance(node, Concatenate):
            for part in node.parts:
                expression(part, statement)
        elif isinstance(node, (UnaryOp, BinaryOp)):
            if node.operator not in _OPERATORS[type(node)]:
                report("RTL107", f"unknown operator {node.operator!r}", statement)
            operands = ((node.operand,) if isinstance(node, UnaryOp)
                        else (node.left, node.right))
            for operand in operands:
                expression(operand, statement)
        elif not isinstance(node, Constant):
            report("RTL107", f"unknown expression type {type(node).__name__}",
                   statement)

    def assignment(node: Assignment) -> None:
        expression(node.value, node)
        target = node.target
        if isinstance(target, MemoryAccess):
            expression(target, node)
            if not node.clocked:
                report("RTL106", "memory writes must be clocked transfers (<-)",
                       node)
            return
        if isinstance(target, BitSelect):
            target = target.operand
        if not isinstance(target, Identifier):
            report("RTL105", "assignment target must be a name, a bit-select "
                             "of a name or a memory word", node)
            return
        kind, name = signal_kind(target.name, node), target.name
        if node.clocked:
            if kind not in (None, DeclKind.REGISTER, DeclKind.OUTPUT):
                report("RTL103", f"clocked transfer to non-register {name!r}",
                       node)
        elif kind is DeclKind.REGISTER:
            report("RTL104",
                   f"combinational assignment to register {name!r}; use <-", node)
        elif kind is DeclKind.INPUT:
            report("RTL108", f"assignment to input {name!r}", node,
                   Severity.WARNING)

    def statement(node: Statement) -> None:
        if isinstance(node, Block):
            for inner in node:
                statement(inner)
        elif isinstance(node, IfStatement):
            expression(node.condition, node)
            statement(node.then_branch)
            if node.else_branch is not None:
                statement(node.else_branch)
        elif isinstance(node, Assignment):
            assignment(node)
        else:
            report("RTL107", f"unknown statement type {type(node).__name__}", node)

    statement(machine.body)
    return found


def require_valid(machine: MachineDescription) -> None:
    """Raise :class:`RtlSemanticError` on an error; warnings are logged."""
    diagnostics = check_machine(machine)
    errors = [d for d in diagnostics if Severity.ERROR <= d.severity]
    if errors:
        raise RtlSemanticError(machine.name, errors)
    for diagnostic in diagnostics:
        get_logger("rtl").warning("%s: %s", machine.name, diagnostic.render())
