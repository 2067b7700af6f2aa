"""Abstract syntax of the register-transfer language."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union


class DeclKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    REGISTER = "register"
    WIRE = "wire"
    MEMORY = "memory"


@dataclass(frozen=True)
class Declaration:
    """A named storage or port declaration.

    ``width`` is the bit width; ``depth`` is non-zero only for memories and
    gives the number of words.
    """

    kind: DeclKind
    name: str
    width: int
    depth: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"declaration {self.name!r} must have positive width")
        if self.kind is DeclKind.MEMORY and self.depth <= 0:
            raise ValueError(f"memory {self.name!r} must have positive depth")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


# -- expressions -----------------------------------------------------------------------


class Expression:
    """Base class for RTL expressions."""


@dataclass(frozen=True)
class Identifier(Expression):
    name: str


@dataclass(frozen=True)
class Constant(Expression):
    value: int
    width: Optional[int] = None


@dataclass(frozen=True)
class BitSelect(Expression):
    """``x[high:low]`` or ``x[bit]`` (high == low)."""

    operand: Expression
    high: int
    low: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("bit select high must be >= low")

    @property
    def width(self) -> int:
        return self.high - self.low + 1


@dataclass(frozen=True)
class MemoryAccess(Expression):
    """``mem[addr]`` used as a value or an assignment target."""

    memory: str
    address: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    operator: str            # "~", "-", "!", "&" (reduce-and), "|" (reduce-or)
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    operator: str            # + - & | ^ == != < <= > >= << >> && ||
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Concatenate(Expression):
    """``{a, b, c}`` concatenation, most significant part first."""

    parts: Tuple[Expression, ...]


# -- statements ------------------------------------------------------------------------


class Statement:
    """Base class for RTL statements."""


@dataclass(frozen=True)
class Assignment(Statement):
    """``target <- expr`` (clocked transfer) or ``target = expr`` (wire)."""

    target: Union[Identifier, BitSelect, MemoryAccess]
    value: Expression
    clocked: bool


@dataclass(frozen=True)
class IfStatement(Statement):
    condition: Expression
    then_branch: "Block"
    else_branch: Optional["Block"] = None


@dataclass(frozen=True)
class Block(Statement):
    statements: Tuple[Statement, ...]

    def __iter__(self):
        return iter(self.statements)


# -- the machine -----------------------------------------------------------------------


@dataclass
class MachineDescription:
    """A complete behavioural machine: declarations plus the cycle body."""

    name: str
    declarations: Dict[str, Declaration] = field(default_factory=dict)
    body: Block = field(default_factory=lambda: Block(()))
    #: Set by the recovering parser when the machine was unreadable enough
    #: that the body cannot be trusted (header or ``always`` missing).
    poisoned: bool = False

    def declare(self, kind: DeclKind, name: str, width: int, depth: int = 0) -> Declaration:
        if name in self.declarations:
            raise ValueError(f"duplicate declaration {name!r}")
        declaration = Declaration(kind, name, width, depth)
        self.declarations[name] = declaration
        return declaration

    def of_kind(self, kind: DeclKind) -> List[Declaration]:
        return [d for d in self.declarations.values() if d.kind is kind]

    @property
    def inputs(self) -> List[Declaration]:
        return self.of_kind(DeclKind.INPUT)

    @property
    def outputs(self) -> List[Declaration]:
        return self.of_kind(DeclKind.OUTPUT)

    @property
    def registers(self) -> List[Declaration]:
        return self.of_kind(DeclKind.REGISTER)

    @property
    def memories(self) -> List[Declaration]:
        return self.of_kind(DeclKind.MEMORY)

    @property
    def wires(self) -> List[Declaration]:
        return self.of_kind(DeclKind.WIRE)

    def declaration(self, name: str) -> Declaration:
        if name not in self.declarations:
            raise KeyError(f"machine {self.name!r} has no declaration {name!r}")
        return self.declarations[name]

    def total_state_bits(self) -> int:
        """Register bits plus memory bits: the machine's state size."""
        total = 0
        for declaration in self.declarations.values():
            if declaration.kind is DeclKind.REGISTER:
                total += declaration.width
            elif declaration.kind is DeclKind.MEMORY:
                total += declaration.width * declaration.depth
        return total


def expression_width(machine: MachineDescription, expression: Expression) -> int:
    """Static bit width of an expression of a checked machine."""
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


def render_statement(statement: Statement) -> str:
    """Render an RTL AST statement back to (normalised) source text."""

    def expr(e) -> str:
        if isinstance(e, Identifier):
            return e.name
        if isinstance(e, Constant):
            return str(e.value)
        if isinstance(e, BitSelect):
            if e.high == e.low:
                return f"{expr(e.operand)}[{e.low}]"
            return f"{expr(e.operand)}[{e.high}:{e.low}]"
        if isinstance(e, MemoryAccess):
            return f"{e.memory}[{expr(e.address)}]"
        if isinstance(e, UnaryOp):
            return f"{e.operator}{expr(e.operand)}"
        if isinstance(e, BinaryOp):
            return f"({expr(e.left)} {e.operator} {expr(e.right)})"
        if isinstance(e, Concatenate):
            return "{" + ", ".join(expr(p) for p in e.parts) + "}"
        return repr(e)

    if isinstance(statement, Assignment):
        arrow = "<-" if statement.clocked else "="
        return f"{expr(statement.target)} {arrow} {expr(statement.value)};"
    if isinstance(statement, IfStatement):
        return f"if ({expr(statement.condition)}) ..."
    if isinstance(statement, Block):
        return "begin ... end"
    return repr(statement)
