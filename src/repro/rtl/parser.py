"""Parser for the register-transfer language.

The concrete syntax is a compact ISPS-flavoured notation::

    machine counter;
    input  load[1], data[8];
    output q[8];
    register count[8];

    always begin
        if (load) count <- data;
        else count <- count + 1;
        q = count;
    end

Clocked transfers use ``<-``; combinational (wire/output) assignments use
``=``.  Memories are declared ``memory m[depth][width]`` and indexed
``m[address_expression]``.

Error handling mirrors the CIF parser: without a collector the first
malformed token raises :class:`RtlSyntaxError` (now carrying a typed
diagnostic with an ``RTL0xx`` code and a line/column span); with a
:class:`~repro.diagnostics.DiagnosticCollector` the parser recovers —
bad characters are skipped, malformed declarations and statements are
resynchronized at the next semicolon (or ``end``), and a machine whose
header or ``always`` block is unreadable is returned **poisoned**
(``machine.poisoned``) rather than crashing the caller.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from repro.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    DiagnosticError,
    Severity,
    SourceSpan,
)
from repro.rtl.ast import (
    Assignment,
    BinaryOp,
    BitSelect,
    Block,
    Concatenate,
    Constant,
    Declaration,
    DeclKind,
    Expression,
    Identifier,
    IfStatement,
    MachineDescription,
    MemoryAccess,
    Statement,
    UnaryOp,
)
from repro.rtl.check import check_machine


class RtlSyntaxError(DiagnosticError, ValueError):
    """Raised on malformed RTL text, with line information."""

    default_code = "RTL000"


def _syntax_error(code: str, line: int, column: int,
                  message: str) -> RtlSyntaxError:
    return RtlSyntaxError(
        f"line {line}: {message}",
        Diagnostic(Severity.ERROR, code, message,
                   SourceSpan(line, column), None, "rtl"))


_TOKEN_SPEC = [
    ("comment", r"//[^\n]*|#[^\n]*"),
    ("number", r"0x[0-9a-fA-F]+|0b[01]+|[0-9]+"),
    ("name", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("transfer", r"<-"),
    ("op", r"==|!=|<=|>=|<<|>>|&&|\|\||[-+*&|^~!<>=(){}\[\],;:]"),
    ("newline", r"\n"),
    ("space", r"[ \t\r]+"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_KEYWORDS = {"machine", "input", "output", "register", "wire", "memory",
             "always", "begin", "end", "if", "else"}


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int = 1):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def _tokenize(text: str,
              collector: Optional[DiagnosticCollector] = None) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            error = _syntax_error(
                "RTL001", line, column,
                f"unexpected character {text[position]!r}")
            if collector is None:
                raise error
            collector.add(error.diagnostic)
            position += 1          # skip the bad character and carry on
            continue
        column = match.start() - line_start + 1
        position = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "newline":
            line += 1
            line_start = position
            continue
        if kind in ("space", "comment"):
            continue
        if kind == "name" and value in _KEYWORDS:
            tokens.append(_Token("keyword", value, line, column))
        else:
            tokens.append(_Token(kind, value, line, column))
    tokens.append(_Token("eof", "", line, max(1, len(text) - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token],
                 collector: Optional[DiagnosticCollector] = None):
        self.tokens = tokens
        self.collector = collector
        self.recovering = collector is not None
        self.index = 0

    # -- token helpers -----------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.accept(kind, text)
        if token is None:
            actual = self.peek()
            expected = text if text is not None else kind
            raise _syntax_error(
                "RTL007", actual.line, actual.column,
                f"expected {expected!r}, found {actual.text!r}")
        return token

    # -- recovery -----------------------------------------------------------------

    def _record(self, error: RtlSyntaxError) -> None:
        self.collector.add(error.diagnostic)

    def _resync_statement(self) -> None:
        """Skip tokens until just past a ``;`` or just before ``end``/eof."""
        while True:
            token = self.peek()
            if token.kind == "eof":
                return
            if token.kind == "keyword" and token.text == "end":
                return
            self.advance()
            if token.kind == "op" and token.text == ";":
                return

    # -- grammar ------------------------------------------------------------------

    def parse_machine(self) -> MachineDescription:
        try:
            self.expect("keyword", "machine")
            name = self.expect("name").text
            self.expect("op", ";")
        except RtlSyntaxError as error:
            if not self.recovering:
                raise
            self._record(error)
            machine = MachineDescription("<invalid>")
            machine.poisoned = True
            return machine
        machine = MachineDescription(name)
        while self.peek().kind == "keyword" and self.peek().text in (
            "input", "output", "register", "wire", "memory"
        ):
            if self.recovering:
                try:
                    self._parse_declaration_line(machine)
                except RtlSyntaxError as error:
                    self._record(error)
                    self._resync_statement()
            else:
                self._parse_declaration_line(machine)
        try:
            self.expect("keyword", "always")
        except RtlSyntaxError as error:
            if not self.recovering:
                raise
            self._record(error)
            machine.poisoned = True
            return machine
        machine.body = self._parse_block()
        try:
            self.expect("eof")
        except RtlSyntaxError as error:
            if not self.recovering:
                raise
            self._record(error)
        return machine

    def _parse_declaration_line(self, machine: MachineDescription) -> None:
        kind_token = self.advance()
        kind = DeclKind(kind_token.text)
        while True:
            name_token = self.expect("name")
            name = name_token.text
            self.expect("op", "[")
            first = self._parse_integer()
            self.expect("op", "]")
            depth = 0
            width = first
            if kind is DeclKind.MEMORY:
                self.expect("op", "[")
                width = self._parse_integer()
                self.expect("op", "]")
                depth = first
            try:
                machine.declare(kind, name, width, depth)
            except ValueError as exc:
                raise _syntax_error("RTL004", name_token.line,
                                    name_token.column, str(exc)) from exc
            if not self.accept("op", ","):
                break
        self.expect("op", ";")

    def _parse_integer(self) -> int:
        token = self.expect("number")
        return _parse_number(token.text)

    def _parse_block(self) -> Block:
        try:
            self.expect("keyword", "begin")
        except RtlSyntaxError as error:
            if not self.recovering:
                raise
            self._record(error)
            self._resync_statement()
            return Block(())
        statements: List[Statement] = []
        while not self.accept("keyword", "end"):
            if self.peek().kind == "eof":
                error = _syntax_error(
                    "RTL008", self.peek().line, self.peek().column,
                    "unterminated block (missing 'end')")
                if not self.recovering:
                    raise error
                self._record(error)
                break
            if self.recovering:
                try:
                    statements.append(self._parse_statement())
                except RtlSyntaxError as error:
                    self._record(error)
                    self._resync_statement()
            else:
                statements.append(self._parse_statement())
        return Block(tuple(statements))

    def _parse_statement(self) -> Statement:
        if self.peek().kind == "keyword" and self.peek().text == "begin":
            return self._parse_block()
        if self.accept("keyword", "if"):
            self.expect("op", "(")
            condition = self._parse_expression()
            self.expect("op", ")")
            then_branch = self._statement_as_block(self._parse_statement())
            else_branch: Optional[Block] = None
            if self.accept("keyword", "else"):
                else_branch = self._statement_as_block(self._parse_statement())
            return IfStatement(condition, then_branch, else_branch)
        return self._parse_assignment()

    @staticmethod
    def _statement_as_block(statement: Statement) -> Block:
        if isinstance(statement, Block):
            return statement
        return Block((statement,))

    def _parse_assignment(self) -> Assignment:
        target = self._parse_primary(allow_target=True)
        if not isinstance(target, (Identifier, BitSelect, MemoryAccess)):
            raise _syntax_error(
                "RTL006", self.peek().line, self.peek().column,
                "assignment target must be a name, bit-select or memory "
                "reference")
        if self.accept("transfer"):
            clocked = True
        else:
            self.expect("op", "=")
            clocked = False
        value = self._parse_expression()
        self.expect("op", ";")
        return Assignment(target, value, clocked)

    # Expression grammar (precedence climbing, lowest first).
    def _parse_expression(self) -> Expression:
        return self._parse_logical_or()

    def _parse_logical_or(self) -> Expression:
        left = self._parse_logical_and()
        while self.peek().kind == "op" and self.peek().text == "||":
            self.advance()
            left = BinaryOp("||", left, self._parse_logical_and())
        return left

    def _parse_logical_and(self) -> Expression:
        left = self._parse_bitwise_or()
        while self.peek().kind == "op" and self.peek().text == "&&":
            self.advance()
            left = BinaryOp("&&", left, self._parse_bitwise_or())
        return left

    def _parse_bitwise_or(self) -> Expression:
        left = self._parse_bitwise_xor()
        while self.peek().kind == "op" and self.peek().text == "|":
            self.advance()
            left = BinaryOp("|", left, self._parse_bitwise_xor())
        return left

    def _parse_bitwise_xor(self) -> Expression:
        left = self._parse_bitwise_and()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            left = BinaryOp("^", left, self._parse_bitwise_and())
        return left

    def _parse_bitwise_and(self) -> Expression:
        left = self._parse_comparison()
        while self.peek().kind == "op" and self.peek().text == "&":
            self.advance()
            left = BinaryOp("&", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> Expression:
        left = self._parse_shift()
        while self.peek().kind == "op" and self.peek().text in ("==", "!=", "<", "<=", ">", ">="):
            operator = self.advance().text
            left = BinaryOp(operator, left, self._parse_shift())
        return left

    def _parse_shift(self) -> Expression:
        left = self._parse_additive()
        while self.peek().kind == "op" and self.peek().text in ("<<", ">>"):
            operator = self.advance().text
            left = BinaryOp(operator, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_unary()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            operator = self.advance().text
            left = BinaryOp(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token.kind == "op" and token.text in ("~", "-", "!"):
            self.advance()
            return UnaryOp(token.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self, allow_target: bool = False) -> Expression:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Constant(_parse_number(token.text))
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self._parse_expression()
            self.expect("op", ")")
            return inner
        if token.kind == "op" and token.text == "{":
            self.advance()
            parts = [self._parse_expression()]
            while self.accept("op", ","):
                parts.append(self._parse_expression())
            self.expect("op", "}")
            return Concatenate(tuple(parts))
        if token.kind == "name":
            self.advance()
            name = token.text
            if self.accept("op", "["):
                first = self._parse_expression()
                if self.accept("op", ":"):
                    second = self._parse_expression()
                    self.expect("op", "]")
                    high = _require_constant(first, token.line)
                    low = _require_constant(second, token.line)
                    return BitSelect(Identifier(name), high, low)
                self.expect("op", "]")
                if isinstance(first, Constant):
                    return BitSelect(Identifier(name), first.value, first.value)
                return MemoryAccess(name, first)
            return Identifier(name)
        raise _syntax_error("RTL009", token.line, token.column,
                            f"unexpected token {token.text!r}")


def _require_constant(expression: Expression, line: int) -> int:
    if not isinstance(expression, Constant):
        raise _syntax_error("RTL010", line, 1,
                            "bit-range bounds must be constants")
    return expression.value


def _parse_number(text: str) -> int:
    if text.startswith("0x") or text.startswith("0X"):
        return int(text, 16)
    if text.startswith("0b") or text.startswith("0B"):
        return int(text, 2)
    return int(text, 10)


def parse_rtl(text: str,
              collector: Optional[DiagnosticCollector] = None
              ) -> MachineDescription:
    """Parse RTL source text into a :class:`MachineDescription`.

    With a ``collector`` the parser recovers from malformed declarations
    and statements (resynchronizing at the next semicolon) and records
    every problem instead of raising on the first; a machine whose header
    or ``always`` section is unreadable comes back with
    ``machine.poisoned`` set; any other machine also gets its semantic
    diagnostics (``RTL1xx``, :func:`~repro.rtl.check.check_machine`) recorded.
    """
    machine = _Parser(_tokenize(text, collector), collector).parse_machine()
    if collector is not None and collector.has_errors:
        machine.poisoned = machine.poisoned or not machine.body.statements
    if collector is not None and not machine.poisoned:
        collector.extend(check_machine(machine))
    return machine
