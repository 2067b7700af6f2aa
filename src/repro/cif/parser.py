"""CIF 2.0 parser.

Parses the subset of CIF emitted by :mod:`repro.cif.writer` plus the common
constructs found in era files: comments in parentheses, symbol definitions
``DS``/``DF``, boxes, polygons, wires, round flashes, layer selection, calls
with arbitrary ``T``/``R``/``MX``/``MY`` transform lists, the ``9`` symbol
name and ``94`` label user extensions, and the terminating ``E``.

The parser rebuilds a :class:`~repro.layout.library.Library`; geometry
emitted with the writer's default scale convention round-trips exactly.

Error handling comes in two modes:

* **raising** (the default, no collector): the first malformed command
  raises :class:`CifSyntaxError` — now carrying a typed
  :class:`~repro.diagnostics.Diagnostic` with a stable ``CIF0xx`` code and
  a :class:`~repro.diagnostics.SourceSpan` locating the offending command;
* **recovering** (pass a :class:`~repro.diagnostics.DiagnosticCollector`):
  the parser resynchronizes at the next statement boundary (CIF commands
  are semicolon-terminated), **poisons** the symbol definition containing
  the error (it is dropped from the result, and calls to it are skipped
  with a warning), and returns the partial library together with every
  diagnostic found — so one bad cell no longer destroys a whole-chip read.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    DiagnosticError,
    Severity,
    SourceSpan,
)
from repro.geometry.path import Path
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.library import Library
from repro.layout.shapes import Shape
from repro.runtime import gc_paused
from repro.technology.technology import Technology
from repro.technology.nmos import NMOS


class CifSyntaxError(DiagnosticError, ValueError):
    """Raised when CIF text cannot be parsed (raising mode only)."""

    default_code = "CIF000"


class _Recover(Exception):
    """Internal resynchronization signal (recovering mode only)."""


_ROTATION_TO_ORIENTATION = {
    (1, 0): Orientation.R0,
    (0, 1): Orientation.R90,
    (-1, 0): Orientation.R180,
    (0, -1): Orientation.R270,
}


#: The writer's header comment, ``( library <name> technology <tech> );``.
_LIBRARY_HEADER = re.compile(r"\(\s*library\s+([^\s()]+)\s+technology\b[^)]*\)")


def _library_name(text: str) -> str:
    """The library name the writer's header records, else ``"parsed"``."""
    header = _LIBRARY_HEADER.search(text)
    return header.group(1) if header else "parsed"


def _strip_comments(text: str) -> str:
    """Blank parenthesised comments, preserving offsets and newlines."""
    return re.sub(r"\([^)]*\)",
                  lambda m: re.sub(r"[^\n]", " ", m.group()), text)


class _Command:
    """One semicolon-terminated command with its source location."""

    __slots__ = ("text", "span")

    def __init__(self, text: str, span: SourceSpan):
        self.text = text
        self.span = span


def _scan_commands(text: str) -> List[_Command]:
    """Split comment-stripped text on semicolons, keeping source spans."""
    stripped = _strip_comments(text)
    line_starts = [0]
    for index, char in enumerate(stripped):
        if char == "\n":
            line_starts.append(index + 1)

    def locate(offset: int) -> Tuple[int, int]:
        line_index = bisect_right(line_starts, offset) - 1
        return line_index + 1, offset - line_starts[line_index] + 1

    commands: List[_Command] = []
    offset = 0
    for chunk in stripped.split(";"):
        body = chunk.strip()
        if body:
            start = offset + len(chunk) - len(chunk.lstrip())
            end = start + len(body) - 1
            line, column = locate(start)
            end_line, end_column = locate(end)
            span = SourceSpan(line, column, end_line, end_column)
        else:
            line, column = locate(offset)
            span = SourceSpan(line, column)
        commands.append(_Command(body, span))
        offset += len(chunk) + 1
    return commands


class CifParser:
    """Parses CIF text into a library."""

    def __init__(self, technology: Optional[Technology] = None):
        self.technology = technology if technology is not None else NMOS

    def parse(self, text: str, library_name: Optional[str] = None,
              collector: Optional[DiagnosticCollector] = None) -> Library:
        """Parse ``text``; with a ``collector``, recover instead of raising.

        Without a ``library_name`` the library takes the name the writer's
        header comment records (``"parsed"`` when there is none), so that
        writing the parsed library reproduces the text it came from.
        """
        if library_name is None:
            library_name = _library_name(text)
        with gc_paused():
            return _Run(self.technology, collector).parse(text, library_name)


class _Run:
    """One parse: holds the per-parse state and the error policy."""

    def __init__(self, technology: Technology,
                 collector: Optional[DiagnosticCollector]):
        self.technology = technology
        self.collector = collector
        self.recovering = collector is not None
        self.cells_by_id: Dict[int, Cell] = {}
        self.poisoned: Set[int] = set()
        self.deferred_calls: List[Tuple[Cell, Optional[int], int, Transform]] = []
        self.top_level_calls: List[Tuple[int, Transform, SourceSpan]] = []
        self.current_cell: Optional[Cell] = None
        self.current_id: Optional[int] = None
        self.current_layer: str = ""
        self.span: SourceSpan = SourceSpan(1, 1)

    # -- error policy -------------------------------------------------------

    def error(self, code: str, message: str,
              span: Optional[SourceSpan] = None,
              hint: Optional[str] = None) -> "Exception":
        """Report one error: raise (default) or record, poison and resync."""
        diagnostic = Diagnostic(Severity.ERROR, code, message,
                                span or self.span, hint, "cif")
        if not self.recovering:
            raise CifSyntaxError(message, diagnostic)
        self.collector.add(diagnostic)
        self._poison_current()
        raise _Recover()

    def warn(self, code: str, message: str,
             span: Optional[SourceSpan] = None) -> None:
        diagnostic = Diagnostic(Severity.WARNING, code, message,
                                span or self.span, None, "cif")
        if self.recovering:
            self.collector.add(diagnostic)

    def _poison_current(self) -> None:
        if self.current_id is not None:
            self.poisoned.add(self.current_id)

    # -- main loop ----------------------------------------------------------

    def parse(self, text: str, library_name: str) -> Library:
        library = Library(library_name, self.technology)
        ended = False
        for command in _scan_commands(text):
            raw = command.text
            if not raw or ended:
                if raw and ended:
                    break
                continue
            self.span = command.span
            try:
                ended = self._dispatch(raw)
            except _Recover:
                continue
        self._finish(ended)
        self._link_calls()
        for cell_id, cell in self.cells_by_id.items():
            if cell_id in self.poisoned:
                continue
            if cell.name not in library:
                library.add_cell(cell)
        self._materialise_top_calls(library)
        return library

    def _dispatch(self, raw: str) -> bool:
        """Process one command; returns True when ``E`` ends the file."""
        command, args = self._split_command(raw)

        if command == "DS":
            if self.current_cell is not None:
                # In recovery, close (and poison) the unterminated symbol so
                # the new definition can still be read.
                if self.recovering:
                    self._poison_current()
                    self.cells_by_id[self.current_id] = self.current_cell
                    self.current_cell = None
                    self.current_id = None
                    self.warn("CIF002", "nested DS without DF: previous "
                              "symbol poisoned")
                else:
                    self.error("CIF002", "nested DS without DF")
            values = self._ints(args)
            if not values:
                self.error("CIF003", "DS requires a symbol number")
            self.current_id = values[0]
            if self.current_id in self.cells_by_id:
                self.warn("CIF019",
                          f"symbol {self.current_id} redefined")
            self.current_cell = Cell(f"symbol_{self.current_id}")
            self.current_layer = ""
        elif command == "DF":
            if self.current_cell is None:
                self.error("CIF004", "DF without matching DS")
            self.cells_by_id[self.current_id] = self.current_cell
            self.current_cell = None
            self.current_id = None
        elif command == "9":
            if self.current_cell is None:
                self.error("CIF005",
                           "symbol name (9) outside a symbol definition")
            if args:
                self.current_cell.name = args[0]
        elif command == "94":
            if self.current_cell is None:
                return False
            if len(args) < 3:
                self.error("CIF006", f"malformed label command: {raw!r}")
            label_text = args[0]
            x, y = self._ints(args[1:3])
            layer_arg = args[3] if len(args) > 3 else ""
            layer_name = self._resolve_layer(layer_arg) if layer_arg else ""
            self.current_cell.add_label(label_text, Point(x, y), layer_name)
        elif command == "L":
            if not args:
                self.error("CIF007", "L command requires a layer name")
            self.current_layer = self._resolve_layer(args[0])
        elif command == "B":
            self._require_cell(raw)
            self._parse_box(args, raw)
        elif command == "P":
            self._require_cell(raw)
            values = self._ints(args)
            if len(values) < 6 or len(values) % 2:
                self.error("CIF009", f"malformed polygon: {raw!r}")
            rect = _written_rect(values)
            if rect is not None:
                self.current_cell.add_shape(Shape(self.current_layer, rect))
                return False
            points = [Point(values[i], values[i + 1])
                      for i in range(0, len(values), 2)]
            try:
                shape = Shape(self.current_layer, Polygon(points))
            except ValueError as exc:
                self.error("CIF009", f"malformed polygon: {raw!r} ({exc})")
            self.current_cell.add_shape(shape)
        elif command == "W":
            self._require_cell(raw)
            values = self._ints(args)
            if len(values) < 5 or (len(values) - 1) % 2:
                self.error("CIF010", f"malformed wire: {raw!r}")
            width = values[0]
            points = [Point(values[i], values[i + 1])
                      for i in range(1, len(values), 2)]
            try:
                shape = Shape(self.current_layer, Path(points, width))
            except ValueError as exc:
                self.error("CIF010", f"malformed wire: {raw!r} ({exc})")
            self.current_cell.add_shape(shape)
        elif command == "R":
            # Round flash: approximate as a square box of the same diameter.
            self._require_cell(raw)
            values = self._ints(args)
            if len(values) != 3:
                self.error("CIF011", f"malformed round flash: {raw!r}")
            diameter, cx, cy = values
            if diameter <= 0:
                self.error("CIF011",
                           f"round flash with non-positive diameter: {raw!r}")
            half = diameter // 2
            rect = Rect(cx - half, cy - half,
                        cx - half + diameter, cy - half + diameter)
            self.current_cell.add_shape(Shape(self.current_layer, rect))
        elif command == "C":
            call_id, transform = self._parse_call(args, raw)
            if self.current_cell is not None:
                self.deferred_calls.append(
                    (self.current_cell, self.current_id, call_id, transform))
            else:
                self.top_level_calls.append((call_id, transform, self.span))
        elif command == "E":
            return True
        elif command == "DD":
            values = self._ints(args)
            threshold = values[0] if values else 0
            self.cells_by_id = {k: v for k, v in self.cells_by_id.items()
                                if k < threshold}
        elif command.isdigit():
            # Unknown user extension: ignored per the CIF specification.
            pass
        else:
            self.error("CIF014", f"unrecognised CIF command: {raw!r}")
        return False

    def _finish(self, ended: bool) -> None:
        if self.current_cell is not None:
            if self.recovering:
                self._poison_current()
                if self.current_id is not None:
                    self.cells_by_id[self.current_id] = self.current_cell
                self.collector.add(Diagnostic(
                    Severity.ERROR, "CIF015",
                    "unterminated symbol definition (missing DF)",
                    self.span, "the open symbol was poisoned", "cif"))
                self.current_cell = None
                self.current_id = None
            else:
                raise CifSyntaxError(
                    "unterminated symbol definition (missing DF)",
                    Diagnostic(Severity.ERROR, "CIF015",
                               "unterminated symbol definition (missing DF)",
                               self.span, None, "cif"))
        if not ended:
            if self.recovering:
                self.collector.add(Diagnostic(
                    Severity.ERROR, "CIF016",
                    "missing E command at end of CIF file",
                    self.span, "the file may be truncated", "cif"))
            else:
                raise CifSyntaxError(
                    "missing E command at end of CIF file",
                    Diagnostic(Severity.ERROR, "CIF016",
                               "missing E command at end of CIF file",
                               self.span, "the file may be truncated", "cif"))

    # -- linking ------------------------------------------------------------

    def _link_calls(self) -> None:
        for parent, parent_id, call_id, transform in self.deferred_calls:
            if parent_id in self.poisoned:
                continue
            child = self.cells_by_id.get(call_id)
            if child is None:
                if self.recovering:
                    self.collector.add(Diagnostic(
                        Severity.ERROR, "CIF017",
                        f"call to undefined symbol {call_id}",
                        None, f"instance dropped from {parent.name!r}", "cif"))
                    continue
                raise CifSyntaxError(
                    f"call to undefined symbol {call_id}",
                    Diagnostic(Severity.ERROR, "CIF017",
                               f"call to undefined symbol {call_id}",
                               None, None, "cif"))
            if call_id in self.poisoned:
                self.warn("CIF020",
                          f"call to poisoned symbol {call_id} skipped "
                          f"in {parent.name!r}", None)
                continue
            parent.add_instance(child, transform)

    def _materialise_top_calls(self, library: Library) -> None:
        # Represent top-level calls by a synthetic wrapper only when a call
        # carries a non-identity transform; a plain "C id;" just marks the top.
        for call_id, transform, span in self.top_level_calls:
            target = self.cells_by_id.get(call_id)
            if target is None or call_id in self.poisoned:
                message = (f"top-level call to undefined symbol {call_id}"
                           if target is None else
                           f"top-level call to poisoned symbol {call_id}")
                if self.recovering:
                    self.collector.add(Diagnostic(
                        Severity.ERROR, "CIF018", message, span, None, "cif"))
                    continue
                raise CifSyntaxError(
                    message,
                    Diagnostic(Severity.ERROR, "CIF018", message, span,
                               None, "cif"))
            if not transform.is_identity:
                wrapper = library.new_cell(f"top_{target.name}")
                wrapper.add_instance(target, transform)

    # -- helpers ------------------------------------------------------------

    def _ints(self, parts: List[str]) -> List[int]:
        values = []
        for part in parts:
            try:
                values.append(int(part))
            except ValueError:
                self.error("CIF001", f"expected integer, got {part!r}")
        return values

    def _split_command(self, raw: str) -> Tuple[str, List[str]]:
        parts = raw.replace(",", " ").split()
        keyword = parts[0].upper()
        if keyword[0].isdigit() and not keyword.isdigit():
            # e.g. "94label" is not legal in our writer; treat as syntax error.
            self.error("CIF021", f"malformed command: {raw!r}")
        if keyword in ("DS", "DF", "DD"):
            return keyword, parts[1:]
        if keyword[0] in "BPWRLCE9":
            # Single-letter commands may have the first argument glued on
            # (e.g. "B4 6 0 0") per the CIF grammar; handle the common case.
            if len(keyword) > 1 and keyword[0] in "BPWRLC" and keyword[1:].lstrip("-").isdigit():
                return keyword[0], [keyword[1:]] + parts[1:]
            return keyword, parts[1:]
        return keyword, parts[1:]

    def _require_cell(self, raw: str) -> None:
        if self.current_cell is None:
            self.error("CIF008",
                       f"geometry outside a symbol definition: {raw!r}")

    def _resolve_layer(self, cif_name: str) -> str:
        layer = self.technology.layers.by_cif_name(cif_name)
        if layer is not None:
            return layer.name
        return cif_name

    def _parse_box(self, args: List[str], raw: str) -> None:
        values = self._ints(args)
        if len(values) not in (4, 6):
            self.error("CIF012", f"malformed box: {raw!r}")
        width, height, cx, cy = values[:4]
        if len(values) == 6:
            direction = (values[4], values[5])
            if direction not in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                self.error("CIF012",
                           f"non-Manhattan box direction unsupported: {raw!r}")
            if direction in ((0, 1), (0, -1)):
                width, height = height, width
        if width <= 0 or height <= 0:
            self.error("CIF012", f"box with non-positive size: {raw!r}")
        x1 = cx - width // 2
        y1 = cy - height // 2
        rect = Rect(x1, y1, x1 + width, y1 + height)
        self.current_cell.add_shape(Shape(self.current_layer, rect))

    def _parse_call(self, args: List[str], raw: str) -> Tuple[int, Transform]:
        if not args:
            self.error("CIF013", f"call without symbol number: {raw!r}")
        try:
            call_id = int(args[0])
        except ValueError:
            self.error("CIF013",
                       f"call with non-integer symbol number: {raw!r}")
        transform = Transform.identity()
        index = 1
        while index < len(args):
            token = args[index].upper()
            if token == "T":
                values = self._ints(args[index + 1:index + 3])
                if len(values) != 2:
                    self.error("CIF013", f"malformed translate in call: {raw!r}")
                transform = transform.then(Transform.translate(values[0], values[1]))
                index += 3
            elif token == "R":
                values = self._ints(args[index + 1:index + 3])
                if len(values) != 2:
                    self.error("CIF013", f"malformed rotate in call: {raw!r}")
                orientation = _ROTATION_TO_ORIENTATION.get(
                    (_sign(values[0]), _sign(values[1])))
                if orientation is None:
                    self.error("CIF013",
                               f"non-Manhattan rotation unsupported: {raw!r}")
                transform = transform.then(Transform(orientation, Point(0, 0)))
                index += 3
            elif token == "MX":
                transform = transform.then(Transform.mirror_x())
                index += 1
            elif token == "MY":
                transform = transform.then(Transform.mirror_y())
                index += 1
            else:
                self.error("CIF013",
                           f"unrecognised call transform {token!r} in {raw!r}")
        return call_id, transform


def _written_rect(values: List[int]) -> Optional[Rect]:
    """The rect a ``P`` with these coordinates was written for, if any.

    The writer emits a rect as ``B`` when its centre is on the grid and
    otherwise as the ``P`` of its corners counter-clockwise from the
    lower-left (:meth:`Rect.corners`).  Exactly that form parses back to a
    :class:`Rect`, so the shape is placed and checked as the rect it was
    drawn as, and writing it again gives the same ``P``.  Any other
    polygon, a rectangle in another vertex order or a degenerate one
    included, stays a :class:`Polygon`.
    """
    if len(values) != 8:
        return None
    x1, y1, x2, y1b, x2b, y2, x1b, y2b = values
    if (x1 < x2 and y1 < y2 and x2b == x2 and x1b == x1 and y1b == y1
            and y2b == y2 and ((x1 + x2) % 2 or (y1 + y2) % 2)):
        return Rect(x1, y1, x2, y2)
    return None


def _sign(value: int) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def parse_cif(text: str, technology: Optional[Technology] = None,
              library_name: Optional[str] = None,
              collector: Optional[DiagnosticCollector] = None) -> Library:
    """Parse CIF text into a library (convenience wrapper).

    The library is named ``library_name``, else by the writer's header
    comment, else ``"parsed"``.  Pass a
    :class:`~repro.diagnostics.DiagnosticCollector` to recover from
    malformed commands (poisoning the affected symbols) instead of raising
    on the first error.
    """
    return CifParser(technology).parse(text, library_name, collector)
