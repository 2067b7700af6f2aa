"""Streaming VCD (Value Change Dump) waveform export and a minimal reader.

The simulators in this toolchain are three-valued: a net is ``0``, ``1``
or unknown (``None`` in Python, ``x`` in a waveform viewer).  The
exemplar silicon compilers made their simulators debuggable at scale by
emitting standard waveform dumps instead of custom logs; :class:`VcdWriter`
does the same for :class:`~repro.netlist.GateLevelSimulator`,
:class:`~repro.netlist.SwitchLevelSimulator`, the bitplane batch runner and
:class:`~repro.rtl.RtlSimulator` — the files load in GTKWave or any IEEE
1364 VCD consumer.

Only value *changes* are written per timestep, so long quiet traces stay
small.  Multi-bit signals (RTL registers, buses) are declared with a
``width`` and dumped in binary vector form; an unknown multi-bit value
dumps as all-``x``.

:func:`parse_vcd` is the matching minimal reader: it understands exactly
the subset the writer emits (plus comments and whitespace variations) and
returns declarations and per-signal change lists, so golden-trace tests
round-trip through it without external tools.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "VcdWriter",
    "streaming",
    "VcdTrace",
    "parse_vcd",
    "read_vcd",
    "trace_to_vcd",
]

#: Printable identifier characters the VCD standard allows for id codes.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _id_code(index: int) -> str:
    """The ``index``-th VCD identifier: ``!``, ``"``, ..., ``~``, ``!!``, ..."""
    chars = []
    while True:
        chars.append(_ID_CHARS[index % len(_ID_CHARS)])
        index //= len(_ID_CHARS)
        if index == 0:
            return "".join(chars)
        index -= 1


def _format_value(value: Optional[int], width: int, code: str) -> str:
    if width == 1:
        bit = "x" if value is None else str(value & 1)
        return f"{bit}{code}"
    if value is None:
        return f"b{'x' * width} {code}"
    return f"b{value & ((1 << width) - 1):0{width}b} {code}"


class VcdWriter:
    """Stream net traces to a VCD file as simulation proceeds.

    Declare signals with :meth:`add_signal` (implicitly width 1 when first
    seen in a sample), then call :meth:`sample` once per timestep with the
    current values; only changes are written.  Use as a context manager or
    call :meth:`close`::

        with VcdWriter("adder.vcd") as vcd:
            vcd.add_signal("sum")
            for cycle, values in enumerate(traces):
                vcd.sample(cycle, values)
    """

    def __init__(self, target: Union[str, IO[str]], timescale: str = "1 ns",
                 module: str = "top"):
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.timescale = timescale
        self.module = module
        self._signals: Dict[str, Tuple[str, int]] = {}   # name -> (code, width)
        self._last: Dict[str, Optional[int]] = {}
        self._header_done = False
        self._closed = False

    def __enter__(self) -> "VcdWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def add_signal(self, name: str, width: int = 1) -> None:
        """Declare a signal; must happen before the first :meth:`sample`."""
        if self._header_done:
            raise ValueError(
                f"cannot declare {name!r} after the first sample")
        if width < 1:
            raise ValueError(f"signal {name!r} must have positive width")
        if name not in self._signals:
            self._signals[name] = (_id_code(len(self._signals)), width)

    def _write_header(self) -> None:
        out = self._handle
        out.write(f"$timescale {self.timescale} $end\n")
        out.write(f"$scope module {self.module} $end\n")
        for name, (code, width) in self._signals.items():
            out.write(f"$var wire {width} {code} {name} $end\n")
        out.write("$upscope $end\n")
        out.write("$enddefinitions $end\n")
        self._header_done = True

    def sample(self, time: int, values: Mapping[str, Optional[int]]) -> None:
        """Record one timestep; emits only the nets that changed.

        The first sample declares any not-yet-declared names as 1-bit wires
        and dumps every signal (inside ``$dumpvars``) so viewers have an
        initial value; missing names in later samples mean "unchanged".
        """
        if not self._header_done:
            for name in values:
                self.add_signal(name)
            self._write_header()
            self._handle.write(f"#{time}\n$dumpvars\n")
            for name, (code, width) in self._signals.items():
                value = values.get(name)
                self._handle.write(_format_value(value, width, code) + "\n")
                self._last[name] = value
            self._handle.write("$end\n")
            return
        changes = []
        for name, value in values.items():
            signal = self._signals.get(name)
            if signal is None:
                raise KeyError(f"signal {name!r} was not declared")
            if self._last.get(name, "?") != value:
                changes.append(_format_value(value, signal[1], signal[0]))
                self._last[name] = value
        if changes:
            self._handle.write(f"#{time}\n")
            for change in changes:
                self._handle.write(change + "\n")

    def close(self) -> None:
        if self._closed:
            return
        if not self._header_done and self._signals:
            self._write_header()    # declarations-only dump is still valid
        self._closed = True
        if self._owns_handle:
            self._handle.close()


@contextmanager
def streaming(vcd: Union[None, str, VcdWriter],
              module: str) -> Iterator[Optional[VcdWriter]]:
    """A simulator's ``vcd=`` argument as the writer of one run.

    A path is opened here and closed when the run ends; an open
    :class:`VcdWriter`, or ``None``, passes through and stays the caller's.
    """
    if not isinstance(vcd, str):
        yield vcd
        return
    with VcdWriter(vcd, module=module) as writer:
        yield writer


# -- the minimal reader -------------------------------------------------------


@dataclass
class VcdTrace:
    """A parsed VCD file: declarations plus per-signal change lists."""

    timescale: str = ""
    signals: Dict[str, int] = field(default_factory=dict)   # name -> width
    changes: Dict[str, List[Tuple[int, Optional[int]]]] = (
        field(default_factory=dict))                         # name -> [(t, v)]

    def value_at(self, name: str, time: int) -> Optional[int]:
        """The signal's value at ``time`` (last change at or before it)."""
        value: Optional[int] = None
        for when, new in self.changes.get(name, []):
            if when > time:
                break
            value = new
        return value


def _parse_scalar(token: str, names: Dict[str, str]) -> Tuple[str, Optional[int]]:
    state, code = token[0], token[1:]
    if code not in names:
        raise ValueError(f"undeclared VCD id code {code!r}")
    if state in "xXzZ":
        return names[code], None
    if state in "01":
        return names[code], int(state)
    raise ValueError(f"bad scalar value change {token!r}")


def parse_vcd(text: str) -> VcdTrace:
    """Parse the VCD subset :class:`VcdWriter` emits.

    Supports ``$timescale``/``$scope``/``$var``/``$enddefinitions`` headers,
    ``#<time>`` stamps, scalar (``1!``) and vector (``b1010 !``) changes,
    with ``x``/``z`` states mapping to ``None``.  Raises ``ValueError`` on
    anything structurally wrong (undeclared id codes, bad vectors, a value
    change before ``$enddefinitions``).
    """
    trace = VcdTrace()
    by_code: Dict[str, str] = {}
    in_definitions = True
    time = 0
    saw_time = False
    tokens = text.split()
    i = 0

    def directive_body(start: int) -> Tuple[List[str], int]:
        body = []
        j = start
        while j < len(tokens) and tokens[j] != "$end":
            body.append(tokens[j])
            j += 1
        if j >= len(tokens):
            raise ValueError(f"unterminated {tokens[start - 1]!r} directive")
        return body, j + 1

    while i < len(tokens):
        token = tokens[i]
        if token.startswith("$"):
            if token == "$var":
                body, i = directive_body(i + 1)
                if len(body) < 4:
                    raise ValueError(f"malformed $var: {' '.join(body)!r}")
                width, code, name = int(body[1]), body[2], body[3]
                trace.signals[name] = width
                trace.changes.setdefault(name, [])
                by_code[code] = name
            elif token == "$timescale":
                body, i = directive_body(i + 1)
                trace.timescale = " ".join(body)
            elif token == "$enddefinitions":
                _, i = directive_body(i + 1)
                in_definitions = False
            elif token in ("$dumpvars", "$end"):
                i += 1      # value changes between $dumpvars ... $end
            else:
                _, i = directive_body(i + 1)    # $scope/$upscope/$comment/...
            continue
        if token.startswith("#"):
            time = int(token[1:])
            saw_time = True
            i += 1
            continue
        if in_definitions:
            raise ValueError(f"value change {token!r} before $enddefinitions")
        if not saw_time:
            raise ValueError(f"value change {token!r} before any timestamp")
        if token[0] in "bB":
            if i + 1 >= len(tokens):
                raise ValueError(f"vector change {token!r} missing id code")
            bits, code = token[1:], tokens[i + 1]
            if code not in by_code:
                raise ValueError(f"undeclared VCD id code {code!r}")
            name = by_code[code]
            value: Optional[int]
            if any(b in "xXzZ" for b in bits):
                value = None
            else:
                value = int(bits, 2)
            trace.changes[name].append((time, value))
            i += 2
            continue
        name, scalar = _parse_scalar(token, by_code)
        trace.changes[name].append((time, scalar))
        i += 1
    if in_definitions and trace.signals:
        raise ValueError("VCD ended inside the definitions section")
    return trace


def read_vcd(path: str) -> VcdTrace:
    """Load and parse a VCD file (see :func:`parse_vcd`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_vcd(handle.read())


def trace_to_vcd(cycles: Iterable[Mapping[str, Optional[int]]],
                 target: Union[str, IO[str]],
                 widths: Optional[Mapping[str, int]] = None,
                 timescale: str = "1 ns",
                 module: str = "top") -> None:
    """Dump an already-recorded trace (one mapping per cycle) as VCD.

    Convenience wrapper for post-hoc export — e.g. one of the per-stream
    ``StreamTrace`` sequences :func:`repro.sim.bitplane.run_streams`
    returns (its row dicts are built when first read, so dumping a stream
    builds that stream's rows), or a ``SimulationTrace.cycles`` list.
    ``widths`` widens named signals beyond the 1-bit default.
    """
    with VcdWriter(target, timescale=timescale, module=module) as writer:
        first = True
        for time, values in enumerate(cycles):
            if first and widths:
                for name in values:
                    writer.add_signal(name, widths.get(name, 1))
            first = False
            writer.sample(time, values)
