"""Flow-wide diagnostics: typed messages, budgets, logging and fallbacks.

Every layer of the toolchain reports problems through the same small
vocabulary defined here:

* a :class:`Diagnostic` is one typed message — a severity, a stable code
  (``CIF012``, ``ERC003``, ...), human-readable text, an optional
  :class:`SourceSpan` pointing into the offending source text, and an
  optional hint on how to fix it;
* a :class:`DiagnosticCollector` accumulates diagnostics across a pass
  (parser recovery, ERC, sign-off) so a bad input produces *all* of its
  problems instead of dying on the first;
* :class:`DiagnosticError` is the mixin base of every typed exception the
  toolchain raises (:class:`~repro.cif.parser.CifSyntaxError`,
  :class:`~repro.rtl.parser.RtlSyntaxError`, :class:`BudgetExceeded`, ...).
  Each subclass also inherits the historical builtin
  (``ValueError``/``RuntimeError``) it replaced, so existing ``except``
  clauses keep working while new code can catch the whole structured family
  with ``except DiagnosticError``;
* a :class:`Budget` bounds loops that previously could run forever
  (settle sweeps, routing, path enumeration), raising
  :class:`BudgetExceeded` instead of hanging;
* :func:`run_with_fallback` recovers from a failed step with a warning —
  the artifact store discards a corrupt blob and reports a miss
  (``STO001``–``STO003``) — unless ``REPRO_STRICT=1`` is set, in which case
  the failure is fatal so CI cannot silently mask it.  Engines have no
  fallback: a fault in a compiled kernel or spatial index propagates as
  itself, and their reference implementations are test oracles only.

Code families: ``RTL0xx`` RTL syntax, ``RTL1xx`` the static rules both RTL
back ends enforce at construction (:mod:`repro.rtl.check`), ``RTL2xx`` legal
RTL the gate compiler cannot synthesise; ``ERC006``–``008`` are also what
``Module.validate()`` returns, ``FSM0xx`` what ``FSM.validate()`` returns.
Codes are stable and never reused: ``FBK001``–``FBK007`` (the default
fallback code, the gate-level kernel, incremental switch-level settle, the
RTL compiler, indexed extraction, indexed DRC and worker-pool degradation)
and ``ROU008`` (legacy blind L-route) are retired along with the code paths
that emitted them.
``ROU010`` (duplicate block name, negative spacing) and ``ROU011`` (a
connection naming an unknown block, port or pad) reject a malformed
placement problem (:mod:`repro.assembly.floorplan`).

Logging: the ``repro`` logger hierarchy carries the same information as the
diagnostics (a :class:`DiagnosticCollector` logs everything it records).
The library installs only a ``NullHandler``; applications opt in with
:func:`configure_logging`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, List, Optional, TypeVar

from repro.obs import metrics as _metrics

_T = TypeVar("_T")

_ROOT_LOGGER = logging.getLogger("repro")
_ROOT_LOGGER.addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """The ``repro.<name>`` logger (children inherit the repro handlers)."""
    return logging.getLogger(f"repro.{name}" if not name.startswith("repro")
                             else name)


def configure_logging(level: int = logging.INFO,
                      stream=None) -> logging.Logger:
    """Attach one stream handler to the ``repro`` logger (idempotent).

    Libraries stay silent by default (``NullHandler``); tools and services
    call this once to surface warnings (fallbacks, budget trips, recovered
    parse errors) on stderr or a stream of their choosing.
    """
    for handler in _ROOT_LOGGER.handlers:
        if getattr(handler, "_repro_configured", False):
            handler.setLevel(level)
            _ROOT_LOGGER.setLevel(level)
            return _ROOT_LOGGER
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(level)
    handler._repro_configured = True     # type: ignore[attr-defined]
    _ROOT_LOGGER.addHandler(handler)
    _ROOT_LOGGER.setLevel(level)
    return _ROOT_LOGGER


def strict_mode() -> bool:
    """True when ``REPRO_STRICT`` is set (CI): store recoveries become fatal."""
    from repro import config

    return config.strict_mode()


# -- diagnostics --------------------------------------------------------------------------


class Severity(Enum):
    """How bad a diagnostic is; ordered so severities compare meaningfully."""

    INFO = 10
    WARNING = 20
    ERROR = 30
    FATAL = 40

    def __lt__(self, other: "Severity") -> bool:
        return self.value < other.value

    def __le__(self, other: "Severity") -> bool:
        return self.value <= other.value


@dataclass(frozen=True)
class SourceSpan:
    """A region of source text: 1-based line/column, inclusive end."""

    line: int
    column: int = 1
    end_line: Optional[int] = None
    end_column: Optional[int] = None

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One typed message from a pass: severity, stable code, text, span."""

    severity: Severity
    code: str                       # stable, e.g. "CIF012", "ERC003"
    message: str
    span: Optional[SourceSpan] = None
    hint: Optional[str] = None
    source: str = ""                # subsystem: "cif", "rtl", "erc", "sim", ...

    def render(self) -> str:
        where = f" at {self.span}" if self.span is not None else ""
        text = f"{self.severity.name.lower()} [{self.code}]{where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def __str__(self) -> str:
        return self.render()


class DiagnosticCollector:
    """Accumulates diagnostics across a pass and mirrors them to logging."""

    def __init__(self, source: str = "", logger: Optional[logging.Logger] = None):
        self.source = source
        self.diagnostics: List[Diagnostic] = []
        self._logger = logger or get_logger(source or "diagnostics")

    # -- recording ------------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        _metrics.counter(f"diagnostics.{diagnostic.code}").inc()
        level = {Severity.INFO: logging.INFO,
                 Severity.WARNING: logging.WARNING,
                 Severity.ERROR: logging.ERROR,
                 Severity.FATAL: logging.CRITICAL}[diagnostic.severity]
        self._logger.log(level, "%s", diagnostic.render())
        return diagnostic

    def emit(self, severity: Severity, code: str, message: str,
             span: Optional[SourceSpan] = None,
             hint: Optional[str] = None) -> Diagnostic:
        return self.add(Diagnostic(severity, code, message, span, hint,
                                   self.source))

    def info(self, code: str, message: str, **kw) -> Diagnostic:
        return self.emit(Severity.INFO, code, message, **kw)

    def warning(self, code: str, message: str, **kw) -> Diagnostic:
        return self.emit(Severity.WARNING, code, message, **kw)

    def error(self, code: str, message: str, **kw) -> Diagnostic:
        return self.emit(Severity.ERROR, code, message, **kw)

    def fatal(self, code: str, message: str, **kw) -> Diagnostic:
        return self.emit(Severity.FATAL, code, message, **kw)

    def extend(self, diagnostics) -> None:
        for diagnostic in diagnostics:
            self.add(diagnostic)

    # -- queries --------------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if Severity.ERROR <= d.severity]

    @property
    def has_errors(self) -> bool:
        return any(Severity.ERROR <= d.severity for d in self.diagnostics)

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def summary(self) -> str:
        counts = {}
        for diagnostic in self.diagnostics:
            key = diagnostic.severity.name.lower()
            counts[key] = counts.get(key, 0) + 1
        if not counts:
            return "no diagnostics"
        return ", ".join(f"{count} {name}" for name, count in
                         sorted(counts.items()))


# -- typed exceptions ---------------------------------------------------------------------


class DiagnosticError(Exception):
    """Mixin base of every typed toolchain exception.

    Subclasses also inherit the historical builtin exception they replaced
    (``CifSyntaxError(DiagnosticError, ValueError)``,
    ``BudgetExceeded(DiagnosticError, RuntimeError)``), so pre-existing
    ``except ValueError`` / ``except RuntimeError`` call sites keep working.
    ``str()`` stays the bare message — several differential tests compare
    exception text across execution paths.
    """

    #: Default code used when the raise site does not attach a diagnostic.
    default_code = "GEN001"

    def __init__(self, message: str,
                 diagnostic: Optional[Diagnostic] = None):
        super().__init__(message)
        self._diagnostic = diagnostic

    @property
    def diagnostic(self) -> Diagnostic:
        if self._diagnostic is None:
            return Diagnostic(Severity.ERROR, self.default_code, str(self))
        return self._diagnostic

    @property
    def span(self) -> Optional[SourceSpan]:
        return self.diagnostic.span


class BudgetExceeded(DiagnosticError, RuntimeError):
    """An iteration budget ran out before convergence.

    Replaces the bare ``RuntimeError`` the settle/enumeration loops used to
    raise (and still subclasses it, so ``except RuntimeError`` holds).
    """

    default_code = "GRD001"


#: Ticks between updates of a budget's ``consumed_fraction`` gauge.
_GAUGE_EVERY = 256


@dataclass
class Budget:
    """An iteration budget for a loop that must not hang.

    ``tick()`` counts one iteration and raises :class:`BudgetExceeded` once
    the iteration cap is exhausted.  The consumption gauge is updated only
    every ``_GAUGE_EVERY`` ticks so the common case stays one integer
    compare.
    """

    iterations: Optional[int] = None
    label: str = "loop"
    code: str = "GRD001"
    count: int = 0

    def consumed_fraction(self) -> float:
        """How much of the iteration budget is used (0.0–1.0+, 0 if uncapped)."""
        if not self.iterations:
            return 0.0
        return self.count / self.iterations

    def _record_consumption(self) -> None:
        name = self.label.replace(" ", "_")
        _metrics.gauge(
            f"budget.{name}.consumed_fraction").set(self.consumed_fraction())

    def tick(self, message: Optional[str] = None) -> int:
        self.count += 1
        if self.iterations is not None and self.count > self.iterations:
            self._record_consumption()
            _metrics.counter(f"budget.exceeded.{self.code}").inc()
            raise BudgetExceeded(
                message or f"{self.label} exceeded {self.iterations} iterations",
                Diagnostic(Severity.ERROR, self.code,
                           message or (f"{self.label} exceeded "
                                       f"{self.iterations} iterations"),
                           hint="raise the budget or check for oscillation"))
        if self.count % _GAUGE_EVERY == 0:
            self._record_consumption()
        return self.count


# -- guarded fallback ---------------------------------------------------------------------


def run_with_fallback(label: str,
                      primary: Callable[[], _T],
                      fallback: Callable[[], _T],
                      *,
                      code: str) -> _T:
    """Run ``primary``; on unexpected failure degrade to ``fallback``.

    The degradation is *never* silent: it is logged as a warning on the
    ``repro.fallback`` logger and counted as ``fallback.<code>``.
    :class:`BudgetExceeded` always propagates — a budget trip means the
    input genuinely diverges.  With ``REPRO_STRICT=1`` the original
    exception propagates instead of falling back, so CI surfaces the
    failure rather than hiding it behind the recovery.
    """
    try:
        return primary()
    except BudgetExceeded:
        raise
    except Exception as exc:                      # noqa: BLE001 - the point
        if strict_mode():
            raise
        _metrics.counter(f"fallback.{code}").inc()
        diagnostic = Diagnostic(
            Severity.WARNING, code,
            f"{label}: failed ({type(exc).__name__}: {exc}); falling back",
            hint="set REPRO_STRICT=1 to make this fatal")
        # Render the full diagnostic (not just the message) so the
        # stable code is greppable in plain logs too.
        get_logger("fallback").warning("%s", diagnostic.render())
        return fallback()


__all__ = [
    "Severity",
    "SourceSpan",
    "Diagnostic",
    "DiagnosticCollector",
    "DiagnosticError",
    "BudgetExceeded",
    "Budget",
    "get_logger",
    "configure_logging",
    "strict_mode",
    "run_with_fallback",
]
