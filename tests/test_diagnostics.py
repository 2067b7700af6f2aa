"""Unit tests for the flow-wide diagnostics vocabulary.

Covers the typed message model (severity ordering, spans, rendering), the
collector, the typed-exception mixin contract (every toolchain exception is
both a :class:`DiagnosticError` and its historical builtin), budgets, and
the guarded fallback helper including ``REPRO_STRICT`` behaviour.
"""

import logging

import pytest

from repro.diagnostics import (
    Budget,
    BudgetExceeded,
    Diagnostic,
    DiagnosticCollector,
    DiagnosticError,
    Severity,
    SourceSpan,
    configure_logging,
    get_logger,
    run_with_fallback,
    strict_mode,
)


class TestDiagnostic:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR < Severity.FATAL
        assert Severity.ERROR <= Severity.ERROR
        assert not Severity.ERROR < Severity.WARNING

    def test_span_rendering(self):
        span = SourceSpan(12, 3)
        assert str(span) == "line 12, column 3"

    def test_render_with_span_and_hint(self):
        diagnostic = Diagnostic(Severity.ERROR, "CIF012", "bad box",
                                SourceSpan(4, 1), hint="fix the box",
                                source="cif")
        text = diagnostic.render()
        assert "[CIF012]" in text
        assert "line 4" in text
        assert "hint: fix the box" in text
        assert str(diagnostic) == text

    def test_render_without_span(self):
        diagnostic = Diagnostic(Severity.WARNING, "ERC003", "dead port")
        assert "at line" not in diagnostic.render()


class TestCollector:
    def test_accumulates_and_queries(self):
        collector = DiagnosticCollector("cif")
        collector.warning("CIF001", "odd")
        collector.error("CIF002", "bad", span=SourceSpan(2, 5))
        collector.info("CIF003", "fyi")
        assert len(collector) == 3
        assert collector.has_errors
        assert [d.code for d in collector.errors()] == ["CIF002"]
        assert collector.codes() == ["CIF001", "CIF002", "CIF003"]
        assert collector.by_severity(Severity.INFO)[0].message == "fyi"
        # Every diagnostic carries the collector's source subsystem.
        assert {d.source for d in collector} == {"cif"}

    def test_summary(self):
        collector = DiagnosticCollector()
        assert collector.summary() == "no diagnostics"
        collector.error("X001", "one")
        collector.error("X001", "two")
        collector.warning("X002", "three")
        assert collector.summary() == "2 error, 1 warning"

    def test_extend_and_fatal_counts_as_error(self):
        collector = DiagnosticCollector()
        collector.extend([Diagnostic(Severity.FATAL, "X003", "boom")])
        assert collector.has_errors

    def test_mirrors_to_logging(self, caplog):
        collector = DiagnosticCollector("erc")
        with caplog.at_level(logging.WARNING, logger="repro.erc"):
            collector.warning("ERC004", "feedback")
        assert any("ERC004" in record.message for record in caplog.records)


class TestTypedExceptions:
    def test_every_typed_exception_keeps_its_builtin_base(self):
        from repro.cif.parser import CifSyntaxError
        from repro.netlist import NetlistError
        from repro.rtl.parser import RtlSyntaxError

        assert issubclass(CifSyntaxError, ValueError)
        assert issubclass(RtlSyntaxError, ValueError)
        assert issubclass(NetlistError, ValueError)
        assert issubclass(BudgetExceeded, RuntimeError)
        for exc_type in (CifSyntaxError, RtlSyntaxError, NetlistError,
                         BudgetExceeded):
            assert issubclass(exc_type, DiagnosticError)

    def test_str_is_the_bare_message(self):
        # Differential tests compare str(error) across execution paths; the
        # diagnostic must not leak into it.
        error = BudgetExceeded("did not settle",
                               Diagnostic(Severity.ERROR, "GRD002",
                                          "did not settle"))
        assert str(error) == "did not settle"
        assert error.diagnostic.code == "GRD002"

    def test_default_diagnostic_when_none_attached(self):
        error = BudgetExceeded("ran out")
        assert error.diagnostic.code == "GRD001"
        assert error.diagnostic.severity is Severity.ERROR
        assert error.span is None

    def test_span_property_reads_the_attached_diagnostic(self):
        error = DiagnosticError("bad", Diagnostic(
            Severity.ERROR, "GEN001", "bad", SourceSpan(7)))
        assert error.span == SourceSpan(7)


class TestBudget:
    def test_iteration_cap(self):
        budget = Budget(iterations=3, label="probe", code="GRD009")
        for _ in range(3):
            budget.tick()
        with pytest.raises(BudgetExceeded) as info:
            budget.tick()
        assert "probe exceeded 3 iterations" in str(info.value)
        assert info.value.diagnostic.code == "GRD009"

    def test_unlimited_budget_only_counts(self):
        budget = Budget()
        for _ in range(10000):
            budget.tick()
        assert budget.count == 10000

    def test_custom_message(self):
        budget = Budget(iterations=0)
        with pytest.raises(BudgetExceeded, match="custom text"):
            budget.tick("custom text")


class TestRunWithFallback:
    def test_primary_success_never_calls_fallback(self):
        calls = []
        result = run_with_fallback(
            "probe", lambda: "fast", lambda: calls.append("slow"),
            code="STO001")
        assert result == "fast"
        assert not calls

    def test_degrades_with_a_warning(self, caplog, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro.fallback"):
            result = run_with_fallback(
                "probe", lambda: 1 / 0, lambda: "reference", code="FBK009")
        assert result == "reference"
        assert any("falling back" in record.message
                   for record in caplog.records)

    def test_budget_exceeded_always_propagates(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)

        def diverges():
            raise BudgetExceeded("oscillates")

        with pytest.raises(BudgetExceeded):
            run_with_fallback("probe", diverges, lambda: "never",
                              code="STO001")

    def test_strict_mode_makes_fallback_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        with pytest.raises(ZeroDivisionError):
            run_with_fallback("probe", lambda: 1 / 0, lambda: "reference",
                              code="STO001")

    def test_strict_mode_parsing(self, monkeypatch):
        for value, expected in (("", False), ("0", False), ("1", True),
                                ("yes", True)):
            monkeypatch.setenv("REPRO_STRICT", value)
            assert strict_mode() is expected
        monkeypatch.delenv("REPRO_STRICT")
        assert strict_mode() is False


class TestLogging:
    def test_get_logger_is_namespaced(self):
        assert get_logger("erc").name == "repro.erc"
        assert get_logger("repro.sim").name == "repro.sim"

    def test_configure_logging_is_idempotent(self):
        logger = configure_logging()
        before = len(logger.handlers)
        configure_logging(logging.DEBUG)
        assert len(logger.handlers) == before
