"""Electrical rule checking: unit checks, goldens, and sign-off integration.

Four layers:

* **hand-built networks** — each check (ERC001–ERC005) demonstrated on the
  smallest network that trips it, plus the legitimate structures (series
  stacks, cross-coupled latches, constant-1 pullups) that must *not* trip
  the error-severity checks;
* **gate-level modules** — the structural variants (ERC006–ERC008 and
  module-level feedback);
* **the report's columns** — every read of an ``ErcReport`` answers the
  same before and after a pickle round trip, the column reads build no
  ``ErcViolation``, and ``add`` drops the memoised list;
* **goldens** — the four example designs of the flow, checked through the
  hierarchical analyzer's ERC artifact cache and the assembler's
  ``sign_off``, with corrupted variants producing the expected codes.
"""

import os
import pickle
import sys

import pytest

from repro.analysis import HierAnalyzer
from repro.cells import InverterCell, NandCell
from repro.diagnostics import Severity
from repro.erc import ErcChecker, ErcViolation, check_network
from repro.extract import extract_cell
from repro.generators import FsmLayoutGenerator, PlaGenerator
from repro.logic import TruthTable, parse_expr
from repro.netlist import GateType, Module
from repro.netlist.switch_sim import SwitchNetwork, TransistorKind
from repro.technology import nmos_technology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402
from traffic_light_controller import build_fsm  # noqa: E402


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


def inverter_into(network, input_node, output_node):
    """The canonical ratioed-NMOS inverter: depletion pullup, gated pulldown."""
    network.add_transistor(output_node, output_node, "vdd",
                           TransistorKind.DEPLETION, name=f"pu_{output_node}")
    network.add_transistor(input_node, output_node, "gnd",
                           name=f"pd_{output_node}")


# -- switch-level checks on hand-built networks -------------------------------


class TestSwitchLevelChecks:
    def test_clean_inverter(self):
        network = SwitchNetwork("inv")
        inverter_into(network, "a", "out")
        network.add_input("a")
        network.add_output("out")
        report = check_network(network)
        assert report.clean
        assert not report.violations
        assert report.device_count == 2

    def test_floating_gate_is_erc001(self):
        network = SwitchNetwork("float")
        inverter_into(network, "nowhere", "out")
        network.add_output("out")
        report = check_network(network)
        assert not report.clean
        [violation] = report.errors()
        assert violation.code == "ERC001"
        assert "nowhere" in violation.message
        assert violation.devices == ("pd_out",)

    def test_boundary_nodes_count_as_driven(self):
        # A gate on a declared input is fine even though no channel drives it.
        network = SwitchNetwork("gated")
        inverter_into(network, "a", "out")
        network.add_input("a")
        report = check_network(network)
        assert "ERC001" not in report.codes()

    def test_supply_short_is_erc002(self):
        network = SwitchNetwork("short")
        network.add_transistor("x", "vdd", "mid", TransistorKind.DEPLETION,
                               name="d1")
        network.add_transistor("y", "mid", "gnd", TransistorKind.DEPLETION,
                               name="d2")
        report = check_network(network)
        codes = report.codes()
        assert "ERC002" in codes
        short = report.by_code()["ERC002"][0]
        assert set(short.devices) == {"d1", "d2"}

    def test_ratioed_fight_is_not_a_short(self):
        # The pullup/pulldown fight of a plain inverter is normal NMOS.
        network = SwitchNetwork("inv")
        inverter_into(network, "a", "out")
        network.add_input("a")
        report = check_network(network)
        assert "ERC002" not in report.codes()

    def test_dead_port_is_erc003(self):
        network = SwitchNetwork("dead")
        inverter_into(network, "a", "out")
        network.add_input("a")
        network.add_input("unused")
        report = check_network(network)
        assert report.clean   # warning only
        [violation] = report.warnings()
        assert violation.code == "ERC003"
        assert violation.nodes == ("unused",)

    def test_cross_coupled_latch_is_erc004_warning(self):
        network = SwitchNetwork("latch")
        inverter_into(network, "q", "qb")
        inverter_into(network, "qb", "q")
        network.add_output("q")
        report = check_network(network)
        assert report.clean
        assert "ERC004" in report.codes()

    def test_self_feeding_device_is_erc004(self):
        network = SwitchNetwork("selfloop")
        inverter_into(network, "out", "out")
        network.add_output("out")
        report = check_network(network)
        assert "ERC004" in report.codes()

    def test_series_stack_is_not_feedback(self):
        # A NAND pulldown stack is one channel-connected group; the
        # intermediate node must not read as a cycle.
        network = SwitchNetwork("nand")
        network.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION)
        network.add_transistor("a", "out", "mid")
        network.add_transistor("b", "mid", "gnd")
        network.add_input("a")
        network.add_input("b")
        network.add_output("out")
        report = check_network(network)
        assert not report.violations

    def test_oversized_pullup_is_erc005_error(self):
        network = SwitchNetwork("ratio")
        network.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION,
                               width=8, length=2, name="pu")
        network.add_transistor("a", "out", "gnd", width=2, length=2)
        network.add_input("a")
        report = check_network(network)
        [violation] = report.errors()
        assert violation.code == "ERC005"
        assert violation.severity is Severity.ERROR
        assert "stronger" in violation.message

    def test_depletion_pass_device_is_erc005_warning(self):
        network = SwitchNetwork("pass")
        inverter_into(network, "a", "x")
        network.add_transistor("en", "x", "y", TransistorKind.DEPLETION,
                               name="pass0")
        network.add_input("a")
        network.add_input("en")
        report = check_network(network)
        assert report.clean
        assert any(v.code == "ERC005" and v.devices == ("pass0",)
                   for v in report.warnings())

    def test_constant_one_pullup_is_legal(self):
        network = SwitchNetwork("const1")
        network.add_transistor("one", "one", "vdd", TransistorKind.DEPLETION)
        network.add_output("one")
        report = check_network(network)
        assert "ERC005" not in report.codes()

    def test_report_surface(self):
        network = SwitchNetwork("surface")
        inverter_into(network, "nowhere", "out")
        network.add_input("unused")
        report = check_network(network)
        assert "1 error(s)" in report.summary()
        diagnostics = report.diagnostics()
        assert {d.source for d in diagnostics} == {"erc"}
        assert all(d.hint for d in diagnostics)
        assert str(report.violations[0]).startswith("[ERC")


# -- gate-level module checks -------------------------------------------------


class TestModuleChecks:
    def test_undriven_output_is_erc006(self):
        module = Module("undriven")
        module.add_output("y")
        report = ErcChecker().check_module(module)
        [violation] = report.errors()
        assert violation.code == "ERC006"

    def test_unknown_net_is_erc007(self):
        module = Module("ghostly")
        module.add_input("a")
        module.add_output("y")
        module.add_gate(GateType.NOT, "y", ["a"])
        module.instances[0].connections["in0"] = "ghost"
        report = ErcChecker().check_module(module)
        assert any(v.code == "ERC007" and "ghost" in v.message
                   for v in report.errors())

    def test_multiple_drivers_is_erc008(self):
        module = Module("contended")
        module.add_inputs("a", "b")
        module.add_output("y")
        module.add_gate(GateType.NOT, "y", ["a"])
        module.add_gate(GateType.NOT, "y", ["b"])
        report = ErcChecker().check_module(module)
        assert any(v.code == "ERC008" for v in report.errors())

    def test_combinational_loop_is_erc004(self):
        module = Module("loop")
        module.add_gate(GateType.NOT, "p", ["q"])
        module.add_gate(GateType.NOT, "q", ["p"])
        report = ErcChecker().check_module(module)
        assert any(v.code == "ERC004" for v in report.warnings())

    def test_register_feedback_is_not_a_loop(self):
        module = Module("counter")
        module.add_output("q")
        module.add_gate(GateType.NOT, "d", ["q"])
        module.add_gate(GateType.DFF, "q", ["d"])
        report = ErcChecker().check_module(module)
        assert "ERC004" not in report.codes()

    def test_clean_module(self):
        module = Module("clean")
        module.add_inputs("a", "b")
        module.add_output("y")
        module.add_gate(GateType.AND, "y", ["a", "b"])
        report = ErcChecker().check_module(module)
        assert report.clean
        assert not report.violations


# -- the report's columns -----------------------------------------------------


def mixed_reports():
    """Reports with error and warning rows from both checkers: ERC001,
    ERC003 and ERC004 on one network, ERC005 (error) on another, and
    ERC006 / ERC008 / ERC004 on a gate-level module."""
    floating = SwitchNetwork("mixed")
    inverter_into(floating, "nowhere", "out")
    inverter_into(floating, "q", "q")
    floating.add_input("unused")
    ratio = SwitchNetwork("ratio")
    ratio.add_transistor("out", "out", "vdd", TransistorKind.DEPLETION,
                         width=8, length=2, name="pu")
    ratio.add_transistor("a", "out", "gnd", width=2, length=2)
    ratio.add_input("a")
    module = Module("contended")
    module.add_inputs("a", "b")
    module.add_outputs("y", "z")
    module.add_gate(GateType.NOT, "y", ["a"])
    module.add_gate(GateType.NOT, "y", ["b"])
    module.add_gate(GateType.NOT, "p", ["r"])
    module.add_gate(GateType.NOT, "r", ["p"])
    checker = ErcChecker()
    return [checker.check_network(floating), checker.check_network(ratio),
            checker.check_module(module)]


def answers(report):
    """Everything the report's read API says, as one comparable tuple."""
    return (report.name, report.device_count, report.node_count,
            report.clean, report.errors(), report.warnings(), report.codes(),
            report.by_code(), report.diagnostics(), report.summary(),
            report.violations)


class TestReportColumns:
    def test_the_reports_cover_errors_and_warnings_of_both_checkers(self):
        codes = [set(report.codes()) for report in mixed_reports()]
        assert codes == [{"ERC001", "ERC003", "ERC004"}, {"ERC005"},
                         {"ERC006", "ERC008", "ERC004"}]
        for report in mixed_reports():
            assert not report.clean
            assert all(v.severity is Severity.ERROR for v in report.errors())

    def test_reads_agree_across_a_pickle_round_trip(self, monkeypatch):
        from repro.erc import checker

        built = []

        def counting(*fields):
            built.append(fields[0])
            return ErcViolation(*fields)

        for report in mixed_reports():
            before = answers(report)
            blob = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
            assert b"ErcViolation" not in blob
            copy = pickle.loads(blob)
            assert copy == report
            with monkeypatch.context() as patch:
                patch.setattr(checker, "ErcViolation", counting)
                # The column reads build nothing; errors() builds its rows.
                assert (copy.clean, copy.codes(), copy.summary(),
                        copy.weight()) == (report.clean, report.codes(),
                                           report.summary(), report.weight())
                assert built == []
                assert len(copy.errors()) == len(built) > 0
            assert answers(copy) == before
            del built[:]

    def test_add_after_a_read_drops_the_view(self):
        report = mixed_reports()[1]
        first = report.violations
        assert report.violations is first
        report.add("ERC003", Severity.WARNING, "port 'x' touches no device",
                   nodes=("x",))
        again = report.violations
        assert again is not first
        assert again[:-1] == first
        assert again[-1] == ErcViolation("ERC003", Severity.WARNING,
                                         "port 'x' touches no device",
                                         nodes=("x",))
        assert report.violations is again
        assert report.warnings() == [again[-1]]
        assert report.codes() == [v.code for v in again]


# -- goldens: leaf cells and the four example designs -------------------------


def adder_pla(technology):
    table = TruthTable.from_expressions(
        {"sum": parse_expr("a ^ b ^ cin"),
         "carry": parse_expr("a & b | a & cin | b & cin")},
        input_names=["a", "b", "cin"])
    return PlaGenerator(technology, table, name="erc_adder_pla").cell()


def wrap_in_chip(name, cell, technology):
    from repro.assembly import ChipAssembler

    assembler = ChipAssembler(name, technology)
    assembler.add_block("core", cell)
    assembler.add_supply_pads()
    assembler.assemble()
    return assembler


@pytest.fixture(scope="module")
def sign_off_reports(technology):
    """Sign-off of all four example designs through one shared analyzer."""
    analyzer = HierAnalyzer(technology)
    reports = {}
    assembler = wrap_in_chip("erc_quickstart", adder_pla(technology),
                             technology)
    reports["quickstart"] = assembler.sign_off(analyzer)
    fsm_cell = FsmLayoutGenerator(technology, build_fsm()).cell()
    reports["fsm"] = wrap_in_chip("erc_fsm", fsm_cell,
                                  technology).sign_off(analyzer)
    family_assembler, _chip = build_chip("erc_family_4b", 4, 0)
    reports["family"] = family_assembler.sign_off(analyzer)
    from pdp8_subset_compiler import compiled_machine_summary
    _compiled, layout, _report = compiled_machine_summary()
    reports["pdp8"] = wrap_in_chip("erc_pdp8", layout,
                                   technology).sign_off(analyzer)
    return analyzer, reports


class TestLeafCellsClean:
    def test_inverter_and_nand_extract_erc_clean(self, technology):
        for generator in (InverterCell(technology), NandCell(technology)):
            circuit = extract_cell(generator.cell(), technology)
            report = ErcChecker().check_circuit(circuit)
            assert not report.violations, report.summary()


class TestExampleDesignGoldens:
    def test_sign_off_includes_an_erc_section(self, sign_off_reports):
        _analyzer, reports = sign_off_reports
        for name, report in reports.items():
            assert report.erc is not None, name
            assert report.erc.device_count > 0, name
            assert report.erc.summary()

    def test_quickstart_golden(self, sign_off_reports):
        report = sign_off_reports[1]["quickstart"].erc
        assert report.clean
        # The only findings are dead chip-level label nodes (warnings).
        assert set(report.codes()) <= {"ERC003"}

    def test_fsm_golden(self, sign_off_reports):
        report = sign_off_reports[1]["fsm"].erc
        # The FSM generator's feedback register loop plus one genuine
        # always-on VDD-to-GND path in its clock driver stage.
        assert [v.code for v in report.errors()] == ["ERC002"]
        assert "ERC004" in report.codes()

    def test_family_golden(self, sign_off_reports):
        report = sign_off_reports[1]["family"].erc
        errors = report.errors()
        assert len(errors) == 4
        assert {v.code for v in errors} == {"ERC001"}
        # Four distinct floating gates, each on an anonymous extracted node.
        assert len({v.nodes for v in errors}) == 4

    def test_pdp8_golden(self, sign_off_reports):
        report = sign_off_reports[1]["pdp8"].erc
        assert report.clean
        assert set(report.codes()) == {"ERC004"}   # register feedback only

    def test_family_run_shares_erc_artifacts(self, sign_off_reports):
        # The four chips share generator cells; the shared analyzer must
        # have served some of their ERC from cache.
        analyzer, _reports = sign_off_reports
        assert analyzer.stats["erc_artifacts"] > 0
        assert analyzer.stats["erc_hits"] > 0

    def test_erc_artifacts_are_cached(self, technology):
        cell = adder_pla(technology)
        analyzer = HierAnalyzer(technology)
        first = analyzer.erc(cell)
        built = analyzer.stats["erc_artifacts"]
        assert built > 0
        second = analyzer.erc(cell)
        assert second is first                      # served from cache
        assert analyzer.stats["erc_artifacts"] == built
        assert analyzer.stats["erc_hits"] >= 1
        # Mutating the cell invalidates exactly its artifact.
        cell.add_box("metal", -30, -30, -26, -26)
        third = analyzer.erc(cell)
        assert third is not first
        assert analyzer.stats["erc_artifacts"] > built

    def test_erc_matches_flat_extraction(self, technology):
        # The cached hierarchical ERC equals ERC on the flat extraction.
        cell = adder_pla(technology)
        analyzer = HierAnalyzer(technology)
        hier_report = analyzer.erc(cell)
        flat_report = ErcChecker().check_circuit(
            extract_cell(cell, technology))
        assert hier_report.codes() == flat_report.codes()
        assert hier_report.device_count == flat_report.device_count


class TestCorruptedVariants:
    """Corrupted versions of a real design produce the expected codes."""

    def _extracted(self, technology):
        return extract_cell(adder_pla(technology), technology)

    def test_injected_floating_gate(self, technology):
        circuit = self._extracted(technology)
        circuit.network.add_transistor("detached_poly", "vdd", "gnd",
                                       name="mx_float")
        report = ErcChecker().check_circuit(circuit)
        assert any(v.code == "ERC001" and v.devices == ("mx_float",)
                   for v in report.errors())

    def test_injected_supply_short(self, technology):
        circuit = self._extracted(technology)
        circuit.network.add_transistor("x", "vdd", "gnd",
                                       TransistorKind.DEPLETION,
                                       name="mx_short")
        report = ErcChecker().check_circuit(circuit)
        assert any(v.code == "ERC002" for v in report.errors())

    def test_injected_overstrong_pullup(self, technology):
        circuit = self._extracted(technology)
        # Add a monster pullup onto a node that has a real pulldown to fight.
        out = next(t for device in circuit.network.transistors
                   if device.kind is TransistorKind.ENHANCEMENT
                   for t in (device.source, device.drain)
                   if t not in ("vdd", "gnd"))
        circuit.network.add_transistor(out, out, "vdd",
                                       TransistorKind.DEPLETION,
                                       width=40, length=2, name="mx_pullup")
        report = ErcChecker().check_circuit(circuit)
        assert any(v.code == "ERC005" and v.severity is Severity.ERROR
                   for v in report.violations)
