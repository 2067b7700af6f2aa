"""Tests for the RTL language: parsing, simulation, compilation to gates."""

import pytest

from repro.diagnostics import DiagnosticCollector, Severity
from repro.netlist import GateLevelSimulator
from repro.reference import RtlInterpreter
from repro.rtl import (
    RtlCompiler,
    RtlSemanticError,
    RtlSimulator,
    RtlSynthesisError,
    RtlSyntaxError,
    check_machine,
    parse_rtl,
)
from repro.rtl.ast import (
    Assignment,
    BinaryOp,
    BitSelect,
    Block,
    Concatenate,
    Constant,
    DeclKind,
    Identifier,
    IfStatement,
    MachineDescription,
    MemoryAccess,
    UnaryOp,
)
from repro.rtl.compiler import synthesize_layout
from repro.technology import NMOS

COUNTER = """
machine counter;
input load[1], data[4];
output q[4];
register count[4];
always begin
    if (load) count <- data;
    else count <- count + 1;
    q = count;
end
"""

ACCUMULATOR = """
machine accumulator;
// A tiny accumulator machine with subtract and compare.
input op[2], value[8];
output acc_out[8], is_zero[1];
register acc[8];
always begin
    if (op == 1) acc <- acc + value;
    if (op == 2) acc <- acc - value;
    if (op == 3) acc <- 0;
    acc_out = acc;
    is_zero = acc == 0;
end
"""

MEMORY_MACHINE = """
machine memtest;
input we[1], addr[2], din[4];
output dout[4];
memory mem[4][4];
always begin
    if (we) mem[addr] <- din;
    dout = mem[addr];
end
"""


#: Everything that consumes a machine: all three refuse an illegal one at
#: construction, with the same error.
BACK_ENDS = (RtlSimulator, RtlInterpreter, RtlCompiler)


class TestParser:
    def test_declarations(self):
        machine = parse_rtl(COUNTER)
        assert machine.name == "counter"
        assert machine.declaration("data").width == 4
        assert machine.declaration("count").kind is DeclKind.REGISTER
        assert [d.name for d in machine.inputs] == ["load", "data"]

    def test_memory_declaration(self):
        machine = parse_rtl(MEMORY_MACHINE)
        mem = machine.declaration("mem")
        assert mem.kind is DeclKind.MEMORY
        assert mem.depth == 4 and mem.width == 4
        assert machine.total_state_bits() == 16

    def test_comments_and_radix(self):
        machine = parse_rtl("""
        machine m;
        input a[4];   // a comment
        output y[4];  # another comment
        register r[4];
        always begin
            r <- a + 0x3;
            y = r & 0b1010;
        end
        """)
        assert machine.name == "m"

    def test_syntax_error_reports_line(self):
        with pytest.raises(RtlSyntaxError) as excinfo:
            parse_rtl("machine m;\ninput a[1];\nalways begin\n  a b;\nend")
        assert "line" in str(excinfo.value)

    def test_missing_semicolon(self):
        with pytest.raises(RtlSyntaxError):
            parse_rtl("machine m\ninput a[1];\nalways begin end")

    def test_bad_assignment_target(self):
        with pytest.raises(RtlSyntaxError):
            parse_rtl("machine m; input a[1]; always begin a + 1 <- 1; end")

    def test_if_else_structure(self):
        machine = parse_rtl(COUNTER)
        statements = list(machine.body)
        assert statements[0].__class__.__name__ == "IfStatement"
        assert statements[0].else_branch is not None


class TestSimulator:
    def test_counter_counts_and_loads(self):
        sim = RtlSimulator(parse_rtl(COUNTER))
        outputs = [sim.step({"load": 0, "data": 0})["q"] for _ in range(3)]
        assert outputs == [0, 1, 2]
        sim.step({"load": 1, "data": 12})
        assert sim.get("count") == 12
        assert sim.step({"load": 0, "data": 0})["q"] == 12

    def test_counter_wraps_at_width(self):
        sim = RtlSimulator(parse_rtl(COUNTER))
        sim.set_register("count", 15)
        sim.step({"load": 0, "data": 0})
        assert sim.get("count") == 0

    def test_accumulator_operations(self):
        sim = RtlSimulator(parse_rtl(ACCUMULATOR))
        sim.step({"op": 1, "value": 10})
        sim.step({"op": 1, "value": 5})
        assert sim.get("acc") == 15
        sim.step({"op": 2, "value": 6})
        assert sim.get("acc") == 9
        out = sim.step({"op": 3, "value": 0})
        assert sim.get("acc") == 0
        assert sim.step({"op": 0, "value": 0})["is_zero"] == 1

    def test_memory_read_write(self):
        sim = RtlSimulator(parse_rtl(MEMORY_MACHINE))
        sim.step({"we": 1, "addr": 2, "din": 7})
        assert sim.step({"we": 0, "addr": 2, "din": 0})["dout"] == 7
        assert sim.read_memory("mem", 2) == 7

    def test_load_memory_helper(self):
        sim = RtlSimulator(parse_rtl(MEMORY_MACHINE))
        sim.load_memory("mem", [1, 2, 3, 4])
        assert sim.step({"we": 0, "addr": 3, "din": 0})["dout"] == 4
        with pytest.raises(IndexError):
            sim.load_memory("mem", [0] * 5)

    def test_clocked_assign_to_wire_rejected(self):
        source = """
        machine m;
        input a[1];
        output y[1];
        wire w[1];
        always begin
            w <- a;
            y = w;
        end
        """
        machine = parse_rtl(source)
        for back_end in BACK_ENDS:
            with pytest.raises(ValueError) as info:
                back_end(machine)
            assert info.value.diagnostic.code == "RTL103"

    def test_combinational_assign_to_register_rejected(self):
        source = """
        machine m;
        input a[1];
        output y[1];
        register r[1];
        always begin
            r = a;
            y = r;
        end
        """
        machine = parse_rtl(source)
        for back_end in BACK_ENDS:
            with pytest.raises(ValueError) as info:
                back_end(machine)
            assert info.value.diagnostic.code == "RTL104"

    def test_bit_select_read(self):
        source = """
        machine m;
        input a[8];
        output hi[4], bit0[1];
        always begin
            hi = a[7:4];
            bit0 = a[0];
        end
        """
        sim = RtlSimulator(parse_rtl(source))
        out = sim.step({"a": 0xA5})
        assert out["hi"] == 0xA and out["bit0"] == 1

    def test_run_returns_trace(self):
        sim = RtlSimulator(parse_rtl(COUNTER))
        trace = sim.run(4, [{"load": 0, "data": 0}] * 4)
        assert [t["q"] for t in trace] == [0, 1, 2, 3]


def machine_with_body(*statements):
    """``input a[1]; output y[4]; wire w[1]; register r[4]; memory mem[4][4]``."""
    machine = MachineDescription("m")
    machine.declare(DeclKind.INPUT, "a", 1)
    machine.declare(DeclKind.OUTPUT, "y", 4)
    machine.declare(DeclKind.WIRE, "w", 1)
    machine.declare(DeclKind.REGISTER, "r", 4)
    machine.declare(DeclKind.MEMORY, "mem", 4, depth=4)
    machine.body = Block(tuple(statements))
    return machine


def assign(target, value, clocked=False):
    if isinstance(target, str):
        target = Identifier(target)
    if isinstance(value, str):
        value = Identifier(value)
    return Assignment(target, value, clocked)


#: id -> (body, the codes check_machine must report, in order)
ILLEGAL_MACHINES = {
    "undeclared_name_in_dead_branch": (
        [IfStatement(Constant(0), Block((
            assign("y", BinaryOp("+", Identifier("ghost"), Constant(1))),)))],
        ["RTL101"]),
    "bad_value_and_bad_target_both_reported": (
        [assign("nosuch_target", "nosuch_value")], ["RTL101", "RTL101"]),
    "clocked_transfer_to_input": (
        [assign("a", Constant(1), clocked=True)], ["RTL103"]),
    "clocked_transfer_to_wire": (
        [assign("w", "a", clocked=True)], ["RTL103"]),
    "clocked_field_of_wire": (
        [assign(BitSelect(Identifier("w"), 0, 0), "a", clocked=True)],
        ["RTL103"]),
    "combinational_assignment_to_register": (
        [assign("r", "a")], ["RTL104"]),
    "undeclared_memory_read_and_its_address": (
        [assign("y", MemoryAccess("nomem", Identifier("bogus")))],
        ["RTL102", "RTL101"]),
    "register_indexed_like_a_memory": (
        [assign("y", MemoryAccess("r", Identifier("a")))], ["RTL102"]),
    "undeclared_memory_write": (
        [assign(MemoryAccess("nomem", Identifier("a")), "a", clocked=True)],
        ["RTL102"]),
    "memory_used_as_signal": (
        [assign("y", BinaryOp("&&", Constant(0), Identifier("mem")))],
        ["RTL101"]),
    "memory_as_assignment_target": (
        [assign("mem", "a")], ["RTL101"]),
    "bit_select_of_non_name": (
        [assign(BitSelect(Concatenate((Identifier("w"), Identifier("a"))),
                          0, 0), "a")], ["RTL105"]),
    "combinational_memory_write": (
        [assign(MemoryAccess("mem", Identifier("a")), "a")], ["RTL106"]),
    "unknown_operators": (
        [assign("y", BinaryOp("**", UnaryOp("?", Identifier("a")),
                              Constant(1)))], ["RTL107", "RTL107"]),
    "unknown_nodes": (
        [assign("y", 3.5), "not a statement", assign(Constant(1), "a")],
        ["RTL107", "RTL107", "RTL105"]),
}


class TestCheckMachine:
    @pytest.mark.parametrize("case", ILLEGAL_MACHINES)
    def test_back_ends_reject_at_construction(self, case):
        body, codes = ILLEGAL_MACHINES[case]
        machine = machine_with_body(*body)
        diagnostics = check_machine(machine)
        assert [d.code for d in diagnostics] == codes
        assert all(d.severity is Severity.ERROR and d.source == "rtl"
                   for d in diagnostics)
        errors = []
        for back_end in BACK_ENDS:
            with pytest.raises(RtlSemanticError) as info:
                back_end(machine)
            errors.append(info.value)
        assert isinstance(errors[0], ValueError)
        assert errors[0].diagnostics == diagnostics
        assert errors[0].diagnostic == diagnostics[0]
        assert len({str(error) for error in errors}) == 1

    def test_message_names_the_statement(self):
        machine = machine_with_body(assign("w", "a", clocked=True))
        [diagnostic] = check_machine(machine)
        assert diagnostic.message == (
            "clocked transfer to non-register 'w' in `w <- a;`")

    def test_assignment_to_input_is_a_warning_and_still_runs(self, caplog):
        machine = machine_with_body(assign("a", Constant(1)), assign("y", "a"))
        [diagnostic] = check_machine(machine)
        assert (diagnostic.code, diagnostic.severity) == (
            "RTL108", Severity.WARNING)
        with caplog.at_level("WARNING", logger="repro.rtl"):
            assert RtlSimulator(machine).step({"a": 0}) == {"y": 1}
        assert "RTL108" in caplog.text
        RtlCompiler(machine).compile()

    def test_parse_collects_syntax_and_semantics_without_raising(self):
        collector = DiagnosticCollector("rtl")
        machine = parse_rtl("""
        machine m;
        input a[1];
        output y[1];
        wire w[1];
        always begin
            w <- a;
            y = = a;
            y = ghost;
        end
        """, collector=collector)
        assert not machine.poisoned
        assert collector.codes() == ["RTL009", "RTL103", "RTL101"]
        with pytest.raises(RtlSemanticError):
            RtlSimulator(machine)

    def test_poisoned_parse_is_not_checked(self):
        collector = DiagnosticCollector("rtl")
        machine = parse_rtl("machine m; input a[1]; ghost = a;",
                            collector=collector)
        assert machine.poisoned
        assert all(code < "RTL100" for code in collector.codes())

    def test_legal_machines_have_no_diagnostics(self):
        for source in (COUNTER, ACCUMULATOR, MEMORY_MACHINE):
            assert check_machine(parse_rtl(source)) == []

    def test_out_of_range_field_is_masked_by_both_back_ends(self):
        # r is 4 bits wide: bits 4 and 5 of the field fall off the end.
        machine = machine_with_body(
            assign(BitSelect(Identifier("r"), 5, 2), Constant(0b1111),
                   clocked=True),
            assign("y", "r"))
        sim = RtlSimulator(machine)
        sim.step()
        assert sim.step() == {"y": 0b1100}
        gate_sim = GateLevelSimulator(RtlCompiler(machine).compile().module)
        gate_sim.reset()
        gate_sim.clock()
        assert [gate_sim.values[f"y_{i}"] for i in range(4)] == [0, 0, 1, 1]


class TestCompiler:
    def _word(self, cycle, prefix, width):
        return sum((cycle[f"{prefix}_{i}"] or 0) << i for i in range(width))

    def test_counter_netlist_matches_behaviour(self):
        machine = parse_rtl(COUNTER)
        compiled = RtlCompiler(machine).compile()
        assert compiled.dff_count == 4
        gate_sim = GateLevelSimulator(compiled.module)
        gate_sim.reset()
        vectors = [{"load_0": 0, "data_0": 0, "data_1": 0, "data_2": 0, "data_3": 0}] * 6
        trace = gate_sim.run(vectors)
        gate_counts = [self._word(c, "q", 4) for c in trace.cycles]

        rtl_sim = RtlSimulator(machine)
        rtl_counts = [rtl_sim.step({"load": 0, "data": 0})["q"] for _ in range(6)]
        assert gate_counts == rtl_counts

    def test_a_clocked_output_is_a_register_of_its_own(self):
        """``total <- ...`` gets flip-flops buffered to the port, not the
        port's constant-0 nets, and its value shows one cycle later."""
        machine = parse_rtl("""
machine acc;
input x[4], en[1];
output total[4], top[1];
always begin
    if (en) total <- total + x;
    top <- total[3];
end
""")
        compiled = RtlCompiler(machine).compile()
        assert compiled.module.validate() == []
        assert compiled.dff_count == 5
        inputs = [{"x": (7 * k + 3) % 16, "en": k % 3 != 1} for k in range(24)]
        rtl_sim = RtlSimulator(machine)
        expected = [rtl_sim.step(vector) for vector in inputs]
        gate_sim = GateLevelSimulator(compiled.module)
        gate_sim.reset(0)
        trace = gate_sim.run(
            [{**{f"x_{i}": (v["x"] >> i) & 1 for i in range(4)}, "en_0": v["en"]}
             for v in inputs] + [{}])
        produced = [{"total": self._word(cycle, "total", 4),
                     "top": cycle["top_0"]} for cycle in trace.cycles]
        assert produced[1:] == expected
        assert {cycle["top"] for cycle in expected} == {0, 1}

    def test_counter_load_path(self):
        compiled = RtlCompiler(parse_rtl(COUNTER)).compile()
        sim = GateLevelSimulator(compiled.module)
        sim.reset()
        sim.run([{"load_0": 1, "data_0": 1, "data_1": 0, "data_2": 0, "data_3": 1}])
        trace = sim.run([{"load_0": 0, "data_0": 0, "data_1": 0, "data_2": 0, "data_3": 0}])
        assert self._word(trace.cycles[0], "q", 4) == 9

    def test_accumulator_equivalence_random_vectors(self):
        import random
        random.seed(11)
        machine = parse_rtl(ACCUMULATOR)
        compiled = RtlCompiler(machine).compile()
        gate_sim = GateLevelSimulator(compiled.module)
        gate_sim.reset()
        rtl_sim = RtlSimulator(machine)
        for _ in range(12):
            op = random.randint(0, 3)
            value = random.randint(0, 255)
            rtl_out = rtl_sim.step({"op": op, "value": value})
            vector = {f"op_{i}": (op >> i) & 1 for i in range(2)}
            vector.update({f"value_{i}": (value >> i) & 1 for i in range(8)})
            gate_sim.set_inputs(vector)
            gate_sim.settle()
            gate_out = {
                "acc_out": self._word({f"acc_out_{i}": gate_sim.values.get(f"acc_out_{i}")
                                       for i in range(8)}, "acc_out", 8),
                "is_zero": gate_sim.values.get("is_zero_0"),
            }
            assert gate_out["acc_out"] == rtl_out["acc_out"]
            assert gate_out["is_zero"] == rtl_out["is_zero"]
            gate_sim.clock()

    def test_memory_machine_compiles_and_matches(self):
        machine = parse_rtl(MEMORY_MACHINE)
        compiled = RtlCompiler(machine).compile()
        assert compiled.dff_count == 16
        gate_sim = GateLevelSimulator(compiled.module)
        gate_sim.reset()
        write = {"we_0": 1, "addr_0": 1, "addr_1": 0,
                 "din_0": 1, "din_1": 1, "din_2": 0, "din_3": 1}
        read = {"we_0": 0, "addr_0": 1, "addr_1": 0,
                "din_0": 0, "din_1": 0, "din_2": 0, "din_3": 0}
        gate_sim.run([write])
        trace = gate_sim.run([read])
        assert self._word(trace.cycles[0], "dout", 4) == 0b1011

    def test_large_memory_rejected(self):
        source = """
        machine big;
        input a[1];
        output y[1];
        memory m[4096][12];
        always begin
            y = a;
        end
        """
        with pytest.raises(ValueError):
            RtlCompiler(parse_rtl(source)).compile()

    def test_capability_limits_are_typed_apart_from_illegal_rtl(self):
        deep = MachineDescription("deep")
        deep.declare(DeclKind.MEMORY, "m", 12, depth=4096)
        product = BinaryOp("*", Identifier("r"), Identifier("a"))
        shift = BinaryOp("<<", Identifier("r"), Identifier("a"))
        refusals = {
            "RTL201": (deep, "memory 'm' has 4096 words"),
            "RTL202": (machine_with_body(assign("y", product)),
                       "in `y = (r * a);`"),
            "RTL203": (machine_with_body(assign("y", shift)),
                       "in `y = (r << a);`"),
        }
        for code, (machine, text) in refusals.items():
            assert check_machine(machine) == []
            RtlSimulator(machine).step()          # legal: the simulator runs it
            with pytest.raises(RtlSynthesisError) as info:
                RtlCompiler(machine).compile()
            assert info.value.diagnostic.code == code
            assert text in str(info.value)
            # A refusal states the limit; there is no RAM block to point at.
            assert "RAM" not in str(info.value)
            assert isinstance(info.value, ValueError)
            assert not isinstance(info.value, RtlSemanticError)

    def test_variable_shift_rejected(self):
        source = """
        machine s;
        input a[4], n[2];
        output y[4];
        always begin
            y = a << n;
        end
        """
        with pytest.raises(ValueError):
            RtlCompiler(parse_rtl(source)).compile()

    def test_layout_synthesis_produces_cells(self):
        compiled = RtlCompiler(parse_rtl(COUNTER)).compile()
        layout, report = synthesize_layout(compiled, NMOS)
        assert report.cell_count > 0
        assert report.area > 0
        assert len(layout.instances) == report.cell_count

    def test_gate_count_reported(self):
        compiled = RtlCompiler(parse_rtl(ACCUMULATOR)).compile()
        summary = compiled.summary()
        assert summary["gates"] > 0
        assert summary["flipflops"] == 8
        assert summary["transistors"] > summary["gates"]
