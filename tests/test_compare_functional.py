"""Tests for bit-parallel functional equivalence in compare_netlists."""

import time

from repro.netlist import GateType, Module, compare_netlists
from repro.rtl import RtlCompiler, parse_rtl

LFSR_RTL = """
machine lfsr8;
input seed[8], load[1];
output q[8];
register state[8];
always begin
    if (load) state <- seed;
    else state <- {state[6:0], state[7] ^ state[5] ^ state[4] ^ state[3]};
    q = state;
end
"""


def xor_via_nands():
    """a ^ b built from four NANDs (structurally unlike a single XOR)."""
    m = Module("xor_nand")
    m.add_inputs("a", "b")
    m.add_outputs("y")
    m.add_gate(GateType.NAND, "t", ["a", "b"])
    m.add_gate(GateType.NAND, "u", ["a", "t"])
    m.add_gate(GateType.NAND, "v", ["b", "t"])
    m.add_gate(GateType.NAND, "y", ["u", "v"])
    return m


def xor_direct():
    m = Module("xor_direct")
    m.add_inputs("a", "b")
    m.add_outputs("y")
    m.add_gate(GateType.XOR, "y", ["a", "b"])
    return m


def reference_lfsr():
    """Hand-built gate netlist of the 8-bit LFSR, ports as compiled."""
    m = Module("lfsr_ref")
    m.add_input("load_0")
    for i in range(8):
        m.add_input(f"seed_{i}")
    for i in range(8):
        m.add_output(f"q_{i}")
    m.add_gate(GateType.XOR, "fb_a", ["q_7", "q_5"])
    m.add_gate(GateType.XOR, "fb", ["fb_a", "q_4"])
    m.add_gate(GateType.XOR, "shift_in", ["fb", "q_3"])
    for i in range(8):
        shifted = "shift_in" if i == 0 else f"q_{i - 1}"
        m.add_gate(GateType.MUX2, f"d_{i}", [],
                   sel="load_0", a=shifted, b=f"seed_{i}")
        m.add_gate(GateType.DFF, f"q_{i}", [f"d_{i}"])
    return m


class TestCombinationalFunctional:
    def test_structurally_different_but_equivalent(self):
        structural = compare_netlists(xor_direct(), xor_via_nands())
        assert not structural.matches   # census obviously differs
        functional = compare_netlists(xor_direct(), xor_via_nands(),
                                      functional=True)
        assert functional.matches, functional.explain()

    def test_inequivalence_reports_the_pattern(self):
        golden = xor_direct()
        wrong = Module("xnor")
        wrong.add_inputs("a", "b")
        wrong.add_outputs("y")
        wrong.add_gate(GateType.XNOR, "y", ["a", "b"])
        result = compare_netlists(golden, wrong, functional=True)
        assert not result.matches
        assert "functional mismatch" in result.mismatches[0]
        assert "'y'" in result.mismatches[0]

    def test_port_mismatch_short_circuits(self):
        other = Module("narrow")
        other.add_inputs("a")
        other.add_outputs("y")
        other.add_gate(GateType.BUF, "y", ["a"])
        result = compare_netlists(xor_direct(), other, functional=True)
        assert not result.matches
        assert any("ports differ" in m for m in result.mismatches)

    def test_wide_cone_uses_random_vectors(self):
        def wide(flip):
            m = Module("wide")
            nets = [f"i{k}" for k in range(16)]
            m.add_inputs(*nets)
            m.add_outputs("y")
            m.add_gate(GateType.XOR if not flip else GateType.XNOR, "y", nets)
            return m
        assert compare_netlists(wide(False), wide(False), functional=True,
                                exhaustive_limit=8).matches
        result = compare_netlists(wide(False), wide(True), functional=True,
                                  exhaustive_limit=8)
        assert not result.matches
        assert "random input patterns" in result.mismatches[0]


class TestStatefulSoundness:
    def test_latch_is_not_equivalent_to_stateless_mux(self):
        # A latch holds its value when disabled; a mux with an undriven
        # "else" leg does not.  A single combinational pass cannot see the
        # difference, so latch-bearing modules must co-simulate.
        latch = Module("l")
        latch.add_inputs("d", "en")
        latch.add_outputs("q")
        latch.add_gate(GateType.LATCH, "q", ["d"], enable="en")
        mux = Module("m")
        mux.add_inputs("d", "en")
        mux.add_outputs("q")
        mux.add_gate(GateType.MUX2, "q", [], sel="en", a="floating", b="d")
        result = compare_netlists(latch, mux, functional=True)
        assert not result.matches
        assert "functional mismatch" in result.mismatches[0]

    def test_cross_coupled_latches_are_cosimulated(self):
        # Cross-coupled NAND SR latches hold state through a gate loop, not
        # through a LATCH/DFF primitive; a plain latch and a set-dominant
        # variant agree on every single-pass pattern (X on hold) but differ
        # after a (0,0) -> (1,1) release.
        def sr(set_dominant):
            m = Module("sr")
            m.add_inputs("s_n", "r_n")
            m.add_outputs("q")
            if set_dominant:
                m.add_gate(GateType.NOT, "s", ["s_n"])
                m.add_gate(GateType.NOR, "qb", ["s", "q"])
                m.add_gate(GateType.NOT, "r", ["r_n"])
                m.add_gate(GateType.NOR, "q", ["r", "qb_gated"])
                m.add_gate(GateType.AND, "qb_gated", ["qb", "s_n"])
            else:
                m.add_gate(GateType.NAND, "q", ["s_n", "qb"])
                m.add_gate(GateType.NAND, "qb", ["r_n", "q"])
            return m
        result = compare_netlists(sr(False), sr(True), functional=True)
        assert not result.matches

    def test_latch_matches_itself_through_cosimulation(self):
        def build():
            m = Module("l")
            m.add_inputs("d", "en")
            m.add_outputs("q")
            m.add_gate(GateType.LATCH, "q", ["d"], enable="en")
            return m
        assert compare_netlists(build(), build(), functional=True).matches


class TestSequentialFunctional:
    def test_compiled_lfsr_equivalent_to_reference_fast(self):
        machine = parse_rtl(LFSR_RTL)
        compiled = RtlCompiler(machine).compile().module
        reference = reference_lfsr()
        start = time.perf_counter()
        result = compare_netlists(reference, compiled, functional=True)
        elapsed = time.perf_counter() - start
        assert result.matches, result.explain()
        # Acceptance target is < 0.1 s; allow slack for slow CI machines.
        assert elapsed < 0.5, f"equivalence check took {elapsed:.3f}s"

    def test_broken_feedback_detected(self):
        machine = parse_rtl(LFSR_RTL)
        compiled = RtlCompiler(machine).compile().module
        broken = reference_lfsr()
        # Sabotage one feedback tap: rebuild with q_2 instead of q_3.
        for instance in broken.instances:
            if instance.connections.get("out") == "shift_in":
                instance.connections["in1"] = "q_2"
        result = compare_netlists(broken, compiled, functional=True)
        assert not result.matches
        assert "functional mismatch" in result.mismatches[0]
        assert "cycle" in result.mismatches[0]

    def test_a_mismatch_is_reported_at_its_lowest_stream_then_cycle(self):
        # z flips whenever all six i<k> are 1 in a cycle; with this seed
        # that first happens in stream 3 at cycle 5, while stream 6 meets
        # it earlier, at cycle 4: the lowest stream wins, then its first
        # cycle, then the first differing output ('y' never differs).
        def build(flip):
            m = Module("flip" if flip else "reg")
            ins = [f"i{k}" for k in range(6)]
            m.add_inputs("a", *ins)
            m.add_outputs("y", "z")
            m.add_gate(GateType.DFF, "q", ["a"])
            m.add_gate(GateType.BUF, "y", ["q"])
            if flip:
                m.add_gate(GateType.AND, "all", ins)
                m.add_gate(GateType.XOR, "z", ["q", "all"])
            else:
                m.add_gate(GateType.BUF, "z", ["q"])
            return m
        result = compare_netlists(build(False), build(True), functional=True,
                                  stimulus_vectors=8, stimulus_cycles=16,
                                  seed=1)
        assert result.mismatches == [
            "functional mismatch: output 'z' = 0 vs 1 at cycle 5 of random "
            "stimulus stream 3 (seed 1, 8 parallel streams from reset)"]

    def test_an_x_output_is_reported_as_none(self):
        def build(floating):
            m = Module("m")
            m.add_inputs("a")
            m.add_outputs("z")
            m.add_gate(GateType.DFF, "q", ["a"])
            m.add_gate(GateType.AND, "z", ["q", "floating" if floating else "q"])
            return m
        result = compare_netlists(build(False), build(True), functional=True,
                                  stimulus_vectors=8, stimulus_cycles=16)
        assert result.mismatches == [
            "functional mismatch: output 'z' = None vs 1 at cycle 1 of random "
            "stimulus stream 0 (seed 0, 8 parallel streams from reset)"]
