"""The behavioural silicon compiler: RTL -> gate netlist -> layout.

This implements the paper's second definition of silicon compilation — "a
behavioural description of a system ... mapped onto a physical structure" —
in the style of the CMU standard-modules work it cites [6]:

1. the machine body is symbolically executed into per-bit next-state
   functions (if-conversion turns conditionals into multiplexers);
2. word-level operators are expanded into primitive gates (ripple-carry
   adders, comparator trees, mux trees for memories), giving a structural
   :class:`~repro.netlist.module.Module`;
3. the netlist is mapped onto rows of library cells with routing channels,
   giving a layout cell whose area can be compared against hand design —
   the "cost in space and speed" of automatic compilation (experiments E1
   and E2).

An illegal machine is refused at construction (``RTL1xx``, the check the
simulator runs too); legal RTL that flattened gates cannot express is an
:class:`RtlSynthesisError`: ``RTL201`` a memory deeper than
:data:`MAX_FLATTENED_MEMORY_WORDS`, ``RTL202`` multiplication, ``RTL203`` a
shift by a non-constant amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.diagnostics import Diagnostic, DiagnosticError, Severity
from repro.layout.cell import Cell
from repro.netlist.module import GateType, Module
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
    expression_width,
    render_statement,
)
from repro.rtl.check import require_valid
from repro.technology.technology import Technology

#: A word value during elaboration: a list of net names, least significant first.
Bits = List[str]

#: Memories are flattened into one register per word; deeper ones are rejected.
MAX_FLATTENED_MEMORY_WORDS = 256


class RtlSynthesisError(DiagnosticError, ValueError):
    """Legal RTL that the gate compiler cannot synthesise."""

    default_code = "RTL200"


@dataclass
class CompiledMachine:
    """The result of compiling an RTL machine."""

    machine: MachineDescription
    module: Module
    gate_count: int
    dff_count: int
    transistor_estimate: int
    #: Source statements that assign each signal, in elaboration order —
    #: the map static timing uses to trace a register-to-register path
    #: back to the transfers that created its logic.
    register_writers: Dict[str, List[Statement]] = field(default_factory=dict)

    def summary(self) -> Dict[str, int]:
        return {
            "gates": self.gate_count,
            "flipflops": self.dff_count,
            "transistors": self.transistor_estimate,
        }


def _clocked_targets(statement: Statement) -> Set[str]:
    """The signals that clocked transfers in ``statement`` write."""
    if isinstance(statement, Block):
        return set().union(*map(_clocked_targets, statement))
    if isinstance(statement, IfStatement):
        names = _clocked_targets(statement.then_branch)
        if statement.else_branch is not None:
            names |= _clocked_targets(statement.else_branch)
        return names
    target = statement.target
    if isinstance(target, BitSelect):
        target = target.operand
    if statement.clocked and isinstance(target, Identifier):
        return {target.name}
    return set()


class RtlCompiler:
    """Compile a :class:`MachineDescription` to a structural netlist."""

    def __init__(self, machine: MachineDescription):
        require_valid(machine)
        self.machine = machine
        self.module = Module(machine.name)
        self._net_counter = 0
        self._const_nets: Dict[int, str] = {}
        # Current symbolic value of every signal (bit nets, LSB first).
        self._env: Dict[str, Bits] = {}
        # Next-cycle value of registers / memory words / registered outputs.
        self._next: Dict[str, Bits] = {}
        # Their flip-flops' Q nets.
        self._q_nets: Dict[str, Bits] = {}
        # Which source statements wrote each signal (for timing reports).
        self._writers: Dict[str, List[Statement]] = {}
        # The statement being elaborated (named by RTL2xx refusals).
        self._statement: Optional[Statement] = None

    # -- public API -----------------------------------------------------------------

    def compile(self) -> CompiledMachine:
        self._declare_ports()
        self._declare_state()
        self._elaborate(self.machine.body, condition=None)
        self._finish_state()
        self._finish_outputs()
        module = self.module
        dff_count = sum(1 for inst in module.instances if inst.kind is GateType.DFF)
        return CompiledMachine(
            machine=self.machine,
            module=module,
            gate_count=module.gate_count() - dff_count,
            dff_count=dff_count,
            transistor_estimate=module.transistor_estimate(),
            register_writers={name: list(statements)
                              for name, statements in self._writers.items()},
        )

    # -- declaration handling ------------------------------------------------------------

    @staticmethod
    def bit_net(name: str, index: int) -> str:
        return f"{name}_{index}"

    def _declare_ports(self) -> None:
        for declaration in self.machine.inputs:
            bits = []
            for index in range(declaration.width):
                net = self.bit_net(declaration.name, index)
                self.module.add_input(net)
                bits.append(net)
            self._env[declaration.name] = bits
        for declaration in self.machine.outputs:
            for index in range(declaration.width):
                self.module.add_output(self.bit_net(declaration.name, index))
            self._env[declaration.name] = [self._constant_bit(0)] * declaration.width
        for declaration in self.machine.wires:
            self._env[declaration.name] = [self._constant_bit(0)] * declaration.width

    def _declare_state(self) -> None:
        for declaration in self.machine.registers:
            self._declare_register(declaration.name, declaration.name,
                                   declaration.width)
        for declaration in self.machine.memories:
            if declaration.depth > MAX_FLATTENED_MEMORY_WORDS:
                raise self._unsynthesisable(
                    "RTL201",
                    f"memory {declaration.name!r} has {declaration.depth} words; "
                    f"flattened synthesis is limited to {MAX_FLATTENED_MEMORY_WORDS}"
                )
            for word in range(declaration.depth):
                word_name = f"{declaration.name}@{word}"
                self._declare_register(word_name, word_name, declaration.width)
        # An output written by a clocked transfer is a register of its own,
        # buffered to the port by _finish_outputs.
        registered = _clocked_targets(self.machine.body)
        for declaration in self.machine.outputs:
            if declaration.name in registered:
                self._declare_register(declaration.name,
                                       f"{declaration.name}@reg",
                                       declaration.width)

    def _declare_register(self, name: str, net_base: str, width: int) -> None:
        """Q nets ``<net_base>_<bit>`` holding signal ``name``."""
        bits = []
        for index in range(width):
            q_net = self.bit_net(net_base, index)
            self.module.add_net(q_net)
            bits.append(q_net)
        self._q_nets[name] = bits
        self._env[name] = list(bits)
        self._next[name] = list(bits)

    def _finish_state(self) -> None:
        """Create the flip-flops from the accumulated next-value functions."""
        for name, next_bits in self._next.items():
            q_nets = self._q_nets[name]
            for index, (q_net, d_net) in enumerate(zip(q_nets, next_bits)):
                self.module.add_gate(GateType.DFF, q_net, [d_net],
                                     name=f"dff_{name}_{index}".replace("@", "_"))

    def _finish_outputs(self) -> None:
        for declaration in self.machine.outputs:
            bits = self._env[declaration.name]
            for index in range(declaration.width):
                out_net = self.bit_net(declaration.name, index)
                source = bits[index] if index < len(bits) else self._constant_bit(0)
                if source != out_net:
                    self.module.add_gate(GateType.BUF, out_net, [source])

    # -- elaboration -----------------------------------------------------------------------

    def _elaborate(self, block: Block, condition: Optional[str]) -> None:
        for statement in block:
            self._elaborate_statement(statement, condition)

    def _elaborate_statement(self, statement: Statement, condition: Optional[str]) -> None:
        if isinstance(statement, Block):
            self._elaborate(statement, condition)
            return
        self._statement = statement
        if isinstance(statement, IfStatement):
            test = self._reduce_to_bit(self._eval(statement.condition))
            then_condition = self._and_conditions(condition, test)
            self._elaborate(statement.then_branch, then_condition)
            if statement.else_branch is not None:
                inverted = self._fresh("ncond")
                self.module.add_gate(GateType.NOT, inverted, [test])
                else_condition = self._and_conditions(condition, inverted)
                self._elaborate(statement.else_branch, else_condition)
        else:
            self._elaborate_assignment(statement, condition)

    def _and_conditions(self, outer: Optional[str], inner: str) -> str:
        if outer is None:
            return inner
        combined = self._fresh("cond")
        self.module.add_gate(GateType.AND, combined, [outer, inner])
        return combined

    def _record_writer(self, name: str, assignment: Assignment) -> None:
        # Each statement elaborates exactly once, so plain append keeps
        # every occurrence (and stays O(1) per record).
        self._writers.setdefault(name, []).append(assignment)

    def _elaborate_assignment(self, assignment: Assignment, condition: Optional[str]) -> None:
        value_bits = self._eval(assignment.value)
        target = assignment.target

        if isinstance(target, MemoryAccess):
            self._record_writer(target.memory, assignment)
            self._assign_memory(target, value_bits, condition)
            return

        if isinstance(target, BitSelect):
            name = target.operand.name
            self._record_writer(name, assignment)
            declaration = self.machine.declaration(name)
            width = declaration.width
            full = list(self._next[name] if assignment.clocked and name in self._next
                        else self._env[name])
            # Bits selected past the declared width are dropped, as the
            # simulator's declaration mask drops them.
            slice_width = min(target.high + 1, width) - target.low
            padded = self._resize(value_bits, slice_width)
            for offset in range(slice_width):
                full[target.low + offset] = padded[offset]
            self._store(name, full, condition, assignment.clocked, width)
            return

        name = target.name
        self._record_writer(name, assignment)
        declaration = self.machine.declaration(name)
        self._store(name, self._resize(value_bits, declaration.width), condition,
                    assignment.clocked, declaration.width)

    def _store(self, name: str, new_bits: Bits, condition: Optional[str],
               clocked: bool, width: int) -> None:
        new_bits = self._resize(new_bits, width)
        if clocked:
            previous = self._next[name]
            self._next[name] = self._mux_word(condition, new_bits, previous)
        else:
            previous = self._env[name]
            self._env[name] = self._mux_word(condition, new_bits, previous)

    def _assign_memory(self, target: MemoryAccess, value_bits: Bits,
                       condition: Optional[str]) -> None:
        declaration = self.machine.declaration(target.memory)
        address_bits = self._resize(self._eval(target.address),
                                    max(1, (declaration.depth - 1).bit_length()))
        for word in range(declaration.depth):
            word_name = f"{target.memory}@{word}"
            select = self._address_match(address_bits, word)
            word_condition = self._and_conditions(condition, select)
            previous = self._next[word_name]
            self._next[word_name] = self._mux_word(
                word_condition, self._resize(value_bits, declaration.width), previous
            )

    # -- expression evaluation (to bit vectors) ------------------------------------------------

    def _eval(self, expression: Expression) -> Bits:
        if isinstance(expression, Constant):
            width = expression_width(self.machine, expression)
            return [self._constant_bit((expression.value >> i) & 1) for i in range(width)]
        if isinstance(expression, Identifier):
            return list(self._env[expression.name])
        if isinstance(expression, BitSelect):
            base = self._eval(expression.operand)
            result = []
            for index in range(expression.low, expression.high + 1):
                result.append(base[index] if index < len(base) else self._constant_bit(0))
            return result
        if isinstance(expression, MemoryAccess):
            return self._read_memory(expression)
        if isinstance(expression, Concatenate):
            bits: Bits = []
            for part in reversed(expression.parts):   # last part is least significant
                bits.extend(self._eval(part))
            return bits
        if isinstance(expression, UnaryOp):
            operand = self._eval(expression.operand)
            if expression.operator == "~":
                return [self._not(bit) for bit in operand]
            if expression.operator == "-":
                inverted = [self._not(bit) for bit in operand]
                return self._add(inverted, [self._constant_bit(1)], len(operand))
            return [self._not(self._reduce_to_bit(operand))]
        return self._eval_binary(expression)

    def _eval_binary(self, expression: BinaryOp) -> Bits:
        op = expression.operator
        left = self._eval(expression.left)
        right = self._eval(expression.right)
        width = max(len(left), len(right))
        left = self._resize(left, width)
        right = self._resize(right, width)
        if op == "+":
            return self._add(left, right, width)
        if op == "-":
            inverted = [self._not(bit) for bit in right]
            return self._add_with_carry(left, inverted, self._constant_bit(1), width)[0]
        if op in ("&", "|", "^"):
            gate = {"&": GateType.AND, "|": GateType.OR, "^": GateType.XOR}[op]
            return [self._binary_gate(gate, a, b) for a, b in zip(left, right)]
        if op == "==":
            return [self._equality(left, right)]
        if op == "!=":
            return [self._not(self._equality(left, right))]
        if op in ("<", "<=", ">", ">="):
            return [self._compare(left, right, op)]
        if op in ("<<", ">>"):
            return self._shift(left, expression.right, op, width)
        if op == "&&":
            return [self._binary_gate(GateType.AND, self._reduce_to_bit(left),
                                      self._reduce_to_bit(right))]
        if op == "||":
            return [self._binary_gate(GateType.OR, self._reduce_to_bit(left),
                                      self._reduce_to_bit(right))]
        raise self._unsynthesisable(
            "RTL202", "multiplication is not supported by the gate compiler")

    def _unsynthesisable(self, code: str, message: str) -> RtlSynthesisError:
        if self._statement is not None:
            message += f" in `{render_statement(self._statement)}`"
        return RtlSynthesisError(
            message, Diagnostic(Severity.ERROR, code, message, source="rtl"))

    def _read_memory(self, access: MemoryAccess) -> Bits:
        declaration = self.machine.declaration(access.memory)
        address_bits = self._resize(self._eval(access.address),
                                    max(1, (declaration.depth - 1).bit_length()))
        # Mux tree over all words: select word whose index matches the address.
        result = [self._constant_bit(0)] * declaration.width
        for word in range(declaration.depth):
            word_bits = self._env[f"{access.memory}@{word}"]
            select = self._address_match(address_bits, word)
            result = [
                self._mux_bit(select, word_bit, acc_bit)
                for word_bit, acc_bit in zip(word_bits, result)
            ]
        return result

    def _address_match(self, address_bits: Bits, word: int) -> str:
        terms = []
        for index, bit in enumerate(address_bits):
            wanted = (word >> index) & 1
            terms.append(bit if wanted else self._not(bit))
        return self._and_tree(terms)

    # -- gate construction helpers --------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._net_counter += 1
        return f"_{prefix}{self._net_counter}"

    def _constant_bit(self, value: int) -> str:
        if value not in self._const_nets:
            net = self._fresh("const")
            gate = GateType.CONST1 if value else GateType.CONST0
            self.module.add_gate(gate, net, [])
            self._const_nets[value] = net
        return self._const_nets[value]

    def _not(self, bit: str) -> str:
        out = self._fresh("n")
        self.module.add_gate(GateType.NOT, out, [bit])
        return out

    def _binary_gate(self, gate: GateType, a: str, b: str) -> str:
        out = self._fresh("g")
        self.module.add_gate(gate, out, [a, b])
        return out

    def _and_tree(self, bits: Sequence[str]) -> str:
        bits = list(bits)
        if not bits:
            return self._constant_bit(1)
        while len(bits) > 1:
            next_bits = []
            for i in range(0, len(bits) - 1, 2):
                next_bits.append(self._binary_gate(GateType.AND, bits[i], bits[i + 1]))
            if len(bits) % 2:
                next_bits.append(bits[-1])
            bits = next_bits
        return bits[0]

    def _or_tree(self, bits: Sequence[str]) -> str:
        bits = list(bits)
        if not bits:
            return self._constant_bit(0)
        while len(bits) > 1:
            next_bits = []
            for i in range(0, len(bits) - 1, 2):
                next_bits.append(self._binary_gate(GateType.OR, bits[i], bits[i + 1]))
            if len(bits) % 2:
                next_bits.append(bits[-1])
            bits = next_bits
        return bits[0]

    def _reduce_to_bit(self, bits: Bits) -> str:
        if len(bits) == 1:
            return bits[0]
        return self._or_tree(bits)

    def _resize(self, bits: Bits, width: int) -> Bits:
        if len(bits) >= width:
            return bits[:width]
        return bits + [self._constant_bit(0)] * (width - len(bits))

    def _mux_bit(self, select: Optional[str], when_true: str, when_false: str) -> str:
        if select is None:
            return when_true
        if when_true == when_false:
            return when_true
        out = self._fresh("mux")
        self.module.add_gate(GateType.MUX2, out, [], sel=select, a=when_false, b=when_true)
        return out

    def _mux_word(self, select: Optional[str], when_true: Bits, when_false: Bits) -> Bits:
        width = max(len(when_true), len(when_false))
        when_true = self._resize(when_true, width)
        when_false = self._resize(when_false, width)
        return [self._mux_bit(select, t, f) for t, f in zip(when_true, when_false)]

    def _add(self, a: Bits, b: Bits, width: int) -> Bits:
        return self._add_with_carry(a, b, self._constant_bit(0), width)[0]

    def _add_with_carry(self, a: Bits, b: Bits, carry_in: str, width: int) -> Tuple[Bits, str]:
        a = self._resize(a, width)
        b = self._resize(b, width)
        result: Bits = []
        carry = carry_in
        for bit_a, bit_b in zip(a, b):
            partial = self._binary_gate(GateType.XOR, bit_a, bit_b)
            sum_bit = self._binary_gate(GateType.XOR, partial, carry)
            carry_a = self._binary_gate(GateType.AND, bit_a, bit_b)
            carry_b = self._binary_gate(GateType.AND, partial, carry)
            carry = self._binary_gate(GateType.OR, carry_a, carry_b)
            result.append(sum_bit)
        return result, carry

    def _equality(self, a: Bits, b: Bits) -> str:
        bits = [self._binary_gate(GateType.XNOR, x, y) for x, y in zip(a, b)]
        return self._and_tree(bits)

    def _compare(self, a: Bits, b: Bits, op: str) -> str:
        # a < b  <=>  borrow out of (a - b) is 1, i.e. carry out of a + ~b + 1 is 0.
        inverted = [self._not(bit) for bit in b]
        _, carry = self._add_with_carry(a, inverted, self._constant_bit(1), len(a))
        less = self._not(carry)
        if op == "<":
            return less
        if op == ">=":
            return carry
        equal = self._equality(a, b)
        if op == "<=":
            return self._binary_gate(GateType.OR, less, equal)
        return self._binary_gate(GateType.AND, carry, self._not(equal))     # ">"

    def _shift(self, bits: Bits, amount: Expression, op: str, width: int) -> Bits:
        if not isinstance(amount, Constant):
            raise self._unsynthesisable(
                "RTL203",
                "only constant shift amounts are supported by the gate compiler")
        shift = amount.value
        zero = self._constant_bit(0)
        if op == "<<":
            return ([zero] * min(shift, width) + bits)[:width]
        shifted = bits[shift:] if shift < len(bits) else []
        return self._resize(shifted, width)


# -- layout synthesis -----------------------------------------------------------------------------


@dataclass
class LayoutSynthesisReport:
    """Area accounting for a netlist mapped onto rows of library cells."""

    cell_count: int
    rows: int
    width: int
    height: int
    routing_tracks: int
    transistors: int

    @property
    def area(self) -> int:
        return self.width * self.height


def synthesize_layout(compiled: CompiledMachine, technology: Technology,
                      row_width: int = 400, track_pitch: int = 7) -> Tuple[Cell, LayoutSynthesisReport]:
    """Map a compiled netlist onto rows of library cells with routing channels.

    This is deliberately the "standard modules" style of the CMU work the
    paper cites: every primitive gate becomes a library cell placed in rows;
    a routing channel between rows is sized by the number of nets crossing
    it (one horizontal track per net, at ``track_pitch`` lambda per track).
    The result is a real layout cell whose area is directly comparable to a
    hand-composed datapath of the same function (experiments E1 and E2).
    """
    from repro.cells.gates import NandCell, NorCell, PassTransistorCell
    from repro.cells.inverter import InverterCell
    from repro.cells.registers import RegisterBitCell

    module = compiled.module.flattened()

    inverter = InverterCell(technology).cell()
    nand2 = NandCell(technology, inputs=2).cell()
    nand3 = NandCell(technology, inputs=3).cell()
    nor2 = NorCell(technology, inputs=2).cell()
    register = RegisterBitCell(technology).cell()
    passgate = PassTransistorCell(technology).cell()

    def cells_for(instance) -> List[Cell]:
        gate: GateType = instance.kind
        fan_in = sum(1 for port in instance.connections if port.startswith("in"))
        if gate is GateType.NOT:
            return [inverter]
        if gate is GateType.BUF:
            return [inverter, inverter]
        if gate is GateType.NAND:
            return [nand3 if fan_in > 2 else nand2]
        if gate is GateType.NOR:
            return [nor2] * max(1, fan_in - 1)
        if gate is GateType.AND:
            return [nand3 if fan_in > 2 else nand2, inverter]
        if gate is GateType.OR:
            return [nor2] * max(1, fan_in - 1) + [inverter]
        if gate in (GateType.XOR, GateType.XNOR):
            return [nand2, nand2, nand2, nand2]
        if gate is GateType.MUX2:
            return [passgate, passgate, inverter]
        if gate is GateType.DFF:
            return [register]
        if gate is GateType.LATCH:
            return [passgate, inverter, inverter]
        if gate in (GateType.CONST0, GateType.CONST1):
            return []
        raise AssertionError(f"unhandled gate {gate}")

    placements: List[Cell] = []
    for instance in module.instances:
        placements.extend(cells_for(instance))

    layout = Cell(f"{compiled.machine.name}_auto")
    x, y = 0, 0
    row_height = max((cell.height for cell in placements), default=40)
    rows = 1
    nets_in_row: int = 0
    row_channel_tracks: List[int] = []
    for placed_cell in placements:
        if x + placed_cell.width > row_width and x > 0:
            # Channel sizing: most nets are short two-pin connections between
            # neighbouring cells, so the density (and hence track count) is a
            # fraction of the pin count rather than half of it.
            row_channel_tracks.append(max(4, nets_in_row // 5))
            y += row_height + track_pitch * row_channel_tracks[-1]
            x = 0
            rows += 1
            nets_in_row = 0
        layout.place(placed_cell, x, y, name=f"g{len(layout.instances)}")
        x += placed_cell.width + 4
        nets_in_row += len(placed_cell.port_names())
    row_channel_tracks.append(max(4, nets_in_row // 5))

    bbox = layout.bbox()
    report = LayoutSynthesisReport(
        cell_count=len(placements),
        rows=rows,
        width=0 if bbox is None else bbox.width,
        height=(0 if bbox is None else bbox.height) + track_pitch * row_channel_tracks[-1],
        routing_tracks=sum(row_channel_tracks),
        transistors=compiled.transistor_estimate,
    )
    return layout, report
