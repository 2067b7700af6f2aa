"""Seeded copies of the benchmark's design builders.

Everything here is built from the public ``repro`` API only — not from
``examples/`` and not from the sibling ``bench_e*.py`` files — so a later
change to those files cannot silently change a workload.  The seed reaches
a design through exactly three doors: the ROM contents (a seeded shuffle of
a fixed word set, so the transistor count, and with it the amount of work,
stays put), the order of the edit-loop patches, and the LFSR stimulus.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.assembly import ChipAssembler
from repro.generators import (DatapathColumn, DatapathGenerator,
                              PlaGenerator, RomGenerator)
from repro.layout import Cell
from repro.logic import TruthTable, parse_expr
from repro.netlist import GateType, Module

TILE_GAP = 20

Vector = Dict[str, int]


# -- seeded inputs ---------------------------------------------------------------------


def rom_words(seed: int, count: int) -> List[int]:
    """``count`` 8-bit ROM words: the set ``{i % 256}`` in a seeded order."""
    words = [index % 256 for index in range(count)]
    random.Random(f"rom/{seed}/{count}").shuffle(words)
    return words


def edit_slots(seed: int, width: int) -> List[Tuple[int, int]]:
    """Every ``(x, row)`` a patch may take on a cell ``width`` wide, seeded order.

    Slots sit on a 12-lambda lattice in two rows 6 lambda apart, so two
    3-lambda patches never come closer than the metal spacing rule
    whichever order the seed picks.
    """
    slots = [(x, row) for row in (0, 1) for x in range(0, max(width - 3, 1), 12)]
    random.Random(f"edit/{seed}").shuffle(slots)
    return slots


def lfsr_stimulus(seed: int, stream: int, cycles: int) -> List[Vector]:
    """Load a seeded non-zero state, run, and reload at two seeded cycles."""
    rng = random.Random(f"lfsr/{seed}/{stream}")
    idle = {"load_0": 0, **{f"seed_{bit}": 0 for bit in range(8)}}
    vectors = [idle] * cycles
    reloads = [0] + sorted(rng.sample(range(1, cycles), 2))
    for cycle in reloads:
        value = rng.randrange(1, 256)
        vectors[cycle] = {"load_0": 1,
                          **{f"seed_{bit}": (value >> bit) & 1 for bit in range(8)}}
    return vectors


# -- layout designs --------------------------------------------------------------------


def control_table(extra_terms: int) -> TruthTable:
    """The control PLA of the chip family; its complexity is a parameter."""
    equations = {
        "load": parse_expr("start & ~busy"),
        "add": parse_expr("start & busy"),
        "done": parse_expr("~start & busy"),
    }
    for index in range(extra_terms):
        equations[f"aux{index}"] = parse_expr(
            f"start & {'~' if index % 2 else ''}busy")
    return TruthTable.from_expressions(equations, input_names=["start", "busy"])


def family_chip(technology, name: str, bits: int, extra_control: int,
                seed: int) -> Tuple[ChipAssembler, Cell]:
    """The parameterised family chip: datapath + control PLA + microcode ROM.

    Returns the un-assembled assembler and the ROM cell the edit loop
    patches.  ``assemble()`` places the three blocks and maze-routes five
    pad connections, which is where all the time goes.
    """
    assembler = ChipAssembler(name, technology)
    datapath = DatapathGenerator(
        technology,
        [DatapathColumn("register", "acc"), DatapathColumn("adder", "alu"),
         DatapathColumn("shifter", "sh"), DatapathColumn("bus", "bus")],
        bits=bits)
    control = PlaGenerator(technology, control_table(extra_control),
                           name=f"{name}_control")
    microcode = RomGenerator(technology, rom_words(seed, 16), bits_per_word=8)
    rom = microcode.cell()
    assembler.add_block("datapath", datapath.cell())
    assembler.add_block("control", control.cell())
    assembler.add_block("microcode", rom)
    assembler.add_supply_pads()
    assembler.add_pad("start", "input", connect_to=("control", "start"))
    assembler.add_pad("busy", "input", connect_to=("control", "busy"))
    assembler.add_pad("done", "output", connect_to=("control", "done"))
    assembler.add_pad("phi1", "input")
    assembler.add_pad("phi2", "input")
    for bit in (0, bits - 1):
        assembler.add_pad(f"bus{bit}", "output",
                          connect_to=("datapath", f"bus_out{bit}"))
    return assembler, rom


def small_chip(technology, name: str, seed: int) -> Tuple[ChipAssembler, Cell]:
    """The reference job's chip: control PLA + 16-word ROM behind four pads.

    The smallest chip that still goes through placement, the pad ring and
    the maze router (two nets), so it has a ``ChipReport`` like the family
    chip, at a thirtieth of the time.
    """
    assembler = ChipAssembler(name, technology)
    control = PlaGenerator(technology, control_table(0), name=f"{name}_control")
    rom = RomGenerator(technology, rom_words(seed, 16), bits_per_word=8).cell()
    assembler.add_block("control", control.cell())
    assembler.add_block("microcode", rom)
    assembler.add_supply_pads()
    assembler.add_pad("start", "input", connect_to=("control", "start"))
    assembler.add_pad("done", "output", connect_to=("control", "done"))
    return assembler, rom


def tile_array(technology, name: str, words: int, rom_grid: Tuple[int, int],
               pla_grid: Tuple[int, int], seed: int) -> Tuple[Cell, Cell]:
    """A chip made of repeated compiled blocks; returns it and its ROM cell.

    ``rom_grid`` and ``pla_grid`` are (columns, rows) of ``words``-word ROM
    and full-adder PLA instances.  Nothing is placed or routed: the array
    composes by abutment-with-a-gap, so ``repro.pnr`` never runs.
    """
    rom = RomGenerator(technology, rom_words(seed, words), bits_per_word=8).cell()
    adder = TruthTable.from_expressions(
        {"s": parse_expr("a ^ b ^ c"),
         "co": parse_expr("a & b | a & c | b & c")},
        input_names=["a", "b", "c"])
    pla = PlaGenerator(technology, adder, name=f"{name}_tile_pla").cell()

    # ``Cell.width`` walks the whole hierarchy on every call: measure once.
    rom_pitch_x, rom_pitch_y = rom.width + TILE_GAP, rom.height + TILE_GAP
    pla_pitch_x, pla_pitch_y = pla.width + TILE_GAP, pla.height + TILE_GAP
    array = Cell(name)
    rom_columns, rom_rows = rom_grid
    for column in range(rom_columns):
        for row in range(rom_rows):
            array.place(rom, column * rom_pitch_x, row * rom_pitch_y,
                        name=f"rom_{column}_{row}")
    base = rom_rows * rom_pitch_y + 30
    pla_columns, pla_rows = pla_grid
    for column in range(pla_columns):
        for row in range(pla_rows):
            array.place(pla, column * pla_pitch_x, base + row * pla_pitch_y,
                        name=f"pla_{column}_{row}")
    width = rom_columns * rom_pitch_x
    array.add_box("metal", 0, -12, width, -9)      # array-level supply rails
    array.add_box("metal", 0, -6, width, -3)
    return array, rom


def patch_cell(cell: Cell, slot: Tuple[int, int], top: int) -> None:
    """The edit-loop edit: one small metal patch just above ``top``.

    ``top`` is the cell's upper edge *before* the first patch (a patch grows
    the bounding box, so asking the cell again would stack them upwards
    into the neighbouring tile).
    """
    x, row = slot
    y = top + 3 + 6 * row
    cell.add_box("metal", x, y, x + 3, y + 3)


# -- logic designs ---------------------------------------------------------------------

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

LFSR_PORTS = ["load_0"] + [f"seed_{bit}" for bit in range(8)]


def lfsr_bank(lfsr: Module, instances: int) -> Module:
    """``instances`` copies of the compiled LFSR sharing one stimulus.

    Only instance 0 drives the bank's outputs; the rest are load, which is
    the point: gate count scales while the observable trace stays 8 bits.
    """
    bank = Module("lfsr_bank")
    for name in LFSR_PORTS:
        bank.add_input(name)
    for k in range(instances):
        connections = {name: name for name in LFSR_PORTS}
        for bit in range(8):
            connections[f"q_{bit}"] = f"u{k}_q_{bit}"
            bank.add_net(f"u{k}_q_{bit}", is_output=(k == 0))
        bank.add_submodule(lfsr, connections, name=f"u{k}")
    return bank


def reference_lfsr() -> Module:
    """Hand-built LFSR netlist, port-compatible with the compiled one."""
    module = Module("lfsr_ref")
    for name in LFSR_PORTS:
        module.add_input(name)
    for bit in range(8):
        module.add_output(f"q_{bit}")
    module.add_gate(GateType.XOR, "fb_a", ["q_7", "q_5"])
    module.add_gate(GateType.XOR, "fb", ["fb_a", "q_4"])
    module.add_gate(GateType.XOR, "shift_in", ["fb", "q_3"])
    for bit in range(8):
        shifted = "shift_in" if bit == 0 else f"q_{bit - 1}"
        module.add_gate(GateType.MUX2, f"d_{bit}", [],
                        sel="load_0", a=shifted, b=f"seed_{bit}")
        module.add_gate(GateType.DFF, f"q_{bit}", [f"d_{bit}"])
    return module


def behavioural_inputs(vectors: Sequence[Vector]) -> List[Dict[str, int]]:
    """The bit-level gate stimulus as word-level RTL-simulator inputs."""
    return [{"load": vector["load_0"],
             "seed": sum(vector[f"seed_{bit}"] << bit for bit in range(8))}
            for vector in vectors]
