"""A small chip of repeated compiled tiles, for the edit-and-re-verify tests.

The shape of the ``tile64`` benchmark chip at test size: a grid of one ROM
master above a grid of one PLA master, abutting with a gap, nothing routed.
Under the analyzer's default threshold the tiles collapse to direct views
and the top cell composes them, so one edit of the ROM master rebuilds the
ROM's artifacts and the top's while the PLA's are reused.
"""

from repro.generators import PlaGenerator, RomGenerator
from repro.lang.parameters import clear_generated_cell_cache
from repro.layout.cell import Cell
from repro.logic import TruthTable, parse_expr

GAP = 12


class TileArray:
    """``top`` is the chip, ``rom`` the master that :meth:`edit` patches."""

    def __init__(self, technology, name, rom_grid=(2, 2), pla_grid=(2, 1)):
        rom = RomGenerator(
            technology, [(5 * word + 3) % 256 for word in range(16)],
            bits_per_word=8).cell()
        adder = TruthTable.from_expressions(
            {"s": parse_expr("a ^ b ^ c"),
             "co": parse_expr("a & b | a & c | b & c")},
            input_names=["a", "b", "c"])
        pla = PlaGenerator(technology, adder, name=f"{name}_pla").cell()
        # ``rom`` gets edited: no later test may be handed the edited master.
        clear_generated_cell_cache()

        top = Cell(name)
        rom_pitch = (rom.width + GAP, rom.height + GAP)
        pla_pitch = (pla.width + GAP, pla.height + GAP)
        for column in range(rom_grid[0]):
            for row in range(rom_grid[1]):
                top.place(rom, column * rom_pitch[0], row * rom_pitch[1],
                          name=f"rom_{column}_{row}")
        base = rom_grid[1] * rom_pitch[1] + 30
        for column in range(pla_grid[0]):
            for row in range(pla_grid[1]):
                top.place(pla, column * pla_pitch[0], base + row * pla_pitch[1],
                          name=f"pla_{column}_{row}")
        # A rail the bottom ROM row's bit lines abut: geometry that touches
        # across sources, so composition cannot just concatenate the tiles.
        top.add_box("metal", 0, -3, rom_grid[0] * rom_pitch[0], 0)
        self.top, self.rom = top, rom
        self._patch_y = rom.bbox().y2 + 3
        self._edits = 0

    def edit(self):
        """One more small metal patch just above the ROM master."""
        x = 12 * self._edits
        self.rom.add_box("metal", x, self._patch_y, x + 3, self._patch_y + 3)
        self._edits += 1

    def sign_off(self, analyzer):
        """The five passes of a sign-off, as one comparable tuple."""
        circuit = analyzer.extract(self.top)
        return (analyzer.drc(self.top),
                (circuit.node_names, circuit.network.transistors,
                 circuit.summary(), circuit.parasitics),
                analyzer.measure(self.top), analyzer.timing(self.top),
                analyzer.erc(self.top))
