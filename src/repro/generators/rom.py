"""ROM generator: an address decoder plus a programmed transistor matrix.

"Regular blocks, such as memories and PLAs, are programmed for specific
functions" — the ROM is programmed by its contents: a transistor is present
at (word, bit) exactly where the stored bit is 1.  The generator accepts the
contents as a list of integers and produces the decoder, the cell matrix and
the bit-line pullups/buffers, reporting area and transistor count for the
E3 parameter sweep.  The matrix is the PLA's OR plane — the output-plane
crosspoints of :mod:`repro.generators.plane`, one row per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.lang.parameters import Parameter, ParameterizedCell, shared_brick
from repro.layout.cell import Cell
from repro.generators.decoder import DecoderGenerator
from repro.generators.plane import Plane, place_row


@dataclass
class RomReport:
    words: int
    bits_per_word: int
    stored_ones: int
    transistors: int
    width: int
    height: int

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def bits(self) -> int:
        return self.words * self.bits_per_word


class RomGenerator(ParameterizedCell):
    """Generate a mask-programmed ROM from its contents."""

    name_prefix = "rom"

    bits_per_word = Parameter(kind=int, default=8, minimum=1, maximum=64)
    # 10 lambda is the smallest pitch where a contacted bit cell clears the
    # Mead & Conway spacing/enclosure rules (see repro.generators.plane).
    pitch = Parameter(kind=int, default=10, minimum=10)

    def __init__(self, technology, contents: Sequence[int], **parameters):
        super().__init__(technology, **parameters)
        self.contents: List[int] = list(contents)
        if not self.contents:
            raise ValueError("ROM contents must not be empty")
        limit = 2 ** self.bits_per_word
        for index, word in enumerate(self.contents):
            if not 0 <= word < limit:
                raise ValueError(
                    f"word {index} value {word} does not fit in {self.bits_per_word} bits"
                )
        self.report: Optional[RomReport] = None

    def cell_name(self) -> str:
        return f"rom_{len(self.contents)}x{self.bits_per_word}"

    def _cache_key_extra(self) -> tuple:
        return (self.cell_name(), tuple(self.contents))

    @property
    def address_bits(self) -> int:
        return max(1, (len(self.contents) - 1).bit_length())

    # -- functional model ---------------------------------------------------------

    def read(self, address: int) -> int:
        """The stored word at ``address`` (0 beyond the programmed contents)."""
        if address < 0:
            raise IndexError("negative ROM address")
        if address >= len(self.contents):
            return 0
        return self.contents[address]

    # -- layout ----------------------------------------------------------------------

    def build(self) -> Cell:
        pitch = self.pitch
        words = len(self.contents)
        bits = self.bits_per_word
        cell = Cell(self.cell_name())

        decoder = DecoderGenerator(self.technology, address_bits=self.address_bits,
                                   pitch=pitch)
        decoder_cell = decoder.cell()
        cell.place(decoder_cell, 0, 0, name="decoder")
        decoder_width = decoder_cell.width

        pullup = shared_brick(self.technology, f"rom_blpullup_{pitch}",
                              self._bitline_pullup)

        # One output-plane row per word, MSB first: a pull-down where the
        # stored bit is 1.
        stored_ones = 0
        matrix_x0 = decoder_width + pitch
        for word, value in enumerate(self.contents):
            stored_ones += place_row(self.technology, cell, Plane.OUTPUT, matrix_x0,
                                     word * pitch, pitch, format(value, f"0{bits}b"))

        # Bit-line pullups and data ports along the top.
        matrix_top = 2 ** self.address_bits * pitch
        for bit in range(bits):
            x = matrix_x0 + bit * pitch
            cell.place(pullup, x, matrix_top, name=f"bl_pullup_{bit}")
            cell.add_port(f"data{bit}", Point(x + pitch // 2, matrix_top + pitch - 1),
                          "metal", "output")

        # Address ports re-exported from the decoder.
        for bit in range(self.address_bits):
            port = decoder_cell.port(f"addr{bit}")
            cell.add_port(f"addr{bit}", port.position, port.layer, "input")

        bbox = cell.bbox()
        self.report = RomReport(
            words=words,
            bits_per_word=bits,
            stored_ones=stored_ones,
            transistors=stored_ones + (decoder.report.transistors if decoder.report else 0) + bits,
            width=0 if bbox is None else bbox.width,
            height=0 if bbox is None else bbox.height,
        )
        return cell

    # -- brick cells --------------------------------------------------------------------

    def _bitline_pullup(self) -> Cell:
        pitch = self.pitch
        c = pitch // 2
        cell = Cell(f"rom_blpullup_{pitch}")
        cell.add_rect("diffusion", Rect(c - 2, 2, c + 2, 7))
        cell.add_rect("poly", Rect(c - 3, 4, c + 3, 8))
        cell.add_rect("implant", Rect(c - 4, 3, c + 4, 9))
        cell.add_rect("metal", Rect(c - 1, 0, c + 3, 4))
        return cell
