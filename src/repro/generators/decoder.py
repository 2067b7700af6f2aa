"""Address decoder generator (a NOR decoder, one select line per word).

The decoder is structurally the AND plane of a PLA with every minterm
present: ``2**address_bits`` rows, each with transistors on the complement
pattern of its address — drawn by :mod:`repro.generators.plane` with the
PLA's own input-plane crosspoints.  Memories (ROM, RAM) instantiate it for
word-line selection; it is also a useful regular structure on its own for
experiment E6 (hierarchy leverage of a full binary tree of select lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.generators.plane import Plane, place_row
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.lang.parameters import Parameter, ParameterizedCell, shared_brick
from repro.layout.cell import Cell


@dataclass
class DecoderReport:
    address_bits: int
    select_lines: int
    transistors: int
    width: int
    height: int

    @property
    def area(self) -> int:
        return self.width * self.height


class DecoderGenerator(ParameterizedCell):
    """Generate a ``2**n``-way NOR address decoder."""

    name_prefix = "decoder"

    address_bits = Parameter(kind=int, default=3, minimum=1, maximum=10)
    # 10 lambda is the smallest pitch where a contacted crosspoint clears the
    # Mead & Conway spacing/enclosure rules (see repro.generators.plane).
    pitch = Parameter(kind=int, default=10, minimum=10)

    def __init__(self, technology, **parameters):
        super().__init__(technology, **parameters)
        self.report: Optional[DecoderReport] = None

    def build(self) -> Cell:
        n = self.address_bits
        pitch = self.pitch
        words = 2 ** n
        cell = Cell(self.cell_name())
        pullup = shared_brick(self.technology, f"dec_pullup_{pitch}", self._pullup)

        transistors = 0
        for word in range(words):
            row_y = word * pitch
            cell.place(pullup, 0, row_y, name=f"pullup_{word}")
            # The row's address, MSB first, as the literals of its minterm:
            # the select line falls unless every address bit matches.
            transistors += place_row(self.technology, cell, Plane.INPUT, pitch,
                                     row_y, pitch, format(word, f"0{n}b"))
            # Word-line (select) port on the right edge.
            cell.add_port(f"select{word}",
                          Point(pitch + 2 * n * pitch - 1, row_y + pitch // 2),
                          "metal", "output")

        # Address input ports along the bottom (true column of each bit).
        for bit in range(n):
            x = pitch + 2 * bit * pitch + pitch // 2
            cell.add_port(f"addr{bit}", Point(x, 0), "poly", "input")

        bbox = cell.bbox()
        self.report = DecoderReport(
            address_bits=n,
            select_lines=words,
            transistors=transistors + words,
            width=0 if bbox is None else bbox.width,
            height=0 if bbox is None else bbox.height,
        )
        return cell

    def _pullup(self) -> Cell:
        pitch = self.pitch
        c = pitch // 2
        cell = Cell(f"dec_pullup_{pitch}")
        cell.add_rect("diffusion", Rect(2, c - 2, pitch - 3, c + 2))
        cell.add_rect("poly", Rect(3, c - 3, 7, c + 3))
        cell.add_rect("implant", Rect(1, c - 5, 9, c + 5))
        cell.add_rect("metal", Rect(pitch - 3, c - 2, pitch, c + 2))
        return cell
