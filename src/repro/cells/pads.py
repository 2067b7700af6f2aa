"""Bonding pads.

A pad is a large metal square with an overglass opening for the bond wire
and a metal tail reaching into the chip core.  Input pads add a lightning
arrester (a long resistive diffusion path) as the era's protection
structure; output pads add a driver region.
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.lang.parameters import Parameter, ParameterizedCell
from repro.layout.cell import Cell


class BondingPadCell(ParameterizedCell):
    """A bonding pad with its overglass opening and a signal tail.

    ``kind`` selects input (protection resistor), output (driver area) or
    supply (plain) pads; the electrical structures are represented by the
    appropriate mask regions so area accounting and DRC see realistic pads.
    """

    name_prefix = "pad"

    # The opening meets the W.G bondability rule (100 lambda minimum) and
    # the metal seals it by a 2-lambda ledge on every side.
    size = Parameter(kind=int, default=104, minimum=100, doc="pad metal size (lambda)")
    opening = Parameter(kind=int, default=100, minimum=100, doc="overglass opening size")
    tail_length = Parameter(kind=int, default=20, minimum=4, doc="length of the signal tail")
    kind = Parameter(kind=str, default="signal",
                     choices=["signal", "input", "output", "vdd", "gnd"])

    def build(self) -> Cell:
        if self.opening >= self.size:
            # The overglass opening must sit inside the pad metal.
            raise ValueError("pad opening must be smaller than the pad size")
        cell = Cell(self.cell_name())
        size = self.size
        margin = (size - self.opening) // 2

        cell.add_rect("metal", Rect(0, 0, size, size))
        cell.add_rect("overglass", Rect(margin, margin, size - margin, size - margin))

        # Signal tail: metal strip leaving the top edge toward the core.
        tail_width = 6
        tail_x1 = (size - tail_width) // 2
        cell.add_rect("metal", Rect(tail_x1, size, tail_x1 + tail_width, size + self.tail_length))

        if self.kind == "input":
            # Protection: a serpentine diffusion resistor beside the tail.
            # Its strap metal reaches the tail (touching = connected), so it
            # is spacing-exempt rather than a 2-lambda S.M.M violation.
            cell.add_rect("diffusion", Rect(tail_x1 - 6, size, tail_x1 - 2, size + self.tail_length))
            cell.add_rect("contact", Rect(tail_x1 - 5, size + 1, tail_x1 - 3, size + 3))
            cell.add_rect("metal", Rect(tail_x1 - 6, size, tail_x1, size + 4))
        elif self.kind == "output":
            # Driver region: wide diffusion and poly marking the output driver.
            cell.add_rect("diffusion", Rect(tail_x1 - 10, size, tail_x1 - 2, size + self.tail_length))
            cell.add_rect("poly", Rect(tail_x1 - 12, size + 4, tail_x1, size + 8))

        pad_center = Point(size // 2, size // 2)
        tail_end = Point(size // 2, size + self.tail_length - 1)
        cell.add_port("pad", pad_center, "metal", "inout")
        direction = {"input": "input", "output": "output",
                     "vdd": "supply", "gnd": "supply"}.get(self.kind, "inout")
        cell.add_port("core", tail_end, "metal", direction)
        return cell
