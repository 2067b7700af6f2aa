"""The NMOS inverter.

The inverter is the canonical restoring-logic cell of the Mead & Conway
style: an enhancement pulldown driven by the input, a depletion pullup with
its gate tied to the output through a buried contact, a metal ground rail at
the bottom and a metal VDD rail at the top.  The pullup/pulldown ratio is a
parameter (4:1 for restoring logic driven by restored levels, 8:1 when the
input arrives through pass transistors).
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.lang.parameters import Parameter, ParameterizedCell
from repro.layout.cell import Cell


class InverterCell(ParameterizedCell):
    """A ratioed NMOS inverter.

    Parameters
    ----------
    pulldown_width:
        Channel width of the enhancement pulldown (lambda).  The pulldown
        length is the minimum (2 lambda).
    ratio:
        Required pullup Z / pulldown Z ratio; 4 for restoring logic, 8 when
        driven through pass transistors.  The pullup length is derived.
    rail_width:
        Width of the VDD and GND metal rails.
    """

    name_prefix = "inv"

    pulldown_width = Parameter(kind=int, default=4, minimum=2)
    ratio = Parameter(kind=int, default=4, choices=[4, 8])
    rail_width = Parameter(kind=int, default=4, minimum=3)

    # Fixed horizontal dimensions of the cell (lambda).
    _width = 16

    def build(self) -> Cell:
        cell = Cell(self.cell_name())
        tech = self.technology
        pd_width = self.pulldown_width
        pd_length = 2
        # Pullup: Zpu / Zpd = ratio with Z = L / W.
        pu_width = 4 if pd_width >= 4 else 2
        pu_length = max(2, int(round(self.ratio * (pd_length / pd_width) * pu_width)))

        width = self._width
        rail = self.rail_width
        diff_x1 = (width - pd_width) // 2
        diff_x2 = diff_x1 + pd_width

        # Vertical budget, bottom to top:
        #   GND rail, source gap, pulldown gate, output region + buried
        #   contact, pullup gate, drain gap, VDD rail.
        y_gnd_top = rail
        y_pd_gate = y_gnd_top + 4              # bottom of pulldown gate
        y_pd_gate_top = y_pd_gate + pd_length
        y_buried = y_pd_gate_top + 4           # bottom of buried contact
        y_buried_top = y_buried + 4
        y_pu_gate = y_buried_top + 2           # bottom of pullup gate
        y_pu_gate_top = y_pu_gate + pu_length
        y_vdd = y_pu_gate_top + 5              # bottom of VDD rail
        height = y_vdd + rail

        # Power rails (metal, full cell width).
        cell.add_rect("metal", Rect(0, 0, width, rail))
        cell.add_rect("metal", Rect(0, y_vdd, width, height))

        # The diffusion column from the ground contact to the VDD contact.
        cell.add_rect("diffusion", Rect(diff_x1, 2, diff_x2, y_vdd + rail // 2 + 1))

        # Ground contact (metal rail to diffusion).
        _contact(cell, Point(width // 2, rail // 2), "diffusion", "metal")
        # VDD contact.
        _contact(cell, Point(width // 2, y_vdd + rail // 2), "diffusion", "metal")

        # Pulldown gate: poly strip crossing the diffusion, extended to the
        # left edge so the input can be reached by abutment.
        cell.add_rect("poly", Rect(0, y_pd_gate, diff_x2 + 2, y_pd_gate_top))

        # Buried contact tying the pullup gate to the output diffusion.  The
        # buried region covers the whole poly tab so the crossing is an ohmic
        # connection, not a parasitic channel.
        cell.add_rect("buried", Rect(diff_x1 - 1, y_buried, diff_x2 + 1, y_pu_gate))
        cell.add_rect("poly", Rect(diff_x1, y_buried, diff_x2, y_pu_gate))

        # Pullup gate (depletion) with implant overlay (2 lambda surround).
        cell.add_rect("poly", Rect(diff_x1 - 2, y_pu_gate, diff_x2 + 2, y_pu_gate_top))
        cell.add_rect(
            "implant",
            Rect(diff_x1 - 4, y_pu_gate - 2, diff_x2 + 4, y_pu_gate_top + 2),
        )

        # Output: metal contact on the diffusion between pulldown and buried
        # contact, with a metal tab to the right edge.
        out_y = y_pd_gate_top + 2
        _contact(cell, Point(width // 2, out_y), "diffusion", "metal")
        cell.add_rect("metal", Rect(width // 2 - 2, out_y - 2, width, out_y + 2))

        # Ports.
        cell.add_port("in", Point(1, y_pd_gate + pd_length // 2), "poly", "input")
        cell.add_port("out", Point(width - 1, out_y), "metal", "output")
        cell.add_port("gnd", Point(width // 2, rail // 2), "metal", "supply")
        cell.add_port("vdd", Point(width // 2, y_vdd + rail // 2), "metal", "supply")
        return cell

    @property
    def transistor_count(self) -> int:
        return 2


def _contact(cell: Cell, center: Point, bottom: str, top: str) -> None:
    """Draw a minimal contact structure centred at ``center``."""
    cut = Rect.from_center(center, 2, 2)
    cell.add_rect("contact", cut)
    cell.add_rect(bottom, cut.expanded(1))
    cell.add_rect(top, cut.expanded(1))
