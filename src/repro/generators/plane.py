"""The NOR plane: the one programmed array under the PLA, the decoder and the ROM.

Every regular block that is "programmed for specific functions" here is a
grid of crosspoints, each either blank or holding an enhancement pull-down
on a line that a depletion load holds high — a NOR gate per line.  The grid
comes in two orientations:

* the **input plane**: vertical poly columns gate pull-downs on horizontal
  metal rows — the PLA's AND plane, and the address decoder (an AND plane
  with every minterm present);
* the **output plane**: horizontal poly rows gate pull-downs on vertical
  metal columns — the PLA's OR plane, and the ROM matrix.

Each crosspoint is a :func:`shared_brick` master keyed by plane, programmed
bit and pitch, so a chip holding a PLA, a decoder and a ROM defines each
crosspoint once.  :func:`place_row` lays one row of a plane from a
``'0'``/``'1'``/``'-'`` pattern; the generators supply the pattern (a cube,
an address, a stored word) and the periphery (pull-ups, drivers, buffers).
"""

from __future__ import annotations

from enum import Enum

from repro.geometry.rect import Rect
from repro.lang.parameters import shared_brick
from repro.layout.cell import Cell
from repro.technology.technology import Technology


class Plane(Enum):
    """Orientation of a NOR plane (the value names its bricks)."""

    INPUT = "in"      # poly columns gate metal rows: PLA AND plane, decoder
    OUTPUT = "out"    # poly rows gate metal columns: PLA OR plane, ROM


def crosspoint(technology: Technology, plane: Plane, programmed: bool,
               pitch: int) -> Cell:
    """The shared ``pitch``-square crosspoint master of ``plane``."""
    name = f"plane_{plane.value}_{int(programmed)}_{pitch}"
    return shared_brick(technology, name,
                        lambda: _crosspoint(name, plane, programmed, pitch))


def _crosspoint(name: str, plane: Plane, programmed: bool, pitch: int) -> Cell:
    # A contacted crosspoint needs contact (2) + enclosure (2) + poly (2) +
    # terminal (1) = 7 lambda of diffusion, and S.D.D=3 to the next site's,
    # so 10 lambda is the smallest legal pitch.
    c = pitch // 2
    cell = Cell(name)
    if plane is Plane.INPUT:
        cell.add_rect("poly", Rect(c - 1, 0, c + 1, pitch))
        cell.add_rect("metal", Rect(0, c - 2, pitch, c + 2))
        if programmed:
            # Pull-down under the poly column, strapped to the metal row on
            # its source side: the cut abuts the gate poly (touching =
            # connected) and sits 1 lambda inside the row and the diffusion.
            cell.add_rect("diffusion", Rect(c - 4, c - 2, c + 3, c + 2))
            cell.add_rect("contact", Rect(c - 3, c - 1, c - 1, c + 1))
    else:
        cell.add_rect("poly", Rect(0, c - 1, pitch, c + 1))
        cell.add_rect("metal", Rect(c - 1, 0, c + 3, pitch))
        if programmed:
            # Diffusion tops out flush with the poly row (one source terminal
            # below the gate); the cut abuts the poly and is enclosed by the
            # metal column and the diffusion.
            cell.add_rect("diffusion", Rect(c - 1, c - 4, c + 3, c + 1))
            cell.add_rect("contact", Rect(c, c - 3, c + 2, c - 1))
    return cell


def place_row(technology: Technology, cell: Cell, plane: Plane, x0: int, y: int,
              pitch: int, pattern: str) -> int:
    """Lay one row of ``plane`` into ``cell`` from ``x0``; the pull-downs placed.

    On the input plane each character is a literal over a true/complement
    column pair: ``'1'`` programs the complement column (the row must fall
    when the input is 0), ``'0'`` the true column, ``'-'`` neither.  On the
    output plane each character is one column, programmed where it is ``'1'``.
    """
    blank = crosspoint(technology, plane, False, pitch)
    programmed = crosspoint(technology, plane, True, pitch)
    if plane is Plane.INPUT:
        # Per literal, the true column (programmed by a '0') then the
        # complement column (programmed by a '1').
        sites = [literal == code for literal in pattern for code in "01"]
    else:
        sites = [bit == "1" for bit in pattern]
    for column, on in enumerate(sites):
        cell.place(programmed if on else blank, x0 + column * pitch, y)
    return sum(sites)
