"""Leaf-cell library for the NMOS (Mead & Conway) technology.

These are the hand-designed bricks the generators and the chip assembler
place: restoring-logic gates (inverter, NAND, NOR), the pass transistor,
the two-phase register bit built from two shift-register halves, and
bonding pads.  Every cell is a
:class:`~repro.lang.parameters.ParameterizedCell`, so the same source text
produces different layouts as parameters and technology change — the
microscopic silicon compilation the paper describes.
"""

from repro.cells.inverter import InverterCell
from repro.cells.gates import NandCell, NorCell, PassTransistorCell
from repro.cells.registers import ShiftRegisterCell, RegisterBitCell
from repro.cells.pads import BondingPadCell

__all__ = [
    "InverterCell",
    "NandCell",
    "NorCell",
    "PassTransistorCell",
    "ShiftRegisterCell",
    "RegisterBitCell",
    "BondingPadCell",
]
