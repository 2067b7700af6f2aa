"""Hierarchical layout database.

This is the physical-description half of the compiler: cells (CIF symbols)
containing mask geometry on named layers, text labels marking ports, and
instances of other cells placed under orthogonal transforms.  A
:class:`Library` collects cells and is the unit of CIF serialisation.
"""

from repro.layout.shapes import ShapeKind, Shape, Label
from repro.layout.cell import Cell, CellInstance, Port
from repro.layout.library import Library
from repro.layout.flatten import flatten_cell
from repro.layout.stats import CellStatistics, cell_statistics

__all__ = [
    "ShapeKind",
    "Shape",
    "Label",
    "Cell",
    "CellInstance",
    "Port",
    "Library",
    "flatten_cell",
    "CellStatistics",
    "cell_statistics",
]
