"""Cell libraries: named collections of cells bound to a technology."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.layout.cell import Cell
from repro.technology.technology import Technology


class Library:
    """A collection of cells sharing one technology.

    The library is the unit of CIF serialisation and the container the chip
    assembler works against.  Cell names must be unique within a library.
    """

    def __init__(self, name: str, technology: Technology):
        self.name = name
        self.technology = technology
        self._cells: Dict[str, Cell] = {}

    # -- cell management -----------------------------------------------------

    def new_cell(self, name: str) -> Cell:
        """Create an empty cell registered in this library."""
        if name in self._cells:
            raise ValueError(f"library {self.name!r} already has a cell {name!r}")
        cell = Cell(name)
        self._cells[name] = cell
        return cell

    def add_cell(self, cell: Cell, overwrite: bool = False) -> Cell:
        """Register an externally constructed cell (and its descendants)."""
        if cell.name in self._cells and not overwrite:
            if self._cells[cell.name] is cell:
                return cell
            raise ValueError(f"library {self.name!r} already has a cell {cell.name!r}")
        self._cells[cell.name] = cell
        for child in cell.descendants():
            existing = self._cells.get(child.name)
            if existing is None:
                self._cells[child.name] = child
            elif existing is not child:
                raise ValueError(
                    f"cell name collision for {child.name!r}: "
                    "a different cell with this name is already registered"
                )
        return cell

    def cell(self, name: str) -> Cell:
        if name not in self._cells:
            raise KeyError(f"library {self.name!r} has no cell {name!r}")
        return self._cells[name]

    def get(self, name: str) -> Optional[Cell]:
        return self._cells.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cell_names(self) -> List[str]:
        return list(self._cells)

    def remove_cell(self, name: str) -> None:
        """Remove a cell; fails if any other cell still instantiates it."""
        victim = self.cell(name)
        for cell in self._cells.values():
            if cell is victim:
                continue
            if any(instance.cell is victim for instance in cell.instances):
                raise ValueError(
                    f"cannot remove {name!r}: still instantiated by {cell.name!r}"
                )
        del self._cells[name]

    # -- whole-library queries -------------------------------------------------

    def top_cells(self) -> List[Cell]:
        """Cells not instantiated by any other cell in the library."""
        instantiated = set()
        for cell in self._cells.values():
            for instance in cell.instances:
                instantiated.add(id(instance.cell))
        return [cell for cell in self._cells.values() if id(cell) not in instantiated]

    def cells_bottom_up(self) -> List[Cell]:
        """All cells ordered so that children precede their parents."""
        order: List[Cell] = []
        seen: set = set()

        def visit(cell: Cell) -> None:
            if id(cell) in seen:
                return
            seen.add(id(cell))
            for instance in cell.instances:
                visit(instance.cell)
            order.append(cell)

        for cell in self._cells.values():
            visit(cell)
        return order

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self)} cells, tech={self.technology.name})"
