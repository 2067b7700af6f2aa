"""Slicing floorplans and shelf packing.

The chip assembler places its major blocks (datapath, control PLA, memories,
pad ring) with a simple slicing discipline: blocks are packed onto shelves
(rows), shelves stack vertically, and the result reports total area and the
utilisation (block area / bounding area), which is the figure the
wiring-management experiments track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.diagnostics import DiagnosticError
from repro.geometry.rect import Rect
from repro.layout.cell import Cell


class PlacementError(DiagnosticError, ValueError):
    """The placement problem is malformed: no packing can answer it."""

    default_code = "ROU010"


class UnknownTerminalError(DiagnosticError, KeyError):
    """A connection names a block, port or pad the chip does not have."""

    default_code = "ROU011"

    def __str__(self) -> str:       # KeyError would repr() the message
        return str(self.args[0])


def check_unique_names(names: Iterable[str]) -> None:
    """Blocks are looked up by name from here on: no two may share one."""
    seen = set()
    for name in names:
        if name in seen:
            raise PlacementError(f"duplicate block name {name!r}")
        seen.add(name)


@dataclass
class FloorplanItem:
    """One block to place: a cell plus its placement result."""

    cell: Cell
    name: str
    x: int = 0
    y: int = 0
    placed: bool = False

    @property
    def width(self) -> int:
        return self.cell.width

    @property
    def height(self) -> int:
        return self.cell.height

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass
class Floorplan:
    """The result of packing: item positions plus summary figures."""

    items: List[FloorplanItem]
    width: int
    height: int
    spacing: int

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def block_area(self) -> int:
        return sum(item.area for item in self.items)

    @property
    def utilisation(self) -> float:
        if self.area == 0:
            return 0.0
        return self.block_area / self.area

    def item(self, name: str) -> FloorplanItem:
        for candidate in self.items:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no floorplan item named {name!r}")

    def realise(self, parent: Cell) -> Dict[str, "CellInstancePlacement"]:
        """Place every item's cell into ``parent`` at its packed position."""
        placements: Dict[str, CellInstancePlacement] = {}
        for item in self.items:
            instance = parent.place(item.cell, item.x, item.y, name=item.name)
            placements[item.name] = CellInstancePlacement(item, instance)
        return placements


@dataclass
class CellInstancePlacement:
    """Pairs a floorplan item with the instance created for it."""

    item: FloorplanItem
    instance: "CellInstance"


def pack_shelves(cells: Sequence[Tuple[str, Cell]], max_width: Optional[int] = None,
                 spacing: int = 10, keep_order: bool = False) -> Floorplan:
    """Pack blocks onto shelves.

    Blocks are sorted by decreasing height and placed left to right; when a
    block would exceed ``max_width`` a new shelf is started.  ``max_width``
    defaults to roughly the square root of the total block area, giving a
    near-square chip.  ``keep_order`` skips the height sort and packs the
    blocks in the order given — the knob the annealing placer turns: it
    explores permutations of the block list, so the packer must honour them.
    """
    if spacing < 0:     # would pack blocks on top of each other
        raise PlacementError(f"block spacing must be >= 0, got {spacing}")
    check_unique_names(name for name, _ in cells)
    items = [FloorplanItem(cell, name) for name, cell in cells]
    if not items:
        return Floorplan([], 0, 0, spacing)

    if max_width is None:
        total_area = sum(item.area for item in items)
        widest = max(item.width for item in items)
        max_width = max(widest, int(total_area ** 0.5 * 1.2))

    ordered = items if keep_order else sorted(
        items, key=lambda item: item.height, reverse=True)
    shelf_x = 0
    shelf_y = 0
    shelf_height = 0
    overall_width = 0
    for item in ordered:
        if shelf_x > 0 and shelf_x + item.width > max_width:
            shelf_y += shelf_height + spacing
            shelf_x = 0
            shelf_height = 0
        item.x = shelf_x
        item.y = shelf_y
        item.placed = True
        shelf_x += item.width + spacing
        shelf_height = max(shelf_height, item.height)
        overall_width = max(overall_width, shelf_x - spacing)
    overall_height = shelf_y + shelf_height
    return Floorplan(items, overall_width, overall_height, spacing)


# Imported late to avoid a cycle in type annotations only.
from repro.layout.cell import CellInstance  # noqa: E402  (documentation import)
