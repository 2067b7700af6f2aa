"""Layout statistics: area, geometry counts and the regularity index.

The regularity index is the metric Mead-style design methodology uses to
quantify how much leverage hierarchy and repetition give: the ratio of total
(flattened) drawn geometry to the distinct geometry that had to be designed.
Gray's paper argues structured, hierarchical, regular design tames
complexity; experiment E6 measures exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geometry.index import build_index
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell


@dataclass
class CellStatistics:
    """Summary numbers for one cell's full hierarchy."""

    name: str
    bbox_width: int
    bbox_height: int
    bbox_area: int
    flattened_shape_count: int
    distinct_shape_count: int
    distinct_cell_count: int
    instance_count: int
    hierarchy_depth: int
    mask_area_by_layer: Dict[str, int] = field(default_factory=dict)

    @property
    def regularity(self) -> float:
        """Flattened shapes per distinct (designed) shape; >= 1."""
        if self.distinct_shape_count == 0:
            return 1.0
        return self.flattened_shape_count / self.distinct_shape_count

    @property
    def total_mask_area(self) -> int:
        return sum(self.mask_area_by_layer.values())

    def density(self) -> float:
        """Fraction of the bounding box covered by drawn mask geometry."""
        if self.bbox_area == 0:
            return 0.0
        return min(1.0, self.total_mask_area / self.bbox_area)


def hierarchy_counts(cell: Cell) -> Tuple[List[Cell], int, int]:
    """``cell``'s distinct cells (children first, ``cell`` last), its
    instance count and its hierarchy depth, from one walk of the hierarchy.

    Both counts are folded over the distinct cells, children first: one
    visit per cell, not one per instance path, so a shared cell is counted
    once however many paths reach it.  The instance count is
    :meth:`Cell.instance_count`; the depth is the longest instance chain
    below and including ``cell`` (a leaf is 1).
    """
    cells = cell.descendants() + [cell]
    counts: Dict[int, Tuple[int, int]] = {}     # id -> (instances, depth)
    for current in cells:
        below = [counts[id(instance.cell)] for instance in current.instances]
        counts[id(current)] = (
            len(below) + sum(instances for instances, _ in below),
            1 + max((depth for _, depth in below), default=0))
    instances, depth = counts[id(cell)]
    return cells, instances, depth


def hierarchy_depth(cell: Cell) -> int:
    """Longest instance chain below (and including) ``cell``; leaf = 1."""
    return hierarchy_counts(cell)[2]


def cell_statistics(cell: Cell) -> CellStatistics:
    """Compute summary statistics for a cell and its hierarchy.

    A layer's mask area is its flat view's layer merge's
    (:meth:`~repro.layout.flatten.FlatLayout.layer_merge`), the merge the
    flat DRC and extractor read too.
    """
    flat = flatten_cell(cell)
    bbox = flat.bbox()
    distinct_cells, instance_count, depth = hierarchy_counts(cell)
    distinct_shapes = sum(len(c.shapes) for c in distinct_cells)
    area_by_layer: Dict[str, int] = {
        layer: flat.layer_merge(layer, build_index).area
        for layer in flat.layers()}
    return CellStatistics(
        name=cell.name,
        bbox_width=0 if bbox is None else bbox.width,
        bbox_height=0 if bbox is None else bbox.height,
        bbox_area=0 if bbox is None else bbox.area,
        flattened_shape_count=len(flat.shapes),
        distinct_shape_count=distinct_shapes,
        distinct_cell_count=len(distinct_cells),
        instance_count=instance_count,
        hierarchy_depth=depth,
        mask_area_by_layer=area_by_layer,
    )
