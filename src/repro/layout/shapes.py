"""Shapes: geometry bound to a layer, plus text labels.

A :class:`Shape` is the unit of mask data stored in a cell: a rectangle,
polygon or wire path on a named layer.  A :class:`Label` is a named point
used to mark ports and nets; labels are not mask data but are preserved
through CIF via user-extension commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Union

from repro.geometry.path import Path
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Transform

Geometry = Union[Rect, Polygon, Path]


class ShapeKind(Enum):
    RECT = "rect"
    POLYGON = "polygon"
    WIRE = "wire"


@dataclass(frozen=True, slots=True)
class Shape:
    """A piece of mask geometry on a layer (slotted: allocated per instance
    per shape during flattening)."""

    layer: str
    geometry: Geometry

    def __post_init__(self) -> None:
        if isinstance(self.geometry, Rect) and self.geometry.is_degenerate:
            raise ValueError("degenerate rectangles cannot be mask geometry")

    # Explicit tuple state: bypasses the per-object dataclasses.fields()
    # call in the generated slots+frozen pickle path — artifact-store blobs
    # carry shapes by the hundred thousand (see Point/Rect).
    def __getstate__(self):
        return (self.layer, self.geometry)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "layer", state[0])
        object.__setattr__(self, "geometry", state[1])

    @property
    def kind(self) -> ShapeKind:
        if isinstance(self.geometry, Rect):
            return ShapeKind.RECT
        if isinstance(self.geometry, Polygon):
            return ShapeKind.POLYGON
        return ShapeKind.WIRE

    @property
    def bbox(self) -> Rect:
        if isinstance(self.geometry, Rect):
            return self.geometry
        return self.geometry.bbox

    def transformed(self, transform: Transform) -> "Shape":
        return Shape(self.layer, self.geometry.transformed(transform))

    def translated(self, dx: int, dy: int) -> "Shape":
        # A translated valid shape is valid: built through the slots, not
        # through the frozen ``__init__`` and ``__post_init__``.
        moved = _new(Shape)
        _set_layer(moved, self.layer)
        _set_geometry(moved, self.geometry.translated(dx, dy))
        return moved

    def as_rects(self) -> List[Rect]:
        """Reduce the geometry to rectangles (for DRC, extraction, area)."""
        if isinstance(self.geometry, Rect):
            return [self.geometry]
        if isinstance(self.geometry, Path):
            return self.geometry.to_rects()
        # Polygon: rectilinear polygons decompose exactly; other polygons are
        # conservatively represented by their bounding box.
        from repro.geometry.polygon import decompose_rectilinear

        if self.geometry.is_rectilinear:
            return decompose_rectilinear(self.geometry)
        return [self.geometry.bbox]

    @property
    def area(self) -> int:
        from repro.geometry.rect import merged_area

        return merged_area(self.as_rects())


_new = object.__new__
_set_layer, _set_geometry = (
    Shape.__dict__[name].__set__ for name in ("layer", "geometry"))


@dataclass(frozen=True, slots=True)
class Label:
    """A named point on a layer, used to mark ports and internal nets."""

    text: str
    position: Point
    layer: str = ""

    def __getstate__(self):
        return (self.text, self.position, self.layer)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "text", state[0])
        object.__setattr__(self, "position", state[1])
        object.__setattr__(self, "layer", state[2])

    def transformed(self, transform: Transform) -> "Label":
        return Label(self.text, transform.apply(self.position), self.layer)

    def translated(self, dx: int, dy: int) -> "Label":
        return Label(self.text, self.position.translated(dx, dy), self.layer)
