"""Bounding-box accumulation helpers.

The layout database and the chip assembler need to accumulate bounding boxes
over heterogeneous geometry (rectangles, polygons, paths, instance extents);
``BoundingBox`` is a small mutable accumulator for that purpose, distinct
from the immutable :class:`~repro.geometry.rect.Rect` value type.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect


class BoundingBox:
    """Mutable accumulator for the extent of a collection of geometry."""

    def __init__(self) -> None:
        self._rect: Optional[Rect] = None

    @property
    def is_empty(self) -> bool:
        return self._rect is None

    def add_point(self, point: Point) -> None:
        self.add_rect(Rect(point.x, point.y, point.x, point.y))

    def add_rect(self, rect: Rect) -> None:
        if self._rect is None:
            self._rect = rect
        else:
            self._rect = self._rect.union(rect)

    def add_rects(self, rects: Iterable[Rect]) -> None:
        for rect in rects:
            self.add_rect(rect)

    def rect(self) -> Rect:
        """The accumulated extent.  Raises if nothing was added."""
        if self._rect is None:
            raise ValueError("bounding box is empty")
        return self._rect

    def rect_or(self, default: Rect) -> Rect:
        return self._rect if self._rect is not None else default

    @property
    def width(self) -> int:
        return 0 if self._rect is None else self._rect.width

    @property
    def height(self) -> int:
        return 0 if self._rect is None else self._rect.height

    @property
    def area(self) -> int:
        return 0 if self._rect is None else self._rect.area

    def __repr__(self) -> str:
        if self._rect is None:
            return "BoundingBox(empty)"
        r = self._rect
        return f"BoundingBox(({r.x1},{r.y1})-({r.x2},{r.y2}))"


def union_bbox(rects: Iterable[Rect]) -> Optional[Rect]:
    """Union extent of an iterable of rectangles, or ``None`` if empty."""
    box = BoundingBox()
    box.add_rects(rects)
    return None if box.is_empty else box.rect()
