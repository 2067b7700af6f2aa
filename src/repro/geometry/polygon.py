"""Simple polygons for non-rectangular mask geometry.

CIF supports arbitrary polygons; the silicon compiler mostly emits
rectangles, but butting contacts, bent transistors and pad structures are
more naturally expressed as polygons.  Polygons here are simple (non
self-intersecting) closed figures given as an ordered list of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.transform import Transform


@dataclass(frozen=True)
class Polygon:
    """A closed polygon described by its vertices in order.

    The closing edge from the last vertex back to the first is implicit, as
    in the CIF ``P`` command.
    """

    vertices: Tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]):
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        object.__setattr__(self, "vertices", tuple(vertices))

    @staticmethod
    def from_rect(rect: Rect) -> "Polygon":
        return Polygon(rect.corners())

    @property
    def bbox(self) -> Rect:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def signed_area(self) -> float:
        """Shoelace signed area: positive for counter-clockwise orientation."""
        total = 0
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            total += a.x * b.y - b.x * a.y
        return total / 2.0

    @property
    def is_counterclockwise(self) -> bool:
        return self.signed_area > 0

    @property
    def is_rectilinear(self) -> bool:
        """True if every edge is horizontal or vertical."""
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if a.x != b.x and a.y != b.y:
                return False
        return True

    def contains_point(self, point: Point) -> bool:
        """Even-odd rule point-in-polygon test (boundary counts as inside)."""
        if self._on_boundary(point):
            return True
        inside = False
        n = len(self.vertices)
        x, y = point.x, point.y
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if (a.y > y) != (b.y > y):
                x_cross = a.x + (b.x - a.x) * (y - a.y) / (b.y - a.y)
                if x < x_cross:
                    inside = not inside
        return inside

    def _on_boundary(self, point: Point) -> bool:
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            cross = (b.x - a.x) * (point.y - a.y) - (b.y - a.y) * (point.x - a.x)
            if cross != 0:
                continue
            if min(a.x, b.x) <= point.x <= max(a.x, b.x) and min(a.y, b.y) <= point.y <= max(a.y, b.y):
                return True
        return False

    def translated(self, dx: int, dy: int) -> "Polygon":
        return Polygon([v.translated(dx, dy) for v in self.vertices])

    def transformed(self, transform: Transform) -> "Polygon":
        return Polygon(transform.apply_all(self.vertices))

    def reversed(self) -> "Polygon":
        return Polygon(list(reversed(self.vertices)))

    def to_rect(self) -> Rect:
        """Convert back to a rectangle if the polygon is exactly one.

        Raises ``ValueError`` otherwise.
        """
        if len(self.vertices) != 4:
            raise ValueError("not a rectangle: wrong vertex count")
        bbox = self.bbox
        expected = set(bbox.corners())
        if set(self.vertices) != expected:
            raise ValueError("not a rectangle: vertices are not the bbox corners")
        return bbox


def polygon_centroid(polygon: Polygon) -> Tuple[float, float]:
    """Centroid of a simple polygon (shoelace-weighted)."""
    signed = polygon.signed_area
    if signed == 0:
        xs = [v.x for v in polygon.vertices]
        ys = [v.y for v in polygon.vertices]
        return (sum(xs) / len(xs), sum(ys) / len(ys))
    cx = 0.0
    cy = 0.0
    n = len(polygon.vertices)
    for i in range(n):
        a = polygon.vertices[i]
        b = polygon.vertices[(i + 1) % n]
        cross = a.x * b.y - b.x * a.y
        cx += (a.x + b.x) * cross
        cy += (a.y + b.y) * cross
    return (cx / (6.0 * signed), cy / (6.0 * signed))


def decompose_rectilinear(polygon: Polygon) -> List[Rect]:
    """Decompose a rectilinear polygon into disjoint rectangles.

    Uses horizontal slab decomposition at every distinct y coordinate.  The
    polygon must be rectilinear and simple.
    """
    if not polygon.is_rectilinear:
        raise ValueError("decompose_rectilinear requires a rectilinear polygon")
    ys = sorted({v.y for v in polygon.vertices})
    rects: List[Rect] = []
    for y_low, y_high in zip(ys, ys[1:]):
        y_mid = (y_low + y_high) / 2.0
        # Find x intervals inside the polygon at this slab by casting a ray.
        crossings: List[float] = []
        n = len(polygon.vertices)
        for i in range(n):
            a = polygon.vertices[i]
            b = polygon.vertices[(i + 1) % n]
            if a.x == b.x:  # vertical edge
                lo, hi = sorted((a.y, b.y))
                if lo <= y_mid <= hi and lo < y_mid < hi:
                    crossings.append(a.x)
        crossings.sort()
        for left, right in zip(crossings[0::2], crossings[1::2]):
            rects.append(Rect(int(left), y_low, int(right), y_high))
    return [r for r in rects if not r.is_degenerate]
