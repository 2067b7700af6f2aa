"""Axis-aligned rectangles, the workhorse of Manhattan layout."""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

from repro.geometry.point import Point
from repro.geometry.transform import Transform


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle with integer corners.

    Stored as lower-left ``(x1, y1)`` and upper-right ``(x2, y2)`` with
    ``x1 <= x2`` and ``y1 <= y2``.  Degenerate (zero-width or zero-height)
    rectangles are permitted; they are useful as construction aids but are
    rejected by the layout database when added as mask geometry.  Slotted
    because flattening and extraction allocate them by the million.
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"malformed rectangle: ({self.x1},{self.y1})-({self.x2},{self.y2})"
            )

    # Explicit tuple state: the generated slots+frozen pickle path calls
    # dataclasses.fields() once per object, which dominates artifact-store
    # deserialization when blobs carry hundreds of thousands of rectangles.
    def __getstate__(self) -> Tuple[int, int, int, int]:
        return (self.x1, self.y1, self.x2, self.y2)

    def __setstate__(self, state: Tuple[int, int, int, int]) -> None:
        object.__setattr__(self, "x1", state[0])
        object.__setattr__(self, "y1", state[1])
        object.__setattr__(self, "x2", state[2])
        object.__setattr__(self, "y2", state[3])

    # Order is (x1, y1, x2, y2), compared field by field: the dataclass
    # ``order=True`` methods build two tuples per call, and sorting a flat
    # view's rects calls them about 20 times per rect.

    def __lt__(self, other: "Rect") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.x1 != other.x1:
            return self.x1 < other.x1
        if self.y1 != other.y1:
            return self.y1 < other.y1
        if self.x2 != other.x2:
            return self.x2 < other.x2
        return self.y2 < other.y2

    def __le__(self, other: "Rect") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.x1 != other.x1:
            return self.x1 < other.x1
        if self.y1 != other.y1:
            return self.y1 < other.y1
        if self.x2 != other.x2:
            return self.x2 < other.x2
        return self.y2 <= other.y2

    def __gt__(self, other: "Rect") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.x1 != other.x1:
            return self.x1 > other.x1
        if self.y1 != other.y1:
            return self.y1 > other.y1
        if self.x2 != other.x2:
            return self.x2 > other.x2
        return self.y2 > other.y2

    def __ge__(self, other: "Rect") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.x1 != other.x1:
            return self.x1 > other.x1
        if self.y1 != other.y1:
            return self.y1 > other.y1
        if self.x2 != other.x2:
            return self.x2 > other.x2
        return self.y2 >= other.y2

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_points(a: Point, b: Point) -> "Rect":
        """Rectangle spanning two arbitrary corner points."""
        return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    @staticmethod
    def from_center(center: Point, width: int, height: int) -> "Rect":
        """Rectangle of the given size centred on ``center``.

        Width and height must be even so that corners stay on the integer
        grid; the CIF box primitive has the same constraint for on-grid
        centres.
        """
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        if width % 2 or height % 2:
            raise ValueError("centered rectangles require even width and height")
        half_w, half_h = width // 2, height // 2
        return Rect(center.x - half_w, center.y - half_h, center.x + half_w, center.y + half_h)

    @staticmethod
    def from_size(origin: Point, width: int, height: int) -> "Rect":
        """Rectangle with lower-left corner at ``origin``."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return Rect(origin.x, origin.y, origin.x + width, origin.y + height)

    # -- basic properties ---------------------------------------------------

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x1 + self.x2) // 2, (self.y1 + self.y2) // 2)

    @property
    def lower_left(self) -> Point:
        return Point(self.x1, self.y1)

    @property
    def upper_right(self) -> Point:
        return Point(self.x2, self.y2)

    @property
    def lower_right(self) -> Point:
        return Point(self.x2, self.y1)

    @property
    def upper_left(self) -> Point:
        return Point(self.x1, self.y2)

    @property
    def is_degenerate(self) -> bool:
        return self.width == 0 or self.height == 0

    def corners(self) -> List[Point]:
        """Corners in counter-clockwise order starting at the lower-left."""
        return [self.lower_left, self.lower_right, self.upper_right, self.upper_left]

    # -- geometric predicates ------------------------------------------------

    def contains_point(self, point: Point, strict: bool = False) -> bool:
        if strict:
            return self.x1 < point.x < self.x2 and self.y1 < point.y < self.y2
        return self.x1 <= point.x <= self.x2 and self.y1 <= point.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def overlaps(self, other: "Rect", strict: bool = True) -> bool:
        """True if the rectangles share interior area (strict) or touch."""
        if strict:
            return (
                self.x1 < other.x2
                and other.x1 < self.x2
                and self.y1 < other.y2
                and other.y1 < self.y2
            )
        return (
            self.x1 <= other.x2
            and other.x1 <= self.x2
            and self.y1 <= other.y2
            and other.y1 <= self.y2
        )

    def touches(self, other: "Rect") -> bool:
        """True if the rectangles abut or overlap (share at least an edge point)."""
        return self.overlaps(other, strict=False)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` if they do not touch."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 > x2 or y1 > y2:
            return None
        return Rect(x1, y1, x2, y2)

    def distance_to(self, other: "Rect") -> int:
        """Rectilinear gap between two rectangles (0 if they touch/overlap)."""
        dx = max(self.x1 - other.x2, other.x1 - self.x2, 0)
        dy = max(self.y1 - other.y2, other.y1 - self.y2, 0)
        return max(dx, dy) if (dx == 0 or dy == 0) else dx + dy

    # -- derived rectangles ---------------------------------------------------

    def translated(self, dx: int, dy: int) -> "Rect":
        # A moved valid rect is valid: built through the slots, not through
        # the frozen ``__init__`` and ``__post_init__`` (flattening places
        # rects by the hundred thousand).
        moved = _new(Rect)
        _set_x1(moved, self.x1 + dx)
        _set_y1(moved, self.y1 + dy)
        _set_x2(moved, self.x2 + dx)
        _set_y2(moved, self.y2 + dy)
        return moved

    def expanded(self, margin: int) -> "Rect":
        """Grow (or shrink, for negative margin) by ``margin`` on every side."""
        if margin < 0 and (self.width + 2 * margin < 0 or self.height + 2 * margin < 0):
            raise ValueError("shrink margin larger than rectangle")
        return Rect(self.x1 - margin, self.y1 - margin,
                    self.x2 + margin, self.y2 + margin)

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def transformed(self, transform: Transform) -> "Rect":
        """Apply an orthogonal transform; the result is again axis-aligned."""
        a = transform.apply(self.lower_left)
        b = transform.apply(self.upper_right)
        return Rect.from_points(a, b)

    def snapped(self, grid: int) -> "Rect":
        return Rect.from_points(self.lower_left.snapped(grid), self.upper_right.snapped(grid))

    # -- decomposition ---------------------------------------------------------

    def subtract(self, hole: "Rect") -> List["Rect"]:
        """Return ``self`` minus ``hole`` as a list of disjoint rectangles."""
        clipped = self.intersection(hole)
        if clipped is None or clipped.is_degenerate:
            return [] if self.is_degenerate else [self]
        pieces: List[Rect] = []
        if clipped.y2 < self.y2:  # above
            pieces.append(Rect(self.x1, clipped.y2, self.x2, self.y2))
        if self.y1 < clipped.y1:  # below
            pieces.append(Rect(self.x1, self.y1, self.x2, clipped.y1))
        if self.x1 < clipped.x1:  # left
            pieces.append(Rect(self.x1, clipped.y1, clipped.x1, clipped.y2))
        if clipped.x2 < self.x2:  # right
            pieces.append(Rect(clipped.x2, clipped.y1, self.x2, clipped.y2))
        return [piece for piece in pieces if not piece.is_degenerate]


_new = object.__new__
_set_x1, _set_y1, _set_x2, _set_y2 = (
    Rect.__dict__[name].__set__ for name in ("x1", "y1", "x2", "y2"))

_CORNERS = attrgetter("x1", "y1", "x2", "y2")


def pack_rects(rects: Iterable[Rect]) -> array:
    """The corners of ``rects`` as one flat integer array, four per rect.

    This is the pickled form of every rect list an analysis artifact
    carries: an array pickles as one bytes object, where a list of
    :class:`Rect` costs a Python-level ``__getstate__`` call per element.
    Typecode ``'i'`` where every corner fits a C int, ``'q'`` otherwise
    (corners beyond 64 bits raise ``OverflowError``, which the stores treat
    like any other unpicklable value).
    """
    corners = list(chain.from_iterable(map(_CORNERS, rects)))
    try:
        return array("i", corners)
    except OverflowError:
        return array("q", corners)


def unpack_rects(packed: array) -> List[Rect]:
    """Inverse of :func:`pack_rects`: a fresh list of equal rects."""
    corners = iter(packed)
    return list(map(Rect, corners, corners, corners, corners))


def merged_area(rects: Iterable[Rect]) -> int:
    """Total area covered by a set of possibly-overlapping rectangles.

    An active-interval sweep in x: each rectangle's y-interval is active
    between its left and right edges, and each slab between two event
    abscissae adds the covered length of the active intervals times its
    width.  Work per slab is proportional to the rectangles crossing it,
    not to all of them; :func:`repro.reference.geometry.column_merged_area`
    is the per-column rescan this replaced, kept as the oracle.
    """
    events: List[Tuple[int, int, int, int]] = []
    for r in rects:
        if r.x1 != r.x2 and r.y1 != r.y2:
            events.append((r.x1, 1, r.y1, r.y2))
            events.append((r.x2, 0, r.y1, r.y2))
    events.sort()
    active: List[Tuple[int, int]] = []          # sorted y-intervals
    total = 0
    left = None
    for x, entering, y1, y2 in events:
        if x != left:
            if active:
                total += _covered_length(active) * (x - left)
            left = x
        if entering:
            insort(active, (y1, y2))
        else:
            del active[bisect_left(active, (y1, y2))]
    return total


def _covered_length(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of sorted ``(start, end)`` intervals."""
    covered = 0
    end: Optional[int] = None
    for y1, y2 in intervals:
        if end is None or y1 > end:
            if end is not None:
                covered += end - start
            start, end = y1, y2
        elif y2 > end:
            end = y2
    return covered if end is None else covered + end - start
