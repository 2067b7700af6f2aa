"""Cells (CIF symbols) and cell instances (CIF calls).

A cell owns its mask geometry, its labels/ports, and a list of placed
instances of other cells.  Cells reference their children directly (not by
name), so a :class:`~repro.layout.library.Library` is a DAG of cells; cycles
are rejected when instances are added.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.geometry.bbox import BoundingBox
from repro.geometry.path import Path
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, Transform
from repro.layout.shapes import Geometry, Label, Shape


@dataclass(frozen=True)
class Port:
    """A declared connection point of a cell.

    Ports carry a name, a position in the cell's local coordinates, the layer
    on which the connection is made, and a direction hint used by the chip
    assembler to orient routing.
    """

    name: str
    position: Point
    layer: str
    direction: str = ""   # "input", "output", "inout", "supply" or ""

    def transformed(self, transform: Transform) -> "Port":
        return Port(self.name, transform.apply(self.position), self.layer, self.direction)


@dataclass
class CellInstance:
    """A placement of a child cell inside a parent cell."""

    cell: "Cell"
    transform: Transform = field(default_factory=Transform.identity)
    name: str = ""

    @property
    def bbox(self) -> Optional[Rect]:
        child_box = self.cell.bbox()
        if child_box is None:
            return None
        return child_box.transformed(self.transform)

    def port_position(self, port_name: str) -> Point:
        """Position of a child port in the parent's coordinates."""
        port = self.cell.port(port_name)
        return self.transform.apply(port.position)


class Cell:
    """A layout cell: geometry + labels + ports + child instances.

    Mutate cells only through the ``add_*`` methods and
    :meth:`remove_shape` (or call :meth:`_mutated` after touching
    ``shapes``/``labels``/``instances`` directly): the memoized extent
    (:meth:`bbox`) and the memoized flat views in
    :mod:`repro.layout.flatten` rely on the mutation counter those methods
    maintain.
    """

    def __init__(self, name: str):
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"invalid cell name {name!r}")
        self.name = name
        self.shapes: List[Shape] = []
        self.labels: List[Label] = []
        self.instances: List[CellInstance] = []
        self._ports: Dict[str, Port] = {}
        # Mutation counter: bumped on every geometry/label/instance change of
        # this cell *or any cell below it*, so that cached flat views
        # (repro.layout.flatten) and the hierarchical analysis caches
        # (repro.analysis.hier) can key on a single integer per cell.
        self._version = 0
        self._flat_cache = None
        # ``bbox()`` memo, as a 1-tuple (``None`` is a legal extent);
        # cleared wherever ``_flat_cache`` is.
        self._bbox_cache: Optional[Tuple[Optional[Rect]]] = None
        # Weak back-references to the cells that instantiate this one, used to
        # propagate mutations upward (transitive invalidation).
        self._parents: Dict[int, "weakref.ref[Cell]"] = {}

    # -- pickling ------------------------------------------------------------
    #
    # Cells are pickled into the disk store (a hier view's sources name
    # their cells).  The parent back-references are weakrefs (not
    # picklable) and the flat and extent memos are redundant, so all three
    # stay behind; the loading side rebuilds the back-references from the
    # instance lists of the cells that arrived in the same pickle.  A parent outside the
    # pickled subgraph is not reconstructed — mutation propagation is scoped
    # to the loaded DAG.

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_parents"] = {}
        state["_flat_cache"] = None
        state["_bbox_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        for instance in self.instances:
            instance.cell._parents[id(self)] = weakref.ref(self)

    # -- construction -------------------------------------------------------

    def _mutated(self) -> None:
        """Record a mutation: invalidates any cached flat view, extent and
        analysis cache of this cell and, transitively, of every ancestor cell.

        Each affected cell's version is bumped exactly once per mutation,
        even through diamond-shaped instance DAGs.
        """
        seen = {id(self)}
        stack: List[Cell] = [self]
        while stack:
            cell = stack.pop()
            cell._version += 1
            cell._flat_cache = None
            cell._bbox_cache = None
            dead: List[int] = []
            for key, ref in cell._parents.items():
                parent = ref()
                if parent is None:
                    dead.append(key)
                elif id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
            for key in dead:
                del cell._parents[key]

    @property
    def subtree_version(self) -> int:
        """A value identifying the current state of this cell's whole subtree.

        Any mutation of this cell or of any cell reachable through its
        instances changes this number; caches (flat views, hierarchical
        analysis results) key on it.
        """
        return self._version

    def add_shape(self, shape: Shape) -> Shape:
        self.shapes.append(shape)
        self._mutated()
        return shape

    def remove_shape(self, shape: Shape) -> None:
        """Take one of this cell's own shapes out again (the router's
        rip-up); ``ValueError`` if the cell holds no such shape."""
        self.shapes.remove(shape)
        self._mutated()

    def add_rect(self, layer: str, rect: Rect) -> Shape:
        return self.add_shape(Shape(layer, rect))

    def add_box(self, layer: str, x1: int, y1: int, x2: int, y2: int) -> Shape:
        return self.add_rect(layer, Rect(x1, y1, x2, y2))

    def add_polygon(self, layer: str, polygon: Polygon) -> Shape:
        return self.add_shape(Shape(layer, polygon))

    def add_wire(self, layer: str, points: Iterable[Point], width: int) -> Shape:
        return self.add_shape(Shape(layer, Path(list(points), width)))

    def add_label(self, text: str, position: Point, layer: str = "") -> Label:
        label = Label(text, position, layer)
        self.labels.append(label)
        self._mutated()
        return label

    def add_port(self, name: str, position: Point, layer: str, direction: str = "") -> Port:
        if name in self._ports:
            raise ValueError(f"cell {self.name!r} already has a port {name!r}")
        port = Port(name, position, layer, direction)
        self._ports[name] = port
        self.labels.append(Label(name, position, layer))
        self._mutated()
        return port

    def add_instance(self, cell: "Cell", transform: Optional[Transform] = None,
                     name: str = "") -> CellInstance:
        if cell is self or cell.references(self):
            raise ValueError(
                f"adding instance of {cell.name!r} to {self.name!r} would create a cycle"
            )
        instance = CellInstance(cell, transform or Transform.identity(), name)
        self.instances.append(instance)
        cell._parents[id(self)] = weakref.ref(self)
        self._mutated()
        return instance

    def place(self, cell: "Cell", x: int, y: int,
              orientation: Orientation = Orientation.R0, name: str = "") -> CellInstance:
        """Convenience: instantiate ``cell`` with its origin at ``(x, y)``."""
        return self.add_instance(cell, Transform(orientation, Point(x, y)), name)

    # -- content hashing ------------------------------------------------------

    def content_items(self) -> Iterator[Tuple]:
        """Canonical, name-free tokens describing this cell's *own* content.

        The content-addressed artifact store (:mod:`repro.store`) hashes
        these tokens — geometry, labels, ports in declaration order —
        together with each instance's child digest and placement, so two
        independently built cells with identical content collide on the
        same digest across objects *and* processes.  The cell's own name
        and instance names are deliberately excluded: renames never change
        what analysis computes on the geometry.  Only primitive ints and
        strings are emitted (no object identities, no Python ``hash()``),
        which is what makes the digest stable across process restarts.
        """
        for shape in self.shapes:
            geometry = shape.geometry
            if isinstance(geometry, Rect):
                yield ("R", shape.layer, geometry.x1, geometry.y1,
                       geometry.x2, geometry.y2)
            elif isinstance(geometry, Path):
                yield (("W", shape.layer, geometry.width)
                       + tuple((p.x, p.y) for p in geometry.points))
            else:
                yield (("P", shape.layer)
                       + tuple((v.x, v.y) for v in geometry.vertices))
        for label in self.labels:
            yield ("L", label.text, label.layer,
                   label.position.x, label.position.y)
        for port in self._ports.values():
            yield ("T", port.name, port.layer, port.direction,
                   port.position.x, port.position.y)

    # -- queries -------------------------------------------------------------

    @property
    def ports(self) -> Dict[str, Port]:
        return dict(self._ports)

    def port(self, name: str) -> Port:
        if name not in self._ports:
            raise KeyError(f"cell {self.name!r} has no port {name!r}")
        return self._ports[name]

    def has_port(self, name: str) -> bool:
        return name in self._ports

    def port_names(self) -> List[str]:
        return list(self._ports)

    def references(self, other: "Cell") -> bool:
        """True if ``other`` is reachable through this cell's instance DAG."""
        seen: Set[int] = set()
        stack: List[Cell] = [self]
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            if current is other:
                return True
            stack.extend(inst.cell for inst in current.instances)
        return False

    def children(self) -> List["Cell"]:
        """Distinct child cells directly instantiated by this cell."""
        result: List[Cell] = []
        seen: Set[int] = set()
        for instance in self.instances:
            if id(instance.cell) not in seen:
                seen.add(id(instance.cell))
                result.append(instance.cell)
        return result

    def descendants(self) -> List["Cell"]:
        """All distinct cells reachable from this one, bottom-up (children first)."""
        order: List[Cell] = []
        _collect_descendants(self, set(), order)
        return order

    def bbox(self) -> Optional[Rect]:
        """Extent of own geometry plus all instance extents (recursive).

        Memoised until the next mutation of this cell or of any cell below
        it (see :meth:`_mutated`), so ``width`` / ``height`` and
        :attr:`CellInstance.bbox` are a slot read on an unchanged cell.
        """
        cached = self._bbox_cache
        if cached is not None:
            return cached[0]
        box = BoundingBox()
        for shape in self.shapes:
            box.add_rect(shape.bbox)
        for label in self.labels:
            box.add_point(label.position)
        for instance in self.instances:
            child_box = instance.bbox
            if child_box is not None:
                box.add_rect(child_box)
        extent = None if box.is_empty else box.rect()
        self._bbox_cache = (extent,)
        return extent

    @property
    def width(self) -> int:
        box = self.bbox()
        return 0 if box is None else box.width

    @property
    def height(self) -> int:
        box = self.bbox()
        return 0 if box is None else box.height

    def shapes_on_layer(self, layer: str) -> List[Shape]:
        return [shape for shape in self.shapes if shape.layer == layer]

    def own_layers(self) -> List[str]:
        seen: List[str] = []
        for shape in self.shapes:
            if shape.layer not in seen:
                seen.append(shape.layer)
        return seen

    def instance_count(self) -> int:
        """Total number of placed instances in the full hierarchy below this cell."""
        # Folded over the distinct cells, children first: a shared cell is
        # counted once however many paths reach it.
        totals: Dict[int, int] = {}
        for cell in self.descendants() + [self]:
            totals[id(cell)] = len(cell.instances) + sum(
                totals[id(instance.cell)] for instance in cell.instances)
        return totals[id(self)]

    def __repr__(self) -> str:
        return (
            f"Cell({self.name!r}, {len(self.shapes)} shapes, "
            f"{len(self.instances)} instances, {len(self._ports)} ports)"
        )


def _collect_descendants(cell: Cell, seen: Set[int], order: List[Cell]) -> None:
    # A module-level function, not a closure inside ``descendants``: a nested
    # function that calls itself is a reference cycle (function -> closure
    # cell -> function) that pins ``order`` until the cyclic collector runs.
    for instance in cell.instances:
        child = instance.cell
        if id(child) not in seen:
            seen.add(id(child))
            _collect_descendants(child, seen, order)
            order.append(child)
