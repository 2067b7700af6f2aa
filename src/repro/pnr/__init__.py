"""Place & route: wirelength-driven placement and obstacle-aware routing.

The assembler's original flow packed blocks by height and drew blind
L-shaped pad wires straight across the core; ``repro.pnr`` replaces both
halves.  :mod:`repro.pnr.placement` refines the shelf packing with
simulated annealing on half-perimeter wirelength over the pad+block
connection list, and :mod:`repro.pnr.router` routes connections on a grid
with an A* maze search over a rasterised blockage grid — placed
blocks, the pad ring, and previously routed nets.
"""

from repro.assembly.floorplan import PlacementError, UnknownTerminalError
from repro.pnr.placement import PlacementReport, refine_placement
from repro.pnr.router import (
    MazeRouter,
    PnrRouter,
    RouteRequest,
    RoutedNet,
    RoutingError,
    RoutingReport,
)

__all__ = [
    "MazeRouter",
    "PlacementError",
    "PlacementReport",
    "PnrRouter",
    "RouteRequest",
    "RoutedNet",
    "RoutingError",
    "RoutingReport",
    "UnknownTerminalError",
    "refine_placement",
]
