"""Chip assembly: composing compiled blocks into a complete chip.

"The benefits of parameterised specification is also clearly demonstrated in
the task of chip assembly."  This package supplies that task: a slicing
floorplanner, a river router for connecting facing edges, a classic
left-edge channel router, a pad-ring generator and the
:class:`ChipAssembler` that ties them together into a pads-out chip from a
parameterised description.
"""

from repro.assembly.river import river_route, RiverRoutingError
from repro.assembly.channel import ChannelRouter, ChannelNet, ChannelResult
from repro.assembly.floorplan import (
    Floorplan,
    FloorplanItem,
    PlacementError,
    UnknownTerminalError,
    pack_shelves,
)
from repro.assembly.padframe import PadRing, PadSpec
from repro.assembly.chip import (
    ChipAssembler,
    ChipReport,
    ChipTimingReport,
    IoPathTiming,
    SignOffReport,
)

__all__ = [
    "ChipTimingReport",
    "IoPathTiming",
    "river_route",
    "RiverRoutingError",
    "ChannelRouter",
    "ChannelNet",
    "ChannelResult",
    "Floorplan",
    "FloorplanItem",
    "pack_shelves",
    "PlacementError",
    "UnknownTerminalError",
    "PadRing",
    "PadSpec",
    "ChipAssembler",
    "SignOffReport",
    "ChipReport",
]
