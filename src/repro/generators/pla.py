"""The PLA generator.

The programmed logic array is the archetypal regular structure of the
silicon-compilation argument: a fixed floorplan (input drivers, AND plane,
OR plane, output buffers) whose *personality* — which crosspoints carry a
transistor — is computed from a logic cover.  The same program therefore
produces a correct layout for any set of logic equations, and its area is a
simple function of (inputs, product terms, outputs), which experiment E3
sweeps and experiment E4 ties back to logic minimisation.

Electrically this is the classic NMOS NOR-NOR PLA: input drivers produce the
true and complement of every input on vertical poly columns; each product
term is a horizontal row wire pulled up by a depletion load and pulled down
by a crosspoint transistor wherever the term must be false; the OR plane
works the same way with terms as inputs and (inverted) outputs as rows, and
the output buffers restore polarity.  Both planes are drawn by
:mod:`repro.generators.plane`, whose crosspoints the decoder and the ROM
share; this module adds the periphery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Union

from repro.generators.plane import Plane, place_row
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.lang.parameters import Parameter, ParameterizedCell, shared_brick
from repro.layout.cell import Cell
from repro.logic.cube import Cover
from repro.logic.minimize import minimize
from repro.logic.truth_table import TruthTable
from repro.technology.technology import Technology


class PlaStyle(Enum):
    """Crosspoint pitch styles (an area/robustness trade-off)."""

    COMPACT = "compact"    # 10 lambda pitch (the DRC-clean minimum)
    RELAXED = "relaxed"    # 12 lambda pitch


# 10 lambda is the smallest legal crosspoint pitch (see
# repro.generators.plane); "relaxed" adds a lambda of slack on every
# constraint.
_PITCH_OF_STYLE = {PlaStyle.COMPACT: 10, PlaStyle.RELAXED: 12}


@dataclass
class PlaReport:
    """Size accounting produced alongside the layout."""

    inputs: int
    outputs: int
    terms: int
    crosspoint_transistors: int
    pullup_transistors: int
    driver_transistors: int
    width: int
    height: int

    @property
    def total_transistors(self) -> int:
        return self.crosspoint_transistors + self.pullup_transistors + self.driver_transistors

    @property
    def area(self) -> int:
        return self.width * self.height


class PlaGenerator(ParameterizedCell):
    """Generate an NMOS PLA from a :class:`Cover` or :class:`TruthTable`.

    Parameters
    ----------
    minimize_cover:
        Run the logic minimiser before building (the E4 ablation switch).
    style:
        Crosspoint pitch style.
    """

    name_prefix = "pla"

    minimize_cover = Parameter(kind=bool, default=True)
    minimize_method = Parameter(kind=str, default="exact",
                                choices=["exact", "heuristic", "none"])
    style = Parameter(kind=str, default="compact", choices=["compact", "relaxed"])

    def __init__(self, technology: Technology, source: Union[Cover, TruthTable],
                 name: Optional[str] = None, **parameters):
        super().__init__(technology, **parameters)
        if isinstance(source, TruthTable):
            self._cover = source.to_cover()
        else:
            self._cover = source.copy()
        self._explicit_name = name
        self.report: Optional[PlaReport] = None

    # -- naming -----------------------------------------------------------------

    def cell_name(self) -> str:
        if self._explicit_name:
            return self._explicit_name
        return (
            f"pla_i{self._cover.num_inputs}_o{self._cover.num_outputs}"
            f"_p{self._cover.num_terms}"
        )

    def _cache_key_extra(self) -> tuple:
        return (
            self.cell_name(),
            tuple((cube.inputs, cube.outputs) for cube in self._cover.cubes),
            tuple(self._cover.input_names),
            tuple(self._cover.output_names),
        )

    # -- the personality --------------------------------------------------------

    def personality(self) -> Cover:
        """The cover actually laid out (after optional minimisation)."""
        if self.minimize_cover and self.minimize_method != "none":
            return minimize(self._cover, self.minimize_method)
        return self._cover.copy()

    # -- layout -------------------------------------------------------------------

    def build(self) -> Cell:
        cover = self.personality()
        pitch = _PITCH_OF_STYLE[PlaStyle(self.style)]
        num_inputs = cover.num_inputs
        num_outputs = cover.num_outputs
        num_terms = max(1, cover.num_terms)

        cell = Cell(self.cell_name())

        # Sub-cells: the periphery bricks, shared across all PLA instances
        # built in the same technology (the crosspoints are the NOR plane's).
        driver = shared_brick(self.technology, f"pla_driver_{pitch}",
                              lambda: self._input_driver(pitch))
        pullup = shared_brick(self.technology, f"pla_pullup_{pitch}",
                              lambda: self._term_pullup(pitch))
        output_buffer = shared_brick(self.technology, f"pla_outbuf_{pitch}",
                                     lambda: self._output_buffer(pitch))

        driver_height = driver.height

        # The pullup's drain strap ends at pitch + 2 exactly; start the AND
        # plane there so the strap abuts the first term-row metal.  (The
        # pullup *bbox* starts at x=3, so its width is not the right offset.)
        and_x0 = pitch + 2
        and_y0 = driver_height
        and_width = 2 * num_inputs * pitch
        or_x0 = and_x0 + and_width + pitch  # one pitch of separation

        crosspoint_transistors = 0

        # AND plane and OR plane rows (one per product term).
        for term_index, cube in enumerate(cover.cubes):
            row_y = and_y0 + term_index * pitch
            cell.place(pullup, 0, row_y, name=f"pullup_{term_index}")
            crosspoint_transistors += place_row(
                self.technology, cell, Plane.INPUT, and_x0, row_y, pitch, cube.inputs)
            crosspoint_transistors += place_row(
                self.technology, cell, Plane.OUTPUT, or_x0, row_y, pitch, cube.outputs)

        # Input drivers along the bottom of the AND plane.
        for input_index in range(num_inputs):
            x = and_x0 + 2 * input_index * pitch
            instance = cell.place(driver, x, 0, name=f"driver_{input_index}")
            cell.add_port(cover.input_names[input_index],
                          instance.transform.apply(driver.port("in").position),
                          "poly", "input")

        # Output buffers along the bottom of the OR plane.
        for output_index in range(num_outputs):
            x = or_x0 + output_index * pitch
            instance = cell.place(output_buffer, x, 0, name=f"outbuf_{output_index}")
            cell.add_port(cover.output_names[output_index],
                          instance.transform.apply(output_buffer.port("out").position),
                          "metal", "output")

        # Supply rails along the left edge.
        total_height = and_y0 + num_terms * pitch + pitch
        cell.add_rect("metal", Rect(0, and_y0 - pitch // 2, 3, total_height))
        cell.add_port("vdd", Point(1, total_height - 1), "metal", "supply")
        cell.add_port("gnd", Point(1, and_y0 - pitch // 2 + 1), "metal", "supply")

        bbox = cell.bbox()
        self.report = PlaReport(
            inputs=num_inputs,
            outputs=num_outputs,
            terms=cover.num_terms,
            crosspoint_transistors=crosspoint_transistors,
            pullup_transistors=cover.num_terms + num_outputs,
            driver_transistors=4 * num_inputs + 2 * num_outputs,
            width=0 if bbox is None else bbox.width,
            height=0 if bbox is None else bbox.height,
        )
        self._personality_cache = cover
        return cell

    # -- functional model -------------------------------------------------------------

    def evaluate(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Evaluate the PLA's logical function (for verification against RTL)."""
        return self.personality().evaluate(assignment)

    # -- periphery bricks --------------------------------------------------------------

    def _input_driver(self, pitch: int) -> Cell:
        """True/complement driver: a two-inverter column feeding two poly lines."""
        cell = Cell(f"pla_driver_{pitch}")
        height = 3 * pitch
        # Input poly stub at the bottom (abuts the first inverter's diffusion).
        cell.add_rect("poly", Rect(pitch // 2 - 1, 0, pitch // 2 + 1, 4))
        # Two inverters represented by their active regions.
        for column in range(2):
            x = column * pitch + pitch // 2
            cell.add_rect("diffusion", Rect(x - 2, 4, x + 2, height - 4))
            cell.add_rect("poly", Rect(x - 3, pitch, x + 3, pitch + 2))
            cell.add_rect("implant", Rect(x - 3, 2 * pitch - 1, x + 3, 2 * pitch + 3))
            cell.add_rect("poly", Rect(x - 1, height - 6, x + 1, height))
        cell.add_port("in", Point(pitch // 2, 1), "poly", "input")
        return cell

    def _term_pullup(self, pitch: int) -> Cell:
        """Depletion pullup for one term row.

        The drain strap metal runs out to ``x = pitch + 2`` where the AND
        plane's term row begins (the two abut, so the row is connected); the
        gate-to-drain contact abuts the gate poly and clears the vdd rail by
        the full metal spacing.
        """
        cell = Cell(f"pla_pullup_{pitch}")
        c = pitch // 2
        cell.add_rect("diffusion", Rect(3, c - 2, c + 2, c + 2))
        cell.add_rect("poly", Rect(c, c - 3, c + 2, c + 3))
        cell.add_rect("implant", Rect(c - 2, c - 5, c + 4, c + 5))
        cell.add_rect("contact", Rect(c + 2, c - 1, c + 4, c + 1))
        cell.add_rect("metal", Rect(c + 1, c - 2, pitch + 2, c + 2))
        return cell

    def _output_buffer(self, pitch: int) -> Cell:
        """Inverting output buffer at the foot of each OR-plane column."""
        cell = Cell(f"pla_outbuf_{pitch}")
        height = 3 * pitch
        x = pitch // 2
        cell.add_rect("metal", Rect(x - 1, 4, x + 3, height))
        cell.add_rect("diffusion", Rect(x - 2, 6, x + 2, height - 6))
        cell.add_rect("poly", Rect(x - 3, pitch, x + 3, pitch + 2))
        cell.add_rect("implant", Rect(x - 3, 2 * pitch - 1, x + 3, 2 * pitch + 3))
        cell.add_port("out", Point(x, 2), "metal", "output")
        return cell
