"""repro: a silicon compilation toolchain.

A from-scratch Python reproduction of the system framed by J.P. Gray,
"Introduction to Silicon Compilation" (DAC 1979): an extensible layout
language embedded in Python, parameterised generators for regular structures
(PLAs, ROMs, RAMs, datapaths), a behavioural register-transfer language with
a compiler down to layout, physical verification (DRC, extraction, netlist
comparison), chip assembly, and the Caltech Intermediate Form as the
manufacturing interface.

The public API is re-exported from the subpackages; see ``README.md`` for a
quickstart and ``PERFORMANCE.md`` for how each engine is built.
"""

__version__ = "0.1.0"

from repro.diagnostics import (
    Budget,
    BudgetExceeded,
    Diagnostic,
    DiagnosticCollector,
    DiagnosticError,
    Severity,
    SourceSpan,
    configure_logging,
    strict_mode,
)
from repro.geometry import Point, Rect, Polygon, Path, Transform, Orientation
from repro.technology import Technology, nmos_technology, cmos_technology, NMOS, CMOS
from repro.layout import Cell, Library, Port, flatten_cell, cell_statistics
from repro.cif import write_cif, parse_cif, cell_to_cif

__all__ = [
    "__version__",
    "Budget",
    "BudgetExceeded",
    "Diagnostic",
    "DiagnosticCollector",
    "DiagnosticError",
    "Severity",
    "SourceSpan",
    "configure_logging",
    "strict_mode",
    "Point",
    "Rect",
    "Polygon",
    "Path",
    "Transform",
    "Orientation",
    "Technology",
    "nmos_technology",
    "cmos_technology",
    "NMOS",
    "CMOS",
    "Cell",
    "Library",
    "Port",
    "flatten_cell",
    "cell_statistics",
    "write_cif",
    "parse_cif",
    "cell_to_cif",
]
