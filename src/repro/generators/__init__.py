"""Regular-structure generators: the microscopic silicon compilers.

"There is also an increasing necessity for program descriptions of
sub-structures ... when regular blocks, such as memories and PLAs, are
programmed for specific functions."  Each generator here takes a functional
description (a cover, a truth table, stored data, a word width) and emits a
layout cell for the corresponding regular structure, together with the
bookkeeping (port lists, transistor counts, area) the chip assembler and the
experiment harness need.
"""

from repro.generators.pla import PlaGenerator, PlaStyle
from repro.generators.rom import RomGenerator
from repro.generators.decoder import DecoderGenerator
from repro.generators.datapath import DatapathGenerator, DatapathColumn
from repro.generators.fsm_layout import FsmLayoutGenerator

__all__ = [
    "PlaGenerator",
    "PlaStyle",
    "RomGenerator",
    "DecoderGenerator",
    "DatapathGenerator",
    "DatapathColumn",
    "FsmLayoutGenerator",
]
