"""Circuit extraction: from mask geometry back to a transistor netlist.

Extraction is the verification backbone of the silicon compiler: the layout
the compiler produced is read back as a switch-level network, simulated and
compared against the behavioural description, so the three views of the
design (behavioural, structural, physical) can be checked against each
other.
"""

from repro.extract.extractor import Extractor, ExtractedCircuit, extract_cell

__all__ = ["Extractor", "ExtractedCircuit", "extract_cell"]
