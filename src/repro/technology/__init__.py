"""Technology descriptions: mask layers and lambda-based design rules.

The silicon compiler is retargetable across processes by describing each
process as a :class:`Technology`: a set of mask layers (with their CIF layer
names), a lambda value in nanometres, and a table of dimensionless design
rules expressed in lambda, following the Mead & Conway scalable-rules
methodology the paper builds on.
"""

from repro.technology.layers import Layer, LayerPurpose, LayerSet
from repro.technology.rules import RuleKind, DesignRule, RuleSet
from repro.technology.technology import Technology
from repro.technology.nmos import nmos_technology, NMOS

__all__ = [
    "Layer",
    "LayerPurpose",
    "LayerSet",
    "RuleKind",
    "DesignRule",
    "RuleSet",
    "Technology",
    "nmos_technology",
    "NMOS",
]
