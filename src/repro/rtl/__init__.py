"""Behavioural register-transfer language (ISPS-like).

The second definition of silicon compilation the paper discusses "takes a
behavioural description of a system and maps it onto a physical structure".
This package provides that behavioural description: a small register
transfer language with declarations (inputs, outputs, registers, memories),
clocked transfers, combinational assignments and conditionals; a simulator
(compile-and-execute verification, as the RTL tradition the paper cites
does); and a compiler that maps the behaviour onto a structural netlist and
then onto layout via the generators.

The pipeline is parse → check → back ends: :func:`parse_rtl` checks syntax
(``RTL0xx``), :func:`check_machine` the static rules (``RTL1xx``), and the
simulator and the compiler both refuse a machine that fails it, at
construction, with the same :class:`RtlSemanticError` — what simulates is
what synthesis accepts (or declines as not synthesisable, ``RTL2xx``).
"""

from repro.rtl.ast import (
    MachineDescription,
    Declaration,
    DeclKind,
    Assignment,
    IfStatement,
    Block,
    BinaryOp,
    UnaryOp,
    Identifier,
    Constant,
    BitSelect,
    MemoryAccess,
)
from repro.rtl.check import check_machine, RtlSemanticError
from repro.rtl.parser import parse_rtl, RtlSyntaxError
from repro.rtl.simulator import RtlSimulator
from repro.rtl.compiler import RtlCompiler, CompiledMachine, RtlSynthesisError

__all__ = [
    "MachineDescription",
    "Declaration",
    "DeclKind",
    "Assignment",
    "IfStatement",
    "Block",
    "BinaryOp",
    "UnaryOp",
    "Identifier",
    "Constant",
    "BitSelect",
    "MemoryAccess",
    "check_machine",
    "RtlSemanticError",
    "parse_rtl",
    "RtlSyntaxError",
    "RtlSimulator",
    "RtlCompiler",
    "CompiledMachine",
    "RtlSynthesisError",
]
