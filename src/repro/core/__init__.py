"""The Swift language frontend and STC compiler (the paper's core).

Pipeline: :func:`parse` -> :func:`analyze` -> :class:`Codegen`
(AST -> IR in :mod:`.lower`, the passes of :mod:`.passes`, IR -> Tcl in
:mod:`.codegen`) -> Turbine Tcl, executed by :mod:`repro.turbine`.
"""

from .codegen import Codegen, CompiledProgram
from .compiler import CompileStats, compile_swift
from .errors import SwiftError, SwiftNameError, SwiftSyntaxError, SwiftTypeError
from .parser import parse
from .semantics import FuncSig, analyze
from .types import BLOB, BOOLEAN, FLOAT, INT, STRING, VOID, SwiftType

__all__ = [
    "compile_swift",
    "CompileStats",
    "CompiledProgram",
    "Codegen",
    "parse",
    "analyze",
    "FuncSig",
    "SwiftError",
    "SwiftSyntaxError",
    "SwiftTypeError",
    "SwiftNameError",
    "SwiftType",
    "INT",
    "FLOAT",
    "STRING",
    "BOOLEAN",
    "BLOB",
    "VOID",
]
