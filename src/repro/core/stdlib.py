"""Builtin Swift function signatures.

Two kinds: *intrinsics* — one table row each: the Swift signature, and
the Turbine library command that implements it — and *predefined
extension functions* — the interlanguage builtins of the paper
(python, r, system) which are ordinary Tcl-template extension
functions shipped with the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass

from .swift_ast import ExtFuncDef, Param
from .types import BLOB, BOOLEAN, FLOAT, INT, STRING, SwiftType


@dataclass(frozen=True)
class Intrinsic:
    name: str
    ins: tuple[SwiftType, ...]
    outs: tuple[SwiftType, ...]
    variadic: bool = False  # extra scalar args allowed after fixed ins
    # "value": ``tcl`` is a pure value proc (values in, value out) that
    # STC may call wherever the inputs are known; "rule": ``tcl`` takes
    # TD ids and registers its own rules (containers, blobs).
    kind: str = "value"
    tcl: tuple[str, ...] = ()  # Tcl command prefix
    # May run inside a leaf task on a worker.  False for assert: its
    # failure is a program error and must not trigger a leaf retry.
    fusable: bool = True


INT_ARRAY = INT.array_of()
FLOAT_ARRAY = FLOAT.array_of()
STRING_ARRAY = STRING.array_of()

INTRINSICS: dict[str, Intrinsic] = {}


def _add(name, ins, outs, tcl=None, **kw):
    tcl = tuple((tcl or "turbine::" + name).split())
    INTRINSICS[name] = Intrinsic(name, tuple(ins), tuple(outs), tcl=tcl, **kw)


# I/O (printf's literal format string becomes part of the command prefix)
_add("printf", (STRING,), (), variadic=True)
_add("trace", (), (), variadic=True)
_add("assert", (BOOLEAN, STRING), (), fusable=False)

# strings
_add("strcat", (), (STRING,), variadic=True)
_add("sprintf", (STRING,), (STRING,), variadic=True)
_add("strlen", (STRING,), (INT,))
_add("substring", (STRING, INT, INT), (STRING,))  # (s, start, length)
_add("find", (STRING, STRING), (INT,))  # index of needle in haystack, -1 if absent
_add("replace_all", (STRING, STRING, STRING), (STRING,))
_add("toupper", (STRING,), (STRING,))
_add("tolower", (STRING,), (STRING,))
_add("trim", (STRING,), (STRING,))
_add("split", (STRING, STRING), (STRING_ARRAY,), "turbine::split_rule", kind="rule")
_add("join", (STRING_ARRAY, STRING), (STRING,), "turbine::join_rule", kind="rule")

# program arguments (swift_run(..., args={...})): argv(name ?default?)
_add("argv", (STRING,), (STRING,), "turbine::argv string", variadic=True)
_add("argv_int", (STRING,), (INT,), "turbine::argv int", variadic=True)

# conversions
_add("toint", (FLOAT,), (INT,))
_add("tofloat", (INT,), (FLOAT,))
_add("fromint", (INT,), (STRING,))
_add("fromfloat", (FLOAT,), (STRING,))
_add("parseint", (STRING,), (INT,))

# float math
for _fn in ("sqrt", "exp", "log", "log10", "sin", "cos", "tan", "floor", "ceil"):
    _add(_fn, (FLOAT,), (FLOAT,), "turbine::mathfn " + _fn)

# arrays (size is polymorphic over arrays; the checker special-cases it)
_add("size", (), (INT,), "turbine::container_size_rule", kind="rule")
for _t, _arr, _elem in (("integer", INT_ARRAY, INT), ("float", FLOAT_ARRAY, FLOAT)):
    for _fn in ("sum", "max", "min"):
        _name = "%s_%s" % (_fn, _t)
        _add(_name, (_arr,), (_elem,), "turbine::container_reduce_rule " + _name, kind="rule")

# blobs (run on workers, where blobutils lives)
_add("blob_from_string", (STRING,), (BLOB,), "turbine::blob_from_string_rule", kind="rule")
_add("string_from_blob", (BLOB,), (STRING,), "turbine::string_from_blob_rule", kind="rule")
_add("blob_size", (BLOB,), (INT,), "turbine::blob_size_rule", kind="rule")


# Thin value procs: a library proc (turbine/tcllib.py) whose body is one
# expression over its parameters, as STC prints it in the call's place
# above -O0: ``oper`` is the prefix's operator, ``x`` and ``y`` the
# operand words.  A variadic proc's ``%s`` is its operands joined by the
# separator inside the form's one quoted word; last, its form with none.
_NORM = "[ turbine::norm %s [ expr { %s } ] ]"
THIN: dict[str, str | tuple[str, str, str]] = {
    "turbine::fromint": "%(x)s",
    "turbine::fromfloat": "%(x)s",
    "turbine::tofloat": "[ turbine::norm float %(x)s ]",
    "turbine::toint": _NORM % ("integer", "int(%(x)s)"),
    "turbine::parseint": _NORM % ("integer", "int(%(x)s)"),
    "turbine::neg_integer": _NORM % ("integer", "- %(x)s"),
    "turbine::neg_float": _NORM % ("float", "- double(%(x)s)"),
    "turbine::not": _NORM % ("boolean", "! %(x)s"),
    "turbine::binop_integer": _NORM % ("integer", "%(x)s %(oper)s %(y)s"),
    "turbine::binop_float": _NORM % ("float", "double(%(x)s) %(oper)s double(%(y)s)"),
    "turbine::binop_logic": _NORM % ("boolean", "%(x)s %(oper)s %(y)s"),
    "turbine::strcat": ('"%s"', "", '""'),
    "turbine::trace": ('turbine::log_output "trace: %s"', ",", "turbine::log_output trace:"),
}


def predefined_extensions() -> list[ExtFuncDef]:
    """The interlanguage builtins, expressed as extension functions."""

    def p(t: SwiftType, name: str) -> Param:
        return Param(swift_type=t, name=name)

    return [
        # python(code, expr): evaluate code in the embedded Python, then
        # the expression; result returned as a string (paper §III-C).
        ExtFuncDef(
            name="python",
            outputs=[p(STRING, "out")],
            inputs=[p(STRING, "code"), p(STRING, "expr")],
            package="python",
            version="1.0",
            template="set <<out>> [ python::eval <<code>> <<expr>> ]",
        ),
        ExtFuncDef(
            name="python_persist",
            outputs=[p(STRING, "out")],
            inputs=[p(STRING, "code"), p(STRING, "expr")],
            package="python",
            version="1.0",
            template="set <<out>> [ python::persist <<code>> <<expr>> ]",
        ),
        ExtFuncDef(
            name="r",
            outputs=[p(STRING, "out")],
            inputs=[p(STRING, "code"), p(STRING, "expr")],
            package="r",
            version="1.0",
            template="set <<out>> [ r::eval <<code>> <<expr>> ]",
        ),
        # system(command-line) -> stdout, via the shell interface
        ExtFuncDef(
            name="system",
            outputs=[p(STRING, "out")],
            inputs=[p(STRING, "command")],
            package="shell",
            version="1.0",
            template="set <<out>> [ shell::exec_line <<command>> ]",
        ),
    ]
