"""Interlanguage leaf-task support (the paper's contribution, §III).

Embedded Python and R interpreters (treated as in-process libraries,
with retain/reinitialize state policies), shell/app execution, and Tcl
command bindings so every language is callable from Swift leaf tasks.
"""

from .python_interp import EmbeddedPython, PythonTaskError
from .r_bridge import EmbeddedR, RTaskError
from .shell import ShellTaskError, python_exec_baseline, run_command, run_line
from .tclcmds import (
    register_blobutils,
    register_embedded,
    register_python,
    register_r,
    register_shell,
)

__all__ = [
    "EmbeddedPython",
    "EmbeddedR",
    "PythonTaskError",
    "RTaskError",
    "ShellTaskError",
    "run_command",
    "run_line",
    "python_exec_baseline",
    "register_embedded",
    "register_python",
    "register_r",
    "register_shell",
    "register_blobutils",
    "register_standard_packages",
]


def register_standard_packages(interp, ctx=None) -> None:
    """Register python/r/shell/blobutils into a rank's Tcl interpreter.

    ``ctx`` is the rank's RankContext (for interp-state policy and
    output collection); None gives standalone defaults.
    """
    mode = "retain"
    output = None
    if ctx is not None:
        mode = ctx.config.interp_mode

        def output(line, _ctx=ctx):  # noqa: F811
            # Leaf-language prints surface as program output, rank-tagged.
            _ctx.output.emit(-1, line)

    register_python(interp, mode=mode, output=output)
    register_r(interp, mode=mode, output=output)
    register_shell(interp)
    register_blobutils(interp)
