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


def register_standard_packages(interp, mode: str = "retain", printed=None) -> None:
    """Register python/r/shell/blobutils into a rank's Tcl interpreter,
    the embedded interpreters under state policy ``mode``.  What their
    calls print goes to the list ``printed`` (see :func:`register_embedded`)."""
    register_python(interp, mode, printed)
    register_r(interp, mode, printed)
    register_shell(interp)
    register_blobutils(interp)
