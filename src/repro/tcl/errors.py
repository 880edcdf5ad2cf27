"""Tcl return codes and exceptions.

Tcl evaluation produces one of five return codes: OK, ERROR, RETURN,
BREAK, CONTINUE.  We model the non-OK codes as Python exceptions so that
ordinary Python control flow propagates them through nested ``eval``
calls, exactly as the C core propagates its integer codes up the stack.
"""

from __future__ import annotations


class TclError(Exception):
    """A Tcl-level error (return code TCL_ERROR).

    Carries an ``errorinfo`` trace that accumulates one line per
    enclosing command, mirroring Tcl's ``::errorInfo``.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.errorinfo: list[str] = []

    def add_info(self, line: str) -> None:
        if len(self.errorinfo) < 40:  # bound trace growth in deep recursion
            self.errorinfo.append(line)

    def trace(self) -> str:
        return self.message + "".join(
            "\n    while executing " + line for line in self.errorinfo
        )


class TclReturn(Exception):
    """``return`` was invoked (return code TCL_RETURN)."""

    def __init__(self, value: str = "", code: int = 0):
        super().__init__(value)
        self.value = value
        # ``return -code`` support: 0=ok, 1=error, 2=return, 3=break, 4=continue
        self.code = code


class TclBreak(Exception):
    """``break`` was invoked (return code TCL_BREAK)."""


class TclContinue(Exception):
    """``continue`` was invoked (return code TCL_CONTINUE)."""


def caught(e: Exception) -> tuple[str, str] | None:
    """``catch``'s (code, result) for a Tcl exception; None for any other."""
    for code, kind in enumerate((TclError, TclReturn, TclBreak, TclContinue), 1):
        if isinstance(e, kind):
            return str(code), e.message if code == 1 else e.value if code == 2 else ""
    return None
