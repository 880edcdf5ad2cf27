"""The embedded Python interpreter leaf (paper §III-C).

Real Swift/T loads libpython into each worker and evaluates code
fragments in-process; here each worker rank hosts an
:class:`EmbeddedPython` — an isolated namespace in the already-running
CPython — under the retain / reinit policy of :class:`Embedded`.
"""

from __future__ import annotations

import functools
import io
from typing import Any

from .embedded import Embedded


class PythonTaskError(RuntimeError):
    """An exception raised by embedded user code."""


class EmbeddedPython(Embedded):
    error = PythonTaskError

    def __init__(self, mode: str = "retain", preamble: str = ""):
        self.stdout: list[str] = []
        super().__init__(mode, preamble)

    def _initialize(self) -> None:
        # A task's ``print`` goes to this namespace's buffer.  Worker
        # ranks are threads of one process, so ``sys.stdout`` is never
        # swapped: that would capture every other rank's prints too.
        self._printed = io.StringIO()
        self._globals: dict[str, Any] = {
            "__name__": "__swift_task__",
            "print": functools.partial(print, file=self._printed),
        }
        if self.preamble:
            exec(compile(self.preamble, "<preamble>", "exec"), self._globals)

    def _take_printed(self) -> str:
        printed = self._printed.getvalue()
        self._printed.seek(0)
        self._printed.truncate()
        return printed

    def _eval(self, code: str, expr: str) -> str:
        try:
            if code:
                exec(_compile(code, "<swift-python-task>", "exec"), self._globals)
            result: Any = ""
            if expr:
                result = eval(  # noqa: S307 - embedded eval is the feature
                    _compile(expr, "<swift-python-expr>", "eval"), self._globals
                )
        except Exception as e:
            raise PythonTaskError(
                "python task failed: %s: %s" % (type(e).__name__, e)
            ) from e
        finally:
            # A failed call's lines too: the unit around it decides.
            if self._printed.tell():
                self.stdout.extend(self._take_printed().rstrip("\n").split("\n"))
        return _to_swift_string(result)

    def get(self, name: str) -> Any:
        return self._globals.get(name)

    def set(self, name: str, value: Any) -> None:
        self._globals[name] = value


@functools.lru_cache(maxsize=256)
def _compile(text: str, filename: str, mode: str) -> Any:
    """``compile``, once per text: a code object is immutable, so every
    rank's interpreter may run it.  A ``SyntaxError`` is not cached;
    the bound keeps unique texts (``i=N``) from growing memory."""
    return compile(text, filename, mode)


def _to_swift_string(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_to_swift_string(v) for v in value)
    return str(value)
