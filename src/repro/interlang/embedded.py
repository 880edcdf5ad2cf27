"""What every embedded interpreter shares (paper §III-C).

A rank hosts each language as an in-process library with one of two
state policies:

* **retain**: interpreter state persists across tasks (fast, but old
  state is visible — usable as a cache "if the programmer is careful");
* **reinit**: the interpreter is finalized and rebuilt for every task
  (clean state, pays re-initialization every time).
"""

from __future__ import annotations


class Embedded:
    """Policy and counters; a language supplies ``_initialize`` (fresh
    state, preamble run), ``_eval``, ``stdout`` (the lines its tasks
    printed) and ``error`` (what a failing task raises)."""

    error: type[Exception] = RuntimeError
    stdout: list[str]

    def __init__(self, mode: str = "retain", preamble: str = ""):
        if mode not in ("retain", "reinit"):
            raise ValueError("mode must be 'retain' or 'reinit'")
        self.mode = mode
        self.preamble = preamble
        self.init_count = 0
        self.task_count = 0
        self.reset()

    def reset(self) -> None:
        """Finalize-and-reinitialize, clearing all interpreter state."""
        self.init_count += 1
        self._initialize()

    def eval(self, code: str, expr: str = "") -> str:
        """Run a code fragment, then evaluate ``expr`` for the result.

        This is the signature of Swift/T's ``python(code, expr)`` and
        ``r(code, expr)`` builtins: the code block does the work, the
        expression string produces the (string-converted) value handed
        back to Swift.
        """
        self.task_count += 1
        if self.mode == "reinit":
            self.reset()
        return self._eval(code, expr)

    def _initialize(self) -> None:
        raise NotImplementedError

    def _eval(self, code: str, expr: str) -> str:
        raise NotImplementedError
