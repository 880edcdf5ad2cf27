"""The embedded R interpreter leaf (paper §III-C), over repro.rlang."""

from __future__ import annotations

from ..rlang import RError, RInterp
from ..rlang.values import r_repr
from .embedded import Embedded


class RTaskError(RuntimeError):
    pass


class EmbeddedR(Embedded):
    error = RTaskError

    def __init__(self, mode: str = "retain", preamble: str = ""):
        self.interp = RInterp()
        super().__init__(mode, preamble)

    def _initialize(self) -> None:
        self.interp.reset()
        if self.preamble:
            self.interp.eval_code(self.preamble)

    @property
    def stdout(self) -> list[str]:
        return self.interp.output

    def _eval(self, code: str, expr: str) -> str:
        try:
            if code:
                self.interp.eval_code(code)
            if expr:
                return r_repr(self.interp.eval_code(expr))
            return ""
        except RError as e:
            raise RTaskError("R task failed: %s" % e) from e
