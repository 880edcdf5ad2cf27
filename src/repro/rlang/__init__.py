"""A mini-R interpreter.

The paper embeds the R interpreter as a native library inside Swift/T
workers.  R itself is not available offline, so this package implements
a faithful subset — vectors with recycling, 1-based indexing, lexical
scoping with ``<-``/``<<-``, closures, control flow, and the builtins
that some workload, example or experiment calls (README "What the
mini-Tcl and mini-R accept") — sufficient for the paper's use case of
evaluating R code fragments as leaf tasks.  Numeric vectors are backed
by NumPy.

Public surface: :class:`RInterp` (evaluate code, read variables),
:class:`RError`.
"""

from .errors import RError
from .interp import RInterp
from .values import RList, RNull, r_repr

__all__ = ["RInterp", "RError", "RNull", "RList", "r_repr"]
