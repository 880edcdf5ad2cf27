"""R value model.

R's atomic vectors are represented as NumPy arrays (double, int64,
bool) or Python ``list[str]`` for character vectors; every scalar is a
length-1 vector, as in R.  ``RNull`` is the NULL singleton; ``RList``
is a generic list with optional names; closures and builtins are
callable objects defined in :mod:`repro.rlang.interp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import RError


class _RNullType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


RNull = _RNullType()


@dataclass
class RList:
    items: list[Any] = field(default_factory=list)
    names: list[str | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.names:
            self.names = [None] * len(self.items)

    def get(self, name: str) -> Any:
        for n, item in zip(self.names, self.items):
            if n == name:
                return item
        return RNull


# --- constructors ----------------------------------------------------------


def mk_num(*values: float) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def mk_bool(*values: bool) -> np.ndarray:
    return np.array(values, dtype=bool)


def mk_chr(*values: str) -> list[str]:
    return list(values)


# --- classification ----------------------------------------------------------


def is_numeric(v: Any) -> bool:
    return isinstance(v, np.ndarray) and v.dtype.kind in ("f", "i", "b")


def is_character(v: Any) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def r_length(v: Any) -> int:
    if v is RNull:
        return 0
    if isinstance(v, np.ndarray):
        return int(v.size)
    if isinstance(v, list):
        return len(v)
    if isinstance(v, RList):
        return len(v.items)
    return 1


def as_numeric(v: Any) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v.astype(np.float64) if v.dtype.kind == "b" else v
    if isinstance(v, list):
        try:
            return np.array([float(x) for x in v], dtype=np.float64)
        except ValueError:
            raise RError("NAs introduced by coercion (non-numeric string)") from None
    if v is RNull:
        return np.array([], dtype=np.float64)
    raise RError("cannot coerce to numeric: %r" % (v,))


def as_logical(v: Any) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v.astype(bool)
    if isinstance(v, list):
        out = []
        for x in v:
            if x in ("TRUE", "T", "true"):
                out.append(True)
            elif x in ("FALSE", "F", "false"):
                out.append(False)
            else:
                raise RError("argument is not interpretable as logical")
        return np.array(out, dtype=bool)
    raise RError("cannot coerce to logical: %r" % (v,))


def as_character(v: Any) -> list[str]:
    if isinstance(v, list):
        return [str(x) for x in v]
    if isinstance(v, np.ndarray):
        return [fmt_scalar(x) for x in v.tolist()]
    if v is RNull:
        return []
    return [str(v)]


def scalar_bool(v: Any) -> bool:
    arr = as_logical(v) if not is_numeric(v) else v
    if r_length(arr) < 1:
        raise RError("argument is of length zero")
    if isinstance(arr, np.ndarray):
        return bool(arr.flat[0])
    raise RError("cannot use %r as a condition" % (v,))


# --- printing ------------------------------------------------------------------


def fmt_scalar(x: Any) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "TRUE" if x else "FALSE"
    if isinstance(x, float) or isinstance(x, np.floating):
        if x != x:
            return "NA"
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return "%.6g" % x
    return str(x)


def r_repr(v: Any) -> str:
    """Deparse a value like R's ``cat`` output (space-separated)."""
    if v is RNull:
        return "NULL"
    if isinstance(v, np.ndarray):
        return " ".join(fmt_scalar(x) for x in v.tolist())
    if isinstance(v, list):
        return " ".join(str(x) for x in v)
    if isinstance(v, RList):
        parts = []
        for name, item in zip(v.names, v.items):
            prefix = "%s=" % name if name else ""
            parts.append(prefix + r_repr(item))
        return "list(%s)" % ", ".join(parts)
    return str(v)


def r_print_repr(v: Any) -> str:
    """Like R's ``print`` for vectors: ``[1] ...`` prefix."""
    if v is RNull:
        return "NULL"
    if isinstance(v, (np.ndarray, list)):
        body = r_repr(v)
        return "[1] " + (
            " ".join('"%s"' % x for x in v) if is_character(v) else body
        )
    return r_repr(v)
