"""Builtin functions for the mini-R interpreter.

Each builtin takes ``(interp, args)`` where ``args`` is a list of
``(name|None, value)`` pairs.  The table holds what some workload,
example or experiment calls (``benchmarks/census.py``) and what the
paper names for the embedded R: vector construction, reductions and
element-wise math, ``paste``/``sprintf``, ``return``/``stop``, and
``cat`` output.  Map over a vector with ``for``; RNG belongs in a
Python leaf.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import RError, ReturnSignal
from .values import RList, RNull, as_character, as_logical, as_numeric, is_character, r_length


def _pos(args: list, n: int | None = None) -> list[Any]:
    vals = [v for name, v in args if name is None]
    if n is not None and len(vals) < n:
        raise RError("too few arguments")
    return vals


def _kw(args: list, name: str, default: Any = None) -> Any:
    for k, v in args:
        if k == name:
            return v
    return default


def _num1(v: Any) -> float:
    arr = as_numeric(v)
    if arr.size < 1:
        raise RError("argument of length 0")
    return float(arr[0])


def _int1(v: Any) -> int:
    return int(_num1(v))


# --- vector construction -------------------------------------------------


def b_c(interp, args):
    values = [v for _, v in args]
    if not values:
        return RNull
    if any(isinstance(v, RList) for v in values):
        items: list[Any] = []
        for v in values:
            if isinstance(v, RList):
                items.extend(v.items)
            else:
                items.append(v)
        return RList(items=items)
    if any(is_character(v) for v in values):
        out: list[str] = []
        for v in values:
            out.extend(as_character(v))
        return out
    parts = [as_numeric(v) for v in values if v is not RNull]
    if not parts:
        return RNull
    if all(p.dtype == bool for p in parts):
        return np.concatenate(parts)
    return np.concatenate([p.astype(np.float64) for p in parts])


def b_list(interp, args):
    return RList(items=[v for _, v in args], names=[k for k, _ in args])


def b_seq_len(interp, args):
    return np.arange(1, _int1(_pos(args, 1)[0]) + 1, dtype=np.float64)


def b_length(interp, args):
    return np.array([r_length(_pos(args, 1)[0])], dtype=np.float64)


# --- reductions & math ------------------------------------------------------


def _reduction(fn: Callable[[np.ndarray], float]):
    def impl(interp, args):
        parts = [as_numeric(v) for _, v in args if v is not RNull]
        if not parts:
            raise RError("no arguments to reduction")
        return np.array([fn(np.concatenate(parts))], dtype=np.float64)

    return impl


def _elementwise(fn: Callable[[np.ndarray], np.ndarray]):
    def impl(interp, args):
        with np.errstate(all="ignore"):
            return fn(as_numeric(_pos(args, 1)[0])).astype(np.float64)

    return impl


def b_round(interp, args):
    pos = _pos(args, 1)
    digits = _int1(_kw(args, "digits", pos[1] if len(pos) > 1 else [0]))
    return np.round(as_numeric(pos[0]), digits)


# --- strings -------------------------------------------------------------------


def _paste(args, default_sep: str):
    sep_v = _kw(args, "sep")
    sep = as_character(sep_v)[0] if sep_v is not None else default_sep
    collapse_v = _kw(args, "collapse")
    vecs = [as_character(v) for k, v in args if k not in ("sep", "collapse")]
    if not vecs:
        return [""]
    n = max(len(v) for v in vecs)
    out = []
    for i in range(n):
        out.append(sep.join(v[i % len(v)] for v in vecs if v))
    if collapse_v is not None:
        return [as_character(collapse_v)[0].join(out)]
    return out


def b_paste(interp, args):
    return _paste(args, " ")


def b_sprintf(interp, args):
    pos = _pos(args, 1)
    fmt = as_character(pos[0])[0]
    values = []
    import re

    convs = re.findall(r"%[-+ #0-9.]*([diufeEgGsxX])", fmt)
    for conv, v in zip(convs, pos[1:]):
        if conv in "di":
            values.append(_int1(v))
        elif conv == "s":
            values.append(as_character(v)[0])
        else:
            values.append(_num1(v))
    return [fmt % tuple(values)]


# --- coercion and selection ---------------------------------------------------------


def b_as_numeric(interp, args):
    return as_numeric(_pos(args, 1)[0]).astype(np.float64)


def b_ifelse(interp, args):
    pos = _pos(args, 3)
    mask = as_logical(pos[0])
    n = mask.size
    if is_character(pos[1]) or is_character(pos[2]):
        yes_c, no_c = as_character(pos[1]), as_character(pos[2])
        return [
            yes_c[i % len(yes_c)] if mask[i] else no_c[i % len(no_c)]
            for i in range(n)
        ]
    yes, no = as_numeric(pos[1]), as_numeric(pos[2])
    out = np.empty(n)
    for i in range(n):
        out[i] = yes[i % yes.size] if mask[i] else no[i % no.size]
    return out


# --- control and output ---------------------------------------------------------------


def b_return(interp, args):
    pos = _pos(args)
    raise ReturnSignal(pos[0] if pos else RNull)


def b_stop(interp, args):
    raise RError("".join(as_character(v)[0] for _, v in args) or "error")


def b_cat(interp, args):
    sep_v = _kw(args, "sep")
    sep = as_character(sep_v)[0] if sep_v is not None else " "
    parts: list[str] = []
    for k, v in args:
        if k == "sep":
            continue
        parts.extend(as_character(v))
    interp.output.append(sep.join(parts))
    return RNull


BUILTINS: dict[str, Callable] = {
    "c": b_c,
    "list": b_list,
    "seq_len": b_seq_len,
    "length": b_length,
    "sum": _reduction(lambda a: float(np.sum(a))),
    "mean": _reduction(lambda a: float(np.mean(a)) if a.size else float("nan")),
    "min": _reduction(lambda a: float(np.min(a))),
    "max": _reduction(lambda a: float(np.max(a))),
    "median": _reduction(lambda a: float(np.median(a))),
    "sd": _reduction(lambda a: float(np.std(a, ddof=1)) if a.size > 1 else float("nan")),
    "var": _reduction(lambda a: float(np.var(a, ddof=1)) if a.size > 1 else float("nan")),
    "abs": _elementwise(np.abs),
    "sqrt": _elementwise(np.sqrt),
    "exp": _elementwise(np.exp),
    "log": _elementwise(np.log),
    "log2": _elementwise(np.log2),
    "log10": _elementwise(np.log10),
    "sin": _elementwise(np.sin),
    "cos": _elementwise(np.cos),
    "tan": _elementwise(np.tan),
    "floor": _elementwise(np.floor),
    "ceiling": _elementwise(np.ceil),
    "trunc": _elementwise(np.trunc),
    "sign": _elementwise(np.sign),
    "round": b_round,
    "paste": b_paste,
    "sprintf": b_sprintf,
    "as.numeric": b_as_numeric,
    "as.double": b_as_numeric,
    "ifelse": b_ifelse,
    "return": b_return,
    "stop": b_stop,
    "cat": b_cat,
}


