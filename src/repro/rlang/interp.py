"""Evaluator for the mini-R language."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import BreakSignal, NextSignal, RError, ReturnSignal
from .parser import parse
from .values import (
    RList,
    RNull,
    as_character,
    as_logical,
    as_numeric,
    fmt_scalar,
    is_character,
    is_numeric,
    r_length,
    scalar_bool,
)


class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Env | None" = None):
        self.vars: dict[str, Any] = {}
        self.parent = parent

    def get(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise RError("object '%s' not found" % name)

    def set_local(self, name: str, value: Any) -> None:
        self.vars[name] = value

    def set_super(self, name: str, value: Any) -> None:
        env: Env | None = self.parent
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            env = env.parent
        # R assigns in the global env when not found
        root = self
        while root.parent is not None:
            root = root.parent
        root.vars[name] = value

    def has(self, name: str) -> bool:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False


class RClosure:
    __slots__ = ("params", "body", "env")

    def __init__(self, params: list[tuple[str, tuple | None]], body: tuple, env: Env):
        self.params = params
        self.body = body
        self.env = env


def _recycle(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R vector recycling: repeat the shorter cyclically."""
    la, lb = a.size, b.size
    if la == lb:
        return a, b
    if la == 0 or lb == 0:
        return a[:0], b[:0]
    n = max(la, lb)
    if la < lb:
        a = np.resize(a, n)
    else:
        b = np.resize(b, n)
    return a, b


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a**b,
    "%%": lambda a, b: np.mod(a, b),
    "%/%": lambda a, b: np.floor_divide(a, b),
}
_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


class RInterp:
    """One embedded R interpreter instance (per worker rank)."""

    def __init__(self) -> None:
        self.global_env = Env()
        self.output: list[str] = []
        self._register_builtins()

    # -- public API -----------------------------------------------------------

    def eval_code(self, src: str, env: Env | None = None) -> Any:
        node = parse(src)
        try:
            return self._eval(node, env or self.global_env)
        except ReturnSignal as r:
            return r.value

    def get(self, name: str) -> Any:
        return self.global_env.get(name)

    def set(self, name: str, value: Any) -> None:
        self.global_env.set_local(name, value)

    def reset(self) -> None:
        """Reinitialize: drop all user state (paper's reinit mode)."""
        self.global_env = Env()
        self.output = []
        self._register_builtins()

    # -- evaluation --------------------------------------------------------------

    def _eval(self, node: tuple, env: Env) -> Any:
        kind = node[0]
        if kind == "num":
            return np.array([node[1]], dtype=np.float64)
        if kind == "str":
            return [node[1]]
        if kind == "bool":
            return np.array([node[1]], dtype=bool)
        if kind == "null":
            return RNull
        if kind == "missing":
            return RNull
        if kind == "id":
            return env.get(node[1])
        if kind == "block":
            result: Any = RNull
            for stmt in node[1]:
                result = self._eval(stmt, env)
            return result
        if kind == "assign":
            value = self._eval(node[2], env)
            self._assign(node[1], value, env, node[3])
            return value
        if kind == "binop":
            return self._binop(node[1], node[2], node[3], env)
        if kind == "unop":
            return self._unop(node[1], node[2], env)
        if kind == "if":
            if scalar_bool(self._eval(node[1], env)):
                return self._eval(node[2], env)
            if node[3] is not None:
                return self._eval(node[3], env)
            return RNull
        if kind == "for":
            seq = self._eval(node[2], env)
            items: list[Any]
            if isinstance(seq, np.ndarray):
                items = [np.array([x], dtype=seq.dtype) for x in seq.tolist()]
            elif isinstance(seq, list):
                items = [[x] for x in seq]
            elif isinstance(seq, RList):
                items = list(seq.items)
            else:
                items = []
            for item in items:
                env.set_local(node[1], item)
                try:
                    self._eval(node[3], env)
                except BreakSignal:
                    break
                except NextSignal:
                    continue
            return RNull
        if kind == "while":
            while scalar_bool(self._eval(node[1], env)):
                try:
                    self._eval(node[2], env)
                except BreakSignal:
                    break
                except NextSignal:
                    continue
            return RNull
        if kind == "repeat":
            while True:
                try:
                    self._eval(node[1], env)
                except BreakSignal:
                    break
                except NextSignal:
                    continue
            return RNull
        if kind == "function":
            return RClosure(node[1], node[2], env)
        if kind == "call":
            return self._call(node[1], node[2], env)
        if kind == "index":
            return self._index(node[1], node[2], env)
        if kind == "index2":
            return self._index2(node[1], node[2], env)
        if kind == "dollar":
            obj = self._eval(node[1], env)
            if isinstance(obj, RList):
                return obj.get(node[2])
            raise RError("$ operator is invalid for this object")
        if kind == "break":
            raise BreakSignal()
        if kind == "next":
            raise NextSignal()
        raise RError("cannot evaluate node %r" % (node,))

    # -- assignment ----------------------------------------------------------------

    def _assign(self, target: tuple, value: Any, env: Env, superassign: bool) -> None:
        kind = target[0]
        if kind == "id":
            if superassign:
                env.set_super(target[1], value)
            else:
                env.set_local(target[1], value)
            return
        if kind in ("index", "index2"):
            # x[i] <- v : read-modify-write
            obj_node = target[1]
            obj = self._eval(obj_node, env)
            if kind == "index":
                if len(target[2]) != 1:
                    raise RError("only single-subscript assignment supported")
                idx = self._eval(target[2][0][1], env)
                obj = self._index_assign(obj, idx, value)
            else:
                idx = self._eval(target[2], env)
                if isinstance(obj, RList):
                    i = int(as_numeric(idx)[0]) - 1
                    while len(obj.items) <= i:
                        obj.items.append(RNull)
                        obj.names.append(None)
                    obj.items[i] = value
                else:
                    obj = self._index_assign(obj, idx, value)
            self._assign(obj_node, obj, env, superassign)
            return
        if kind == "dollar":
            obj = self._eval(target[1], env)
            if not isinstance(obj, RList):
                raise RError("$<- is only supported on lists")
            name = target[2]
            if name in obj.names:
                obj.items[obj.names.index(name)] = value
            else:
                obj.names.append(name)
                obj.items.append(value)
            self._assign(target[1], obj, env, superassign)
            return
        raise RError("invalid assignment target")

    def _index_assign(self, obj: Any, idx: Any, value: Any) -> Any:
        if obj is RNull:
            obj = np.array([], dtype=np.float64)
        if isinstance(obj, np.ndarray):
            positions = self._positions(idx, obj.size)
            vals = as_numeric(value)
            grown = max(positions) + 1 if positions else obj.size
            if grown > obj.size:
                out = np.full(grown, np.nan)
                out[: obj.size] = as_numeric(obj)
                obj = out
            else:
                obj = as_numeric(obj).copy()
            for k, p in enumerate(positions):
                obj[p] = vals[k % vals.size]
            return obj
        if isinstance(obj, list):
            positions = self._positions(idx, len(obj))
            vals = as_character(value)
            out = list(obj)
            grown = max(positions) + 1 if positions else len(out)
            while len(out) < grown:
                out.append("NA")
            for k, p in enumerate(positions):
                out[p] = vals[k % len(vals)]
            return out
        raise RError("cannot index-assign this object")

    # -- indexing -------------------------------------------------------------------

    def _positions(self, idx: Any, length: int) -> list[int]:
        """Resolve an R index vector to 0-based positions."""
        if isinstance(idx, np.ndarray) and idx.dtype == bool:
            mask, _ = _recycle(idx, np.zeros(length, dtype=bool))
            return [i for i in range(length) if mask[i]]
        nums = as_numeric(idx)
        if nums.size and (nums < 0).all():
            excluded = {int(-x) - 1 for x in nums.tolist()}
            return [i for i in range(length) if i not in excluded]
        out = []
        for x in nums.tolist():
            i = int(x)
            if i < 1:
                raise RError("invalid subscript %d" % i)
            out.append(i - 1)
        return out

    def _index(self, obj_node: tuple, args: list, env: Env) -> Any:
        obj = self._eval(obj_node, env)
        if len(args) != 1:
            raise RError("only one-dimensional indexing is supported")
        idx = self._eval(args[0][1], env)
        if isinstance(obj, RList):
            positions = self._positions(idx, len(obj.items))
            return RList(
                items=[obj.items[p] for p in positions],
                names=[obj.names[p] for p in positions],
            )
        if isinstance(obj, np.ndarray):
            positions = self._positions(idx, obj.size)
            return np.array(
                [obj[p] if 0 <= p < obj.size else np.nan for p in positions],
                dtype=obj.dtype if all(0 <= p < obj.size for p in positions) else np.float64,
            )
        if isinstance(obj, list):
            positions = self._positions(idx, len(obj))
            return [obj[p] if p < len(obj) else "NA" for p in positions]
        raise RError("object is not subsettable")

    def _index2(self, obj_node: tuple, arg: tuple, env: Env) -> Any:
        obj = self._eval(obj_node, env)
        idx = self._eval(arg, env)
        i = int(as_numeric(idx)[0]) - 1
        if isinstance(obj, RList):
            if not 0 <= i < len(obj.items):
                raise RError("subscript out of bounds")
            return obj.items[i]
        if isinstance(obj, np.ndarray):
            return obj[i : i + 1]
        if isinstance(obj, list):
            return [obj[i]]
        raise RError("object is not subsettable")

    # -- operators -------------------------------------------------------------------

    def _binop(self, op: str, a_node: tuple, b_node: tuple, env: Env) -> Any:
        if op in ("&&", "||"):
            a = scalar_bool(self._eval(a_node, env))
            if op == "&&":
                if not a:
                    return np.array([False])
                return np.array([scalar_bool(self._eval(b_node, env))])
            if a:
                return np.array([True])
            return np.array([scalar_bool(self._eval(b_node, env))])
        a = self._eval(a_node, env)
        b = self._eval(b_node, env)
        if op == ":":
            lo = float(as_numeric(a)[0])
            hi = float(as_numeric(b)[0])
            step = 1.0 if hi >= lo else -1.0
            return np.arange(lo, hi + step / 2, step, dtype=np.float64)
        if op == "%in%":
            left = as_character(a)
            right = set(as_character(b))
            return np.array([x in right for x in left], dtype=bool)
        if op in _ARITH:
            x, y = _recycle(as_numeric(a), as_numeric(b))
            with np.errstate(divide="ignore", invalid="ignore"):
                return _ARITH[op](x, y)
        if op in _CMP:
            if is_character(a) or is_character(b):
                xs, ys = as_character(a), as_character(b)
                n = max(len(xs), len(ys))
                if xs and ys:
                    out = [
                        _CMP[op](xs[i % len(xs)], ys[i % len(ys)])
                        for i in range(n)
                    ]
                else:
                    out = []
                return np.array(out, dtype=bool)
            x, y = _recycle(as_numeric(a), as_numeric(b))
            return _CMP[op](x, y)
        if op in ("&", "|"):
            x, y = _recycle(as_logical(a), as_logical(b))
            return (x & y) if op == "&" else (x | y)
        raise RError("unknown operator %r" % op)

    def _unop(self, op: str, node: tuple, env: Env) -> Any:
        v = self._eval(node, env)
        if op == "-":
            return -as_numeric(v)
        if op == "+":
            return as_numeric(v)
        if op == "!":
            return ~as_logical(v)
        raise RError("unknown unary operator %r" % op)

    # -- calls ------------------------------------------------------------------------

    def _call(self, fn_node: tuple, args: list, env: Env) -> Any:
        fn = self._eval(fn_node, env)
        evaluated: list[tuple[str | None, Any]] = [
            (name, self._eval(a, env)) for name, a in args
        ]
        return self.apply(fn, evaluated)

    def apply(self, fn: Any, evaluated: list[tuple[str | None, Any]]) -> Any:
        if isinstance(fn, RClosure):
            call_env = Env(parent=fn.env)
            names = [p for p, _ in fn.params]
            bound: dict[str, Any] = {}
            positional = []
            for name, value in evaluated:
                if name is None:
                    positional.append(value)
                else:
                    if name not in names:
                        raise RError("unused argument (%s)" % name)
                    bound[name] = value
            free = [p for p in names if p not in bound]
            if len(positional) > len(free):
                raise RError("unused arguments in call")
            for p, value in zip(free, positional):
                bound[p] = value
            for p, default in fn.params:
                if p not in bound:
                    if default is None:
                        continue  # missing; error on use
                    bound[p] = self._eval(default, call_env)
            for k, v in bound.items():
                call_env.set_local(k, v)
            try:
                return self._eval(fn.body, call_env)
            except ReturnSignal as r:
                return r.value
        if callable(fn):
            return fn(self, evaluated)
        raise RError("attempt to apply non-function")

    # -- builtins ----------------------------------------------------------------------

    def _register_builtins(self) -> None:
        from .builtins import BUILTINS

        for name, fn in BUILTINS.items():
            self.global_env.set_local(name, fn)


def r_eval(src: str) -> Any:
    """One-shot convenience: evaluate R source in a fresh interpreter."""
    return RInterp().eval_code(src)
