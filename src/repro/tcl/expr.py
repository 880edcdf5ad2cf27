"""Tcl ``expr`` evaluator.

Implements the expression sublanguage: numeric literals, ``$var`` and
``[cmd]`` substitution, string literals, the standard operator set with
Tcl precedence, lazy ``&&``/``||``/``?:``, and math functions.  Parsed
expressions are cached as small ASTs because rule and loop conditions
are evaluated repeatedly.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .errors import TclError

Num = int | float


# --- value coercion ------------------------------------------------------

_TRUE_WORDS = {"true", "yes", "on"}
_FALSE_WORDS = {"false", "no", "off"}


def parse_number(s: str) -> Num | None:
    """Parse a Tcl numeric literal; None if not numeric."""
    # Fast path: plain decimal integers are the overwhelmingly common
    # case on the hot expr path ($var operands round-trip as strings).
    # int() accepts Python's "1_0" digit grouping, which Tcl does not —
    # reject those before returning.
    try:
        v = int(s, 10)
        if "_" not in s:
            return v
        return None
    except ValueError:
        pass
    t = s.strip()
    if not t:
        return None
    try:
        if t[:1] in "+-":
            sign, body = t[0], t[1:]
        else:
            sign, body = "", t
        low = body.lower()
        if low.startswith("0x"):
            v: Num = int(body, 16)
        elif low.startswith("0b"):
            v = int(body, 2)
        elif low.startswith("0o"):
            v = int(body, 8)
        elif any(ch in t for ch in ".eE") and not low.startswith("0x"):
            v = float(t)
            return v
        else:
            v = int(body, 10)
        return -v if sign == "-" else v
    except ValueError:
        try:
            return float(t)
        except ValueError:
            return None


def coerce(v: Any) -> Any:
    """Coerce a substituted operand to int/float when it looks numeric."""
    if isinstance(v, (int, float)):
        return v
    num = parse_number(str(v))
    return num if num is not None else str(v)


def truthy(v: Any) -> bool:
    if isinstance(v, (int, float)):
        return v != 0
    s = str(v).strip().lower()
    if s in _TRUE_WORDS:
        return True
    if s in _FALSE_WORDS:
        return False
    num = parse_number(s)
    if num is None:
        raise TclError('expected boolean value but got "%s"' % v)
    return num != 0


def to_string(v: Any) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if v != v:  # NaN
            return "NaN"
        if v in (math.inf, -math.inf):
            return "Inf" if v > 0 else "-Inf"
        if v == int(v) and abs(v) < 1e16:
            return "%.1f" % v
        return repr(v)
    return str(v)


# --- tokenizer -----------------------------------------------------------

_OPERATORS = [
    "**", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "<", ">", "+", "-", "*", "/", "%", "!", "~", "&", "^", "|", "?", ":",
    "(", ")", ",",
]
_WORD_OPS = {"eq", "ne", "in", "ni"}


def _tokenize(s: str) -> list[tuple[str, str]]:
    toks: list[tuple[str, str]] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c in " \t\n\r":
            i += 1
            continue
        if c == "$":
            from .parser import _scan_varname

            name, j = _scan_varname(s, i + 1)
            if name is None:
                raise TclError("invalid character '$' in expression")
            toks.append(("var", name))
            i = j
            continue
        if c == "[":
            from .parser import _scan_command_subst

            script, i = _scan_command_subst(s, i)
            toks.append(("cmd", script))
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and s[j] != '"':
                if s[j] == "\\" and j + 1 < n:
                    from .listutil import backslash_subst

                    buf.append(backslash_subst(s[j + 1]))
                    j += 2
                    continue
                buf.append(s[j])
                j += 1
            if j >= n:
                raise TclError("missing close quote in expression")
            toks.append(("str", "".join(buf)))
            i = j + 1
            continue
        if c == "{":
            from .parser import _scan_braced

            content, i = _scan_braced(s, i)
            toks.append(("str", content))
            continue
        if c.isdigit() or (c == "." and i + 1 < n and s[i + 1].isdigit()):
            j = i
            if s[j : j + 2].lower() in ("0x", "0b", "0o"):
                j += 2
                while j < n and (s[j].isalnum()):
                    j += 1
            else:
                seen_e = False
                while j < n:
                    ch = s[j]
                    if ch.isdigit() or ch == ".":
                        j += 1
                    elif ch in "eE" and not seen_e:
                        seen_e = True
                        j += 1
                        if j < n and s[j] in "+-":
                            j += 1
                    else:
                        break
            toks.append(("num", s[i:j]))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_" or s[j] == ":"):
                j += 1
            word = s[i:j]
            if word in _WORD_OPS:
                toks.append(("op", word))
            else:
                toks.append(("name", word))
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if s.startswith(op, i):
                toks.append(("op", op))
                i += len(op)
                matched = True
                break
        if not matched:
            raise TclError("invalid character %r in expression %r" % (c, s))
    return toks


# --- AST -----------------------------------------------------------------
# Nodes: ("num", value) ("str", s) ("var", name) ("cmdsub", script)
#        ("un", op, a) ("bin", op, a, b) ("tern", c, a, b)
#        ("fn", name, [args]) ("bool", name)


class _Parser:
    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> tuple[str, str]:
        t = self.peek()
        if t is None:
            raise TclError("premature end of expression")
        self.pos += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.next()
        if t != ("op", op):
            raise TclError("expected %r in expression, got %r" % (op, t[1]))

    # precedence levels, lowest first
    def parse(self) -> tuple:
        node = self.ternary()
        if self.peek() is not None:
            raise TclError(
                "extra tokens at end of expression: %r" % (self.peek()[1],)
            )
        return node

    def ternary(self) -> tuple:
        cond = self.or_()
        t = self.peek()
        if t == ("op", "?"):
            self.next()
            a = self.ternary()
            self.expect_op(":")
            b = self.ternary()
            return ("tern", cond, a, b)
        return cond

    def _binary_level(
        self, ops: set[str], sub: Callable[[], tuple]
    ) -> tuple:
        node = sub()
        while True:
            t = self.peek()
            if t is not None and t[0] == "op" and t[1] in ops:
                self.next()
                rhs = sub()
                node = ("bin", t[1], node, rhs)
            else:
                return node

    def or_(self):
        return self._binary_level({"||"}, self.and_)

    def and_(self):
        return self._binary_level({"&&"}, self.bitor)

    def bitor(self):
        return self._binary_level({"|"}, self.bitxor)

    def bitxor(self):
        return self._binary_level({"^"}, self.bitand)

    def bitand(self):
        return self._binary_level({"&"}, self.equality)

    def equality(self):
        return self._binary_level({"==", "!=", "eq", "ne", "in", "ni"}, self.relational)

    def relational(self):
        return self._binary_level({"<", ">", "<=", ">="}, self.shift)

    def shift(self):
        return self._binary_level({"<<", ">>"}, self.additive)

    def additive(self):
        return self._binary_level({"+", "-"}, self.multiplicative)

    def multiplicative(self):
        return self._binary_level({"*", "/", "%"}, self.power)

    def power(self):
        # ** is right-associative
        base = self.unary()
        t = self.peek()
        if t == ("op", "**"):
            self.next()
            return ("bin", "**", base, self.power())
        return base

    def unary(self) -> tuple:
        t = self.peek()
        if t is not None and t[0] == "op" and t[1] in ("-", "+", "!", "~"):
            self.next()
            return ("un", t[1], self.unary())
        return self.primary()

    def primary(self) -> tuple:
        t = self.next()
        kind, text = t
        if kind == "num":
            v = parse_number(text)
            if v is None:
                raise TclError("malformed number %r" % text)
            return ("num", v)
        if kind == "str":
            return ("str", text)
        if kind == "var":
            return ("var", text)
        if kind == "cmd":
            return ("cmdsub", text)
        if kind == "op" and text == "(":
            node = self.ternary()
            self.expect_op(")")
            return node
        if kind == "name":
            low = text.lower()
            if low in _TRUE_WORDS:
                return ("num", 1)
            if low in _FALSE_WORDS:
                return ("num", 0)
            if low in ("inf", "infinity"):
                return ("num", math.inf)
            if low == "nan":
                return ("num", math.nan)
            # function call
            if self.peek() == ("op", "("):
                self.next()
                args: list[tuple] = []
                if self.peek() != ("op", ")"):
                    args.append(self.ternary())
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.ternary())
                self.expect_op(")")
                return ("fn", text, args)
            raise TclError('bareword "%s" in expression' % text)
        raise TclError("unexpected token %r in expression" % text)


# Bounded LRU (shared helper with the script parse cache); a full
# clear here used to stall every cached loop/rule condition at once.
from ..lru import LRUCache

_AST_CACHE: LRUCache[str, tuple] = LRUCache(4096)


def compile_expr(s: str) -> tuple:
    """Parse an expression into its cached AST.

    The bytecode compiler lowers the node to stack ops (or embeds it
    for :func:`eval_node`), so compiled code never looks it up again.
    """
    node = _AST_CACHE.get(s)
    if node is None:
        node = _Parser(_tokenize(s)).parse()
        _AST_CACHE.put(s, node)
    return node


# --- evaluation ----------------------------------------------------------

_MATH_FN: dict[str, Callable] = {
    "abs": abs,
    "ceil": lambda x: float(math.ceil(x)),
    "floor": lambda x: float(math.floor(x)),
    "round": lambda x: int(round(x)),
    "sqrt": math.sqrt,
    "pow": lambda a, b: float(a) ** float(b),
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "log2": math.log2,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "atan2": math.atan2,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "fmod": math.fmod,
    "hypot": math.hypot,
    "int": lambda x: int(x),
    "wide": lambda x: int(x),
    "entier": lambda x: int(x),
    "double": lambda x: float(x),
    "bool": lambda x: 1 if truthy(x) else 0,
    "min": min,
    "max": max,
    "isqrt": lambda x: math.isqrt(int(x)),
}


def _both_numeric(a: Any, b: Any) -> bool:
    return isinstance(a, (int, float)) and isinstance(b, (int, float))


def _need_num(v: Any, op: str) -> Num:
    if isinstance(v, (int, float)):
        return v
    raise TclError(
        "can't use non-numeric string %r as operand of %r" % (v, op)
    )


def _need_int(v: Any, op: str) -> int:
    if isinstance(v, int):
        return v
    raise TclError("can't use %r as integer operand of %r" % (v, op))


def _eval_bin(op: str, a: Any, b: Any) -> Any:
    if op == "eq":
        return 1 if to_string(a) == to_string(b) else 0
    if op == "ne":
        return 1 if to_string(a) != to_string(b) else 0
    if op == "in":
        from .listutil import parse_list

        return 1 if to_string(a) in parse_list(to_string(b)) else 0
    if op == "ni":
        from .listutil import parse_list

        return 1 if to_string(a) not in parse_list(to_string(b)) else 0
    if op in ("==", "!=", "<", ">", "<=", ">="):
        # EIAS: operands that look numeric compare numerically even if
        # they arrived as quoted strings ("3" == "3.0" is true in Tcl).
        ca, cb = coerce(a), coerce(b)
        if _both_numeric(ca, cb):
            x, y = ca, cb
        else:
            x, y = to_string(a), to_string(b)
        res = {
            "==": x == y, "!=": x != y, "<": x < y,
            ">": x > y, "<=": x <= y, ">=": x >= y,
        }[op]
        return 1 if res else 0
    if op in ("<<", ">>", "&", "^", "|"):
        x, y = _need_int(a, op), _need_int(b, op)
        if op == "<<":
            return x << y
        if op == ">>":
            return x >> y
        if op == "&":
            return x & y
        if op == "^":
            return x ^ y
        return x | y
    x, y = _need_num(a, op), _need_num(b, op)
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        if y == 0:
            raise TclError("divide by zero")
        if isinstance(x, int) and isinstance(y, int):
            return x // y  # Tcl integer division floors
        return x / y
    if op == "%":
        if y == 0:
            raise TclError("divide by zero")
        if isinstance(x, int) and isinstance(y, int):
            return x % y  # sign of divisor, as in Tcl
        return math.fmod(x, y)
    if op == "**":
        if isinstance(x, int) and isinstance(y, int) and y >= 0:
            return x**y
        return float(x) ** float(y)
    raise TclError("unknown operator %r" % op)


def eval_expr(interp, text: str) -> Any:
    """Evaluate a Tcl expression string in the given interpreter.

    Returns an int/float/str value (not yet stringified); ``expr`` the
    command stringifies via :func:`to_string`.
    """
    node = _AST_CACHE.get(text)
    if node is None:
        node = _Parser(_tokenize(text)).parse()
        _AST_CACHE.put(text, node)
        interp.vm_stats.expr_misses += 1
    else:
        interp.vm_stats.expr_hits += 1
    return _eval_node(interp, node)


def eval_node(interp, node: tuple) -> Any:
    """Evaluate a pre-compiled expression AST (see :func:`compile_expr`)."""
    return _eval_node(interp, node)


def eval_unary(op: str, v: Any) -> Any:
    """Apply a unary expr operator (shared by the AST walker and the VM)."""
    if op == "!":
        return 0 if truthy(v) else 1
    if op == "~":
        return ~_need_int(v, op)
    x = _need_num(v, op)
    return -x if op == "-" else +x


def _eval_node(interp, node: tuple) -> Any:
    # Branch order tracks hot-path frequency: operands ($var, literals)
    # and binary operators dominate compiled rule/loop conditions.
    kind = node[0]
    if kind == "var":
        return coerce(interp.get_var(node[1]))
    if kind == "num":
        return node[1]
    if kind == "bin":
        op = node[1]
        if op == "&&":
            if not truthy(_eval_node(interp, node[2])):
                return 0
            return 1 if truthy(_eval_node(interp, node[3])) else 0
        if op == "||":
            if truthy(_eval_node(interp, node[2])):
                return 1
            return 1 if truthy(_eval_node(interp, node[3])) else 0
        a = _eval_node(interp, node[2])
        b = _eval_node(interp, node[3])
        return _eval_bin(op, a, b)
    if kind == "str":
        return node[1]
    if kind == "cmdsub":
        return coerce(interp.eval(node[1]))
    if kind == "un":
        return eval_unary(node[1], _eval_node(interp, node[2]))
    if kind == "tern":
        if truthy(_eval_node(interp, node[1])):
            return _eval_node(interp, node[2])
        return _eval_node(interp, node[3])
    if kind == "fn":
        name = node[1].lower()
        fn = _MATH_FN.get(name)
        if fn is None:
            raise TclError('unknown math function "%s"' % node[1])
        args = [
            _need_num(_eval_node(interp, a), name)
            if name not in ("bool",)
            else _eval_node(interp, a)
            for a in node[2]
        ]
        try:
            return fn(*args)
        except (ValueError, OverflowError) as e:
            raise TclError("math error in %s(): %s" % (name, e)) from e
        except TypeError as e:
            raise TclError(
                "wrong # args to math function %r: %s" % (name, e)
            ) from e
    raise TclError("bad expr node %r" % (node,))
