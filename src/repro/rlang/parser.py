"""Lexer and parser for the mini-R language.

AST nodes are plain tuples: ('num', x) ('str', s) ('id', name)
('bool', b) ('null',) ('call', fn_node, args) where args are
(name|None, node) pairs, ('binop', op, a, b), ('unop', op, a),
('assign', target_node, value_node, super), ('function', params, body),
('if', cond, then, else|None), ('for', var, seq, body),
('while', cond, body), ('repeat', body), ('block', [stmts]),
('index', obj, args), ('index2', obj, arg), ('dollar', obj, name),
('break',), ('next',), ('missing',).
"""

from __future__ import annotations

import functools

from .errors import RParseError

_KEYWORDS = {
    "if",
    "else",
    "for",
    "while",
    "repeat",
    "function",
    "break",
    "next",
    "in",
    "TRUE",
    "FALSE",
    "NULL",
    "NA",
    "Inf",
    "NaN",
    "T",
    "F",
}

_OPS = [
    "<<-", "<-", "<=", ">=", "==", "!=", "&&", "||", "%%", "%/%", "%in%",
    "[[", "]]", "(", ")", "[", "]", "{", "}", ",", ";", "+", "-", "*",
    "/", "^", "<", ">", "=", "!", "&", "|", ":", "$", "?",
]


def tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, line) tokens; kind in num/str/id/kw/op/nl."""
    toks: list[tuple[str, str, int]] = []
    i, n = 0, len(src)
    line = 1
    while i < n:
        c = src[i]
        if c == "\n":
            toks.append(("nl", "\n", line))
            line += 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n:
                ch = src[j]
                if ch.isdigit() or ch == ".":
                    j += 1
                elif ch in "eE" and not seen_e:
                    seen_e = True
                    j += 1
                    if j < n and src[j] in "+-":
                        j += 1
                elif ch == "L":  # integer literal suffix
                    j += 1
                    break
                else:
                    break
            toks.append(("num", src[i:j], line))
            i = j
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            buf = []
            while j < n and src[j] != quote:
                if src[j] == "\\" and j + 1 < n:
                    esc = src[j + 1]
                    buf.append({"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc))
                    j += 2
                    continue
                buf.append(src[j])
                j += 1
            if j >= n:
                raise RParseError("unterminated string (line %d)" % line)
            toks.append(("str", "".join(buf), line))
            i = j + 1
            continue
        if c.isalpha() or c in "._":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "._"):
                j += 1
            word = src[i:j]
            toks.append(("kw" if word in _KEYWORDS else "id", word, line))
            i = j
            continue
        matched = False
        for op in _OPS:
            if src.startswith(op, i):
                toks.append(("op", op, line))
                i += len(op)
                matched = True
                break
        if not matched:
            raise RParseError("unexpected character %r (line %d)" % (c, line))
    toks.append(("eof", "", line))
    return toks


class Parser:
    def __init__(self, toks: list[tuple[str, str, int]]):
        self.toks = toks
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self, skip_nl: bool = False) -> tuple[str, str, int]:
        pos = self.pos
        while skip_nl and self.toks[pos][0] == "nl":
            pos += 1
        return self.toks[pos]

    def advance(self, skip_nl: bool = False) -> tuple[str, str, int]:
        while skip_nl and self.toks[self.pos][0] == "nl":
            self.pos += 1
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def accept_op(self, op: str, skip_nl: bool = False) -> bool:
        if self.peek(skip_nl)[0:2] == ("op", op):
            self.advance(skip_nl)
            return True
        return False

    def expect_op(self, op: str, skip_nl: bool = True) -> None:
        tok = self.advance(skip_nl)
        if tok[0:2] != ("op", op):
            raise RParseError(
                "expected %r but found %r (line %d)" % (op, tok[1], tok[2])
            )

    def accept_kw(self, word: str, skip_nl: bool = False) -> bool:
        if self.peek(skip_nl)[0:2] == ("kw", word):
            self.advance(skip_nl)
            return True
        return False

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> tuple:
        stmts = []
        while True:
            tok = self.peek(skip_nl=True)
            if tok[0] == "eof":
                break
            stmts.append(self.statement())
            while self.peek()[0] == "nl" or self.peek()[0:2] == ("op", ";"):
                self.advance()
        return ("block", stmts)

    def statement(self) -> tuple:
        return self.expr()

    def expr(self) -> tuple:
        return self.assignment()

    def assignment(self) -> tuple:
        lhs = self.or_expr()
        tok = self.peek()
        if tok[0] == "op" and tok[1] in ("<-", "<<-", "="):
            self.advance()
            rhs = self.assignment()
            return ("assign", lhs, rhs, tok[1] == "<<-")
        return lhs

    def _bin_level(self, ops: set[str], sub) -> tuple:
        node = sub()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in ops:
                self.advance()
                node = ("binop", tok[1], node, sub())
            elif tok[0:2] == ("op", "%in%") and "%in%" in ops:
                self.advance()
                node = ("binop", "%in%", node, sub())
            else:
                return node

    def or_expr(self):
        return self._bin_level({"|", "||"}, self.and_expr)

    def and_expr(self):
        return self._bin_level({"&", "&&"}, self.not_expr)

    def not_expr(self) -> tuple:
        if self.peek()[0:2] == ("op", "!"):
            self.advance()
            return ("unop", "!", self.not_expr())
        return self.comparison()

    def comparison(self):
        return self._bin_level(
            {"==", "!=", "<", ">", "<=", ">="}, self.additive
        )

    def additive(self):
        return self._bin_level({"+", "-"}, self.multiplicative)

    def multiplicative(self):
        return self._bin_level({"*", "/"}, self.special)

    def special(self):
        return self._bin_level({"%%", "%/%", "%in%"}, self.range_expr)

    def range_expr(self):
        return self._bin_level({":"}, self.unary)

    def unary(self) -> tuple:
        tok = self.peek()
        if tok[0] == "op" and tok[1] in ("-", "+"):
            self.advance()
            return ("unop", tok[1], self.unary())
        return self.power()

    def power(self) -> tuple:
        base = self.postfix()
        if self.peek()[0:2] == ("op", "^"):
            self.advance()
            return ("binop", "^", base, self.unary())  # right-assoc
        return base

    def postfix(self) -> tuple:
        node = self.primary()
        while True:
            tok = self.peek()
            if tok[0:2] == ("op", "("):
                self.advance()
                args = self.call_args(")")
                node = ("call", node, args)
            elif tok[0:2] == ("op", "[["):
                self.advance()
                arg = self.expr()
                self.expect_op("]]")
                node = ("index2", node, arg)
            elif tok[0:2] == ("op", "["):
                self.advance()
                args = self.call_args("]")
                node = ("index", node, args)
            elif tok[0:2] == ("op", "$"):
                self.advance()
                name_tok = self.advance()
                if name_tok[0] not in ("id", "str", "kw"):
                    raise RParseError(
                        "expected name after $ (line %d)" % name_tok[2]
                    )
                node = ("dollar", node, name_tok[1])
            else:
                return node

    def call_args(self, closer: str) -> list[tuple[str | None, tuple]]:
        args: list[tuple[str | None, tuple]] = []
        if self.accept_op(closer, skip_nl=True):
            return args
        while True:
            tok = self.peek(skip_nl=True)
            if tok[0:2] == ("op", ","):
                # empty argument (e.g. m[, 1]); represent as missing
                self.advance(skip_nl=True)
                args.append((None, ("missing",)))
                continue
            name: str | None = None
            # named argument: ident '=' (but not '==')
            if tok[0] in ("id", "str"):
                save = self.pos
                self.advance(skip_nl=True)
                if self.peek()[0:2] == ("op", "=") and self.toks[self.pos + 1][0:2] != ("op", "="):
                    self.advance()
                    name = tok[1]
                else:
                    self.pos = save
            args.append((name, self.expr()))
            if self.accept_op(",", skip_nl=True):
                continue
            self.expect_op(closer)
            return args

    def primary(self) -> tuple:
        tok = self.advance(skip_nl=True)
        kind, text, line = tok
        if kind == "num":
            return ("num", float(text.rstrip("L")))
        if kind == "str":
            return ("str", text)
        if kind == "id":
            return ("id", text)
        if kind == "kw":
            if text in ("TRUE", "T"):
                return ("bool", True)
            if text in ("FALSE", "F"):
                return ("bool", False)
            if text == "NULL":
                return ("null",)
            if text == "NA":
                return ("num", float("nan"))
            if text == "Inf":
                return ("num", float("inf"))
            if text == "NaN":
                return ("num", float("nan"))
            if text == "if":
                self.expect_op("(")
                cond = self.expr()
                self.expect_op(")")
                then = self.statement_or_block()
                els = None
                if self.accept_kw("else", skip_nl=True):
                    els = self.statement_or_block()
                return ("if", cond, then, els)
            if text == "for":
                self.expect_op("(")
                var_tok = self.advance(skip_nl=True)
                if var_tok[0] != "id":
                    raise RParseError("bad for-loop variable (line %d)" % line)
                if not self.accept_kw("in", skip_nl=True):
                    raise RParseError("expected 'in' in for (line %d)" % line)
                seq = self.expr()
                self.expect_op(")")
                return ("for", var_tok[1], seq, self.statement_or_block())
            if text == "while":
                self.expect_op("(")
                cond = self.expr()
                self.expect_op(")")
                return ("while", cond, self.statement_or_block())
            if text == "repeat":
                return ("repeat", self.statement_or_block())
            if text == "function":
                self.expect_op("(")
                params: list[tuple[str, tuple | None]] = []
                if not self.accept_op(")", skip_nl=True):
                    while True:
                        p = self.advance(skip_nl=True)
                        if p[0] != "id":
                            raise RParseError(
                                "bad parameter name %r (line %d)" % (p[1], p[2])
                            )
                        default = None
                        if self.accept_op("="):
                            default = self.expr()
                        params.append((p[1], default))
                        if self.accept_op(",", skip_nl=True):
                            continue
                        self.expect_op(")")
                        break
                body = self.statement_or_block()
                return ("function", params, body)
            if text == "break":
                return ("break",)
            if text == "next":
                return ("next",)
            raise RParseError("unexpected keyword %r (line %d)" % (text, line))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "{":
            stmts = []
            while True:
                if self.accept_op("}", skip_nl=True):
                    break
                stmts.append(self.statement())
                while self.peek()[0] == "nl" or self.peek()[0:2] == ("op", ";"):
                    self.advance()
            return ("block", stmts)
        if kind == "op" and text == "-":
            return ("unop", "-", self.unary())
        raise RParseError("unexpected token %r (line %d)" % (text, line))

    def statement_or_block(self) -> tuple:
        return self.statement()


@functools.lru_cache(maxsize=2048)
def parse(src: str) -> tuple:
    """Parse once per text: the tree is shared by every rank, and a
    parse error is not cached."""
    return Parser(tokenize(src)).parse_program()
