"""A C-header parser for function declarations (the SWIG front half).

Parses the subset of C that SWIG consumes in the paper's workflow:
function prototypes over scalars, strings, and pointers.  Preprocessor
lines, comments, ``extern "C"`` wrappers, and simple typedefs are
handled; anything else is rejected loudly rather than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class CParseError(ValueError):
    pass


_BASE_TYPES = {
    "void",
    "char",
    "short",
    "int",
    "long",
    "float",
    "double",
    "unsigned",
    "size_t",
    "int32_t",
    "int64_t",
}


@dataclass(frozen=True)
class CType:
    base: str
    pointers: int = 0
    const: bool = False

    def __str__(self) -> str:
        return ("const " if self.const else "") + self.base + "*" * self.pointers

    @property
    def is_string(self) -> bool:
        return self.base == "char" and self.pointers == 1

    @property
    def is_void(self) -> bool:
        return self.base == "void" and self.pointers == 0


@dataclass(frozen=True)
class CParam:
    ctype: CType
    name: str


@dataclass(frozen=True)
class CFunc:
    ret: CType
    name: str
    params: tuple[CParam, ...] = ()

    def signature(self) -> str:
        args = ", ".join("%s %s" % (p.ctype, p.name) for p in self.params)
        return "%s %s(%s)" % (self.ret, self.name, args)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return text


def _parse_type(tokens: list[str], typedefs: dict[str, CType]) -> tuple[CType, list[str]]:
    const = False
    i = 0
    while i < len(tokens) and tokens[i] == "const":
        const = True
        i += 1
    if i >= len(tokens):
        raise CParseError("missing type in declaration")
    base_parts = []
    while i < len(tokens) and tokens[i] in _BASE_TYPES:
        base_parts.append(tokens[i])
        i += 1
    if not base_parts:
        td = typedefs.get(tokens[i])
        if td is not None:
            base_parts = [td.base]
            i += 1
            # const/pointers of the typedef fold in
            const = const or td.const
            extra_ptrs = td.pointers
        else:
            raise CParseError("unknown type %r" % tokens[i])
    else:
        extra_ptrs = 0
    base = " ".join(base_parts)
    # normalize multiword ints
    if base in ("unsigned", "unsigned int", "long", "long long", "short",
                "size_t", "int32_t", "int64_t"):
        base = "int"
    pointers = extra_ptrs
    while i < len(tokens) and tokens[i] == "*":
        pointers += 1
        i += 1
    return CType(base, pointers, const), tokens[i:]


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\*|,|\(|\)|;")


def parse_header(text: str) -> list[CFunc]:
    """Parse all function declarations in a header."""
    text = _strip_comments(text)
    # drop preprocessor lines and extern "C" wrappers
    lines = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        lines.append(line)
    text = "\n".join(lines)
    text = text.replace('extern "C"', " ")
    text = text.replace("{", " ").replace("}", " ")

    funcs: list[CFunc] = []
    typedefs: dict[str, CType] = {}
    for decl in text.split(";"):
        decl = decl.strip()
        if not decl:
            continue
        tokens = _TOKEN_RE.findall(decl)
        if not tokens:
            continue
        if tokens[0] == "typedef":
            # typedef <type> name
            try:
                ctype, rest = _parse_type(tokens[1:], typedefs)
                if len(rest) == 1:
                    typedefs[rest[0]] = ctype
            except CParseError:
                pass
            continue
        if "(" not in tokens:
            continue  # a variable declaration; not bound
        try:
            ret, rest = _parse_type(tokens, typedefs)
        except CParseError as e:
            raise CParseError("in declaration %r: %s" % (decl, e)) from None
        if not rest or rest[0] == "(":
            raise CParseError("missing function name in %r" % decl)
        name = rest[0]
        if rest[1] != "(":
            raise CParseError("expected '(' after %r" % name)
        body = rest[2:]
        if not body or body[-1] != ")":
            raise CParseError("missing ')' in %r" % decl)
        body = body[:-1]
        params: list[CParam] = []
        if body and body != ["void"]:
            groups: list[list[str]] = [[]]
            for tok in body:
                if tok == ",":
                    groups.append([])
                else:
                    groups[-1].append(tok)
            for k, group in enumerate(groups):
                ctype, rest2 = _parse_type(group, typedefs)
                pname = rest2[0] if rest2 else "arg%d" % k
                params.append(CParam(ctype, pname))
        funcs.append(CFunc(ret, name, tuple(params)))
    return funcs
