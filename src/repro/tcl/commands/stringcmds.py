"""String commands: string, format, split, join."""

from __future__ import annotations

import fnmatch
import re

from ..errors import TclError
from ..expr import parse_number
from ..listutil import format_list, parse_list


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def _index(spec: str, length: int) -> int:
    from .listcmds import _index as li

    return li(spec, length)


def cmd_string(interp, args):
    if len(args) < 2:
        raise _wrong_args("string subcommand ?arg ...?")
    sub = args[0]
    rest = args[1:]
    if sub == "length":
        return str(len(rest[0]))
    if sub == "index":
        s = rest[0]
        i = _index(rest[1], len(s))
        return s[i] if 0 <= i < len(s) else ""
    if sub == "range":
        s = rest[0]
        first = max(_index(rest[1], len(s)), 0)
        last = min(_index(rest[2], len(s)), len(s) - 1)
        return s[first : last + 1] if first <= last else ""
    if sub == "toupper":
        return rest[0].upper()
    if sub == "tolower":
        return rest[0].lower()
    if sub == "totitle":
        return rest[0].capitalize()
    if sub == "trim":
        chars = rest[1] if len(rest) > 1 else None
        return rest[0].strip(chars)
    if sub == "trimleft":
        chars = rest[1] if len(rest) > 1 else None
        return rest[0].lstrip(chars)
    if sub == "trimright":
        chars = rest[1] if len(rest) > 1 else None
        return rest[0].rstrip(chars)
    if sub == "equal":
        nocase = False
        i = 0
        while rest[i].startswith("-"):
            if rest[i] == "-nocase":
                nocase = True
            i += 1
        a, b = rest[i], rest[i + 1]
        if nocase:
            a, b = a.lower(), b.lower()
        return "1" if a == b else "0"
    if sub == "compare":
        a, b = rest[0], rest[1]
        return "-1" if a < b else ("1" if a > b else "0")
    if sub == "match":
        nocase = False
        i = 0
        while rest[i].startswith("-") and rest[i] != "-":
            if rest[i] == "-nocase":
                nocase = True
            i += 1
        pat, s = rest[i], rest[i + 1]
        if nocase:
            pat, s = pat.lower(), s.lower()
        return "1" if fnmatch.fnmatchcase(s, pat) else "0"
    if sub == "first":
        needle, hay = rest[0], rest[1]
        start = _index(rest[2], len(hay)) if len(rest) > 2 else 0
        return str(hay.find(needle, max(start, 0)))
    if sub == "last":
        needle, hay = rest[0], rest[1]
        return str(hay.rfind(needle))
    if sub == "repeat":
        return rest[0] * int(rest[1])
    if sub == "reverse":
        return rest[0][::-1]
    if sub == "replace":
        s = rest[0]
        first = max(_index(rest[1], len(s)), 0)
        last = min(_index(rest[2], len(s)), len(s) - 1)
        repl = rest[3] if len(rest) > 3 else ""
        if first > last:
            return s
        return s[:first] + repl + s[last + 1 :]
    if sub == "map":
        mapping = parse_list(rest[0])
        s = rest[1]
        if len(mapping) % 2:
            raise TclError("char map list unbalanced")
        out = []
        i = 0
        while i < len(s):
            for k in range(0, len(mapping), 2):
                key = mapping[k]
                if key and s.startswith(key, i):
                    out.append(mapping[k + 1])
                    i += len(key)
                    break
            else:
                out.append(s[i])
                i += 1
        return "".join(out)
    if sub == "is":
        cls = rest[0]
        s = rest[-1]
        if cls == "integer":
            return "1" if isinstance(parse_number(s), int) else "0"
        if cls == "double":
            return "1" if parse_number(s) is not None else "0"
        if cls == "alpha":
            return "1" if s.isalpha() else "0"
        if cls == "digit":
            return "1" if s.isdigit() else "0"
        if cls == "alnum":
            return "1" if s.isalnum() else "0"
        if cls == "space":
            return "1" if s != "" and s.isspace() else "0"
        if cls == "boolean":
            return (
                "1"
                if s.strip().lower()
                in ("0", "1", "true", "false", "yes", "no", "on", "off")
                else "0"
            )
        raise TclError('unknown string is class "%s"' % cls)
    if sub == "cat":
        return "".join(rest)
    raise TclError('unknown or unsupported string subcommand "%s"' % sub)


_FMT_RE = re.compile(r"%(-?\d*\.?\d*)([diufeEgGxXoscb%])")


def cmd_format(interp, args):
    if not args:
        raise _wrong_args("format formatString ?arg ...?")
    fmt = args[0]
    values = list(args[1:])
    out: list[str] = []
    pos = 0
    vi = 0
    for m in _FMT_RE.finditer(fmt):
        out.append(fmt[pos : m.start()])
        pos = m.end()
        flags, conv = m.group(1), m.group(2)
        if conv == "%":
            out.append("%")
            continue
        if vi >= len(values):
            raise TclError("not enough arguments for all format specifiers")
        raw = values[vi]
        vi += 1
        if conv in "diu":
            v = parse_number(raw)
            if v is None:
                raise TclError('expected integer but got "%s"' % raw)
            out.append(("%" + flags + "d") % int(v))
        elif conv in "eEfgG":
            v = parse_number(raw)
            if v is None:
                raise TclError('expected floating-point but got "%s"' % raw)
            out.append(("%" + flags + conv) % float(v))
        elif conv in "xXo":
            v = parse_number(raw)
            if v is None:
                raise TclError('expected integer but got "%s"' % raw)
            out.append(("%" + flags + conv) % int(v))
        elif conv == "c":
            v = parse_number(raw)
            out.append(chr(int(v)) if v is not None else raw[:1])
        elif conv == "b":
            v = parse_number(raw)
            if v is None:
                raise TclError('expected integer but got "%s"' % raw)
            out.append(format(int(v), flags.lstrip("-") + "b") if flags else format(int(v), "b"))
        else:  # s
            out.append(("%" + flags + "s") % raw)
    out.append(fmt[pos:])
    return "".join(out)


def cmd_split(interp, args):
    if len(args) not in (1, 2):
        raise _wrong_args("split string ?splitChars?")
    s = args[0]
    chars = args[1] if len(args) == 2 else " \t\n\r"
    if chars == "":
        return format_list(list(s))
    out = []
    cur = []
    for ch in s:
        if ch in chars:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return format_list(out)


def cmd_join(interp, args):
    if len(args) not in (1, 2):
        raise _wrong_args("join list ?joinString?")
    sep = args[1] if len(args) == 2 else " "
    return sep.join(parse_list(args[0]))


def register(interp) -> None:
    interp.register("string", cmd_string)
    interp.register("format", cmd_format)
    interp.register("split", cmd_split)
    interp.register("join", cmd_join)
