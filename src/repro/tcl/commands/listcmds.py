"""List commands: list, lindex, llength, lappend, lsort, concat."""

from __future__ import annotations

from ..errors import TclError
from ..expr import parse_number
from ..listutil import format_element, format_list, parse_list


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def _index(spec: str, length: int) -> int:
    """Parse a Tcl index spec: N, end, end-N, N+M, N-M."""
    s = spec.strip()
    if s.startswith("end"):
        rest = s[3:]
        base = length - 1
        if not rest:
            return base
        if rest[0] in "+-":
            return base + int(rest)
        raise TclError('bad index "%s"' % spec)
    for op in ("+", "-"):
        # allow arithmetic like 1+1 (but not a leading sign)
        pos = s.find(op, 1)
        if pos > 0:
            try:
                return int(s[:pos]) + (int(s[pos:]) if op == "-" else int(s[pos + 1 :]))
            except ValueError:
                pass
    try:
        return int(s)
    except ValueError:
        raise TclError('bad index "%s": must be integer or end?[+-]integer?' % spec) from None


def cmd_list(interp, args):
    return format_list(args)


def cmd_lindex(interp, args):
    if not args:
        raise _wrong_args("lindex list ?index ...?")
    value = args[0]
    indices: list[str] = []
    for a in args[1:]:
        indices.extend(parse_list(a))
    for spec in indices:
        elements = parse_list(value)
        i = _index(spec, len(elements))
        if i < 0 or i >= len(elements):
            return ""
        value = elements[i]
    return value


def cmd_llength(interp, args):
    if len(args) != 1:
        raise _wrong_args("llength list")
    return str(len(parse_list(args[0])))


def cmd_lappend(interp, args):
    if not args:
        raise _wrong_args("lappend varName ?value ...?")
    name = args[0]
    cur = interp.get_var(name) if interp.var_exists(name) else ""
    parts = [cur] if cur else []
    parts.extend(format_element(v) for v in args[1:])
    return interp.set_var(name, " ".join(parts))


def cmd_lsort(interp, args):
    numeric = False
    decreasing = False
    unique = False
    i = 0
    while i < len(args) - 1 and args[i].startswith("-"):
        opt = args[i]
        if opt in ("-integer", "-real", "-numeric"):
            numeric = True
        elif opt == "-decreasing":
            decreasing = True
        elif opt == "-increasing":
            decreasing = False
        elif opt == "-unique":
            unique = True
        elif opt == "-ascii":
            numeric = False
        else:
            raise TclError('bad option "%s" to lsort' % opt)
        i += 1
    if len(args) - i != 1:
        raise _wrong_args("lsort ?options? list")
    elements = parse_list(args[i])
    if numeric:
        def key(s):
            v = parse_number(s)
            if v is None:
                raise TclError('expected number but got "%s"' % s)
            return v
    else:
        key = str
    out = sorted(elements, key=key, reverse=decreasing)
    if unique:
        dedup = []
        for el in out:
            if not dedup or key(dedup[-1]) != key(el):
                dedup.append(el)
        out = dedup
    return format_list(out)


def cmd_concat(interp, args):
    parts = [a.strip() for a in args if a.strip()]
    return " ".join(parts)


def register(interp) -> None:
    interp.register("list", cmd_list)
    interp.register("lindex", cmd_lindex)
    interp.register("llength", cmd_llength)
    interp.register("lappend", cmd_lappend)
    interp.register("lsort", cmd_lsort)
    interp.register("concat", cmd_concat)
