"""Variable commands: set, unset, incr, append, global."""

from __future__ import annotations

from ..errors import TclError
from ..expr import parse_number


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def cmd_set(interp, args):
    if len(args) == 1:
        return interp.get_var(args[0])
    if len(args) == 2:
        return interp.set_var(args[0], args[1])
    raise _wrong_args("set varName ?newValue?")


# vm_builtin: the bytecode compiler inlines this construct behind an
# epoch-checked GUARD (see repro.tcl.compile / repro.tcl.vm).
cmd_set.vm_builtin = "set"  # type: ignore[attr-defined]


def cmd_unset(interp, args):
    i = 0
    nocomplain = False
    if args and args[0] == "-nocomplain":
        nocomplain = True
        i = 1
    for name in args[i:]:
        try:
            interp.unset_var(name)
        except TclError:
            if not nocomplain:
                raise
    return ""


def cmd_incr(interp, args):
    if len(args) not in (1, 2):
        raise _wrong_args("incr varName ?increment?")
    name = args[0]
    delta = 1
    if len(args) == 2:
        d = parse_number(args[1])
        if not isinstance(d, int):
            raise TclError('expected integer but got "%s"' % args[1])
        delta = d
    if interp.var_exists(name):
        cur = parse_number(interp.get_var(name))
        if not isinstance(cur, int):
            raise TclError(
                'expected integer but got "%s"' % interp.get_var(name)
            )
    else:
        cur = 0
    return interp.set_var(name, str(cur + delta))


cmd_incr.vm_builtin = "incr"  # type: ignore[attr-defined]


def cmd_append(interp, args):
    if not args:
        raise _wrong_args("append varName ?value value ...?")
    name = args[0]
    cur = interp.get_var(name) if interp.var_exists(name) else ""
    return interp.set_var(name, cur + "".join(args[1:]))


def cmd_global(interp, args):
    gframe = interp.frames[0]
    for name in args:
        interp.link_var(name, gframe, name)
    return ""


def register(interp) -> None:
    interp.register("set", cmd_set)
    interp.register("unset", cmd_unset)
    interp.register("incr", cmd_incr)
    interp.register("append", cmd_append)
    interp.register("global", cmd_global)
