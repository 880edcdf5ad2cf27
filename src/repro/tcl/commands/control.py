"""Control-flow commands: if, while, for, foreach, switch, proc, eval,
catch, error, expr, return/break/continue, rename."""

from __future__ import annotations

import time as _time

from ..errors import TclBreak, TclContinue, TclError, TclReturn
from ..expr import eval_expr, to_string, truthy
from ..interp import TclProc
from ..listutil import format_list, parse_list


def _wrong_args(usage: str) -> TclError:
    return TclError('wrong # args: should be "%s"' % usage)


def cmd_expr(interp, args):
    if not args:
        raise _wrong_args("expr arg ?arg ...?")
    text = args[0] if len(args) == 1 else " ".join(args)
    return to_string(eval_expr(interp, text))


# vm_builtin tags let the bytecode compiler inline a construct; the
# VM's GUARD op re-checks the tag under cmd_epoch so redefining the
# command (e.g. a test stubbing `if`) reroutes to the generic path.
cmd_expr.vm_builtin = "expr"  # type: ignore[attr-defined]


def cmd_if(interp, args):
    i = 0
    n = len(args)
    while i < n:
        cond = args[i]
        i += 1
        if i < n and args[i] == "then":
            i += 1
        if i >= n:
            raise _wrong_args("if cond ?then? body ?elseif ...? ?else body?")
        body = args[i]
        i += 1
        if truthy(eval_expr(interp, cond)):
            return interp.eval(body)
        if i < n and args[i] == "elseif":
            i += 1
            continue
        if i < n and args[i] == "else":
            i += 1
            if i >= n:
                raise _wrong_args("if ... else body")
            return interp.eval(args[i])
        if i < n:
            # bare trailing body acts as else
            return interp.eval(args[i])
        return ""
    return ""


cmd_if.vm_builtin = "if"  # type: ignore[attr-defined]


def cmd_while(interp, args):
    if len(args) != 2:
        raise _wrong_args("while test command")
    cond, body = args
    while truthy(eval_expr(interp, cond)):
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


cmd_while.vm_builtin = "while"  # type: ignore[attr-defined]


def cmd_for(interp, args):
    if len(args) != 4:
        raise _wrong_args("for start test next command")
    start, test, nxt, body = args
    interp.eval(start)
    while truthy(eval_expr(interp, test)):
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            pass
        interp.eval(nxt)
    return ""


cmd_for.vm_builtin = "for"  # type: ignore[attr-defined]


def cmd_foreach(interp, args):
    if len(args) < 3 or len(args) % 2 == 0:
        raise _wrong_args("foreach varList list ?varList list ...? command")
    body = args[-1]
    pairs = []
    for i in range(0, len(args) - 1, 2):
        var_names = parse_list(args[i])
        values = parse_list(args[i + 1])
        if not var_names:
            raise TclError("foreach varlist is empty")
        pairs.append((var_names, values))
    n_iters = 0
    for var_names, values in pairs:
        per = (len(values) + len(var_names) - 1) // len(var_names)
        n_iters = max(n_iters, per)
    for it in range(n_iters):
        for var_names, values in pairs:
            base = it * len(var_names)
            for k, vn in enumerate(var_names):
                idx = base + k
                interp.set_var(vn, values[idx] if idx < len(values) else "")
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def cmd_switch(interp, args):
    exact = True
    use_glob = False
    i = 0
    while i < len(args) and args[i].startswith("-"):
        if args[i] == "-exact":
            exact, use_glob = True, False
        elif args[i] == "-glob":
            exact, use_glob = False, True
        elif args[i] == "--":
            i += 1
            break
        else:
            raise TclError('bad option "%s" to switch' % args[i])
        i += 1
    if i >= len(args):
        raise _wrong_args("switch ?options? string pattern body ...")
    subject = args[i]
    i += 1
    if len(args) - i == 1:
        items = parse_list(args[i])
    else:
        items = list(args[i:])
    if len(items) % 2 != 0:
        raise TclError("extra switch pattern with no body")
    matched_body = None
    for j in range(0, len(items), 2):
        pat, body = items[j], items[j + 1]
        ok = False
        if pat == "default" and j == len(items) - 2:
            ok = True
        elif use_glob:
            import fnmatch

            ok = fnmatch.fnmatchcase(subject, pat)
        else:
            ok = subject == pat
        if ok:
            # fall-through bodies: "-" chains to the next body
            k = j
            while items[k + 1] == "-":
                k += 2
                if k >= len(items):
                    raise TclError('no body specified for pattern "%s"' % pat)
            matched_body = items[k + 1]
            break
    if matched_body is None:
        return ""
    return interp.eval(matched_body)


def cmd_proc(interp, args):
    if len(args) != 3:
        raise _wrong_args("proc name args body")
    name, params_text, body = args
    params: list[tuple[str, str | None]] = []
    for p in parse_list(params_text):
        parts = parse_list(p)
        if len(parts) == 1:
            params.append((parts[0], None))
        elif len(parts) == 2:
            params.append((parts[0], parts[1]))
        else:
            raise TclError(
                'too many fields in argument specifier "%s"' % p
            )
    if name.startswith("::"):
        qname = name.lstrip(":")
    elif interp.current_ns.name:
        qname = interp.current_ns.name + "::" + name
    else:
        qname = name
    ns = interp.current_ns
    if "::" in qname:
        ns = interp.namespace(qname.rsplit("::", 1)[0], create=True)
    proc = TclProc(qname, params, body, ns)
    interp.register(qname, proc)
    return ""


def cmd_rename(interp, args):
    if len(args) != 2:
        raise _wrong_args("rename oldName newName")
    old, new = args
    fn = interp.lookup_command(old)
    if fn is None:
        raise TclError(
            'can\'t rename "%s": command doesn\'t exist' % old
        )
    interp.unregister(old)
    if new:
        interp.register(new, fn)
    return ""


def cmd_eval(interp, args):
    if not args:
        raise _wrong_args("eval arg ?arg ...?")
    script = args[0] if len(args) == 1 else " ".join(args)
    return interp.eval(script)


def cmd_catch(interp, args):
    if len(args) not in (1, 2):
        raise _wrong_args("catch script ?varName?")
    code = 0
    result = ""
    try:
        result = interp.eval(args[0])
    except TclError as e:
        code, result = 1, e.message
    except TclReturn as r:
        code, result = 2, r.value
    except TclBreak:
        code = 3
    except TclContinue:
        code = 4
    if len(args) == 2:
        interp.set_var(args[1], result)
    return str(code)


def cmd_error(interp, args):
    if not args:
        raise _wrong_args("error message ?info? ?code?")
    raise TclError(args[0])


def cmd_return(interp, args):
    code = 0
    i = 0
    while i + 1 < len(args) and args[i].startswith("-"):
        if args[i] == "-code":
            codes = {"ok": 0, "error": 1, "return": 2, "break": 3, "continue": 4}
            c = args[i + 1]
            code = codes.get(c)
            if code is None:
                try:
                    code = int(c)
                except ValueError:
                    raise TclError('bad completion code "%s"' % c) from None
            i += 2
        else:
            break
    value = args[i] if i < len(args) else ""
    raise TclReturn(value, code)


cmd_return.vm_builtin = "return"  # type: ignore[attr-defined]


def cmd_break(interp, args):
    raise TclBreak()


cmd_break.vm_builtin = "break"  # type: ignore[attr-defined]


def cmd_continue(interp, args):
    raise TclContinue()


cmd_continue.vm_builtin = "continue"  # type: ignore[attr-defined]


def cmd_time(interp, args):
    if len(args) not in (1, 2):
        raise _wrong_args("time command ?count?")
    count = int(args[1]) if len(args) == 2 else 1
    t0 = _time.perf_counter()
    for _ in range(count):
        interp.eval(args[0])
    dt = (_time.perf_counter() - t0) / max(count, 1)
    return "%d microseconds per iteration" % round(dt * 1e6)


def cmd_apply(interp, args):
    if not args:
        raise _wrong_args("apply lambdaExpr ?arg ...?")
    spec = parse_list(args[0])
    if len(spec) not in (2, 3):
        raise TclError('can\'t interpret "%s" as a lambda expression' % args[0])
    params_text, body = spec[0], spec[1]
    params: list[tuple[str, str | None]] = []
    for p in parse_list(params_text):
        parts = parse_list(p)
        params.append((parts[0], parts[1] if len(parts) > 1 else None))
    proc = TclProc("apply", params, body, interp.current_ns)
    return proc(interp, list(args[1:]))


def cmd_subst(interp, args):
    """subst ?-nobackslashes? ?-nocommands? ?-novariables? string.

    Implemented by re-parsing the string as a quoted word.
    """
    if not args:
        raise _wrong_args("subst ?options? string")
    text = args[-1]
    # Leverage the parser: wrap in quotes is unsafe; do manual substitution.
    from ..parser import _parse_segments

    segs, _ = _parse_segments(text, 0, "", False)
    out = []
    for kind, val in segs:
        if kind == "lit":
            out.append(val)
        elif kind == "var":
            out.append(interp.get_var(val))
        else:
            out.append(interp.eval(val))
    return "".join(out)


def register(interp) -> None:
    interp.register("expr", cmd_expr)
    interp.register("if", cmd_if)
    interp.register("while", cmd_while)
    interp.register("for", cmd_for)
    interp.register("foreach", cmd_foreach)
    interp.register("switch", cmd_switch)
    interp.register("proc", cmd_proc)
    interp.register("rename", cmd_rename)
    interp.register("eval", cmd_eval)
    interp.register("catch", cmd_catch)
    interp.register("error", cmd_error)
    interp.register("return", cmd_return)
    interp.register("break", cmd_break)
    interp.register("continue", cmd_continue)
    interp.register("time", cmd_time)
    interp.register("apply", cmd_apply)
    interp.register("subst", cmd_subst)
