"""The tiers behind the bytecode: a proc body, and an inlined loop, as
one Python function.

A proc body runs as the :func:`lower_proc`-ed function of its template
from its first call: stack slots are locals,
each call site makes the VM's inline-cache check and calls the resolved
command itself, and anything else (a failed check, an op outside the
subset, the frame's ``version`` moving under a call) hands the frame
back to the VM at that op's pc, with its stack and blocks; an exception
goes back with its op's pc, and the VM raises it there.

A ``for``/``while`` loop of a proc body that runs no command is lowered
when its template is compiled (:func:`mark_loops`), and ends in
``OP_LOOP``; at its first back-edge the VM, or a lowered proc body at
the same op, jumps into its :func:`lower`-ed function, so the running
call gains too.
The function holds each slot as a Python ``int`` standing for its
canonical decimal string and writes the cells at iteration boundaries
and on exit only.  Anything outside ``int`` — a float or non-canonical
string, a zero divisor, a negative shift or exponent, any exception —
hands the loop back: it returns the loop head with the cells as they
were when the iteration began, and the VM runs that iteration itself,
so results, messages and ``errorInfo`` are the VM's.  A hand-back
sticks: that interp's copy of the loop stays on the VM.
"""

from __future__ import annotations

import functools
from collections import Counter

from .errors import caught
from .expr import _eval_bin, coerce, eval_unary, to_string, truthy

from .bytecode import (
    OP_ADD, OP_BIN, OP_BREAK, OP_CALL, OP_CALL_LIT, OP_COERCE, OP_CONCAT,
    OP_CONST, OP_CONTINUE, OP_ELOAD_SLOT, OP_END, OP_EQ, OP_GE, OP_GT,
    OP_GUARD, OP_INCR_SLOT, OP_JUMP, OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE,
    OP_LE, OP_LOAD_SLOT, OP_LOOP, OP_LT, OP_MUL, OP_NE, OP_POP, OP_POP_BLOCK,
    OP_PUSH_BLOCK, OP_RETURN, OP_SET_SLOT, OP_SUB, OP_TO_STR, OP_UNARY,
)

# Typed ops by opcode, OP_BIN ones by operator: ints in, an int out.
_ARITH = {
    OP_ADD: "+", OP_SUB: "-", OP_MUL: "*", "/": "//", "%": "%", "**": "**",
    "<<": "<<", ">>": ">>", "&": "&", "|": "|", "^": "^",
}
_CMP = {
    OP_LT: "<", OP_LE: "<=", OP_GT: ">", OP_GE: ">=", OP_EQ: "==",
    OP_NE: "!=", "eq": "==", "ne": "!=",
}
_UNARY = {"-": "-%s", "+": "+%s", "~": "~%s", "!": "0 if %s else 1"}


class _NotInt:
    """A constant that is no int (``""``, ``2.0``): any use but a POP raises."""

    def _raise(self, *args):
        raise TypeError("not an int")

    __bool__ = __eq__ = __ne__ = __str__ = __pos__ = _raise


def _int(v):
    """The int a constant stands for, or None."""
    if type(v) is str:
        try:
            i = int(v, 10)
        except ValueError:
            return None
        return i if str(i) == v else None
    return v if type(v) is int else None


def _walk(code, head, end):
    """Translate each op reachable from the loop head, one by one.

    A GUARD falls through: its fallback cannot run once the guards pass
    at entry.  Returns ``(nodes, blocker, guards, slots, written)``, with
    ``nodes[pc] = (lines, cond, targets)``: Python lines, then a jump to
    ``targets[0]`` if ``cond`` holds, else to ``targets[-1]``; a target
    outside ``[head, end]`` leaves the loop.  ``blocker`` is the pc of
    the first op that keeps the loop on the VM (a command, a NAME op,
    CONCAT, RETURN, ``in``/``ni``, a block op outside the loop), or None.
    """
    ops, consts = code.ops, code.consts
    nodes, seen, todo = {}, {head: (0, ())}, [head]
    guards, slots, written, blockers = [], set(), set(), []
    back = "return %d, n" % head
    while todo:
        pc = todo.pop()
        d, blocks = seen[pc]
        op, arg = ops[pc], ops[pc + 1]
        key = consts[arg] if op in (OP_BIN, OP_UNARY) else op
        top, under = "s%d" % (d - 1), "s%d" % (d - 2)
        lines, cond, nxt = [], None, [(pc + 2, d, blocks)]
        if op == OP_CONST:
            v = _int(consts[arg])
            lines = ["s%d = %s" % (d, "X" if v is None else v)]
            nxt = [(pc + 2, d + 1, blocks)]
        elif op == OP_LOAD_SLOT or op == OP_ELOAD_SLOT:
            slots.add(arg)
            lines, nxt = ["s%d = v%d" % (d, arg)], [(pc + 2, d + 1, blocks)]
        elif op == OP_SET_SLOT or op == OP_INCR_SLOT:
            si = consts[arg][0]
            slots.add(si)
            written.add(si)
            lines = ["v%d = %s" % (si, top)]
            if op == OP_INCR_SLOT and consts[arg][2] is None:  # the delta popped
                lines = ["v%d += %s" % (si, top), "%s = v%d" % (top, si)]
            elif op == OP_INCR_SLOT:
                lines = ["v%d += %d" % (si, consts[arg][2]), "s%d = v%d" % (d, si)]
                nxt = [(pc + 2, d + 1, blocks)]
        elif op == OP_POP:
            nxt = [(pc + 2, d - 1, blocks)]
        elif key in _ARITH or key in _CMP:
            if key == "**":
                lines.append("if %s < 0: %s" % (top, back))
            lines.append(
                "%s = %s %s %s" % (under, under, _ARITH[key], top) if key in _ARITH
                else "%s = 1 if %s %s %s else 0" % (under, under, _CMP[key], top)
            )
            nxt = [(pc + 2, d - 1, blocks)]
        elif op == OP_UNARY:
            lines = ["%s = %s" % (top, _UNARY[key] % top)]
        elif op == OP_TO_STR:  # str() raises past Python's digit limit
            lines = ["if not -BIG < %s < BIG: %s" % (top, back)]
        elif op == OP_GUARD:
            guards.append(arg)
        elif op == OP_PUSH_BLOCK and consts[arg][1] >= 0:  # not a catch
            nxt = [(pc + 2, d, blocks + (consts[arg] + (d,),))]
        elif op == OP_POP_BLOCK and blocks:
            nxt = [(pc + 2, d, blocks[:-1])]
        elif op == OP_JUMP or op == OP_LOOP:
            nxt = [(arg if op == OP_JUMP else code.caches[arg][0], d, blocks)]
        elif op == OP_JUMP_IF_FALSE or op == OP_JUMP_IF_TRUE:
            cond = ("not " if op == OP_JUMP_IF_FALSE else "") + top
            nxt = [(arg, d - 1, blocks), (pc + 2, d - 1, blocks)]
        elif (op == OP_BREAK or op == OP_CONTINUE) and blocks:
            brk, cont, bd = blocks[-1]
            if op == OP_CONTINUE:
                nxt = [(cont, bd, blocks)]
            elif head <= brk <= end:
                nxt = [(brk, bd, blocks)]
            else:  # the loop's own block, never pushed: skip its POP_BLOCK
                nxt = [(brk + 2, bd, blocks[:-1])]
        elif op != OP_COERCE:  # COERCE: an int stays an int
            blockers.append(pc)
            continue
        for t, td, tb in nxt:
            if not head <= t <= end:
                if td or tb:
                    blockers.append(pc)
            elif t not in seen:
                seen[t] = (td, tb)
                todo.append(t)
            elif seen[t] != (td, tb):
                blockers.append(pc)
        nodes[pc] = (lines, cond, [t for t, _, _ in nxt])
    blocker = min(blockers) if blockers else None
    return nodes, blocker, guards, sorted(slots), sorted(written)


def mark_loops(code):
    """Lower each loop of a proc body that runs no command, and end it in
    OP_LOOP, whose cache entry is ``[head, function, guard cache indices,
    live]``: the template's function serves every bound copy, and a
    copy's ``live`` goes False at its first hand-back."""
    ops = code.ops
    for pc in range(0, len(ops), 2):
        head = ops[pc + 1]
        low = ops[pc] == OP_JUMP and head < pc and lower(code, head, pc)
        if low:
            ops[pc], ops[pc + 1] = OP_LOOP, len(code.caches)
            code.caches.append([head, *low, True])


def _machine(out, nodes, leaders, ind, special=None):
    """Emit ``nodes`` as a state machine on ``pc`` into ``out``: one
    ``if pc == leader:`` arm per leader, the other nodes inlined in the
    chain that reaches them; ``special(t, ind)`` emits a jump to ``t``
    itself, or returns False."""

    def goto(t, ind):
        if special and special(t, ind):
            return
        if t in leaders:
            out.extend([ind + "pc = %d" % t, ind + "continue"])
        else:
            chain(t, ind)

    def chain(pc, ind):
        while True:
            lines, cond, targets = nodes[pc]
            out.extend(ind + line for line in lines)
            if not targets:
                return
            if cond is not None:
                out.append(ind + "if %s:" % cond)
                goto(targets[0], ind + "    ")
            pc = targets[-1]
            if pc in leaders or pc not in nodes:
                return goto(pc, ind)

    for i, pc in enumerate(leaders):
        out.append(ind + "%s pc == %d:" % ("elif" if i else "if", pc))
        chain(pc, ind + "    ")


def lower(code, head, end):
    """``(function, guard cache indices)`` for the loop ``[head, end]``, or
    None if an op keeps it on the VM or it outgrows Python's nesting.
    The function takes the frame's cells and returns ``(pc,
    iterations)``; ``pc == head`` hands the loop back to the VM."""
    nodes, blocker, guards, slots, written = _walk(code, head, end)
    if blocker is not None:
        return None
    preds = Counter(t for _, _, targets in nodes.values() for t in targets)
    leaders = [pc for pc in sorted(nodes) if pc == head or preds[pc] > 1]

    def each(fmt, idx):
        return "".join(fmt % i + ", " for i in idx)

    store = each("c%d.value", written) + "= " + each("str(v%d)", written)
    store = store if written else "pass"
    out = ["def loop(cells):", "    n, pc = 0, %d" % head, "    try:"]
    if slots:  # entry: every slot a canonical int string
        out += [
            "        %s= %s" % (each("c%d", slots), each("cells[%d]", slots)),
            "        %s= %s" % (each("v%d", slots), each("int(c%d.value, 10)", slots)),
            "        if (%s) != (%s): return %d, 0" % (
                each("str(v%d)", slots), each("c%d.value", slots), head),
        ]
    out.append("        while True:")

    def special(t, ind):
        if not head <= t <= end:
            out.extend(ind + line for line in (store, "return %d, n" % t))
        elif t == head:
            out.extend(ind + line for line in (store, "n += 1", "pc = %d" % t, "continue"))
        return not head < t <= end

    try:  # a chain of ~100 nested `?:` outgrows Python's nesting limits
        _machine(out, nodes, leaders, " " * 12, special)
        out += ["    except Exception:", "        return %d, n" % head]
        return _function("\n".join(out)), guards
    except (SyntaxError, RecursionError, MemoryError):
        return None


# Ops whose lowered form can raise: each records its pc first.
_RAISES = {
    OP_ELOAD_SLOT, OP_CALL, OP_CALL_LIT, OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE,
    OP_BIN, OP_UNARY, OP_COERCE, OP_TO_STR, OP_LOOP,
} | set(range(OP_ADD, OP_NE + 1))


def _stack(d):
    return "[%s]" % ", ".join("s%d" % i for i in range(d))


def _proc_walk(code):
    """Translate each op of a proc body reachable from pc 0, as _walk does
    a loop's, keeping the VM's values (str; int or float inside an expr).
    Returns ``(nodes, sites, landings, blocker, entries)``: ``sites[pc] =
    (depth, blocks)`` for each op that can raise, the catch handlers, the
    first op that hands the body back (EXEC, a NAME op, ...) or None, and
    the pcs an OP_LOOP's lowered loop may go on at."""
    ops, consts, caches = code.ops, code.consts, code.caches
    nodes, seen, todo = {}, {0: (0, ())}, [0]
    sites, landings, blockers, entries = {}, [], [], set()
    while todo:
        pc = todo.pop()
        d, blocks = seen[pc]
        op, arg = ops[pc], ops[pc + 1]
        top, under, s = "s%d" % (d - 1), "s%d" % (d - 2), "s%d" % d
        back = "return %d, %s, %r, None" % (pc, _stack(d), list(blocks))
        lines, cond, nxt = [], None, [(pc + 2, d, blocks)]
        if op == OP_CONST:
            v = consts[arg]
            lines = ["%s = %s" % (s, repr(v) if type(v) is str else "C[%d]" % arg)]
            nxt = [(pc + 2, d + 1, blocks)]
        elif op == OP_POP:
            nxt = [(pc + 2, d - 1, blocks)]
        elif op == OP_LOAD_SLOT or op == OP_ELOAD_SLOT:
            value = "v.value" if op == OP_LOAD_SLOT else "CO(v.value)"
            lines = ["v = cells[%d]" % arg, "if v is None: " + back, "%s = %s" % (s, value)]
            nxt = [(pc + 2, d + 1, blocks)]
        elif op == OP_SET_SLOT:
            si, name, _ = consts[arg]
            lines = ["v = cells[%d]" % si, "if v is None: NEW(f, cells, %d, %r, %s)" % (
                si, name, top), "else: v.value = %s" % top]
        elif op == OP_INCR_SLOT:
            si, _, delta, _, _ = consts[arg]
            dst = top if delta is None else s
            lines = ["v = INC(cells[%d], %s)" % (si, top if delta is None else repr(str(delta))),
                     "if v is None: " + back, "%s = v" % dst]
            nxt = [(pc + 2, d + (delta is not None), blocks)]
        elif op == OP_CONCAT:
            lines = ["s%d = %s" % (d - arg, " + ".join("s%d" % i for i in range(d - arg, d)))]
            nxt = [(pc + 2, d - arg + 1, blocks)]
        elif op == OP_CALL or op == OP_CALL_LIT:
            c = caches[arg]
            if op == OP_CALL_LIT:  # [argv, tail, line, epoch, ns, mode, payload]
                b, argv, tail, line, argc, nth = d, "c[0]", "c[1]", "c[2]", len(c[0]), "c[1][t[1]]"
                check, resolve = "c[3] == I.cmd_epoch and c[4] is I.current_ns", "RL(I, c)"
            else:  # [argc, line, epoch, ns, name, mode, payload]
                b, argv, tail, line, argc, nth = d - c[0], "a", "a[1:]", "c[1]", c[0], "a[t[1] + 1]"
                check = "c[2] == I.cmd_epoch and c[3] is I.current_ns and c[4] == s%d" % b
                resolve = "RS(I, c, s%d)" % b
                lines = ["a = [%s]" % ", ".join("s%d" % i for i in range(b, d))]
            lines += [
                "c = K[%d]" % arg,
                "if %s: h += 1" % check,
                "elif not %s: %s" % (resolve, back),
                "m, t = c[5], c[6]",
                "if m == 3 and t[2] == %d: s%d = %s if t[0] == 0 else t[1]" % (argc - 1, b, nth),
                "elif m == 1 or m == 2:",
                "    try: r = t(I, %s) if m == 1 else CP(I, t[0], t[1], %s)" % (tail, tail),
                "    except Exception as e: raise I.failed(e, %s, %s)" % (argv, line),
                "    s%d = r if type(r) is str else TS(r)" % b,
                "    if f.version: return %d, %s, %r, None" % (pc + 2, _stack(b + 1), list(blocks)),
                "else: " + back,
            ]
            nxt = [(pc + 2, b + 1, blocks)]
        elif op == OP_GUARD:
            lines = ["c = K[%d]" % arg, "if not (c[2] == I.cmd_epoch and c[3] is "
                     "I.current_ns and c[4] or GOK(I, c)): " + back]
        elif op == OP_JUMP:
            nxt = [(arg, d, blocks)]
        elif op == OP_JUMP_IF_FALSE or op == OP_JUMP_IF_TRUE:
            cond = "%s(%s if type(%s) is int else TR(%s))" % (
                "not " if op == OP_JUMP_IF_FALSE else "", top, top, top)
            nxt = [(arg, d - 1, blocks), (pc + 2, d - 1, blocks)]
        elif OP_ADD <= op <= OP_NE or op == OP_BIN:  # typed: the VM's int fast path
            sym = consts[arg] if op == OP_BIN else _ARITH.get(op) or _CMP[op]
            fast = ("%s %s %s" if op in _ARITH else "(1 if %s %s %s else 0)") % (under, sym, top)
            lines = ["%s = %sEB(%r, %s, %s)" % (under, "" if op == OP_BIN else "%s if type(%s) is int is type(%s) else " % (
                fast, under, top), sym, under, top)]
            nxt = [(pc + 2, d - 1, blocks)]
        elif op == OP_UNARY or op == OP_COERCE or op == OP_TO_STR:
            lines = ["%s = %s" % (top, "EU(%r, %s)" % (consts[arg], top) if op == OP_UNARY
                                  else "CO(%s)" % top if op == OP_COERCE
                                  else "%s if type(%s) is str else TS(%s)" % (top, top, top))]
        elif op == OP_PUSH_BLOCK:
            brk, cont = consts[arg]
            nxt = [(pc + 2, d, blocks + ((brk, cont, d),))]
            if cont < 0:  # a catch: its handler is entered from the except
                landings.append((brk, d))
                if brk not in seen:
                    seen[brk] = (d + 2, blocks)
                    todo.append(brk)
        elif op == OP_POP_BLOCK:
            nxt = [(pc + 2, d, blocks[:-1])]
        elif (op == OP_BREAK or op == OP_CONTINUE) and blocks:
            brk, cont, bd = blocks[-1]
            if cont < 0:  # caught: code 3 or 4
                lines = ["s%d, s%d = %r, ''" % (bd, bd + 1, "3" if op == OP_BREAK else "4")]
                nxt = [(brk, bd + 2, blocks[:-1])]
            else:
                nxt = [(brk if op == OP_BREAK else cont, bd, blocks)]
        elif op == OP_RETURN or op == OP_END:
            lines, nxt = ["return " + top], []
        elif op == OP_LOOP:  # the VM's back-edge: the loop's function, while live
            head = caches[arg][0]
            targets = {head} | {t for _, _, ts in _walk(code, head, pc)[0].values()
                                for t in ts if not head <= t <= pc}
            entries |= targets
            lines = ["c = K[%d]" % arg, "pc = TIER(I, f, c) if c[3] else c[0]", "continue"]
            nxt = [(t, d, blocks) for t in sorted(targets)]
        else:
            blockers.append(pc)
            lines, nxt = [back], []
        if op in _RAISES:
            sites[pc] = (d, blocks)
            lines.insert(0, "pc = %d" % pc)
        for t, td, tb in nxt:
            if t not in seen:
                seen[t] = (td, tb)
                todo.append(t)
        nodes[pc] = (lines, cond, [] if op == OP_LOOP else [t for t, _, _ in nxt])
    return nodes, sites, landings, min(blockers) if blockers else None, entries


def proc_blocker(code):
    """The first op of a proc body that hands it back to the VM, or None."""
    return _proc_walk(code)[3]


def lower_proc(code):
    """A proc body as one Python function ``(interp, frame, cells, caches,
    consts)``, shared process-wide through ``_function``; False if its
    first op is out of the subset.  The function returns the body's
    result, or hands the frame back as ``(pc, stack, blocks, exception)``.
    A catch in the body is the except clause: it enters the handler of
    the innermost catch around the raising op, unless a loop inside that
    catch takes a break or continue (the VM jumps there).  An OP_LOOP
    runs the loop's own lowered function (:func:`lower`, through the VM's
    ``_tier``), which keeps its slots as ints, and goes on at the pc that
    returns."""
    nodes, sites, landings, blocker, entries = _proc_walk(code)
    if blocker == 0:
        return False
    preds = Counter(t for _, _, targets in nodes.values() for t in targets)
    entries |= {h for h, _ in landings}
    leaders = [pc for pc in sorted(nodes) if pc == 0 or preds[pc] > 1 or pc in entries]
    deep = max([d for d, _ in sites.values()] + [bd + 2 for _, bd in landings] + [1])
    catches = {}
    for pc, (d, blocks) in sites.items():
        inner = [b for b in blocks if b[1] < 0]
        if inner:
            catches[pc] = (inner[-1][0], blocks[-1][1] >= 0)
    out = ["def proc(I, f, cells, K, C):", "    pc = h = 0", "    %sNone" % "".join(
        "s%d = " % i for i in range(deep)), "    try:", "        while True:",
        "            try:", "                while True:"]
    _machine(out, nodes, leaders, " " * 20)
    out += [
        "            except Exception as e:",
        "                k = CAUGHT(e)",
        "                t = %r.get(pc) if k else None" % catches,
        "                if t is None or t[1] and k[0] > '2':",
        "                    return pc + 2, %s[:%r[pc]], %r[pc], e" % (
            _stack(deep), {pc: d for pc, (d, _) in sites.items()},
            {pc: list(b) for pc, (_, b) in sites.items()}),
        "                pc = t[0]",
    ] + ["                %sif pc == %d: s%d, s%d = k" % ("el" if i else "", h, bd, bd + 1)
         for i, (h, bd) in enumerate(landings)] + [
        "    finally:", "        I.vm_stats.cache_hits += h"]
    try:
        return _function("\n".join(out))
    except (SyntaxError, RecursionError, MemoryError):
        return False


@functools.lru_cache(maxsize=256)
def _function(src):
    """The function ``src`` defines, once per text: every interp in the
    process shares it (each rep builds fresh interps; the source is all
    a function depends on), and a failed compile is not cached."""
    ns = dict(GLOBALS)
    exec(compile(src, "<tcl %s>" % src[4:8], "exec"), ns)
    return ns[src[4:src.index("(")]]


# The names a lowered function reads; the VM adds its own (vm.py).
GLOBALS = {
    "BIG": 1 << 14000, "X": _NotInt(), "CO": coerce, "TR": truthy,
    "TS": lambda v: "" if v is None else to_string(v), "EB": _eval_bin,
    "EU": eval_unary, "CAUGHT": caught,
}
