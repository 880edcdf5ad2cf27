"""The tier behind the bytecode: a hot inlined loop as one Python function.

A ``for``/``while`` loop of a proc body that runs no command ends in
``OP_LOOP`` (:func:`mark_loops`); after :data:`TIER_UP` back-edges the VM
jumps into its :func:`lower`-ed function, so the running call gains too.
The function holds each slot as a Python ``int`` standing for its
canonical decimal string and writes the cells at iteration boundaries
and on exit only.  Anything outside ``int`` — a float or non-canonical
string, a zero divisor, a negative shift or exponent, any exception —
hands the loop back: it returns the loop head with the cells as they
were when the iteration began, and the VM runs that iteration itself,
so results, messages and ``errorInfo`` are the VM's.
"""

from __future__ import annotations

import functools
from collections import Counter

from .bytecode import (
    OP_ADD, OP_BIN, OP_BREAK, OP_COERCE, OP_CONST, OP_CONTINUE,
    OP_ELOAD_SLOT, OP_EQ, OP_GE, OP_GT, OP_GUARD, OP_INCR_SLOT, OP_JUMP,
    OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE, OP_LE, OP_LOAD_SLOT, OP_LOOP, OP_LT,
    OP_MUL, OP_NE, OP_POP, OP_POP_BLOCK, OP_PUSH_BLOCK, OP_SET_SLOT, OP_SUB,
    OP_TO_STR, OP_UNARY,
)

# Back-edges a loop runs on the VM before it is lowered: about as many
# iterations as lowering costs.  Translating `crunch`'s loop and
# compile()-ing it take 0.45-0.7 ms, 55-90 iterations of its body on the
# VM.  A hand-back restarts the count, so a loop that keeps handing back
# pays one failed entry per TIER_UP iterations.
TIER_UP = 80

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
            if op == OP_INCR_SLOT:
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
        elif op == OP_PUSH_BLOCK:
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


def blocker(code, head, end):
    """The first op keeping the loop ``[head, end]`` on the VM, or None."""
    return _walk(code, head, end)[1]


def mark_loops(code):
    """End each lowerable loop of a proc body in OP_LOOP, whose cache
    entry is ``[head, back-edges run, (function, guard caches) | None]``."""
    ops = code.ops
    for pc, head in [
        (pc, ops[pc + 1]) for pc in range(0, len(ops), 2)
        if ops[pc] == OP_JUMP and ops[pc + 1] < pc
        and blocker(code, ops[pc + 1], pc) is None
    ]:
        ops[pc], ops[pc + 1] = OP_LOOP, len(code.caches)
        code.caches.append([head, 0, None])


def lower(code, head, end):
    """``(function, guard caches)`` for the loop ``[head, end]``.  The
    function takes the frame's cells and returns ``(pc, iterations)``;
    ``pc == head`` hands the loop back to the VM."""
    nodes, _, guards, slots, written = _walk(code, head, end)
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

    def goto(t, ind):
        if not head <= t <= end:
            out.extend(ind + line for line in (store, "return %d, n" % t))
        elif t == head:
            out.extend(ind + line for line in (store, "n += 1", "pc = %d" % t, "continue"))
        elif t in leaders:
            out.extend([ind + "pc = %d" % t, ind + "continue"])
        else:
            chain(t, ind)

    def chain(pc, ind):
        while True:
            lines, cond, targets = nodes[pc]
            out.extend(ind + line for line in lines)
            if cond is not None:
                out.append(ind + "if %s:" % cond)
                goto(targets[0], ind + "    ")
            pc = targets[-1]
            if not head <= pc <= end or pc in leaders:
                return goto(pc, ind)

    try:  # a chain of ~100 nested `?:` outgrows Python's nesting limits
        for i, pc in enumerate(leaders):
            out.append("            %s pc == %d:" % ("elif" if i else "if", pc))
            chain(pc, " " * 16)
        out += ["    except Exception:", "        return %d, n" % head]
        fn = _function("\n".join(out))
    except (SyntaxError, RecursionError, MemoryError):
        return (lambda cells: (head, 0)), []
    return fn, [code.caches[g] for g in guards]


@functools.lru_cache(maxsize=256)
def _function(src):
    """The loop function ``src`` defines, once per text: every interp in
    the process shares it (each rep builds fresh interps; the source is
    all a function depends on), and a failed compile is not cached."""
    ns: dict = {"BIG": 1 << 14000, "X": _NotInt()}  # BIG: str() can't fail
    exec(compile(src, "<tcl loop>", "exec"), ns)
    return ns["loop"]
