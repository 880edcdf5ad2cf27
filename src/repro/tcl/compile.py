"""Lowering from parsed mini-Tcl ASTs to :mod:`repro.tcl.bytecode`.

The compiler turns the parser's ``Command``/``Word`` structures (and
:mod:`repro.tcl.expr` ASTs for conditions and ``expr`` arguments) into
flat bytecode:

* **Local-variable slots** — proc bodies resolve plain variable names
  to integer slots at compile time; the VM keeps a per-frame cell
  vector instead of per-access dict lookups.  Script-context code
  (top-level ``eval`` bodies) stays frame-agnostic and uses the
  ``*_NAME`` ops.
* **Inlined builtins** — ``set``/``incr``/``expr``/``if``/``while``/
  ``for``/``return``/``break``/``continue`` with literal shapes lower
  to dedicated opcodes behind an epoch-checked ``GUARD``; if any of
  them is renamed or shadowed the guard diverts to an ``EXEC``
  fallback that runs the parsed :class:`Command` through the oracle's
  own ``Interp._run_command``, preserving exact semantics.
* **Expr lowering** — precompiled expression trees become stack ops
  with int/int fast paths; constant subtrees fold at compile time.
* **Peephole pass** — jump threading, jump-to-next removal, and
  dead-code elision after unconditional exits (ops after a ``RETURN``
  are deleted outright).

Command substitutions, ``if``/loop bodies, and multi-command words are
all inlined into the *same* code object — the VM never recurses into
Python to run them.  Anything the compiler cannot prove safe (``{*}``
expansion, dynamic command names for builtins, unparseable sub-scripts)
falls back to ``EXEC``/generic-``CALL``, so behaviour is always the
interpreted walk's.
"""

from __future__ import annotations

from typing import Any

from .bytecode import (
    Code,
    OP_ADD, OP_BIN, OP_BREAK, OP_CALL, OP_CALL_LIT, OP_COERCE, OP_CONCAT,
    OP_CONST, OP_CONTINUE, OP_ELOAD_NAME, OP_ELOAD_SLOT, OP_END, OP_EQ,
    OP_EVAL_NODE, OP_EXEC, OP_GE, OP_GT, OP_GUARD, OP_INCR_NAME,
    OP_INCR_SLOT, OP_JUMP, OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE, OP_LE,
    OP_LOAD_NAME, OP_LOAD_SLOT, OP_LT, OP_MUL, OP_NE, OP_POP,
    OP_POP_BLOCK, OP_PUSH_BLOCK, OP_RETURN, OP_SET_NAME, OP_SET_SLOT,
    OP_SUB, OP_TO_STR, OP_UNARY,
)
from .errors import TclError
from .expr import compile_expr, _eval_bin, eval_unary, parse_number
from .interp import _abbrev
from .parser import Command, TclParseError, Word, parse_cached

# Ops after which control never falls through to the next instruction.
_TERMINATORS = {OP_JUMP, OP_BREAK, OP_CONTINUE, OP_RETURN, OP_END}
_JUMP_OPS = {OP_JUMP, OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE}

_TYPED_BIN = {
    "+": OP_ADD, "-": OP_SUB, "*": OP_MUL,
    "<": OP_LT, "<=": OP_LE, ">": OP_GT, ">=": OP_GE,
    "==": OP_EQ, "!=": OP_NE,
}


class _Fallback(Exception):
    """Internal: abandon the fast lowering of one command."""


class Label:
    __slots__ = ("pos",)

    def __init__(self):
        self.pos = -1


class _Asm:
    """Instruction-list assembler with labels, interning, and peephole."""

    def __init__(self):
        self.instrs: list = []  # [op, arg, line] lists interleaved with Labels
        self.consts: list = []
        self._interned: dict = {}
        self.caches: list = []
        self.regions: list = []  # (start Label, end Label, text, line)
        self._blocks: list[int] = []  # const idxs holding (Label, Label)
        self.line = 0
        self.removed = 0  # peephole-eliminated ops (+ folded constants)

    def emit(self, op: int, arg: Any = 0) -> None:
        self.instrs.append([op, arg, self.line])

    def mark(self, label: Label) -> None:
        self.instrs.append(label)

    def const(self, v: Any) -> int:
        try:
            key = (type(v).__name__, v)
            idx = self._interned.get(key)
        except TypeError:
            key, idx = None, None
        if idx is None:
            idx = len(self.consts)
            self.consts.append(v)
            if key is not None:
                self._interned[key] = idx
        return idx

    def rconst(self, v: Any) -> int:
        """Un-interned constant slot (patched at layout time)."""
        self.consts.append(v)
        return len(self.consts) - 1

    def block_const(self, brk: Label, cont: Label) -> int:
        idx = self.rconst((brk, cont))
        self._blocks.append(idx)
        return idx

    def cache(self, entry: list) -> int:
        self.caches.append(entry)
        return len(self.caches) - 1

    def checkpoint(self) -> tuple[int, int]:
        return (len(self.instrs), len(self.regions))

    def rollback(self, cp: tuple[int, int]) -> None:
        del self.instrs[cp[0]:]
        del self.regions[cp[1]:]

    def region(self, start: Label, end: Label, text: str, line: int) -> None:
        self.regions.append((start, end, text, line))

    # -- peephole + layout -------------------------------------------------

    def _label_pos(self) -> dict:
        return {
            item: i
            for i, item in enumerate(self.instrs)
            if isinstance(item, Label)
        }

    def _next_real(self, i: int) -> int:
        instrs = self.instrs
        while i < len(instrs) and isinstance(instrs[i], Label):
            i += 1
        return i

    def _thread_jumps(self) -> None:
        pos = self._label_pos()
        for item in self.instrs:
            if isinstance(item, Label) or item[0] not in _JUMP_OPS:
                continue
            seen = set()
            target = item[1]
            while isinstance(target, Label) and target not in seen:
                seen.add(target)
                j = self._next_real(pos.get(target, len(self.instrs)))
                if j >= len(self.instrs):
                    break
                nxt = self.instrs[j]
                if nxt[0] == OP_JUMP and nxt[1] is not target:
                    target = nxt[1]
                    self.removed += 1
                else:
                    break
            item[1] = target

    def _drop_dead(self) -> None:
        out: list = []
        reachable = True
        for item in self.instrs:
            if isinstance(item, Label):
                out.append(item)
                reachable = True
                continue
            if not reachable:
                self.removed += 1
                continue
            out.append(item)
            if item[0] in _TERMINATORS:
                reachable = False
        self.instrs = out

    def _drop_jump_to_next(self) -> None:
        pos = self._label_pos()
        out: list = []
        for i, item in enumerate(self.instrs):
            if (
                not isinstance(item, Label)
                and item[0] == OP_JUMP
                and isinstance(item[1], Label)
                and self._next_real(pos.get(item[1], -1))
                == self._next_real(i + 1)
            ):
                self.removed += 1
                continue
            out.append(item)
        self.instrs = out

    def finalize(
        self,
        slot_names: list[str],
        proto: tuple | None,
        name: str,
        script: str,
    ) -> Code:
        # Straight-line code (no inlined control flow emits no labels)
        # has nothing for the peephole passes to do; skipping them
        # keeps one-shot script compiles cheap.
        if any(isinstance(item, Label) for item in self.instrs):
            for _ in range(2):
                self._thread_jumps()
                self._drop_jump_to_next()
                self._drop_dead()
        # Layout: assign pcs, resolve labels.
        pc = 0
        for item in self.instrs:
            if isinstance(item, Label):
                item.pos = pc
            else:
                pc += 2
        ops: list = []
        lines: list[tuple[int, int]] = []
        last_line = None
        for item in self.instrs:
            if isinstance(item, Label):
                continue
            op, arg, line = item
            if isinstance(arg, Label):
                arg = arg.pos
            if line != last_line:
                lines.append((len(ops), line))
                last_line = line
            ops.append(op)
            ops.append(arg)
        for c in self.caches:
            if len(c) == 6 and isinstance(c[5], Label):
                c[5] = c[5].pos
        for idx in self._blocks:
            brk, cont = self.consts[idx]
            self.consts[idx] = (brk.pos, cont.pos)
        regions = [
            (s.pos, e.pos, text, line)
            for s, e, text, line in self.regions
            if s.pos < e.pos
        ]
        return Code(
            ops, self.consts, self.caches, slot_names, regions, lines,
            proto=proto, name=name, script=script,
        )


class Compiler:
    """Lower a parsed command list into one :class:`Code` object."""

    def __init__(self, proc_mode: bool = False):
        self.asm = _Asm()
        # Local slot table: proc bodies only.  Script-context code runs
        # against whatever frame is current, so names stay dynamic.
        self.slots: dict[str, int] | None = {} if proc_mode else None

    # -- variables --------------------------------------------------------

    def _slot(self, name: str) -> int | None:
        if self.slots is None or not name or "::" in name:
            return None
        idx = self.slots.get(name)
        if idx is None:
            idx = self.slots[name] = len(self.slots)
        return idx

    def _load(self, name: str, expr: bool = False) -> None:
        si = self._slot(name)
        if si is not None:
            self.asm.emit(OP_ELOAD_SLOT if expr else OP_LOAD_SLOT, si)
        else:
            self.asm.emit(
                OP_ELOAD_NAME if expr else OP_LOAD_NAME, self.asm.const(name)
            )

    # -- words ------------------------------------------------------------

    def word(self, w: Word) -> None:
        """Emit ops leaving the word's (string) value on the stack."""
        asm = self.asm
        if w.literal is not None:
            asm.emit(OP_CONST, asm.const(w.literal))
            return
        segs = w.segments
        for kind, text in segs:
            if kind == "lit":
                asm.emit(OP_CONST, asm.const(text))
            elif kind == "var":
                self._load(text)
            else:  # cmd substitution: inline the sub-script
                self.inline_script(text)
        if len(segs) > 1:
            asm.emit(OP_CONCAT, len(segs))
        elif not segs:
            asm.emit(OP_CONST, asm.const(""))

    def inline_script(self, text: str) -> None:
        """Inline a sub-script; leaves its result on the stack."""
        try:
            cmds = parse_cached(text)
        except TclParseError:
            raise _Fallback from None
        self.script_push(cmds)

    def script_push(self, cmds: list[Command]) -> None:
        if not cmds:
            self.asm.emit(OP_CONST, self.asm.const(""))
            return
        last = len(cmds) - 1
        for i, c in enumerate(cmds):
            self.command(c)
            if i != last:
                self.asm.emit(OP_POP, 0)

    def script_discard(self, cmds: list[Command]) -> None:
        for c in cmds:
            self.command(c)
            self.asm.emit(OP_POP, 0)

    # -- commands ---------------------------------------------------------

    def command(self, cmd: Command) -> None:
        """Compile one command; leaves exactly one value on the stack."""
        cp = self.asm.checkpoint()
        try:
            self._command_fast(cmd)
        except _Fallback:
            self.asm.rollback(cp)
            self._exec(cmd)

    def _exec(self, cmd: Command) -> None:
        self.asm.line = cmd.line
        self.asm.emit(OP_EXEC, self.asm.rconst(cmd))

    def _command_fast(self, cmd: Command) -> None:
        words = cmd.words
        asm = self.asm
        asm.line = cmd.line
        if not words:
            asm.emit(OP_CONST, asm.const(""))
            return
        if any(w.expand for w in words):
            raise _Fallback  # {*} expansion: _run_command handles it exactly
        name = words[0].literal
        if name is not None and "::" not in name:
            handler = _INLINE.get(name)
            if handler is not None and handler(self, cmd):
                return
        if all(w.literal is not None for w in words):
            argv = [w.literal for w in words]  # type: ignore[misc]
            ci = asm.cache([argv, argv[1:], cmd.line, -1, None, 0, None])
            asm.emit(OP_CALL_LIT, ci)
            return
        for w in words:
            self.word(w)
        ci = asm.cache([len(words), cmd.line, -1, None, None, 0, None])
        asm.emit(OP_CALL, ci)

    # -- inlined builtins --------------------------------------------------
    # Each handler returns True when it emitted the command, False to use
    # the generic CALL path (shape not eligible — including shapes whose
    # runtime outcome is a wrong-args error, which the generic path
    # reproduces exactly), or raises _Fallback to defer to EXEC.

    def _guard(self, cmd: Command, name: str) -> tuple[Label, Label, Label]:
        """Emit GUARD; returns (region_start, fallback, join) labels.

        Call ``_close_guard`` after emitting the fast path.
        """
        fb, join, rs = Label(), Label(), Label()
        gc = self.asm.cache([name, name, -1, None, False, fb])
        self.asm.emit(OP_GUARD, gc)
        self.asm.mark(rs)
        return rs, fb, join

    def _close_guard(
        self, cmd: Command, labels: tuple[Label, Label, Label],
        region_text: str | None = None,
    ) -> None:
        rs, fb, join = labels
        self.asm.emit(OP_JUMP, join)
        if region_text is not None:
            self.asm.region(rs, fb, region_text, cmd.line)
        self.asm.mark(fb)
        self._exec(cmd)
        self.asm.mark(join)

    def _in_set(self, cmd: Command) -> bool:
        words = cmd.words
        if len(words) != 3 or words[1].literal is None:
            return False
        name = words[1].literal
        labels = self._guard(cmd, "set")
        self.word(words[2])
        si = self._slot(name)
        if si is not None:
            self.asm.emit(OP_SET_SLOT, self.asm.const((si, name, cmd.line)))
        else:
            self.asm.emit(OP_SET_NAME, self.asm.const((name, cmd.line)))
        self._close_guard(cmd, labels)
        return True

    def _in_incr(self, cmd: Command) -> bool:
        words = cmd.words
        if (
            len(words) not in (2, 3)
            or words[1].literal is None
            or (len(words) == 3 and words[2].literal is None)
        ):
            return False
        name = words[1].literal
        delta = 1
        if len(words) == 3:
            d = parse_number(words[2].literal)  # type: ignore[arg-type]
            if not isinstance(d, int):
                return False  # runtime "expected integer" via generic CALL
            delta = d
        text = _abbrev([w.literal for w in words])  # type: ignore[misc]
        labels = self._guard(cmd, "incr")
        si = self._slot(name)
        if si is not None:
            self.asm.emit(
                OP_INCR_SLOT,
                self.asm.const((si, name, delta, cmd.line, text)),
            )
        else:
            self.asm.emit(
                OP_INCR_NAME, self.asm.const((name, delta, cmd.line, text))
            )
        self._close_guard(cmd, labels)
        return True

    def _in_expr(self, cmd: Command) -> bool:
        words = cmd.words
        if len(words) != 2 or words[1].literal is None:
            return False
        try:
            node = compile_expr(words[1].literal)
        except TclError:
            raise _Fallback from None
        text = _abbrev(["expr", words[1].literal])
        labels = self._guard(cmd, "expr")
        self.lower_expr(node)
        self.asm.emit(OP_TO_STR, 0)
        self._close_guard(cmd, labels, region_text=text)
        return True

    def _in_if(self, cmd: Command) -> bool:
        words = cmd.words
        if any(w.literal is None for w in words):
            return False
        args = [w.literal for w in words[1:]]
        # Statically replicate cmd_if's argument walk.
        chains: list[tuple[Any, list[Command]]] = []
        else_cmds: list[Command] | None = None
        i, n = 0, len(args)
        try:
            while i < n:
                cond = args[i]
                i += 1
                if i < n and args[i] == "then":
                    i += 1
                if i >= n:
                    return False  # runtime wrong-args via generic CALL
                body = args[i]
                i += 1
                chains.append((compile_expr(cond), parse_cached(body)))
                if i < n and args[i] == "elseif":
                    i += 1
                    continue
                if i < n and args[i] == "else":
                    i += 1
                    if i >= n:
                        return False
                    else_cmds = parse_cached(args[i])
                elif i < n:
                    else_cmds = parse_cached(args[i])  # bare trailing body
                break
        except (TclError, TclParseError):
            raise _Fallback from None
        text = _abbrev([w.literal for w in words])  # type: ignore[misc]
        asm = self.asm
        labels = self._guard(cmd, "if")
        join = Label()
        for node, body_cmds in chains:
            nxt = Label()
            self.lower_expr(node)
            asm.emit(OP_JUMP_IF_FALSE, nxt)
            self.script_push(body_cmds)
            asm.emit(OP_JUMP, join)
            asm.mark(nxt)
        if else_cmds is not None:
            self.script_push(else_cmds)
        else:
            asm.emit(OP_CONST, asm.const(""))
        asm.mark(join)
        self._close_guard(cmd, labels, region_text=text)
        return True

    def _in_while(self, cmd: Command) -> bool:
        words = cmd.words
        if len(words) != 3 or any(w.literal is None for w in words):
            return False
        try:
            cnode = compile_expr(words[1].literal)  # type: ignore[arg-type]
            body_cmds = parse_cached(words[2].literal)  # type: ignore[arg-type]
        except (TclError, TclParseError):
            raise _Fallback from None
        text = _abbrev([w.literal for w in words])  # type: ignore[misc]
        asm = self.asm
        labels = self._guard(cmd, "while")
        top, cont, brk, exit_ = Label(), Label(), Label(), Label()
        asm.mark(top)
        self.lower_expr(cnode)
        asm.emit(OP_JUMP_IF_FALSE, exit_)
        # The block covers the body only: break/continue raised during
        # the condition propagate out, matching cmd_while's try placement.
        asm.emit(OP_PUSH_BLOCK, asm.block_const(brk, cont))
        self.script_discard(body_cmds)
        asm.mark(cont)
        asm.emit(OP_POP_BLOCK, 0)
        asm.emit(OP_JUMP, top)
        asm.mark(brk)
        asm.emit(OP_POP_BLOCK, 0)
        asm.mark(exit_)
        asm.emit(OP_CONST, asm.const(""))
        self._close_guard(cmd, labels, region_text=text)
        return True

    def _in_for(self, cmd: Command) -> bool:
        words = cmd.words
        if len(words) != 5 or any(w.literal is None for w in words):
            return False
        try:
            start_cmds = parse_cached(words[1].literal)  # type: ignore[arg-type]
            tnode = compile_expr(words[2].literal)  # type: ignore[arg-type]
            next_cmds = parse_cached(words[3].literal)  # type: ignore[arg-type]
            body_cmds = parse_cached(words[4].literal)  # type: ignore[arg-type]
        except (TclError, TclParseError):
            raise _Fallback from None
        text = _abbrev([w.literal for w in words])  # type: ignore[misc]
        asm = self.asm
        labels = self._guard(cmd, "for")
        top, cont, brk, exit_ = Label(), Label(), Label(), Label()
        self.script_discard(start_cmds)
        asm.mark(top)
        self.lower_expr(tnode)
        asm.emit(OP_JUMP_IF_FALSE, exit_)
        asm.emit(OP_PUSH_BLOCK, asm.block_const(brk, cont))
        self.script_discard(body_cmds)
        asm.mark(cont)  # continue still runs the next-script (cmd_for)
        asm.emit(OP_POP_BLOCK, 0)
        self.script_discard(next_cmds)
        asm.emit(OP_JUMP, top)
        asm.mark(brk)
        asm.emit(OP_POP_BLOCK, 0)
        asm.mark(exit_)
        asm.emit(OP_CONST, asm.const(""))
        self._close_guard(cmd, labels, region_text=text)
        return True

    def _in_return(self, cmd: Command) -> bool:
        words = cmd.words
        if len(words) > 2:
            return False  # -code forms raise TclReturn via the fn path
        labels = self._guard(cmd, "return")
        if len(words) == 2:
            self.word(words[1])
        else:
            self.asm.emit(OP_CONST, self.asm.const(""))
        self.asm.emit(OP_RETURN, 0)
        self._close_guard(cmd, labels)
        return True

    def _in_break(self, cmd: Command) -> bool:
        if len(cmd.words) != 1:
            return False
        labels = self._guard(cmd, "break")
        self.asm.emit(OP_BREAK, 0)
        self._close_guard(cmd, labels)
        return True

    def _in_continue(self, cmd: Command) -> bool:
        if len(cmd.words) != 1:
            return False
        labels = self._guard(cmd, "continue")
        self.asm.emit(OP_CONTINUE, 0)
        self._close_guard(cmd, labels)
        return True

    # -- expr lowering ----------------------------------------------------

    def lower_expr(self, node: tuple) -> None:
        """Emit ops leaving the expression's raw value on the stack."""
        asm = self.asm
        kind = node[0]
        if kind == "num" or kind == "str":
            asm.emit(OP_CONST, asm.const(node[1]))
        elif kind == "var":
            self._load(node[1], expr=True)
        elif kind == "bin":
            op = node[1]
            if op == "&&":
                false_, end = Label(), Label()
                self.lower_expr(node[2])
                asm.emit(OP_JUMP_IF_FALSE, false_)
                self.lower_expr(node[3])
                asm.emit(OP_JUMP_IF_FALSE, false_)
                asm.emit(OP_CONST, asm.const(1))
                asm.emit(OP_JUMP, end)
                asm.mark(false_)
                asm.emit(OP_CONST, asm.const(0))
                asm.mark(end)
                return
            if op == "||":
                true_, end = Label(), Label()
                self.lower_expr(node[2])
                asm.emit(OP_JUMP_IF_TRUE, true_)
                self.lower_expr(node[3])
                asm.emit(OP_JUMP_IF_TRUE, true_)
                asm.emit(OP_CONST, asm.const(0))
                asm.emit(OP_JUMP, end)
                asm.mark(true_)
                asm.emit(OP_CONST, asm.const(1))
                asm.mark(end)
                return
            a, b = node[2], node[3]
            if a[0] == "num" and b[0] == "num":
                # Constant folding — but only when evaluation cannot
                # raise (a folded divide-by-zero would lose the runtime
                # error the interpreted walk reports on every execution).
                try:
                    v = _eval_bin(op, a[1], b[1])
                except TclError:
                    pass
                else:
                    asm.emit(OP_CONST, asm.const(v))
                    asm.removed += 1
                    return
            self.lower_expr(a)
            self.lower_expr(b)
            topcode = _TYPED_BIN.get(op)
            if topcode is not None:
                asm.emit(topcode, 0)
            else:
                asm.emit(OP_BIN, asm.const(op))
        elif kind == "un":
            sub = node[2]
            if sub[0] == "num":
                try:
                    v = eval_unary(node[1], sub[1])
                except TclError:
                    pass
                else:
                    asm.emit(OP_CONST, asm.const(v))
                    asm.removed += 1
                    return
            self.lower_expr(sub)
            asm.emit(OP_UNARY, asm.const(node[1]))
        elif kind == "tern":
            false_, end = Label(), Label()
            self.lower_expr(node[1])
            asm.emit(OP_JUMP_IF_FALSE, false_)
            self.lower_expr(node[2])
            asm.emit(OP_JUMP, end)
            asm.mark(false_)
            self.lower_expr(node[3])
            asm.mark(end)
        elif kind == "cmdsub":
            try:
                cmds = parse_cached(node[1])
            except TclParseError:
                # Defer to the expr evaluator: the parse error (wrapped
                # as TclError) must surface at evaluation time.
                asm.emit(OP_EVAL_NODE, asm.rconst(node))
                return
            self.script_push(cmds)
            asm.emit(OP_COERCE, 0)
        else:  # fn calls and anything else: tree-evaluate the subtree
            asm.emit(OP_EVAL_NODE, asm.rconst(node))

    # -- entry ------------------------------------------------------------

    def finish(
        self, name: str, script: str, proto: tuple | None = None
    ) -> Code:
        self.asm.emit(OP_END, 0)
        slot_names = [""] * len(self.slots) if self.slots else []
        if self.slots:
            for n, i in self.slots.items():
                slot_names[i] = n
        return self.asm.finalize(slot_names, proto, name, script)


_INLINE = {
    "set": Compiler._in_set,
    "incr": Compiler._in_incr,
    "expr": Compiler._in_expr,
    "if": Compiler._in_if,
    "while": Compiler._in_while,
    "for": Compiler._in_for,
    "return": Compiler._in_return,
    "break": Compiler._in_break,
    "continue": Compiler._in_continue,
}


def compile_script_code(interp, script: str, name: str = "<script>") -> Code:
    """Compile a script-context (frame-agnostic) :class:`Code` object."""
    try:
        cmds = parse_cached(script)
    except TclParseError as e:
        raise TclError(str(e)) from None
    c = Compiler(proc_mode=False)
    c.script_push(cmds)
    code = c.finish(name, script)
    interp.vm_stats.peephole_ops += c.asm.removed
    return code


def compile_proc_code(interp, proc) -> Code | None:
    """Compile a proc body with local slots; None if the body won't parse
    (``interp.eval(body)`` then reports the parse error at call time)."""
    try:
        cmds = parse_cached(proc.body)
    except TclParseError:
        return None
    c = Compiler(proc_mode=True)
    for pname, _default in proc.params:
        if c._slot(pname) is None:
            return None  # qualified/empty param name: generic binding
    if len(c.slots or {}) != len(proc.params):
        return None  # duplicate param names: generic binding semantics
    c.script_push(cmds)
    proto = (proc.name, proc.params, len(proc.params), proc._simple)
    code = c.finish("<proc %s>" % proc.name, proc.body, proto=proto)
    interp.vm_stats.peephole_ops += c.asm.removed
    return code
