"""Bytecode representation for the mini-Tcl VM.

A :class:`Code` object is the unit of execution: a flat ``ops`` array of
``(opcode, arg)`` pairs (stored interleaved, so the dispatch loop reads
``ops[pc]``/``ops[pc + 1]`` and advances ``pc`` by 2), a constant pool,
and a list of mutable inline-cache slots.  Code objects are owned by a
single interpreter — the embedded command caches follow the interp's
``cmd_epoch`` invalidation protocol, exactly like the
:class:`~repro.tcl.interp.CompiledCommand` pointer cache.

The compiler (:mod:`repro.tcl.compile`) lowers parsed ``Command`` /
``Word`` / expr ASTs into this form; the VM (:mod:`repro.tcl.vm`) runs
it on an explicit frame stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# --- opcodes -------------------------------------------------------------
# Stack discipline: every command leaves exactly one (str) result on the
# stack; scripts POP between commands and OP_END consumes the last one
# as the script result.

OP_CONST = 1        # push consts[arg]
OP_POP = 2          # drop top of stack
OP_LOAD_NAME = 3    # push interp.get_var(consts[arg])
OP_LOAD_SLOT = 4    # push local slot arg (proc bodies only)
OP_ELOAD_NAME = 5   # expr load: push coerce(get_var(consts[arg]))
OP_ELOAD_SLOT = 6   # expr load: push coerce(slot arg)
OP_SET_NAME = 7     # consts[arg]=(name, line); pop value, set, push it
OP_SET_SLOT = 8     # consts[arg]=(slot, name, line); pop value, set, push
OP_INCR_NAME = 9    # consts[arg]=(name, delta, line, text); push result
OP_INCR_SLOT = 10   # consts[arg]=(slot, name, delta, line, text)
OP_CONCAT = 11      # join top arg values into one string
OP_CALL = 12        # caches[arg]; argv of caches[arg][0] words on stack
OP_CALL_LIT = 13    # caches[arg]; literal argv, nothing on stack
OP_EXEC = 14        # run consts[arg] (a parsed Command) via Interp._run_command
OP_GUARD = 15       # caches[arg]; epoch-check an inlined builtin, else
                    # jump to the EXEC fallback block
OP_JUMP = 16        # pc = arg
OP_JUMP_IF_FALSE = 17  # pop; truthy() false -> pc = arg
OP_JUMP_IF_TRUE = 18   # pop; truthy() true -> pc = arg
OP_PUSH_BLOCK = 19  # consts[arg]=(break_pc, continue_pc); push loop block
OP_POP_BLOCK = 20   # pop loop block
OP_BREAK = 21       # unwind to innermost loop block (may cross procs)
OP_CONTINUE = 22    # unwind to innermost loop block's continue target
OP_RETURN = 23      # pop value; return from the enclosing proc / script
OP_END = 24         # pop value; end of code (script result)
# Lowered expr operators: int/int fast path, else expr._eval_bin.
OP_ADD = 25
OP_SUB = 26
OP_MUL = 27
OP_LT = 28
OP_LE = 29
OP_GT = 30
OP_GE = 31
OP_EQ = 32
OP_NE = 33
OP_BIN = 34         # generic binary: consts[arg] is the operator string
OP_UNARY = 35       # consts[arg] is the operator string (!, ~, -, +)
OP_EVAL_NODE = 36   # push expr.eval_node(interp, consts[arg])
OP_COERCE = 37      # pop v; push expr.coerce(v)  (inline [cmd] in expr)
OP_TO_STR = 38      # pop v; push expr.to_string(v)

NAMES = {
    OP_CONST: "CONST",
    OP_POP: "POP",
    OP_LOAD_NAME: "LOAD_NAME",
    OP_LOAD_SLOT: "LOAD_SLOT",
    OP_ELOAD_NAME: "ELOAD_NAME",
    OP_ELOAD_SLOT: "ELOAD_SLOT",
    OP_SET_NAME: "SET_NAME",
    OP_SET_SLOT: "SET_SLOT",
    OP_INCR_NAME: "INCR_NAME",
    OP_INCR_SLOT: "INCR_SLOT",
    OP_CONCAT: "CONCAT",
    OP_CALL: "CALL",
    OP_CALL_LIT: "CALL_LIT",
    OP_EXEC: "EXEC",
    OP_GUARD: "GUARD",
    OP_JUMP: "JUMP",
    OP_JUMP_IF_FALSE: "JUMP_IF_FALSE",
    OP_JUMP_IF_TRUE: "JUMP_IF_TRUE",
    OP_PUSH_BLOCK: "PUSH_BLOCK",
    OP_POP_BLOCK: "POP_BLOCK",
    OP_BREAK: "BREAK",
    OP_CONTINUE: "CONTINUE",
    OP_RETURN: "RETURN",
    OP_END: "END",
    OP_ADD: "ADD",
    OP_SUB: "SUB",
    OP_MUL: "MUL",
    OP_LT: "LT",
    OP_LE: "LE",
    OP_GT: "GT",
    OP_GE: "GE",
    OP_EQ: "EQ",
    OP_NE: "NE",
    OP_BIN: "BIN",
    OP_UNARY: "UNARY",
    OP_EVAL_NODE: "EVAL_NODE",
    OP_COERCE: "COERCE",
    OP_TO_STR: "TO_STR",
}

_JUMPS = {OP_JUMP, OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE}


@dataclass
class VMStats:
    """Per-interpreter VM counters, folded as ``tcl.vm.*`` in traces."""

    frames: int = 0          # VM proc frames pushed (inline + Python-entered)
    cache_hits: int = 0      # inline command-cache hits
    cache_misses: int = 0    # inline command-cache (re)resolutions
    code_hits: int = 0       # code-cache hits (scripts served compiled)
    code_misses: int = 0     # scripts lowered (first sight or LRU-evicted)
    expr_hits: int = 0       # expr AST cache hits
    expr_misses: int = 0     # expr ASTs parsed
    peephole_ops: int = 0    # ops removed / constants folded by peephole


class Code:
    """One compiled script or proc body.

    * ``ops`` — interleaved (opcode, arg) pairs.
    * ``consts`` — constant pool (strings, tuples, expr nodes,
      parsed-Command fallbacks, proc prototypes).
    * ``caches`` — mutable inline-cache entries for CALL/CALL_LIT/GUARD.
    * ``slot_names`` — local-variable slot table (proc bodies; empty for
      script-context code, which uses the NAME ops against the current
      frame's dict).
    * ``regions`` — ``(start_pc, end_pc, text, line)`` error-decoration
      spans for inlined control commands, innermost first.
    * ``lines`` — ``(pc, line)`` provenance pairs, ascending.
    * ``proto`` — for proc bodies, the arg-count-checked prototype
      ``(name, params, n_params, simple)`` used by the VM's binding
      fast path.
    """

    __slots__ = (
        "ops", "consts", "caches", "slot_names", "regions", "lines",
        "proto", "name", "script",
    )

    def __init__(
        self,
        ops: list,
        consts: list,
        caches: list,
        slot_names: list[str],
        regions: list[tuple[int, int, str, int]],
        lines: list[tuple[int, int]],
        proto: tuple | None = None,
        name: str = "<script>",
        script: str = "",
    ):
        self.ops = ops
        self.consts = consts
        self.caches = caches
        self.slot_names = slot_names
        self.regions = regions
        self.lines = lines
        self.proto = proto
        self.name = name
        self.script = script

    # -- debugging --------------------------------------------------------

    def line_at(self, pc: int) -> int:
        line = 0
        for p, ln in self.lines:
            if p > pc:
                break
            line = ln
        return line

    def dis(self) -> str:
        """Readable disassembly listing (opcode, arg, pool refs, lines)."""
        out = ["%s  (%d ops, %d consts, %d caches, %d slots)" % (
            self.name, len(self.ops) // 2, len(self.consts),
            len(self.caches), len(self.slot_names),
        )]
        if self.proto is not None:
            pname, params, n_params, simple = self.proto
            out.append("  proto: %s {%s}%s" % (
                pname,
                " ".join(p for p, _ in params),
                " [simple]" if simple else "",
            ))
        if self.slot_names:
            out.append("  slots: %s" % ", ".join(
                "%d=%s" % (i, n) for i, n in enumerate(self.slot_names)
            ))
        last_line = None
        ops = self.ops
        for pc in range(0, len(ops), 2):
            op, arg = ops[pc], ops[pc + 1]
            line = self.line_at(pc)
            mark = "%4s" % (line if line != last_line else "")
            last_line = line
            detail = self._detail(op, arg)
            out.append("%s %5d  %-14s %s" % (mark, pc, NAMES.get(op, "?%d" % op), detail))
        for s, t, text, line in self.regions:
            out.append("  region [%d, %d) line %d: %r" % (s, t, line, text))
        return "\n".join(out)

    def _detail(self, op: int, arg: Any) -> str:
        if op in _JUMPS:
            return "-> %d" % arg
        if op == OP_GUARD:
            c = self.caches[arg]
            return "%d (%s, fallback -> %d)" % (arg, c[0], c[5])
        if op == OP_CALL:
            c = self.caches[arg]
            return "%d (argc=%d, line %d)" % (arg, c[0], c[1])
        if op == OP_CALL_LIT:
            # cache layout: [argv, tail, line, epoch, ns, mode, payload]
            c = self.caches[arg]
            return "%d (%s, line %d)" % (arg, _trunc(" ".join(c[0])), c[2])
        if op == OP_LOAD_SLOT or op == OP_ELOAD_SLOT:
            return "%d (%s)" % (arg, self.slot_names[arg])
        if op == OP_EXEC:
            lits = [w.literal for w in self.consts[arg].words]
            what = "<dynamic>" if None in lits else " ".join(lits)
            return "%d (%s)" % (arg, _trunc(what))
        if op in (OP_CONCAT,):
            return "%d" % arg
        if op in (OP_POP, OP_POP_BLOCK, OP_BREAK, OP_CONTINUE,
                  OP_RETURN, OP_END, OP_COERCE, OP_TO_STR,
                  OP_ADD, OP_SUB, OP_MUL, OP_LT, OP_LE, OP_GT, OP_GE,
                  OP_EQ, OP_NE):
            return ""
        if op in (OP_CONST, OP_LOAD_NAME, OP_ELOAD_NAME, OP_SET_NAME,
                  OP_SET_SLOT, OP_INCR_NAME, OP_INCR_SLOT, OP_BIN,
                  OP_UNARY, OP_EVAL_NODE, OP_PUSH_BLOCK):
            return "%d (%s)" % (arg, _trunc(repr(self.consts[arg])))
        return "%d" % arg


def _trunc(s: str, n: int = 48) -> str:
    s = s.replace("\n", "\\n")
    return s if len(s) <= n else s[: n - 3] + "..."
