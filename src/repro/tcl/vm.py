"""The mini-Tcl bytecode VM.

Runs :class:`~repro.tcl.bytecode.Code` on an explicit frame stack: a
Tcl proc calling another Tcl proc pushes a :class:`VMFrame` inside the
same dispatch loop — no Python recursion — so deep Tcl recursion is
bounded by ``Interp.FRAME_LIMIT`` (a catchable :class:`TclError`), not
by CPython's recursion limit.

Command resolution goes through per-site inline caches validated
against the interp's ``cmd_epoch``/current-namespace (the same
invalidation protocol as the ``CompiledCommand`` pointer cache), so
``proc`` redefinition and ``rename`` take effect at every call site
immediately.  Caches resolve to one of four modes:

* 1 — plain command function (builtins, procs whose body the
  compiler declined);
* 2 — VM-compiled proc, run as an inline frame;
* 3 — *trivial* proc whose whole body is ``return $param`` or
  ``return <literal>``: the call site pushes the result directly with
  no frame at all;
* 0 — unresolved (unknown command; never cached).

Error decoration mirrors the interpreted walk exactly: CALL sites wrap
the callee like ``Interp._run_command``; inlined control constructs
carry static ``(pc-range, text, line)`` regions applied innermost-first
while unwinding; proc frames append their call-site line as they pop.
"""

from __future__ import annotations

from .bytecode import (
    OP_ADD, OP_BIN, OP_BREAK, OP_CALL, OP_CALL_LIT, OP_COERCE, OP_CONCAT,
    OP_CONST, OP_CONTINUE, OP_ELOAD_NAME, OP_ELOAD_SLOT, OP_END, OP_EQ,
    OP_EVAL_NODE, OP_EXEC, OP_GE, OP_GT, OP_GUARD, OP_INCR_NAME,
    OP_INCR_SLOT, OP_JUMP, OP_JUMP_IF_FALSE, OP_JUMP_IF_TRUE, OP_LE,
    OP_LOAD_NAME, OP_LOAD_SLOT, OP_LT, OP_MUL, OP_NE, OP_POP,
    OP_POP_BLOCK, OP_PUSH_BLOCK, OP_RETURN, OP_SET_NAME, OP_SET_SLOT,
    OP_SUB, OP_TO_STR, OP_UNARY,
)
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import (
    _eval_bin, coerce, eval_node, eval_unary, parse_number, to_string,
    truthy,
)
from .interp import Frame, TclProc, Var, _abbrev


class VMFrame(Frame):
    """One VM activation: a Tcl frame fused with its VM state.

    Subclassing :class:`Frame` lets proc activations go straight onto
    ``interp.frames`` (upvar/uplevel and EXEC fallbacks see a normal
    frame) without a second allocation.

    ``kind`` 0 = script root (entered via ``Interp.eval``; runs against
    the *caller's* Tcl frame — ``tclframe`` points elsewhere), 1 = proc
    root (entered from Python via :func:`call_proc`, which owns the Tcl
    frame push/pop), 2 = proc called inline from another VM frame (the
    dispatch loop owns the push/pop).
    """

    __slots__ = (
        "code", "stack", "pc", "tclframe", "prev_ns", "kind", "dec",
        "blocks", "cells", "cellsv",
    )

    def __init__(self, code, ns, label, kind, prev_ns, dec):
        self.vars = {}
        self.ns = ns
        self.label = label
        self.version = 0
        self.code = code
        self.stack = []
        self.pc = 0
        # None means "this frame is its own Tcl frame" (kinds 1 and 2).
        # Storing `self` here would make every activation a reference
        # cycle, turning each proc call into cycle-collector garbage —
        # the GC churn costs more than the whole dispatch loop.  Read
        # sites resolve with `f.tclframe or f`.
        self.tclframe = None
        self.prev_ns = prev_ns
        self.kind = kind
        self.dec = dec  # (argv, line) of the call site, for unwinding
        self.blocks = []  # (break_pc, continue_pc, stack_depth)
        self.cells = []
        self.cellsv = 0


def proc_code(interp, proc):
    """The proc's VM code for this interp; None if the body won't parse."""
    code = proc._vm_code
    if code is not None and proc._vm_code_interp is interp:
        return code or None  # False marks an unparseable body
    from .compile import compile_proc_code

    code = compile_proc_code(interp, proc)
    proc._vm_code = code if code is not None else False
    proc._vm_code_interp = interp
    return code


def _trivial(interp, proc, code):
    """Detect a body that is exactly ``return $param`` / ``return <lit>``.

    Returns ``(0, slot, n_params, proc, code)`` or
    ``(1, value, n_params, proc, code)``, or None.  Validity holds for
    the lifetime of the enclosing call cache: the body's own
    ``return``-guard depends only on ``cmd_epoch`` and the proc's
    namespace, both fixed while the cache entry is fresh.
    """
    if not proc._simple:
        return None
    ops = code.ops
    if len(ops) < 6 or ops[0] != OP_GUARD or ops[4] != OP_RETURN:
        return None
    if code.caches[ops[1]][1] != "return":
        return None
    if ops[2] == OP_LOAD_SLOT:
        if ops[3] >= len(proc.params):
            return None  # returns a non-param local: must error at runtime
        triv = (0, ops[3], len(proc.params), proc, code)
    elif ops[2] == OP_CONST:
        triv = (1, code.consts[ops[3]], len(proc.params), proc, code)
    else:
        return None
    # `return` must still be the builtin as seen from the proc's ns.
    fn_r = None
    if proc.ns.name:
        fn_r = interp.commands.get(proc.ns.name + "::return")
    if fn_r is None:
        fn_r = interp.commands.get("return")
    if getattr(fn_r, "vm_builtin", None) != "return":
        return None
    return triv


def _classify(interp, fn):
    if isinstance(fn, TclProc):
        code = proc_code(interp, fn)
        if code is not None:
            triv = _trivial(interp, fn, code)
            if triv is not None:
                return 3, triv
            return 2, (fn, code)
    return 1, fn


def _resolve(interp, c, name):
    """(Re)fill a CALL inline cache; returns the dispatch mode."""
    fn = interp.lookup_command(name)
    if fn is None:
        return 0  # unknown command: never cached
    mode, payload = _classify(interp, fn)
    c[2] = interp.cmd_epoch
    c[3] = interp.current_ns
    c[4] = name
    c[5] = mode
    c[6] = payload
    return mode


def _resolve_lit(interp, c):
    fn = interp.lookup_command(c[0][0])
    if fn is None:
        return 0
    mode, payload = _classify(interp, fn)
    c[3] = interp.cmd_epoch
    c[4] = interp.current_ns
    c[5] = mode
    c[6] = payload
    return mode


def _bind_slow(proc, frame, args, cells):
    """Default/varargs binding: the oracle's, plus the slot cells."""
    fv = frame.vars
    proc.bind(fv, args)
    for i, pname in enumerate(proc._names):
        cells[i] = fv[pname]


def call_proc(interp, proc, code, args):
    """Run a proc body on the VM, entered from Python (mirrors
    ``TclProc.__call__``: binding errors surface before the frame push,
    ``return -code error`` converts at the proc boundary)."""
    f = VMFrame(code, proc.ns, proc.name, 1, interp.current_ns, None)
    n_slots = len(code.slot_names)
    if proc._simple and len(args) == len(proc.params):
        cells = [Var(a) for a in args]
        f.vars = dict(zip(proc._names, cells))
        if len(cells) < n_slots:
            cells.extend([None] * (n_slots - len(cells)))
    else:
        cells = [None] * n_slots
        _bind_slow(proc, f, args, cells)
    f.cells = cells
    if len(interp.frames) >= interp.FRAME_LIMIT:
        raise TclError("too many nested evaluations (infinite loop?)")
    interp.frames.append(f)
    saved_ns = interp.current_ns
    interp.current_ns = proc.ns
    interp.vm_stats.frames += 1
    try:
        return run(interp, f)
    except TclReturn as r:
        if r.code == 1:
            raise TclError(r.value) from None
        return r.value
    finally:
        interp.frames.pop()
        interp.current_ns = saved_ns


def run_script(interp, code):
    """Run script-context code against the current Tcl frame."""
    tclframe = interp.frames[-1]
    f = VMFrame(code, tclframe.ns, "<script>", 0, None, None)
    f.tclframe = tclframe
    return run(interp, f)


def _raise_unwound(interp, frames, f, epc, e):
    """Decorate a TclError like the interpreted call chain would, popping any
    inline proc frames, then raise it."""
    while True:
        for s, t, text, line in f.code.regions:
            if s <= epc < t:
                e.add_info('"%s" (line %d)' % (text, line))
        if f.kind != 2:
            raise e
        interp.frames.pop()
        interp.current_ns = f.prev_ns
        argv, line = f.dec
        e.add_info('"%s" (line %d)' % (_abbrev(argv), line))
        frames.pop()
        f = frames[-1]
        epc = f.pc - 2


def run(interp, root):
    frames = [root]
    f = root
    code = f.code
    ops = code.ops
    consts = code.consts
    caches = code.caches
    stack = f.stack
    cells = f.cells
    cellsv = f.cellsv
    tclframe = f.tclframe or f
    pc = 0
    ic_hits = 0
    frames_pushed = 0
    vmstats = interp.vm_stats
    try:
        while True:
            try:
                while True:
                    op = ops[pc]
                    arg = ops[pc + 1]
                    pc += 2
                    if op == OP_LOAD_SLOT:
                        v = tclframe.version
                        if v != cellsv:
                            cells = f.cells = [None] * len(cells)
                            cellsv = f.cellsv = v
                        cell = cells[arg]
                        if cell is None:
                            name = code.slot_names[arg]
                            cell = tclframe.vars.get(name)
                            if cell is None:
                                raise TclError(
                                    'can\'t read "%s": no such variable'
                                    % name
                                )
                            cells[arg] = cell
                        stack.append(cell.value)
                    elif op == OP_CONST:
                        stack.append(consts[arg])
                    elif op == OP_CALL_LIT or op == OP_CALL:
                        c = caches[arg]
                        if op == OP_CALL_LIT:
                            # [argv, tail, line, epoch, ns, mode, payload]
                            argv = c[0]
                            tail = c[1]
                            line = c[2]
                            if (
                                c[3] == interp.cmd_epoch
                                and c[4] is interp.current_ns
                            ):
                                mode = c[5]
                                ic_hits += 1
                            else:
                                mode = _resolve_lit(interp, c)
                                vmstats.cache_misses += 1
                        else:
                            # [argc, line, epoch, ns, name, mode, payload]
                            argc = c[0]
                            argv = stack[-argc:]
                            del stack[-argc:]
                            tail = None
                            line = c[1]
                            if (
                                c[2] == interp.cmd_epoch
                                and c[3] is interp.current_ns
                                and c[4] == argv[0]
                            ):
                                mode = c[5]
                                ic_hits += 1
                            else:
                                mode = _resolve(interp, c, argv[0])
                                vmstats.cache_misses += 1
                        if mode == 3:
                            t3 = c[6]
                            if len(argv) - 1 == t3[2]:
                                stack.append(
                                    argv[t3[1] + 1] if t3[0] == 0 else t3[1]
                                )
                                continue
                            proc = t3[3]  # wrong arity: bind for the error
                            pcode = t3[4]
                            mode = 2
                        elif mode == 2:
                            proc, pcode = c[6]
                        if mode == 2:
                            args = tail if tail is not None else argv[1:]
                            try:
                                if len(interp.frames) >= interp.FRAME_LIMIT:
                                    raise TclError(
                                        "too many nested evaluations "
                                        "(infinite loop?)"
                                    )
                                nf = VMFrame(
                                    pcode, proc.ns, proc.name, 2,
                                    interp.current_ns, (argv, line),
                                )
                                n_slots = len(pcode.slot_names)
                                if (
                                    proc._simple
                                    and len(args) == len(proc.params)
                                ):
                                    newcells = [Var(a) for a in args]
                                    nf.vars = dict(
                                        zip(proc._names, newcells)
                                    )
                                    if len(newcells) < n_slots:
                                        newcells.extend(
                                            [None]
                                            * (n_slots - len(newcells))
                                        )
                                else:
                                    newcells = [None] * n_slots
                                    _bind_slow(proc, nf, args, newcells)
                                nf.cells = newcells
                            except TclError as e:
                                e.add_info(
                                    '"%s" (line %d)' % (_abbrev(argv), line)
                                )
                                raise
                            interp.frames.append(nf)
                            f.pc = pc
                            f = nf
                            interp.current_ns = proc.ns
                            frames.append(nf)
                            frames_pushed += 1
                            code = pcode
                            ops = code.ops
                            consts = code.consts
                            caches = code.caches
                            stack = nf.stack
                            cells = newcells
                            cellsv = 0
                            tclframe = nf
                            pc = 0
                        elif mode == 1:
                            fn = c[6]
                            try:
                                result = fn(
                                    interp,
                                    tail if tail is not None else argv[1:],
                                )
                            except (TclReturn, TclBreak, TclContinue):
                                raise
                            except TclError as e:
                                e.add_info(
                                    '"%s" (line %d)' % (_abbrev(argv), line)
                                )
                                raise
                            except interp.passthrough:
                                raise
                            except Exception as e:
                                err = TclError(
                                    "%s: %s" % (type(e).__name__, e)
                                )
                                err.add_info(
                                    '"%s" (line %d)' % (_abbrev(argv), line)
                                )
                                err.__cause__ = e
                                raise err from e
                            if result is None:
                                stack.append("")
                            elif isinstance(result, str):
                                stack.append(result)
                            else:
                                stack.append(to_string(result))
                        else:
                            stack.append(interp._call_unknown(argv, line))
                    elif op == OP_GUARD:
                        c = caches[arg]
                        if (
                            c[2] == interp.cmd_epoch
                            and c[3] is interp.current_ns
                        ):
                            if not c[4]:
                                pc = c[5]
                        else:
                            fn = interp.lookup_command(c[0])
                            c[4] = ok = (
                                getattr(fn, "vm_builtin", None) == c[1]
                            )
                            c[2] = interp.cmd_epoch
                            c[3] = interp.current_ns
                            if not ok:
                                pc = c[5]
                    elif op == OP_RETURN or op == OP_END:
                        value = stack.pop()
                        kind = f.kind
                        if kind == 2:
                            interp.frames.pop()
                            interp.current_ns = f.prev_ns
                            frames.pop()
                            f = frames[-1]
                            code = f.code
                            ops = code.ops
                            consts = code.consts
                            caches = code.caches
                            stack = f.stack
                            cells = f.cells
                            cellsv = f.cellsv
                            tclframe = f.tclframe or f
                            pc = f.pc
                            stack.append(value)
                        elif op == OP_END or kind == 1:
                            return value
                        else:  # RETURN at script root: propagate
                            raise TclReturn(value, 0)
                    elif op == OP_SET_SLOT:
                        si, name, line = consts[arg]
                        value = stack[-1]
                        v = tclframe.version
                        if v != cellsv:
                            cells = f.cells = [None] * len(cells)
                            cellsv = f.cellsv = v
                        cell = cells[si]
                        if cell is None:
                            fv = tclframe.vars
                            cell = fv.get(name)
                            if cell is None:
                                cell = Var(value)
                                fv[name] = cell
                                cells[si] = cell
                            else:
                                cells[si] = cell
                                cell.value = value
                        else:
                            cell.value = value
                    elif op == OP_INCR_SLOT:
                        si, name, delta, line, text = consts[arg]
                        v = tclframe.version
                        if v != cellsv:
                            cells = f.cells = [None] * len(cells)
                            cellsv = f.cellsv = v
                        cell = cells[si]
                        if cell is None:
                            cell = tclframe.vars.get(name)
                            if cell is not None:
                                cells[si] = cell
                        if cell is None:
                            value = str(delta)
                            cell = Var(value)
                            tclframe.vars[name] = cell
                            cells[si] = cell
                        else:
                            cur = cell.value
                            try:
                                iv = int(cur, 10) if "_" not in cur else None
                            except ValueError:
                                iv = None
                            if iv is None:
                                pn = parse_number(cur)
                                if isinstance(pn, int):
                                    iv = pn
                                else:
                                    e = TclError(
                                        'expected integer but got "%s"'
                                        % cur
                                    )
                                    e.add_info(
                                        '"%s" (line %d)' % (text, line)
                                    )
                                    raise e
                            value = str(iv + delta)
                            cell.value = value
                        stack.append(value)
                    elif op == OP_ELOAD_SLOT:
                        v = tclframe.version
                        if v != cellsv:
                            cells = f.cells = [None] * len(cells)
                            cellsv = f.cellsv = v
                        cell = cells[arg]
                        if cell is None:
                            name = code.slot_names[arg]
                            cell = tclframe.vars.get(name)
                            if cell is None:
                                raise TclError(
                                    'can\'t read "%s": no such variable'
                                    % name
                                )
                            cells[arg] = cell
                        sv = cell.value
                        try:
                            if "_" not in sv:
                                stack.append(int(sv, 10))
                            else:
                                stack.append(coerce(sv))
                        except ValueError:
                            stack.append(coerce(sv))
                    elif OP_ADD <= op <= OP_NE:
                        b = stack.pop()
                        a = stack[-1]
                        if type(a) is int and type(b) is int:
                            if op == OP_ADD:
                                stack[-1] = a + b
                            elif op == OP_SUB:
                                stack[-1] = a - b
                            elif op == OP_MUL:
                                stack[-1] = a * b
                            elif op == OP_LT:
                                stack[-1] = 1 if a < b else 0
                            elif op == OP_LE:
                                stack[-1] = 1 if a <= b else 0
                            elif op == OP_GT:
                                stack[-1] = 1 if a > b else 0
                            elif op == OP_GE:
                                stack[-1] = 1 if a >= b else 0
                            elif op == OP_EQ:
                                stack[-1] = 1 if a == b else 0
                            else:
                                stack[-1] = 1 if a != b else 0
                        else:
                            stack[-1] = _eval_bin(_BIN_NAME[op], a, b)
                    elif op == OP_JUMP_IF_FALSE:
                        v = stack.pop()
                        if type(v) is int:
                            if not v:
                                pc = arg
                        elif not truthy(v):
                            pc = arg
                    elif op == OP_JUMP:
                        pc = arg
                    elif op == OP_POP:
                        del stack[-1]
                    elif op == OP_TO_STR:
                        v = stack[-1]
                        if type(v) is not str:
                            stack[-1] = to_string(v)
                    elif op == OP_CONCAT:
                        parts = stack[-arg:]
                        del stack[-arg:]
                        stack.append("".join(parts))
                    elif op == OP_LOAD_NAME:
                        stack.append(interp.get_var(consts[arg]))
                    elif op == OP_ELOAD_NAME:
                        stack.append(coerce(interp.get_var(consts[arg])))
                    elif op == OP_SET_NAME:
                        name, line = consts[arg]
                        value = stack[-1]
                        try:
                            interp.set_var(name, value)
                        except TclError as e:
                            e.add_info(
                                '"%s" (line %d)'
                                % (_abbrev(["set", name, value]), line)
                            )
                            raise
                    elif op == OP_INCR_NAME:
                        name, delta, line, text = consts[arg]
                        try:
                            if interp.var_exists(name):
                                cur = interp.get_var(name)
                                cur_n = parse_number(cur)
                                if not isinstance(cur_n, int):
                                    raise TclError(
                                        'expected integer but got "%s"'
                                        % cur
                                    )
                            else:
                                cur_n = 0
                            value = interp.set_var(name, str(cur_n + delta))
                        except TclError as e:
                            e.add_info('"%s" (line %d)' % (text, line))
                            raise
                        stack.append(value)
                    elif op == OP_EXEC:
                        # Counts as an evaluation level: recursion through
                        # an EXEC site re-enters this loop from Python.
                        if interp._depth >= interp.MAX_DEPTH:
                            raise TclError(
                                "too many nested evaluations "
                                "(infinite loop?)"
                            )
                        interp._depth += 1
                        try:
                            stack.append(interp._run_command(consts[arg]))
                        finally:
                            interp._depth -= 1
                    elif op == OP_PUSH_BLOCK:
                        b = consts[arg]
                        f.blocks.append((b[0], b[1], len(stack)))
                    elif op == OP_POP_BLOCK:
                        f.blocks.pop()
                    elif op == OP_JUMP_IF_TRUE:
                        v = stack.pop()
                        if type(v) is int:
                            if v:
                                pc = arg
                        elif truthy(v):
                            pc = arg
                    elif op == OP_BIN:
                        b = stack.pop()
                        stack[-1] = _eval_bin(consts[arg], stack[-1], b)
                    elif op == OP_UNARY:
                        stack[-1] = eval_unary(consts[arg], stack[-1])
                    elif op == OP_EVAL_NODE:
                        stack.append(eval_node(interp, consts[arg]))
                    elif op == OP_COERCE:
                        stack[-1] = coerce(stack[-1])
                    elif op == OP_BREAK:
                        raise TclBreak()
                    elif op == OP_CONTINUE:
                        raise TclContinue()
                    else:
                        raise TclError("bad opcode %d" % op)
            except TclError as e:
                f.pc = pc
                _raise_unwound(interp, frames, f, pc - 2, e)
            except TclReturn as r:
                if f.kind != 2:
                    raise
                interp.frames.pop()
                interp.current_ns = f.prev_ns
                argv, line = f.dec
                frames.pop()
                f = frames[-1]
                if r.code == 1:
                    e = TclError(r.value)
                    e.add_info('"%s" (line %d)' % (_abbrev(argv), line))
                    _raise_unwound(interp, frames, f, f.pc - 2, e)
                code = f.code
                ops = code.ops
                consts = code.consts
                caches = code.caches
                stack = f.stack
                cells = f.cells
                cellsv = f.cellsv
                tclframe = f.tclframe or f
                pc = f.pc
                stack.append(r.value)
            except (TclBreak, TclContinue) as exc:
                is_break = isinstance(exc, TclBreak)
                while not f.blocks:
                    if f.kind != 2:
                        raise
                    interp.frames.pop()
                    interp.current_ns = f.prev_ns
                    frames.pop()
                    f = frames[-1]
                bpc, cpc, depth = f.blocks[-1]
                code = f.code
                ops = code.ops
                consts = code.consts
                caches = code.caches
                stack = f.stack
                cells = f.cells
                cellsv = f.cellsv
                tclframe = f.tclframe or f
                del stack[depth:]
                pc = bpc if is_break else cpc
    except BaseException:
        # Error unwinding pops frames itself; this covers the re-raise
        # path plus RecursionError/KeyboardInterrupt, restoring the
        # interp's Tcl frame stack to this run's entry state.
        while len(frames) > 1:
            fx = frames.pop()
            if fx.kind == 2:
                interp.frames.pop()
                interp.current_ns = fx.prev_ns
        raise
    finally:
        if ic_hits:
            vmstats.cache_hits += ic_hits
        if frames_pushed:
            vmstats.frames += frames_pushed


_BIN_NAME = {
    OP_ADD: "+", OP_SUB: "-", OP_MUL: "*",
    OP_LT: "<", OP_LE: "<=", OP_GT: ">", OP_GE: ">=",
    OP_EQ: "==", OP_NE: "!=",
}
