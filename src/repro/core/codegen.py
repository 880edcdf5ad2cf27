"""IR -> Tcl (the second half of the STC back end) and its driver.

One printer serves every optimisation level; the level picks the pass
list run on the IR first, and whether a thin value proc (``stdlib.THIN``)
prints as its own body, the operand words substituted, where its op runs
closed or fused (:meth:`Codegen.value_tcl`): above -O0 a fan-out leaf
calls no proc.  What the printer decides by itself is the *escape rule*:
a closed value (a Tcl value of the unit being printed) is used as such
wherever the position takes a value — an inline value op, a task payload,
a subscript, a loop bound — and is materialised as a TD (``allocate`` +
``store``, once per proc) only where the position needs a TD id: an input
of an op that still runs as a rule, a composite-function argument, an
array member, a ``wait``.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..tcl.expr import to_string
from ..tcl.listutil import format_element, format_list, parse_list
from .errors import SwiftTypeError
from .ir import Block, Const, Op, Operand, Var, all_ops, free_vars
from .lower import Lowering
from .passes import PASSES, annotation_slice, propagate_closed
from .semantics import FuncSig
from .stdlib import THIN
from .swift_ast import AppDef, ExtFuncDef, Literal, Program, VarRef
from .types import BOOLEAN, FLOAT, INT, STORE_CMD, STRING, TD_TYPE, VOID, SwiftType


def quote_const(value: Any, t: SwiftType) -> str:
    """Tcl source word for a Swift literal, spelled the way a typed
    store followed by a retrieve would give it back."""
    if t == BOOLEAN:
        return "1" if value else "0"
    if t == FLOAT:
        return to_string(float(value))
    if t == INT:
        return str(int(value))
    return format_element(str(value))


# a literal that expr reads as the number a variable holding it gives
_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?(e[-+][0-9]+)?").fullmatch
_QUOTED = str.maketrans({**{c: "\\" + c for c in '\\$[]"{}'}, "\n": "\\n", "\r": "\\r"})


def quoted(word: str) -> str:
    """``word`` inside a double-quoted word of a braced proc body."""
    if word[0] == "$":
        return word if word[1] == "{" else "${%s}" % word[1:]
    return parse_list(word)[0].translate(_QUOTED)  # a literal's text


def leaf_body(defn: ExtFuncDef | AppDef) -> str:
    """The Tcl a leaf function runs, over ``<param>_val`` variables."""
    if isinstance(defn, ExtFuncDef):
        body = defn.template
        for p in defn.inputs:
            body = body.replace("<<%s>>" % p.name, "${%s_val}" % p.name)
        for p in defn.outputs:
            body = body.replace("<<%s>>" % p.name, "%s_val" % p.name)
        # verbatim: leading whitespace may be significant inside
        # multi-line embedded-language fragments
        return body
    words = ["shell::exec"]
    for word in defn.command:
        if isinstance(word, Literal):
            words.append(format_element(str(word.value)))
        elif isinstance(word, VarRef):
            words.append("${%s_val}" % word.name)
        else:
            raise SwiftTypeError(
                "app command words must be literals or parameters", word.line
            )
    call = " ".join(words)
    if defn.outputs and defn.outputs[0].swift_type == STRING:
        return "    set %s_val [ %s ]" % (defn.outputs[0].name, call)
    return "    " + call


class Proc:
    """A Tcl proc being printed, and where each IR variable lives in it."""

    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = list(params)
        self.lines: list[str] = []
        self.depth = 1
        self.val: dict[Operand, str] = {}  # closed variable -> word of its value
        self.td: dict[Operand, str] = {}  # variable -> word of its TD id
        self._temp = itertools.count(1)
        self._locals: set[str] = set(params)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def emit_all(self, lines: list[str]) -> None:
        for line in lines:
            self.emit(line)

    def temp(self) -> str:
        return "t%d" % next(self._temp)

    def local(self, base: str) -> str:
        name, k = base, 1
        while name in self._locals:
            k += 1
            name = "%s_%d" % (base, k)
        self._locals.add(name)
        return name

    def text(self) -> str:
        header = "proc %s { %s } {" % (self.name, " ".join(self.params))
        return "\n".join([header, *self.lines, "}"])


@dataclass
class CompiledProgram:
    tcl_text: str
    entry: str = "swift:main"
    packages: list[str] = field(default_factory=list)
    opt_level: int = 1
    n_procs: int = 0

    @property
    def n_lines(self) -> int:
        return self.tcl_text.count("\n") + 1


class Codegen:
    def __init__(self, program: Program, funcs: dict[str, FuncSig], opt: int = 1):
        self.program = program
        self.funcs = funcs
        self.level = opt  # recorded in the output
        self.passes = PASSES if opt else ()
        self.thin = THIN if opt else {}  # -O0, the oracle, calls every proc
        self.procs: list[Proc] = []
        self._hoist = itertools.count(1)
        self._tasks: dict[tuple, str] = {}  # (params, body) -> task proc name
        self._task_count: Counter = Counter()

    # -- entry ---------------------------------------------------------------

    def generate(self) -> CompiledProgram:
        """Print ``swift:main`` and every proc reachable from it."""
        lowering = Lowering(self.funcs)
        self.unit("swift:main", [], [], lowering.block(self.program.main, None))
        done = 0
        while done < len(lowering.called):
            fn = self.funcs[lowering.called[done]].node
            done += 1
            body, params = lowering.function(fn)
            names = ["o_" + p.name for p in fn.outputs] + ["i_" + p.name for p in fn.inputs]
            self.unit("swift:f:" + fn.name, names, params, body)
        packages = {e.package for e in self.program.ext_funcs if e.package}
        if self.program.app_funcs:
            packages.add("shell")
        prelude = ["# generated by repro-stc (opt level %d)" % self.level]
        prelude += ["package require %s" % pkg for pkg in sorted(packages)]
        body = "\n\n".join(p.text() for p in self.procs)
        return CompiledProgram(
            tcl_text="\n".join(prelude) + "\n\n" + body + "\n",
            packages=sorted(packages),
            opt_level=self.level,
            n_procs=len(self.procs),
        )

    def unit(self, name: str, params: list[str], param_vars: list[Var], block: Block) -> None:
        wanted = annotation_slice(block)
        if wanted:
            propagate_closed(block, wanted)
        for run_pass in self.passes:
            run_pass(block)
        proc = self.new_proc(name, params)
        for var, param in zip(param_vars, params):
            proc.td[var] = "$" + param
        self.block(block, proc)

    def new_proc(self, name: str, params: list[str]) -> Proc:
        proc = Proc(name, params)
        self.procs.append(proc)
        return proc

    def hoist(self, kind: str, params: list[str], blocks: list[Block], proc: Proc):
        """A new proc for ``blocks``.  The variables they use from
        outside become its trailing parameters (a value if closed, a TD
        id if not); returns the proc and the words ``proc`` passes."""
        child = self.new_proc("swift:__%s%d" % (kind, next(self._hoist)), params)
        args = []
        for var in free_vars(*blocks):
            param = child.local("c_" + (var.name or "t"))
            child.params.append(param)
            if var.closed:
                child.val[var] = "$" + param
                args.append(self.val(var, proc))
            else:
                child.td[var] = "$" + param
                args.append(self.td(var, proc))
        return child, args

    # -- operands ------------------------------------------------------------

    def val(self, x: Operand, proc: Proc) -> str:
        """Tcl word for the value of a closed operand."""
        if isinstance(x, Const):
            return quote_const(x.value, x.type)
        return proc.val[x]

    def td(self, x: Operand, proc: Proc) -> str:
        """Tcl word for the operand's TD id: allocated on first use,
        and for a closed operand stored at once — it escapes here."""
        word = proc.td.get(x)
        if word is not None:
            return word
        name = proc.local("v_" + x.name) if isinstance(x, Var) and x.name else proc.temp()
        if x.type.is_array:
            proc.emit("set %s [ turbine::allocate_container %d ]" % (name, x.wrc))
        else:
            proc.emit("set %s [ turbine::allocate %s ]" % (name, TD_TYPE[x.type.base]))
        word = "$" + name
        if x.closed:
            proc.emit("%s %s %s" % (STORE_CMD[x.type.base], word, self.val(x, proc)))
        if isinstance(x, Var):
            proc.td[x] = word
        return word

    # -- blocks and simple ops -----------------------------------------------

    def block(self, block: Block, proc: Proc) -> None:
        for op in block.ops:
            getattr(self, "op_" + op.kind)(op, proc)
        for arr in block.arrays:
            proc.emit("turbine::write_refcount_decr %s 1" % self.td(arr, proc))

    def op_value(self, op: Op, proc: Proc) -> None:
        out = op.outs[0] if op.outs else None
        if op.inline:
            tcl, word = self.value_tcl(op.fn, [self.val(x, proc) for x in op.ins], out is None)
            if out is None:
                proc.emit(tcl)
            elif word:
                proc.val[out] = tcl
            else:
                tmp = proc.temp()
                proc.emit("set %s %s" % (tmp, tcl))
                proc.val[out] = "$" + tmp
            return
        head = "none {}"
        if out is not None:
            head = "%s %s" % (TD_TYPE[out.type.base], self.td(out, proc))
        ins = [self.td(x, proc) for x in op.ins]
        proc.emit(" ".join(["turbine::op", head, format_element(format_list(op.fn)), *ins]))

    def value_tcl(self, fn: tuple[str, ...], words: list[str], sink: bool) -> tuple[str, bool]:
        """A closed or fused value op over its operands' words (a thin proc as
        its body): a sink's command, else its value's Tcl and whether that is a
        plain word, read as it is, not one a ``set`` binds first."""
        thin = self.thin.get(fn[0])
        if isinstance(thin, tuple):
            form, sep, bare = thin
            tcl = form % sep.join(map(quoted, words)) if words else bare
        elif thin is not None and all(w[0] == "$" or _NUMBER(w) for w in words):
            tcl = thin % dict(zip(["oper"] * (len(fn) - 1) + ["x", "y"], [*fn[1:], *words]))
        else:
            call = " ".join([format_list(fn), *words])
            tcl = call if sink else "[ %s ]" % call
        return tcl, tcl[0] not in '["'

    def op_copy(self, op: Op, proc: Proc) -> None:
        (dst,), (src,) = op.outs, op.ins
        if op.inline:
            proc.val[dst] = self.val(src, proc)
        elif src.closed:
            proc.emit("%s %s %s" % (STORE_CMD[dst.type.base], self.td(dst, proc), self.val(src, proc)))
        else:
            proc.emit("turbine::copy_td %s %s" % (self.td(dst, proc), self.td(src, proc)))

    def op_rule(self, op: Op, proc: Proc) -> None:
        tds = [self.td(x, proc) for x in op.outs + op.ins]
        proc.emit(" ".join([format_list(op.fn), *tds]))

    def op_subscript(self, op: Op, proc: Proc) -> None:
        """The container's server copies the member into the reader's TD."""
        arr, idx = op.ins
        cmd = "container_reference" if idx.closed else "cref_when_ready"
        sub = self.val(idx, proc) if idx.closed else self.td(idx, proc)
        dst = self.td(op.outs[0], proc)
        proc.emit("turbine::%s %s %s %s" % (cmd, self.td(arr, proc), sub, dst))

    def op_insert(self, op: Op, proc: Proc) -> None:
        arr, idx, member = op.ins
        if idx.closed:
            proc.emit(
                "turbine::container_insert %s %s %s 1"
                % (self.td(arr, proc), self.val(idx, proc), self.td(member, proc))
            )
        else:
            proc.emit(
                "turbine::insert_when_ready %s %s %s"
                % (self.td(arr, proc), self.td(idx, proc), self.td(member, proc))
            )

    def op_refcount(self, op: Op, proc: Proc) -> None:
        verb = "incr" if op.delta > 0 else "decr"
        proc.emit(
            "turbine::write_refcount_%s %s %d" % (verb, self.td(op.ins[0], proc), abs(op.delta))
        )

    def op_block(self, op: Op, proc: Proc) -> None:
        self.block(op.blocks[0], proc)

    # -- control flow --------------------------------------------------------

    @staticmethod
    def local_rule(proc: Proc, deps: list[str], action: list[str]) -> None:
        """Run ``action`` on this engine once every TD in ``deps`` closes."""
        proc.emit(
            "turbine::rule [ list %s ] [ list %s ] LOCAL" % (" ".join(deps), " ".join(action))
        )

    def op_if(self, op: Op, proc: Proc) -> None:
        cond = op.ins[0]
        if op.inline:
            self.branches(op, self.val(cond, proc), proc)
            return
        dep = self.td(cond, proc)
        child, args = self.hoist("if", ["c"], op.blocks, proc)
        self.branches(op, "[ turbine::retrieve $c ]", child)
        self.local_rule(proc, [dep], [child.name, dep, *args])

    def branches(self, op: Op, cond: str, proc: Proc) -> None:
        # a TD first needed inside one branch must exist on both paths
        for var in free_vars(*op.blocks):
            if not var.closed:
                self.td(var, proc)
        proc.emit("if { %s } {" % cond)
        for branch, closer in zip(op.blocks, ("} else {", "}")):
            # ... and one made inside a branch exists on that path only
            saved = dict(proc.val), dict(proc.td)
            proc.depth += 1
            self.block(branch, proc)
            proc.depth -= 1
            proc.val, proc.td = saved
            proc.emit(closer)

    def op_wait(self, op: Op, proc: Proc) -> None:
        deps = [self.td(x, proc) for x in op.ins]
        child, args = self.hoist("wait", [], op.blocks, proc)
        self.block(op.blocks[0], child)
        self.local_rule(proc, deps, [child.name, *args])

    def op_foreach(self, op: Op, proc: Proc) -> None:
        """Call the loop's entry proc (:meth:`loop`) at once, or as a
        rule if a bound (or the container) is still a future."""
        entry, args = self.loop(op, proc)
        deps = [self.td(x, proc) for x in op.ins if not x.closed]
        bounds = [self.val(x, proc) if x.closed else self.td(x, proc) for x in op.ins]
        if op.inline and op.written and not deps:  # the chunk's writer slots, before it can split
            proc.emit("set n [ turbine::range_count %s ]" % " ".join(bounds))
            for arr, writers in op.written:
                td = self.td(arr, proc)
                proc.emit("turbine::write_refcount_incr %s [ expr { $n * %d } ]" % (td, writers))
                proc.emit("turbine::write_refcount_decr %s 1" % td)
        if deps:
            self.local_rule(proc, deps, [entry, *bounds, *args])
        else:
            proc.emit(" ".join([entry, *bounds, *args]))

    def loop(self, op: Op, proc: Proc) -> tuple[str, list[str]]:
        """Print the loop's procs; return the one ``proc`` calls and the
        words it passes after the bounds.  A loop proc spawns one CONTROL
        task per iteration; a loop whose body only holds (``op.inline``)
        gets a chunk proc in front of it, or instead of it (:meth:`chunk`)."""
        ranged = len(op.ins) == 3
        (block,) = op.blocks
        params = ["lo", "hi", "step"] if ranged else ["c"]
        # Where the body runs, anything but a leaf's spawn can raise: a
        # chunk of such a body keeps the per-iteration loop to fall back on.
        guarded = op.inline and any(o.kind != "leaf" for o in all_ops(block))
        body = loop = None
        if guarded or not op.inline:
            body, _ = self.hoist("body", ["idx"] if ranged else ["idx", "elem"], op.blocks, proc)
            body.val[op.vars[0]] = "$idx"
            if not ranged:
                body.td[op.vars[1]] = "$elem"
            self.block(block, body)
            loop, args = self.hoist("loop", params, op.blocks, proc)
        entry = loop
        if op.inline:
            entry, args = self.hoist("chunk", params, op.blocks, proc)
        # every proc hands the body's captures through under the same names
        passed = ["$" + p for p in entry.params[len(params) :]]
        prologue = []  # of the proc the caller runs
        if ranged:
            for label, x in zip(params, op.ins):
                if not x.closed:
                    prologue.append("set %s [ turbine::retrieve $%s ]" % (label, label))
            count = "expr { $hi >= $lo ? ( ( $hi - $lo ) / $step ) + 1 : 0 }"
            step = op.ins[2]
            if not (isinstance(step, Const) and step.value > 0):
                count = "turbine::range_count $lo $hi $step"  # raises if it never ends
                if not op.written and not op.inline:
                    prologue.append(count)
            header, item = "for { set i $lo } { $i <= $hi } { incr i $step } {", "$i"
        else:
            prologue.append("set subs [ turbine::enumerate $c ]")
            count = "llength $subs"
            header, item = "foreach s $subs {", "$s [ turbine::container_lookup $c $s ]"
        # A written loop takes its writer slots once, before any split: in
        # the loop proc, or for a chunk in its caller or the start proc a
        # future bound fires — never in what halves and fallbacks re-enter.
        written = op.written if not op.inline or prologue else []
        if written:
            prologue.append("set n [ %s ]" % count)
        for arr, writers in written:
            td = entry.td[arr]
            prologue.append("turbine::write_refcount_incr %s [ expr { $n * %d } ]" % (td, writers))
            prologue.append("turbine::write_refcount_decr %s 1" % td)
        if op.inline:
            # A body of leaves and values, the fan-out's, is printed in
            # the chunk too (a call per leaf costs a fan-out ~5 % of its
            # rate); any other is printed once, and the chunk calls it.
            leafy = all(o.kind in ("leaf", "value", "copy", "if") for o in all_ops(block))
            self.chunk(op, entry, header, loop, passed, "" if leafy else body.name)
            if prologue:
                # the halves re-enter with values: the futures are retrieved
                # once, by the proc the rule fires
                prologue.append(" ".join([entry.name, "$lo", "$hi", "$step", *passed]))
                entry = self.new_proc("swift:__start%d" % next(self._hoist), entry.params)
        entry.emit_all(prologue)
        if loop is not None:
            spawn = "turbine::spawn CONTROL [ list %s ]" % " ".join([body.name, item, *passed])
            loop.emit_all([header, "    " + spawn, "}"])
        return entry.name, args

    def chunk(
        self, op: Op, chunk: Proc, header: str, loop: Proc | None, passed: list[str], call: str
    ) -> None:
        """The proc of a loop whose body only holds: split a long range
        into CONTROL tasks that re-enter it, run the body of a short one
        in place — printed there, or ``call``, the body proc a control
        task runs — and what it holds leaves with its unit (one commit).
        A body that does more than spawn leaves runs under a catch: if
        an iteration raises, the branch drops all the chunk held, not
        what its caller held before, and ``loop`` runs the iterations —
        and the one fails — as control tasks, as if there were no chunk."""
        bounds = ["$lo", "$hi", "$step", *passed]
        chunk.emit("if { [ turbine::split_range %s ] } return" % " ".join([chunk.name, *bounds]))
        chunk.val[op.vars[0]] = "$i"
        if loop is not None:
            chunk.emit_all(["set spawned [ turbine::spawned ]", "if { [ catch {"])
            chunk.depth += 1
        chunk.emit(header)
        chunk.depth += 1
        if call:
            chunk.emit(" ".join([call, "$i", *passed]))
        else:
            self.block(op.blocks[0], chunk)
        chunk.depth -= 1
        chunk.emit("}")
        if loop is not None:
            chunk.depth -= 1
            fallback = "    " + " ".join([loop.name, *bounds])
            chunk.emit_all(["} ] } {", "    turbine::drop $spawned", fallback, "}"])

    # -- leaf tasks ----------------------------------------------------------

    def op_leaf(self, op: Op, proc: Proc) -> None:
        """A WORK task: one task proc whose closed inputs (by-value
        leaves only) are parameters carried in the payload and whose
        future inputs are TD ids it retrieves; spawned directly if no
        input is a future, else by one rule on exactly the futures."""
        defn = self.funcs[op.fn].node
        for x, name in ((op.prio, "prio"), (op.target, "target")):
            if x is not None and not x.closed:
                raise SwiftTypeError(
                    "@%s must be computable at spawn time (an expression "
                    "over constants and loop indices), not a future" % name,
                    op.line,
                )
        out_params, out_args = [], []  # TDs the task stores into
        params, args, deps = [], [], []  # what it reads; ``deps`` are futures
        head, tail = [], []  # task body before / after the template
        inside: dict[Operand, str] = {}  # value words valid in the task body
        fresh = itertools.count(1)

        def take(x: Operand, name: str | None = None) -> str:
            """Word for the value of ``x`` in the task body.  ``name``
            is the variable the leaf's template reads it from; an
            operand of a fused op has none (and a literal stays one)."""
            if x in inside:
                return inside[x]
            if name is None:
                if isinstance(x, Const) and op.by_value:
                    return quote_const(x.value, x.type)
                name = "a%d" % next(fresh)
            if x.closed and op.by_value:
                params.append(name)
                args.append(self.val(x, proc))
            else:
                deps.append(self.td(x, proc))
                args.append(deps[-1])
                if x.type.is_array:  # the container id is the value
                    params.append(name)
                else:
                    params.append("i_" + name)
                    head.append("set %s [ turbine::retrieve $i_%s ]" % (name, name))
            if isinstance(x, Var):
                inside[x] = "${%s}" % name
            return "${%s}" % name

        for p, x in zip(defn.inputs, op.ins):
            if x not in op.elided:
                word = take(x, p.name + "_val")
                if word != "${%s_val}" % p.name:  # one variable, two parameters
                    head.append("set %s_val %s" % (p.name, word))
        for k, fused in enumerate(op.pre):
            (out,) = fused.outs
            name = next(
                (p.name + "_val" for p, x in zip(defn.inputs, op.ins) if x is out), "q%d" % k
            )
            head.append("set %s %s" % (name, self.value_tcl(fused.fn, [take(x) for x in fused.ins], False)[0]))
            inside[out] = "${%s}" % name
        continued = {x for fused in op.post for x in fused.ins}
        for p, out in zip(defn.outputs, op.outs):
            if out in continued and out.type != STRING:
                # a fused consumer reads what a store + retrieve would give
                tail.append(
                    "set %s_val [ turbine::norm %s ${%s_val} ]"
                    % (p.name, TD_TYPE[out.type.base], p.name)
                )
            if out in continued:
                inside[out] = "${%s_val}" % p.name
            if out not in op.elided:
                out_params.append("o_" + p.name)
                out_args.append(self.td(out, proc))
                value = "" if out.type == VOID else " ${%s_val}" % p.name
                tail.append("%s $o_%s%s" % (STORE_CMD[out.type.base], p.name, value))
        for k, fused in enumerate(op.post):
            tcl, word = self.value_tcl(fused.fn, [take(x) for x in fused.ins], not fused.outs)
            if not fused.outs:
                tail.append(tcl)
                continue
            (out,) = fused.outs
            if not word:
                tail.append("set p%d %s" % (k, tcl))
                tcl = "${p%d}" % k
            inside[out] = tcl
            if out not in op.elided:
                out_params.append("o%d" % k)
                out_args.append(self.td(out, proc))
                tail.append("%s $o%d %s" % (STORE_CMD[out.type.base], k, tcl))
        task = self.task(
            op.fn,
            out_params + params,
            ["    " + line for line in head] + [leaf_body(defn)] + ["    " + line for line in tail],
        )
        action = "[ list %s ]" % " ".join([task, *out_args, *args])
        prio = self.val(op.prio, proc) if op.prio is not None else "0"
        target = self.val(op.target, proc) if op.target is not None else "-1"
        placed = op.prio is not None or op.target is not None
        if deps:
            opts = " priority %s target %s" % (prio, target) if placed else ""
            proc.emit(
                "turbine::rule [ list %s ] %s WORK%s"
                % (" ".join(dict.fromkeys(deps)), action, opts)
            )
        else:
            opts = " %s %s" % (prio, target) if placed else ""
            proc.emit("turbine::spawn WORK %s%s" % (action, opts))

    def task(self, fn: str, params: list[str], lines: list[str]) -> str:
        """The task proc with this exact signature and body: call sites
        that need the same one share it."""
        key = (tuple(params), tuple(lines))
        name = self._tasks.get(key)
        if name is None:
            self._task_count[fn] += 1
            n = self._task_count[fn]
            name = self._tasks[key] = "task:" + fn if n == 1 else "task:%s:%d" % (fn, n)
            self.new_proc(name, params).lines = lines
        return name
