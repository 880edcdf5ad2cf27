"""AST -> IR lowering (the first half of the STC back end).

Swift dataflow semantics map onto the Turbine command set as in real
STC: statements become ops on variables, loop iterations are CONTROL
tasks, leaf calls (extension functions, apps, python/r) are WORK tasks
executed on workers, arrays are containers of member-TD references
with compile-time write-refcount ("slot") accounting deciding when they
close.  Nothing here looks at the optimisation level: every variable is
lowered as a future except literals and loop variables.

Slot accounting invariant: every scope that can write an array holds
exactly one slot per writer *statement* it contains; compound
statements (if, foreach, wait, calls) hold one slot and rebalance on
entry (``incr W-1``); a container is created with ``1 + W`` slots and
the declaration slot is released at the end of its block.
"""

from __future__ import annotations

from .errors import SwiftTypeError
from .ir import Block, Const, Op, Operand, Var
from .semantics import FuncSig
from .stdlib import INTRINSICS
from .swift_ast import (
    Assign,
    BinOp,
    Call,
    Decl,
    Expr,
    ExprStmt,
    Foreach,
    FuncDef,
    If,
    Literal,
    LValue,
    RangeSpec,
    Stmt,
    Subscript,
    UnOp,
    VarRef,
    Wait,
)
from .swift_ast import Block as AstBlock
from .types import FLOAT, INT, STRING, SwiftType

# ---------------------------------------------------------------- write sets


def writes_arrays(stmt: Stmt) -> set[str]:
    """Array variable names (possibly outer-scope) written by stmt."""
    if isinstance(stmt, Decl):
        if stmt.swift_type.is_array and stmt.init is not None:
            return {stmt.name}
        return set()
    if isinstance(stmt, Assign):
        out: set[str] = set()
        for target in stmt.targets:
            if target.index is not None:
                out.add(target.name)
            elif target.type is not None and target.type.is_array:
                out.add(target.name)
        return out
    if isinstance(stmt, If):
        out = block_writes(stmt.then)
        if stmt.els is not None:
            out |= block_writes(stmt.els)
        return out
    if isinstance(stmt, (Foreach, Wait)):
        return block_writes(stmt.body)
    if isinstance(stmt, AstBlock):
        return block_writes(stmt)
    return set()


def block_writes(block: AstBlock) -> set[str]:
    declared = {s.name for s in block.stmts if isinstance(s, Decl)}
    out: set[str] = set()
    for s in block.stmts:
        out |= writes_arrays(s)
    return out - declared


def writer_count(block: AstBlock | None, name: str) -> int:
    """Number of immediate writer statements of array ``name`` in block."""
    if block is None:
        return 0
    return sum(1 for s in block.stmts if name in writes_arrays(s))


# ---------------------------------------------------------------- operators

_ARITH = ("+", "-", "*", "/", "%", "**")
_STRING_COMPARE = {"==": "eq", "!=": "ne"}


def operator_fn(expr: BinOp | UnOp) -> tuple[str, ...]:
    """The value proc (command prefix) computing an operator node."""
    if isinstance(expr, UnOp):
        if expr.op == "!":
            return ("turbine::not",)
        return ("turbine::neg_float" if expr.operand.type == FLOAT else "turbine::neg_integer",)
    op = expr.op
    if op == "+" and expr.left.type == STRING:
        return ("turbine::strcat",)
    if op in _ARITH:
        return ("turbine::binop_float" if expr.type == FLOAT else "turbine::binop_integer", op)
    if expr.left.type == STRING:
        return ("turbine::binop_compare", _STRING_COMPARE.get(op, op))
    return ("turbine::binop_logic", op)


# ---------------------------------------------------------------- scopes


class Scope:
    """Swift names visible while lowering one block."""

    def __init__(self, block: Block, parent: "Scope | None" = None):
        self.block = block
        self.parent = parent
        self.names: dict[str, Var] = {}

    def new(self, name: str, t: SwiftType, **flags) -> Var:
        var = Var(name, t, **flags)
        self.block.vars.append(var)
        if name:
            self.names[name] = var
        return var

    def lookup(self, name: str) -> Var:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        raise SwiftTypeError("codegen: unresolved variable %r" % name)

    def assigned(self, name: str) -> Var:
        """The variable a statement of this block assigns.  Assigned
        from a nested block, it is pinned a future: the nested block is
        not ordered against the uses in the block that declared it."""
        var = self.lookup(name)
        if name not in self.names:
            var.pinned = True
        return var


# ---------------------------------------------------------------- lowering


class Lowering:
    def __init__(self, funcs: dict[str, FuncSig]):
        self.funcs = funcs
        self.called: list[str] = []  # composite functions reached, in order

    # -- units ---------------------------------------------------------------

    def function(self, fn: FuncDef) -> tuple[Block, list[Var]]:
        """A composite function's body and its parameter variables
        (outputs first), all TDs the caller allocated."""
        outer = Scope(Block())
        params = [
            outer.new(p.name, p.swift_type, pinned=True) for p in fn.outputs + fn.inputs
        ]
        # the caller gave one writer slot per output array
        arrays = [p.name for p in fn.outputs if p.swift_type.is_array]
        return self.block(fn.body, outer, self.rebalance(arrays, fn.body, outer)), params

    def block(self, body: AstBlock | None, parent: Scope | None, prologue=()) -> Block:
        scope = Scope(Block(list(prologue)), parent)
        for stmt in body.stmts if body is not None else ():
            self.stmt(stmt, scope, body)
        return scope.block

    def rebalance(self, arrays: list[str], body: AstBlock | None, scope: Scope) -> list[Op]:
        """Ops that turn the one slot a compound statement holds on each
        array into one per writer statement of ``body``."""
        ops = []
        for name in arrays:
            delta = writer_count(body, name) - 1
            if delta:
                ops.append(Op("refcount", ins=[scope.lookup(name)], delta=delta))
        return ops

    # -- statements ----------------------------------------------------------

    def stmt(self, stmt: Stmt, scope: Scope, body: AstBlock) -> None:
        emit = scope.block.ops.append
        if isinstance(stmt, Decl):
            var = scope.new(stmt.name, stmt.swift_type)
            if var.type.is_array:
                var.wrc = 1 + writer_count(body, stmt.name)
                scope.block.arrays.append(var)
            if stmt.init is not None:
                self.assign(var, stmt.init, scope, stmt)
        elif isinstance(stmt, Assign):
            self.assign_stmt(stmt, scope)
        elif isinstance(stmt, ExprStmt):
            self.call(stmt.expr, [], scope, stmt)
        elif isinstance(stmt, If):
            cond = self.expr(stmt.cond, scope)
            arrays = sorted(writes_arrays(stmt))
            branches = [
                self.block(b, scope, self.rebalance(arrays, b, scope))
                for b in (stmt.then, stmt.els)
            ]
            emit(Op("if", ins=[cond], blocks=branches))
        elif isinstance(stmt, Foreach):
            self.foreach(stmt, scope)
        elif isinstance(stmt, Wait):
            deps = [self.expr(e, scope) for e in stmt.exprs]
            pro = self.rebalance(sorted(writes_arrays(stmt)), stmt.body, scope)
            emit(Op("wait", ins=deps, blocks=[self.block(stmt.body, scope, pro)]))
        elif isinstance(stmt, AstBlock):
            emit(Op("block", blocks=[self.block(stmt, scope)]))
        else:
            raise SwiftTypeError("codegen: unknown statement %r" % stmt)

    def assign_stmt(self, stmt: Assign, scope: Scope) -> None:
        inserts: list[Op] = []  # a[i] = ...: fill the member, then insert it
        call = stmt.exprs[0]
        if (
            len(stmt.exprs) == 1
            and isinstance(call, Call)
            and self.funcs[call.func].kind != "intrinsic"
            and len(self.funcs[call.func].outs) == len(stmt.targets) > 1
        ):
            outs = [self.target(t, None, scope, inserts) for t in stmt.targets]
            self.call(call, outs, scope, stmt)
        else:
            for lhs, expr in zip(stmt.targets, stmt.exprs):
                self.assign(self.target(lhs, expr, scope, inserts), expr, scope, stmt)
        scope.block.ops.extend(inserts)

    def target(self, lhs: LValue, expr: Expr | None, scope: Scope, inserts: list[Op]) -> Var:
        """The variable an assignment fills.  ``a[i] = ...`` fills a
        fresh member (or names an existing variable), to be inserted."""
        if lhs.index is None:
            return scope.assigned(lhs.name)
        if isinstance(expr, VarRef):
            member = scope.lookup(expr.name)
        else:
            member = scope.new("", lhs.type)
        idx = self.expr(lhs.index, scope)
        inserts.append(Op("insert", ins=[scope.lookup(lhs.name), idx, member]))
        return member

    def foreach(self, stmt: Foreach, scope: Scope) -> None:
        body = Scope(Block(), scope)
        if isinstance(stmt.iterable, RangeSpec):
            rng = stmt.iterable
            step = self.expr(rng.step, scope) if rng.step is not None else Const(1, INT)
            ins = [self.expr(rng.lo, scope), self.expr(rng.hi, scope), step]
            loop_vars = [body.new(stmt.var, INT, closed=True)]
        else:
            ins = [self.expr(stmt.iterable, scope)]
            loop_vars = [
                body.new(stmt.index_var or "", INT, closed=True),
                body.new(stmt.var, stmt.iterable.type.element, pinned=True),
            ]
        for s in stmt.body.stmts:
            self.stmt(s, body, stmt.body)
        written = [
            (scope.lookup(name), writer_count(stmt.body, name))
            for name in sorted(writes_arrays(stmt))
        ]
        scope.block.ops.append(
            Op("foreach", ins=ins, blocks=[body.block], vars=loop_vars, written=written)
        )

    # -- expressions ---------------------------------------------------------

    def expr(self, expr: Expr, scope: Scope) -> Operand:
        if isinstance(expr, Literal):
            return Const(expr.value, expr.type)
        if isinstance(expr, VarRef):
            return scope.lookup(expr.name)
        tmp = scope.new("", expr.type)
        self.assign(tmp, expr, scope)
        return tmp

    def assign(self, dst: Var, expr: Expr, scope: Scope, stmt: Stmt | None = None) -> None:
        """Lower ``dst = expr``.  ``stmt`` carries @prio / @target,
        which apply when ``expr`` is a leaf call."""
        emit = scope.block.ops.append
        if dst.type == FLOAT and expr.type == INT:
            # implicit widening: the one assignment that changes type
            if isinstance(expr, Literal):
                emit(Op("copy", [dst], [Const(float(expr.value), FLOAT)]))
            else:
                emit(Op("value", [dst], [self.expr(expr, scope)], INTRINSICS["tofloat"].tcl))
        elif isinstance(expr, Call):
            self.call(expr, [dst], scope, stmt)
        elif isinstance(expr, BinOp):
            ins = [self.expr(expr.left, scope), self.expr(expr.right, scope)]
            emit(Op("value", [dst], ins, operator_fn(expr)))
        elif isinstance(expr, UnOp):
            emit(Op("value", [dst], [self.expr(expr.operand, scope)], operator_fn(expr)))
        elif isinstance(expr, Subscript):
            ins = [self.expr(expr.array, scope), self.expr(expr.index, scope)]
            emit(Op("subscript", [dst], ins))
        elif isinstance(expr, VarRef) and scope.lookup(expr.name) is dst:
            pass  # a[i] = v: the member *is* v
        else:
            emit(Op("copy", [dst], [self.expr(expr, scope)]))

    def call(self, call: Call, outs: list[Var], scope: Scope, stmt: Stmt | None) -> None:
        sig = self.funcs[call.func]
        if sig.kind == "intrinsic":
            self.intrinsic(call, outs, scope)
            return
        prio, target = (
            self.expr(e, scope) if e is not None else None
            for e in (getattr(stmt, "priority", None), getattr(stmt, "target", None))
        )
        ins = [self.expr(a, scope) for a in call.args]
        if sig.kind != "composite":
            op = Op("leaf", outs, ins, sig.name, prio=prio, target=target)
        elif prio is None and target is None:
            op = Op("rule", outs, ins, ("swift:f:" + sig.name,))
            if sig.name not in self.called:
                self.called.append(sig.name)
        else:
            raise SwiftTypeError(
                "@prio/@target apply to leaf tasks (extension/app "
                "functions), not composite function %r" % sig.name
            )
        op.line = call.line
        scope.block.ops.append(op)

    def intrinsic(self, call: Call, outs: list[Var], scope: Scope) -> None:
        intr = INTRINSICS[call.func]
        args, fn = list(call.args), intr.tcl
        if intr.name in ("printf", "sprintf"):
            fmt = args.pop(0)
            if not isinstance(fmt, Literal) or not isinstance(fmt.value, str):
                raise SwiftTypeError(
                    "%s format must be a string literal" % intr.name, fmt.line
                )
            fn += (fmt.value.replace("%i", "%d"),)
        elif intr.name in ("argv", "argv_int") and len(args) not in (1, 2):
            raise SwiftTypeError(
                "%s() takes a name and optional default" % intr.name, call.line
            )
        ins = [self.expr(a, scope) for a in args]
        scope.block.ops.append(Op(intr.kind, outs, ins, fn, fusable=intr.fusable))
