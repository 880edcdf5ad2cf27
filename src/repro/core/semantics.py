"""Semantic analysis: name resolution, type checking, dataflow checks.

Annotates expression nodes with their types and builds the function
table used by the code generator.  Dataflow-specific checks:

* scalars are single-assignment per static scope;
* a scalar assigned inside one branch of an ``if`` must be assigned in
  the other branch too (otherwise it might never close);
* arrays are written only through subscripts or as call outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SwiftNameError, SwiftTypeError
from .stdlib import INTRINSICS, predefined_extensions
from .swift_ast import (
    AppDef,
    Assign,
    BinOp,
    Block,
    Call,
    Decl,
    Expr,
    ExprStmt,
    ExtFuncDef,
    Foreach,
    FuncDef,
    If,
    Literal,
    LValue,
    Program,
    RangeSpec,
    Stmt,
    Subscript,
    UnOp,
    VarRef,
    Wait,
)
from .types import (
    BOOLEAN,
    FLOAT,
    INT,
    STRING,
    VOID,
    SwiftType,
    assignable,
    numeric,
    promote,
)


@dataclass
class FuncSig:
    name: str
    kind: str  # composite | extension | app | intrinsic
    ins: list[SwiftType] = field(default_factory=list)
    outs: list[SwiftType] = field(default_factory=list)
    node: object = None
    variadic: bool = False


class SymScope:
    def __init__(self, parent: "SymScope | None" = None):
        self.parent = parent
        self.vars: dict[str, SwiftType] = {}
        # names assigned by statements *in this scope* (including to
        # outer variables) — used for branch-consistency analysis
        self.assigned: set[str] = set()
        # names owned by this scope that have a direct assignment at
        # this level — used for single-assignment checking
        self.direct_assigned: set[str] = set()

    def declare(self, name: str, t: SwiftType, line: int) -> None:
        if name in self.vars:
            raise SwiftNameError("variable %r already declared" % name, line)
        self.vars[name] = t

    def lookup(self, name: str, line: int) -> SwiftType:
        scope: SymScope | None = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        raise SwiftNameError("undeclared variable %r" % name, line)

    def defined(self, name: str) -> bool:
        scope: SymScope | None = self
        while scope is not None:
            if name in scope.vars:
                return True
            scope = scope.parent
        return False

    def mark_assigned(self, name: str, line: int) -> None:
        self.assigned.add(name)
        # Single-assignment applies to scalars; find the owning scope.
        scope: SymScope | None = self
        while scope is not None:
            if name in scope.vars:
                if scope is self:
                    if name in self.direct_assigned:
                        raise SwiftTypeError(
                            "scalar %r assigned more than once in this scope"
                            % name,
                            line,
                        )
                    self.direct_assigned.add(name)
                return
            scope = scope.parent


class Checker:
    def __init__(self, program: Program):
        self.program = program
        self.funcs: dict[str, FuncSig] = {}

    # -- function table ------------------------------------------------------

    def build_func_table(self) -> None:
        for name, intr in INTRINSICS.items():
            self.funcs[name] = FuncSig(
                name=name,
                kind="intrinsic",
                ins=list(intr.ins or []),
                outs=list(intr.outs),
                variadic=intr.variadic,
            )
        for ext in predefined_extensions():
            if not any(e.name == ext.name for e in self.program.ext_funcs):
                self.program.ext_funcs.append(ext)
        for defn in self.program.funcs:
            self._add_func(defn, "composite")
        for defn in self.program.ext_funcs:
            self._add_func(defn, "extension")
        for defn in self.program.app_funcs:
            self._add_func(defn, "app")

    def _add_func(self, defn, kind: str) -> None:
        if defn.name in self.funcs:
            raise SwiftNameError(
                "function %r already defined" % defn.name, defn.line
            )
        self.funcs[defn.name] = FuncSig(
            name=defn.name,
            kind=kind,
            ins=[p.swift_type for p in defn.inputs],
            outs=[p.swift_type for p in defn.outputs],
            node=defn,
        )

    # -- entry ------------------------------------------------------------------

    def check(self) -> dict[str, FuncSig]:
        self.build_func_table()
        for defn in self.program.funcs:
            scope = SymScope()
            for p in defn.inputs + defn.outputs:
                scope.declare(p.name, p.swift_type, defn.line)
            self.check_block(defn.body, scope)
        for defn in self.program.app_funcs:
            self._check_app(defn)
        self.check_block(self.program.main, SymScope())
        return self.funcs

    def _check_app(self, defn: AppDef) -> None:
        scope = SymScope()
        for p in defn.inputs:
            if p.swift_type.is_array:
                raise SwiftTypeError(
                    "app inputs must be scalars", defn.line
                )
            scope.declare(p.name, p.swift_type, defn.line)
        if len(defn.outputs) > 1:
            raise SwiftTypeError(
                "app functions have at most one output", defn.line
            )
        for p in defn.outputs:
            if p.swift_type not in (STRING, VOID):
                raise SwiftTypeError(
                    "app output must be string (stdout) or void (signal)",
                    defn.line,
                )
        for word in defn.command:
            t = self.check_expr(word, scope)
            if t.is_array:
                raise SwiftTypeError(
                    "app command words must be scalars", word.line
                )

    # -- statements ----------------------------------------------------------------

    def check_block(self, block: Block, scope: SymScope) -> None:
        for stmt in block.stmts:
            self.check_stmt(stmt, scope)

    def check_stmt(self, stmt: Stmt, scope: SymScope) -> None:
        if isinstance(stmt, (Decl, Assign, ExprStmt)):
            if getattr(stmt, "priority", None) is not None:
                pt = self.check_expr(stmt.priority, scope)
                if pt != INT:
                    raise SwiftTypeError(
                        "@prio must be an int, got %s" % pt, stmt.line
                    )
            if getattr(stmt, "target", None) is not None:
                tt = self.check_expr(stmt.target, scope)
                if tt != INT:
                    raise SwiftTypeError(
                        "@target must be an int rank, got %s" % tt, stmt.line
                    )
        if isinstance(stmt, Decl):
            scope.declare(stmt.name, stmt.swift_type, stmt.line)
            if stmt.init is not None:
                self._check_assign_value(
                    LValue(line=stmt.line, name=stmt.name), [stmt.init], scope
                )
            return
        if isinstance(stmt, Assign):
            self._check_assign(stmt, scope)
            return
        if isinstance(stmt, ExprStmt):
            if not isinstance(stmt.expr, Call):
                raise SwiftTypeError("invalid expression statement", stmt.line)
            sig = self._sig(stmt.expr.func, stmt.line)
            self._check_call_args(stmt.expr, sig, scope)
            if any(t != VOID for t in sig.outs):
                raise SwiftTypeError(
                    "call to %r discards non-void outputs; assign them"
                    % stmt.expr.func,
                    stmt.line,
                )
            stmt.expr.type = VOID
            return
        if isinstance(stmt, If):
            cond_t = self.check_expr(stmt.cond, scope)
            if cond_t not in (BOOLEAN, INT):
                raise SwiftTypeError(
                    "if condition must be boolean or int, got %s" % cond_t,
                    stmt.line,
                )
            then_scope = SymScope(scope)
            self.check_block(stmt.then, then_scope)
            else_scope = SymScope(scope)
            if stmt.els is not None:
                self.check_block(stmt.els, else_scope)
            # conditional-close check for outer scalars
            def outer_scalar_assigns(s: SymScope) -> set[str]:
                return {
                    n
                    for n in s.assigned
                    if n not in s.vars and not scope.lookup(n, stmt.line).is_array
                }

            then_outer = outer_scalar_assigns(then_scope)
            else_outer = outer_scalar_assigns(else_scope)
            if then_outer != else_outer:
                missing = then_outer.symmetric_difference(else_outer)
                raise SwiftTypeError(
                    "scalar(s) %s assigned in only one branch of if; "
                    "they would never close on the other path"
                    % ", ".join(sorted(missing)),
                    stmt.line,
                )
            for name in then_outer:
                scope.mark_assigned(name, stmt.line)
            return
        if isinstance(stmt, Foreach):
            body_scope = SymScope(scope)
            if isinstance(stmt.iterable, RangeSpec):
                for bound in (stmt.iterable.lo, stmt.iterable.hi, stmt.iterable.step):
                    if bound is None:
                        continue
                    t = self.check_expr(bound, scope)
                    if t != INT:
                        raise SwiftTypeError(
                            "range bounds must be int, got %s" % t, stmt.line
                        )
                step = stmt.iterable.step
                if isinstance(step, Literal) and step.value == 0:
                    raise SwiftTypeError("range step must not be zero", stmt.line)
                body_scope.declare(stmt.var, INT, stmt.line)
                if stmt.index_var:
                    raise SwiftTypeError(
                        "index variable not allowed on range foreach", stmt.line
                    )
            else:
                t = self.check_expr(stmt.iterable, scope)
                if not t.is_array:
                    raise SwiftTypeError(
                        "foreach needs an array or range, got %s" % t, stmt.line
                    )
                body_scope.declare(stmt.var, t.element, stmt.line)
                if stmt.index_var:
                    body_scope.declare(stmt.index_var, INT, stmt.line)
            self.check_block(stmt.body, body_scope)
            return
        if isinstance(stmt, Wait):
            for e in stmt.exprs:
                self.check_expr(e, scope)
            self.check_block(stmt.body, SymScope(scope))
            return
        if isinstance(stmt, Block):
            self.check_block(stmt, SymScope(scope))
            return
        raise SwiftTypeError("unknown statement %r" % stmt, stmt.line)

    def _check_assign(self, stmt: Assign, scope: SymScope) -> None:
        if len(stmt.exprs) == 1 and isinstance(stmt.exprs[0], Call):
            sig = self._sig(stmt.exprs[0].func, stmt.line)
            if sig.kind != "intrinsic" and len(sig.outs) == len(stmt.targets) > 1:
                # multi-output call
                self._check_call_args(stmt.exprs[0], sig, scope)
                stmt.exprs[0].type = VOID
                for target, out_t in zip(stmt.targets, sig.outs):
                    self._check_target(target, out_t, scope)
                return
        if len(stmt.targets) != len(stmt.exprs):
            raise SwiftTypeError(
                "assignment arity mismatch: %d targets, %d values"
                % (len(stmt.targets), len(stmt.exprs)),
                stmt.line,
            )
        for target, expr in zip(stmt.targets, stmt.exprs):
            self._check_assign_value(target, [expr], scope)

    def _check_assign_value(
        self, target: LValue, exprs: list[Expr], scope: SymScope
    ) -> None:
        expr = exprs[0]
        t = self.check_expr(expr, scope)
        if t.is_array and target.index is None and not isinstance(expr, Call):
            raise SwiftTypeError(
                "whole-array assignment is only allowed from a function "
                "call output",
                target.line,
            )
        self._check_target(target, t, scope)

    def _check_target(self, target: LValue, value_t: SwiftType, scope: SymScope) -> None:
        var_t = scope.lookup(target.name, target.line)
        if target.index is not None:
            if not var_t.is_array:
                raise SwiftTypeError(
                    "%r is not an array" % target.name, target.line
                )
            idx_t = self.check_expr(target.index, scope)
            if idx_t != INT:
                raise SwiftTypeError(
                    "array index must be int, got %s" % idx_t, target.line
                )
            if not assignable(var_t.element, value_t):
                raise SwiftTypeError(
                    "cannot store %s into %s element" % (value_t, var_t),
                    target.line,
                )
            target.type = var_t.element
            return
        if not assignable(var_t, value_t):
            raise SwiftTypeError(
                "cannot assign %s to %r of type %s"
                % (value_t, target.name, var_t),
                target.line,
            )
        if not var_t.is_array:
            scope.mark_assigned(target.name, target.line)
        target.type = var_t

    # -- expressions -------------------------------------------------------------------

    def _sig(self, name: str, line: int) -> FuncSig:
        sig = self.funcs.get(name)
        if sig is None:
            raise SwiftNameError("unknown function %r" % name, line)
        return sig

    def _check_call_args(self, call: Call, sig: FuncSig, scope: SymScope) -> None:
        if sig.name == "size":
            if len(call.args) != 1:
                raise SwiftTypeError("size() takes one array", call.line)
            t = self.check_expr(call.args[0], scope)
            if not t.is_array:
                raise SwiftTypeError("size() needs an array, got %s" % t, call.line)
            return
        fixed = sig.ins
        if sig.variadic:
            if len(call.args) < len(fixed):
                raise SwiftTypeError(
                    "%s() needs at least %d argument(s)" % (sig.name, len(fixed)),
                    call.line,
                )
        elif len(call.args) != len(fixed):
            raise SwiftTypeError(
                "%s() takes %d argument(s), got %d"
                % (sig.name, len(fixed), len(call.args)),
                call.line,
            )
        for i, arg in enumerate(call.args):
            t = self.check_expr(arg, scope)
            if i < len(fixed):
                if not assignable(fixed[i], t):
                    raise SwiftTypeError(
                        "argument %d of %s(): expected %s, got %s"
                        % (i + 1, sig.name, fixed[i], t),
                        call.line,
                    )
            else:
                if t.is_array:
                    raise SwiftTypeError(
                        "variadic argument of %s() must be scalar" % sig.name,
                        call.line,
                    )

    def check_expr(self, expr: Expr, scope: SymScope) -> SwiftType:
        if isinstance(expr, Literal):
            v = expr.value
            if isinstance(v, bool):
                expr.type = BOOLEAN
            elif isinstance(v, int):
                expr.type = INT
            elif isinstance(v, float):
                expr.type = FLOAT
            else:
                expr.type = STRING
            return expr.type
        if isinstance(expr, VarRef):
            expr.type = scope.lookup(expr.name, expr.line)
            return expr.type
        if isinstance(expr, Subscript):
            arr_t = self.check_expr(expr.array, scope)
            if not arr_t.is_array:
                raise SwiftTypeError(
                    "subscript on non-array %s" % arr_t, expr.line
                )
            idx_t = self.check_expr(expr.index, scope)
            if idx_t != INT:
                raise SwiftTypeError(
                    "array index must be int, got %s" % idx_t, expr.line
                )
            expr.type = arr_t.element
            return expr.type
        if isinstance(expr, UnOp):
            t = self.check_expr(expr.operand, scope)
            if expr.op == "-":
                if not numeric(t):
                    raise SwiftTypeError("unary - needs a number", expr.line)
                expr.type = t
            else:  # !
                if t != BOOLEAN:
                    raise SwiftTypeError("! needs a boolean", expr.line)
                expr.type = BOOLEAN
            return expr.type
        if isinstance(expr, BinOp):
            lt = self.check_expr(expr.left, scope)
            rt = self.check_expr(expr.right, scope)
            op = expr.op
            if op == "+" and lt == STRING and rt == STRING:
                expr.type = STRING
            elif op in ("+", "-", "*", "%", "**"):
                expr.type = promote(lt, rt, op, expr.line)
            elif op == "/":
                # Swift '/' on ints is integer division; on floats, real
                expr.type = promote(lt, rt, op, expr.line)
            elif op in ("==", "!="):
                if lt != rt and not (numeric(lt) and numeric(rt)):
                    raise SwiftTypeError(
                        "cannot compare %s and %s" % (lt, rt), expr.line
                    )
                expr.type = BOOLEAN
            elif op in ("<", ">", "<=", ">="):
                if not (numeric(lt) and numeric(rt)) and not (
                    lt == STRING and rt == STRING
                ):
                    raise SwiftTypeError(
                        "cannot order %s and %s" % (lt, rt), expr.line
                    )
                expr.type = BOOLEAN
            elif op in ("&&", "||"):
                if lt != BOOLEAN or rt != BOOLEAN:
                    raise SwiftTypeError(
                        "%s needs boolean operands" % op, expr.line
                    )
                expr.type = BOOLEAN
            else:
                raise SwiftTypeError("unknown operator %r" % op, expr.line)
            return expr.type
        if isinstance(expr, Call):
            sig = self._sig(expr.func, expr.line)
            self._check_call_args(expr, sig, scope)
            if sig.name == "size":
                expr.type = INT
                return expr.type
            if len(sig.outs) != 1:
                raise SwiftTypeError(
                    "%s() has %d outputs; cannot be used in an expression"
                    % (sig.name, len(sig.outs)),
                    expr.line,
                )
            expr.type = sig.outs[0]
            return expr.type
        raise SwiftTypeError("cannot type-check %r" % expr, expr.line)


def analyze(program: Program) -> dict[str, FuncSig]:
    """Run semantic analysis; returns the function table."""
    return Checker(program).check()
