"""The STC dataflow IR: what one unit of work computes, before any Tcl.

A :class:`Block` is the body of one unit of work (a generated proc, or
a branch printed in place): a list of :class:`Op` with explicit input
and output variables.  Every :class:`Var` is tagged *closed* — its
value is a plain Tcl value in the unit that spawns the consumers — or
*future* — a Turbine datum (TD) somebody will store later.  Lowering
(:mod:`repro.core.lower`) tags only literals and loop variables closed;
the passes (:mod:`repro.core.passes`) grow that set, and the printer
(:mod:`repro.core.codegen`) turns a closed value into a TD only where
it escapes.

Op kinds and what their fields mean:

``value``      ``fn`` is a value-proc command prefix; ``outs`` is one
               scalar or empty (a sink: trace, printf, assert)
``copy``       ``outs[0] = ins[0]``
``rule``       ``fn`` is a command over TD ids that registers its own
               rules: a library proc (containers, blobs) or a composite
               function's ``swift:f:NAME``
``leaf``       extension / app function named ``fn``: a WORK task
``subscript``  ``outs[0] = ins[0][ins[1]]``
``insert``     ``ins[0][ins[1]] = ins[2]``
``refcount``   add ``delta`` writer slots to container ``ins[0]``
``if``         ``ins[0]`` selects ``blocks[0]`` or ``blocks[1]``
``foreach``    ``ins`` is ``[lo, hi, step]`` or ``[array]``;
               ``vars`` the loop variables of ``blocks[0]``
``wait``       run ``blocks[0]`` once every one of ``ins`` is closed
``block``      a nested ``{ ... }``

Every op has ``kind`` / ``outs`` / ``ins`` / ``line``; the other fields
of :class:`Op` mean something for these kinds only:

=============  ========================================================
``fn``         value, rule (command prefix); leaf (function name)
``blocks``     if (2), foreach, wait, block (1)
``inline``     value, copy, if — set by closed-value propagation;
               foreach — set by the loops-of-leaves pass
``fusable``    value — from the intrinsic table (``assert`` is not)
``delta``      refcount
``vars``       foreach
``written``    foreach
``prio``       leaf
``target``     leaf
``by_value``   leaf — set by the by-value pass
``pre``        leaf — set by fusion
``post``       leaf — set by fusion
``elided``     leaf — set by fusion
=============  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .types import SwiftType


@dataclass(eq=False)
class Var:
    name: str  # the Swift name; "" for a compiler temporary
    type: SwiftType
    closed: bool = False
    # Must stay a TD whatever it is assigned: a function parameter, a
    # container element handed in from outside, or a variable assigned
    # from a nested block (so not in the order its block runs).
    pinned: bool = False
    wrc: int = 1  # containers: writer slots at allocation


@dataclass(frozen=True)
class Const:
    value: Any
    type: SwiftType
    closed = True


Operand = Var | Const


@dataclass(eq=False)
class Op:
    kind: str
    outs: list[Var] = field(default_factory=list)
    ins: list[Operand] = field(default_factory=list)
    fn: tuple[str, ...] | str = ""
    blocks: list["Block"] = field(default_factory=list)
    line: int = 0
    # value / copy / if: evaluated in the spawning unit as plain Tcl
    # (set by closed-value propagation); foreach: the body runs in the
    # loop proc, not as a control task per iteration
    inline: bool = False
    fusable: bool = True  # value: may run inside a leaf task
    delta: int = 0  # refcount
    vars: list[Var] = field(default_factory=list)  # foreach
    # foreach: (container, writer statements per iteration)
    written: list[tuple[Var, int]] = field(default_factory=list)
    # leaf: @prio / @target; whether closed inputs ship in the payload;
    # value ops fused into the task body before / after the template;
    # and the variables that therefore never become TDs
    prio: Operand | None = None
    target: Operand | None = None
    by_value: bool = False
    pre: list["Op"] = field(default_factory=list)
    post: list["Op"] = field(default_factory=list)
    elided: set[Var] = field(default_factory=set)


@dataclass(eq=False)
class Block:
    ops: list[Op] = field(default_factory=list)
    vars: list[Var] = field(default_factory=list)  # every Var created here
    # containers declared here: the declaration's writer slot is
    # released at the end of the block
    arrays: list[Var] = field(default_factory=list)


def operands(op: Op) -> Iterator[Operand]:
    """Everything ``op`` itself reads or writes (not its nested blocks)."""
    yield from op.ins
    yield from op.outs
    if op.kind == "leaf":
        for x in (op.prio, op.target):
            if x is not None:
                yield x
        for fused in op.pre + op.post:
            yield from fused.ins
            yield from fused.outs
    for arr, _w in op.written:
        yield arr


def all_ops(block: Block) -> Iterator[Op]:
    """Every op of ``block`` and of the blocks nested in it."""
    for op in block.ops:
        yield op
        for inner in op.blocks:
            yield from all_ops(inner)


def free_vars(*blocks: Block) -> list[Var]:
    """Variables the blocks use but do not create, in first-use order:
    what a proc made from them must be handed."""
    seen: dict[Var, None] = {}
    local: set[Var] = set()

    def walk(block: Block) -> None:
        local.update(block.vars)
        for op in block.ops:
            for x in operands(op):
                if isinstance(x, Var):
                    seen.setdefault(x)
            for b in op.blocks:
                walk(b)

    for b in blocks:
        walk(b)
    return [v for v in seen if v not in local]
