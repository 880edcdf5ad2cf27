"""The STC optimiser: four rewrites on the IR, run in this order.

``-O0`` runs none of them and is the oracle: every op is a rule over
TDs.  Each pass only *marks* ops (or moves a value op into the leaf it
fuses with); what a mark means in Tcl is the printer's business, so the
same printer serves every level.
"""

from __future__ import annotations

from collections import Counter

from .errors import SwiftTypeError
from .ir import Block, Op, Var, free_vars, operands

_CLOSABLE = ("int", "float", "string", "boolean")


def nested(block: Block):
    """The blocks directly inside ``block``."""
    for op in block.ops:
        yield from op.blocks


def schedule(block: Block) -> None:
    """Order ``block`` so every closed variable is computed before the
    ops that read it — Swift statement order is not evaluation order.
    Stable: an op moves only as far as its inputs force it to."""
    late = {o for op in block.ops for o in op.outs if o.closed}
    if not late:
        return
    needs = {
        op: [
            x
            for x in [*operands(op), *(free_vars(*op.blocks) if op.blocks else ())]
            if type(x) is Var and x in late and x not in op.outs
        ]
        for op in block.ops
    }
    done: list[Op] = []
    waiting: list[Op] = []
    for op in block.ops:
        waiting.append(op)
        # emit op if it is ready, then whatever that (transitively) frees
        progress = True
        while progress and waiting:
            progress = False
            for ready in [w for w in waiting if late.isdisjoint(needs[w])]:
                waiting.remove(ready)
                done.append(ready)
                late.difference_update(ready.outs)
                progress = True
    if waiting:
        raise SwiftTypeError("codegen: closed values depend on each other")
    block.ops = done


# ---------------------------------------------------------------- (a)


def propagate_closed(block: Block, only: set[Op] | None = None) -> None:
    """Closed-value propagation: a value op (or copy) all of whose
    inputs are closed is computed in the spawning unit as plain Tcl and
    its output is closed too — least fixpoint, so a value assigned
    textually after its use still counts; an ``if`` on a closed
    condition is decided in place.  ``only`` restricts it to those ops."""
    changed = True
    while changed:
        changed = False
        for op in block.ops:
            if op.inline or op.kind not in ("value", "copy", "if"):
                continue
            if only is not None and op not in only:
                continue
            if all(x.closed for x in op.ins) and not any(
                o.pinned or o.type.base not in _CLOSABLE for o in op.outs
            ):
                op.inline = changed = True
                for o in op.outs:
                    o.closed = True
    schedule(block)
    for inner in nested(block):
        propagate_closed(inner, only)


def annotation_slice(block: Block) -> set[Op]:
    """The ops that compute a leaf's @prio / @target.  An annotation is
    a word of the spawn command, never a TD, so these are propagated at
    every level: whether ``@prio=p`` compiles does not depend on -O."""
    made_by: dict[Var, Op] = {}
    wanted: list = []

    def walk(b: Block) -> None:
        for op in b.ops:
            if op.kind in ("value", "copy"):
                made_by.update((o, op) for o in op.outs)
            elif op.kind == "leaf":
                wanted.extend(x for x in (op.prio, op.target) if x is not None)
        for inner in nested(b):
            walk(inner)

    walk(block)
    ops: set[Op] = set()
    while wanted:
        op = made_by.get(wanted.pop())
        if op is not None and op not in ops:
            ops.add(op)
            wanted.extend(op.ins)
    return ops


# ---------------------------------------------------------------- (b)


def leaves_by_value(block: Block) -> None:
    """Pass-by-value leaves: a leaf's closed scalar inputs travel in the
    task payload; only its future inputs are TDs (and rule inputs)."""
    for op in block.ops:
        if op.kind == "leaf":
            op.by_value = True
    for inner in nested(block):
        leaves_by_value(inner)


# ---------------------------------------------------------------- (c)


def count_uses(block: Block, uses: Counter) -> None:
    for op in block.ops:
        uses.update(x for x in op.ins if isinstance(x, Var))
    for inner in nested(block):
        count_uses(inner, uses)


def fuse_single_consumer(block: Block, uses: Counter | None = None) -> None:
    """Single-consumer fusion, both directions.  A fusable value op
    whose only future input is produced inside a by-value leaf, and read
    by nothing else, runs as that leaf's continuation on the worker; a
    value op with future inputs whose output only a leaf reads runs at
    the top of that leaf's task body.  Either way the TD between them
    disappears."""
    if uses is None:
        uses = Counter()
        count_uses(block, uses)
    if any(op.kind == "leaf" and op.by_value for op in block.ops):
        fuse_into_leaves(block, uses)
    for inner in nested(block):
        fuse_single_consumer(inner, uses)


def fuse_into_leaves(block: Block, uses: Counter) -> None:
    made_in = {o: op for op in block.ops if op.kind == "leaf" and op.by_value for o in op.outs}
    value_of = {
        op.outs[0]: op
        for op in block.ops
        if op.kind == "value" and op.outs and op.fusable and not op.inline
    }

    def private(x) -> bool:
        return isinstance(x, Var) and not x.closed and not x.pinned and uses[x] == 1

    fused: set[Op] = set()  # ops moved into a leaf: no longer the block's
    changed = True
    while changed:
        changed = False
        for op in list(block.ops):
            if op in fused:
                continue
            if op.kind == "value" and op.fusable and not op.inline:
                futures = [x for x in op.ins if not x.closed]
                if len(futures) == 1 and private(futures[0]) and futures[0] in made_in:
                    leaf = made_in[futures[0]]
                    leaf.post.append(op)
                    leaf.elided.add(futures[0])
                    for out in op.outs:
                        made_in[out] = leaf
                        value_of.pop(out, None)
                    block.ops.remove(op)
                    fused.add(op)
                    changed = True
            elif op.kind == "leaf" and op.by_value:
                for x in [*op.ins, *(y for pre in op.pre for y in pre.ins)]:
                    if private(x) and x in value_of:
                        producer = value_of.pop(x)
                        op.pre.insert(0, producer)
                        op.elided.add(x)
                        block.ops.remove(producer)
                        fused.add(producer)
                        changed = True
    if fused:
        schedule(block)  # a leaf now needs its fused ops' closed inputs


# ---------------------------------------------------------------- (d)


def inline_leaf_loops(block: Block) -> None:
    """Loops of leaves: a range ``foreach`` whose body only holds
    effects needs no unit of work per iteration — the loop's chunk proc
    runs the body in place."""
    for op in block.ops:
        if op.kind == "foreach" and len(op.ins) == 3:
            op.inline = holds_only(op.blocks[0])
    for inner in nested(block):
        inline_leaf_loops(inner)


def holds_only(block: Block) -> bool:
    """Whether running ``block`` in place only adds to the unit's held
    effects (writes, spawns, rules, decrements, printed lines) and runs
    plain Tcl on closed values, all of which ``turbine::drop`` cuts for
    a chunk's ``catch`` fallback.  What may wait on a TD keeps its
    control task: a composite call, an array ``foreach`` or one over a
    future bound."""

    def ok(op: Op) -> bool:
        if op.kind == "rule":  # the library's ``*_rule`` procs only hold
            return not op.fn[0].startswith("swift:f:")
        if op.kind == "foreach":
            return len(op.ins) == 3 and all(x.closed for x in op.ins)
        if op.kind == "block" or (op.kind == "if" and op.inline):
            return all(holds_only(b) for b in op.blocks)
        return True

    return all(ok(op) for op in block.ops)


#: ``-O0`` runs none; ``-O1`` (and ``-O2``, which equals it) all.
PASSES = (propagate_closed, leaves_by_value, fuse_single_consumer, inline_leaf_loops)
