"""The one function that applies a client data op to a ``DataStore``.

Both the owning server (answering the client, emitting notifications,
logging the mutation to its buddy) and the buddy's shadow replica
(replaying that log) go through :func:`apply_data_op`, so the wire
format of a data op is decoded in exactly one place.  A client mutates
(and subscribes) only inside an ``OP_COMMIT``, whose data ops the
server applies (and logs) here one at a time; a running unit's scratch
store applies the ops on the TDs it created here too.
"""

from __future__ import annotations

from typing import Any

from . import constants as C
from .datastore import DataStore, Notification, RefStore

#: the data ops a server takes outside a commit: the reads
READ_OPS = {C.OP_RETRIEVE, C.OP_EXISTS, C.OP_ENUMERATE, C.OP_TYPEOF}


def apply_data_op(
    s: DataStore,
    msg: dict,
    source: int,
    notes: list[Notification],
    refs: list[RefStore],
) -> tuple[Any, dict | None]:
    """Apply one data op; returns ``(reply value, op-log form)``.

    Close notifications and container-reference store-throughs the op
    triggers are appended to ``notes`` / ``refs`` (also when the op
    raises part-way) for the owner to emit; a replica discards them.
    The op-log form is the message a shadow must replay to reach the
    same state, ``None`` when the op mutated nothing.  ``source``
    stands in for a SUBSCRIBE that names no rank.
    """
    op = msg["op"]
    if op == C.OP_CREATE:
        s.create(
            msg["id"],
            msg["type"],
            write_refcount=msg.get("write_refcount", 1),
            read_refcount=msg.get("read_refcount", 1),
        )
        return msg["id"], msg
    if op == C.OP_STORE:
        closed, through = s.store(
            msg["id"],
            msg["value"],
            subscript=msg.get("subscript"),
            decr_write=msg.get("decr_write", 1),
        )
        notes += closed
        refs += through
        return None, msg
    if op == C.OP_REFCOUNT:
        notes += s.refcount(
            msg["id"],
            read_delta=msg.get("read_delta", 0),
            write_delta=msg.get("write_delta", 0),
        )
        return None, msg
    if op == C.OP_RETRIEVE:
        return s.retrieve(msg["id"], subscript=msg.get("subscript")), None
    if op == C.OP_EXISTS:
        return s.exists(msg["id"], subscript=msg.get("subscript")), None
    if op == C.OP_TYPEOF:
        return s.lookup(msg["id"]).type, None
    if op == C.OP_ENUMERATE:
        return s.enumerate(msg["id"]), None
    if op == C.OP_SUBSCRIBE:
        rank = msg.get("rank", source)
        closed = s.subscribe(msg["id"], rank)
        # Already closed: nothing was registered, nothing to replicate.
        return closed, None if closed else dict(msg, rank=rank)
    assert op == C.OP_CONTAINER_REF, op
    ref = s.container_reference(msg["id"], msg["subscript"], msg["ref_id"])
    if ref is None:
        return None, msg
    # Member already present: only the store-through happens (and is
    # logged by whichever server owns the reference TD).
    refs.append(ref)
    return None, None
