"""Collectives, written over ``Comm.send`` / ``Comm.recv``.

Functions of a communicator, not methods of it: no engine, server or
worker calls one (the tests and the static-dispatch baseline do), and
written this way any transport that delivers point-to-point messages
gets them for nothing.  Every rank must call the same collectives in
the same order; an aborted world wakes them like any blocked ``recv``.
"""

from __future__ import annotations

import functools
import operator
from typing import Any

from .comm import Comm

# Reserved internal tag space for collectives (user tags must be >= 0
# and < _COLL_BASE).
_COLL_BASE = 1_000_000_000


def barrier(comm: Comm) -> None:
    """Nobody leaves before everybody has arrived: check in with rank
    0, which releases the others once it has heard from each."""
    tag = _COLL_BASE + 4
    if comm.rank != 0:
        comm.send(None, 0, tag)
        comm.recv(source=0, tag=tag)
        return
    for r in range(1, comm.size):
        comm.recv(source=r, tag=tag)
    for r in range(1, comm.size):
        comm.send(None, r, tag)


def bcast(comm: Comm, obj: Any, root: int = 0) -> Any:
    tag = _COLL_BASE + 1
    if comm.rank == root:
        for r in range(comm.size):
            if r != root:
                comm.send(obj, r, tag)
        return obj
    value, _ = comm.recv(source=root, tag=tag)
    return value


def gather(comm: Comm, obj: Any, root: int = 0) -> list[Any] | None:
    tag = _COLL_BASE + 2
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = obj
        for _ in range(comm.size - 1):
            value, st = comm.recv(tag=tag)
            out[st.source] = value
        return out
    comm.send(obj, root, tag)
    return None


def scatter(comm: Comm, objs: list[Any] | None, root: int = 0) -> Any:
    tag = _COLL_BASE + 3
    if comm.rank == root:
        assert objs is not None and len(objs) == comm.size
        for r in range(comm.size):
            if r != root:
                comm.send(objs[r], r, tag)
        return objs[root]
    value, _ = comm.recv(source=root, tag=tag)
    return value


def allgather(comm: Comm, obj: Any) -> list[Any]:
    gathered = gather(comm, obj, root=0)
    return bcast(comm, gathered, root=0)


def reduce(comm: Comm, obj: Any, op=None, root: int = 0) -> Any:
    values = gather(comm, obj, root=root)
    if values is None:  # not the root
        return None
    return functools.reduce(op or operator.add, values)


def allreduce(comm: Comm, obj: Any, op=None) -> Any:
    return bcast(comm, reduce(comm, obj, op=op, root=0), root=0)
