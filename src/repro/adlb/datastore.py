"""The ADLB typed data store.

Turbine data (TDs) live on servers.  A TD has a type, a value (or, for
containers, a subscript -> value mapping), a *write refcount* (the
number of outstanding writers/"slots"; the TD closes when it reaches
zero) and a *read refcount* (garbage collection).  Subscribers are
notified, and pending copies of it stored, when the TD closes.

This module is deliberately communication-free so its invariants can be
unit- and property-tested directly; :mod:`repro.adlb.server` drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .constants import OP_COPY, OP_STORE, SCALAR_TYPES, T_CONTAINER


class DataStoreError(RuntimeError):
    pass


class DoubleWriteError(DataStoreError):
    """A closed scalar TD was stored again (single-assignment violated)."""


class NotFoundError(DataStoreError):
    pass


class UnsetError(DataStoreError):
    """Retrieve of a TD (or subscript) that has no value yet."""


@dataclass
class TD:
    """One Turbine datum."""

    id: int
    type: str
    value: Any = None
    members: dict[str, Any] = field(default_factory=dict)
    is_set: bool = False
    write_refcount: int = 1
    read_refcount: int = 1
    # rank -> opaque info returned with the notification
    subscribers: list[int] = field(default_factory=list)
    # subscript -> TD ids its member is to be copied into once inserted
    member_refs: dict[str, list[int]] = field(default_factory=dict)
    # TD ids this TD's value is to be stored into once it closes
    copies: list[int] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.write_refcount <= 0


@dataclass
class Notification:
    """A pending close notification produced by a store/refcount op."""

    rank: int
    id: int


class DataStore:
    """Data store for one server; ids are owned by exactly one server.

    With ``replay_ok=True`` exact duplicates of already-applied
    mutations (same id/subscript *and* equal value, or a re-create with
    the same type) become no-ops instead of :class:`DoubleWriteError`.
    Servers enable this when fault tolerance is armed, because RPC
    re-sends after a failover and checkpoint-restore races can replay a
    mutation that already landed; genuinely conflicting writes still
    raise.  Default off — single-assignment stays strict.

    An op may issue ops to apply at their TD's home (a copy's store, an
    inserted member's ``COPY``), returned next to its notifications;
    ``pending_copies`` counts the copies registered and not yet issued.
    """

    def __init__(self, replay_ok: bool = False) -> None:
        self.tds: dict[int, TD] = {}
        self.replay_ok = replay_ok
        self.pending_copies = 0

    # -- lifecycle -----------------------------------------------------------

    def create(
        self,
        id: int,
        type: str,
        write_refcount: int = 1,
        read_refcount: int = 1,
    ) -> TD:
        if id in self.tds:
            if self.replay_ok and self.tds[id].type == type:
                return self.tds[id]
            raise DataStoreError("TD <%d> already exists" % id)
        if type != T_CONTAINER and type not in SCALAR_TYPES:
            raise DataStoreError("unknown data type %r" % type)
        if write_refcount < 1:
            raise DataStoreError("write refcount must be >= 1 at create")
        td = TD(
            id=id,
            type=type,
            write_refcount=write_refcount,
            read_refcount=read_refcount,
        )
        self.tds[id] = td
        return td

    def lookup(self, id: int) -> TD:
        td = self.tds.get(id)
        if td is None:
            raise NotFoundError("TD <%d> not found" % id)
        return td

    # -- store / retrieve -------------------------------------------------------

    def store(
        self,
        id: int,
        value: Any,
        subscript: str | None = None,
        decr_write: int = 1,
    ) -> tuple[list[Notification], list[dict]]:
        """Store a value; returns (close notifications, ops it issues)."""
        td = self.lookup(id)
        issued: list[dict] = []
        if subscript is None:
            if td.type == T_CONTAINER:
                raise DataStoreError(
                    "TD <%d> is a container; store needs a subscript" % id
                )
            if td.is_set:
                if self.replay_ok and td.value == value:
                    return [], []  # replayed duplicate: already applied
                raise DoubleWriteError(
                    "TD <%d> stored twice (single-assignment)" % id
                )
            td.value = value
            td.is_set = True
        else:
            if td.type != T_CONTAINER:
                raise DataStoreError("TD <%d> is not a container" % id)
            if subscript in td.members:
                if self.replay_ok and td.members[subscript] == value:
                    return [], []  # replayed duplicate: already applied
                raise DoubleWriteError(
                    "TD <%d>[%s] inserted twice" % (id, subscript)
                )
            td.members[subscript] = value
            for dst in td.member_refs.pop(subscript, []):
                self.pending_copies -= 1
                issued.append({"op": OP_COPY, "id": value, "dst": dst})
        notes, copies = self._decr_write(td, decr_write)
        return notes, issued + copies

    def _decr_write(self, td: TD, amount: int) -> tuple[list[Notification], list[dict]]:
        if amount == 0:
            return [], []
        already_closed = td.closed
        td.write_refcount -= amount
        if td.write_refcount < 0:
            raise DataStoreError(
                "TD <%d> write refcount went negative" % td.id
            )
        if td.closed and not already_closed:
            notes = [Notification(rank=r, id=td.id) for r in td.subscribers]
            stores = [{"op": OP_STORE, "id": dst, "value": td.value} for dst in td.copies]
            self.pending_copies -= len(td.copies)
            td.subscribers, td.copies = [], []
            return notes, stores
        return [], []

    def retrieve(self, id: int, subscript: str | None = None) -> Any:
        td = self.lookup(id)
        if subscript is None:
            if td.type == T_CONTAINER:
                # whole-container retrieve: subscript -> value mapping
                return dict(td.members)
            if not td.is_set:
                raise UnsetError("TD <%d> retrieved before set" % id)
            return td.value
        if td.type != T_CONTAINER:
            raise DataStoreError("TD <%d> is not a container" % id)
        if subscript not in td.members:
            raise UnsetError("TD <%d>[%s] retrieved before insert" % (id, subscript))
        return td.members[subscript]

    def carried(self, tasks: list) -> dict[int, Any] | None:
        """What a grant of ``tasks`` carries: ``{id: value}`` for each of
        their inputs that is here and set (so not a container) and not a
        blob, which ships as an id; None if there is none."""
        out = None
        for task in tasks:
            if task.inputs:
                for id in task.inputs:
                    td = self.tds.get(id)
                    if td is not None and td.is_set and not isinstance(td.value, bytes):
                        if out is None:
                            out = {}
                        out[id] = td.value
        return out

    def exists(self, id: int, subscript: str | None = None) -> bool:
        td = self.tds.get(id)
        if td is None:
            return False
        if subscript is None:
            return td.is_set if td.type != T_CONTAINER else True
        return subscript in td.members

    def enumerate(self, id: int) -> list[str]:
        td = self.lookup(id)
        if td.type != T_CONTAINER:
            raise DataStoreError("TD <%d> is not a container" % id)
        return list(td.members.keys())

    # -- dataflow ----------------------------------------------------------------

    def subscribe(self, id: int, rank: int) -> bool:
        """Register interest in a TD's close.

        Returns True if the TD is already closed (caller should treat
        the dependency as satisfied immediately — no notification will
        be sent).
        """
        td = self.lookup(id)
        if td.closed:
            return True
        td.subscribers.append(rank)
        return False

    def drop_subscriber(self, rank: int) -> None:
        """Forget a dead rank's close-subscriptions on every open TD.

        Its adopter re-subscribes for itself when it replays the
        journaled rules; notifications must not chase the corpse.
        """
        for td in self.tds.values():
            if not td.closed and rank in td.subscribers:
                td.subscribers = [r for r in td.subscribers if r != rank]

    def container_reference(self, id: int, subscript: str, dst: int) -> dict | None:
        """Arrange for member ``subscript`` of container ``id`` to be
        copied into TD ``dst``: the ``COPY`` of the member if it is
        present, else None and its insert issues the copy."""
        td = self.lookup(id)
        if td.type != T_CONTAINER:
            raise DataStoreError("TD <%d> is not a container" % id)
        if subscript in td.members:
            return {"op": OP_COPY, "id": td.members[subscript], "dst": dst}
        self._register(td.member_refs.setdefault(subscript, []), dst)
        return None

    def copy(self, id: int, dst: int) -> dict | None:
        """Arrange for TD ``id``'s value to be stored into TD ``dst``:
        the store if ``id`` is closed, else None and its close issues it."""
        td = self.lookup(id)
        if td.closed:
            return {"op": OP_STORE, "id": dst, "value": td.value}
        self._register(td.copies, dst)
        return None

    def _register(self, dsts: list[int], dst: int) -> None:
        # a replayed registration is already there
        if not (self.replay_ok and dst in dsts):
            dsts.append(dst)
            self.pending_copies += 1

    def refcount(
        self, id: int, read_delta: int = 0, write_delta: int = 0
    ) -> tuple[list[Notification], list[dict]]:
        """Adjust refcounts; may close (write) or free (read) the TD."""
        td = self.lookup(id)
        closed: tuple[list[Notification], list[dict]] = [], []
        if write_delta > 0:
            if td.closed:
                raise DataStoreError(
                    "TD <%d>: cannot add writers after close" % id
                )
            td.write_refcount += write_delta
        elif write_delta < 0:
            closed = self._decr_write(td, -write_delta)
        td.read_refcount += read_delta
        if td.read_refcount <= 0:
            del self.tds[id]
            self.pending_copies -= _pending(td)
        return closed

    # -- replication / checkpoint --------------------------------------------

    def snapshot(self) -> dict[int, dict[str, Any]]:
        """A plain-data image of every TD, for checkpointing or
        resilvering a replica.  Subscribers, member refs and copies
        travel too so a promoted replica keeps pending notifications
        and copies alive."""
        out: dict[int, dict[str, Any]] = {}
        for id, td in self.tds.items():
            out[id] = {
                "type": td.type,
                "value": td.value,
                "members": dict(td.members),
                "is_set": td.is_set,
                "write_refcount": td.write_refcount,
                "read_refcount": td.read_refcount,
                "subscribers": list(td.subscribers),
                "member_refs": {k: list(v) for k, v in td.member_refs.items()},
                "copies": list(td.copies),
            }
        return out

    def load_snapshot(self, image: dict[int, dict[str, Any]]) -> None:
        """Replace contents with a :meth:`snapshot` image."""
        self.tds = {}
        for id, d in image.items():
            td = TD(
                id=id,
                type=d["type"],
                value=d["value"],
                members=dict(d["members"]),
                is_set=d["is_set"],
                write_refcount=d["write_refcount"],
                read_refcount=d["read_refcount"],
                subscribers=list(d["subscribers"]),
                member_refs={k: list(v) for k, v in d["member_refs"].items()},
                copies=list(d["copies"]),
            )
            self.tds[id] = td
        self.pending_copies = sum(map(_pending, self.tds.values()))

    def absorb(self, other: "DataStore") -> None:
        """Merge another store's TDs into this one (promotion: the ids
        of distinct shards are disjoint by construction)."""
        for id, td in other.tds.items():
            self.tds.setdefault(id, td)
        self.pending_copies += other.pending_copies


def _pending(td: TD) -> int:
    return len(td.copies) + sum(map(len, td.member_refs.values()))
