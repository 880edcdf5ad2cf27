"""Client-side ADLB API used by engines and workers.

Wraps the RPC protocol.  A client changes server state only through
OP_COMMIT: :meth:`AdlbClient.commit` takes a unit's whole op list —
writes and subscribes, each routed to its TD's home server, tasks to
the server they are bound for, the termination-counter move to the
master — and sends it as one commit per server.  ``create``, ``store``,
``subscribe``, ``put``, ``incr_work`` and ``decr_work`` are one-op
commits.  The client holds no data state: every call is applied when
it returns — but a worker's finished units wait for its next GET to
carry them: their counter units (``done``), and the op lists of those
whose ops all go to the worker's own server (DESIGN.md, "A leaf's
commit rides its GET; its closed input rides its grant").  A grant may
carry the values of its tasks' closed inputs, which answer the
bundle's retrieves of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mpi import Comm
from . import constants as C
from .layout import Layout, ServerMap

#: seconds a reliable request waits for its reply before it is re-sent
RESEND_INTERVAL = 0.25


class AdlbError(RuntimeError):
    pass


@dataclass
class ClientRpcStats:
    """Reliable-RPC counters, registered as ``adlb.rpc.*``."""

    sent: int = 0  # seq-stamped requests issued
    resends: int = 0  # re-sends after the resend-interval expired
    failovers: int = 0  # re-sends triggered by a ServerMap epoch bump
    stale_replies: int = 0  # replies dropped by sequence mismatch


@dataclass(slots=True)
class _Pending:
    """One outstanding seq-stamped request: what to re-send, and the
    ServerMap epoch and time it last went out."""

    msg: dict
    anchor: int
    seq: int
    epoch: int
    last_send: float


class AdlbClient:
    def __init__(
        self,
        comm: Comm,
        layout: Layout,
        server_map: ServerMap | None = None,
        reliable: bool = False,
    ):
        self.comm = comm
        self.layout = layout
        self.rank = comm.rank
        # This rank's event ring / its level-1 alias (see Comm); the
        # engine or worker on this rank shares both.
        self.ring = comm.ring
        self.tracer = comm.tracer
        # Provenance context: the id of the unit of work (task / fired
        # rule / control task / program) currently executing on this
        # rank.  Set by the rank's UnitRunner when tracing; every
        # store committed while it is set emits a ``prov.write`` lineage
        # edge (unit -> td) into the trace.
        self.prov_unit: str | None = None
        # Optional poll hook invoked while blocked in recv_async; the
        # engine installs its journal heartbeat here so the anchor can
        # tell a quiet engine from a silently-dead one.
        self.tick: Any | None = None
        # Static layout anchor, resolved through the world's ServerMap
        # at send time, so a failover re-routes every later request to
        # the shard's heir transparently.
        self.my_server = layout.my_server(self.rank)
        self.map = server_map or ServerMap(layout)
        self._id_next = 0
        self._id_limit = 0
        # ---- reliable RPC state ---------------------------------------
        self.reliable = reliable
        self.rpc_stats = ClientRpcStats()
        if reliable:
            comm.metrics.register("adlb.rpc", self.rpc_stats, self.rank)
        self._seq = 0
        # outstanding async park (park_async .. its grant in recv_async),
        # and async messages taken while waiting for its acknowledgement
        self._park: _Pending | None = None
        self._taken: list[tuple] = []
        # counter units a worker owes its next GET (``done``): its only
        # decrement is a unit's commit, followed, after the rest of the
        # unit's bundle, by a GET.
        self.carries_done = not layout.is_engine(self.rank)
        self._done = 0
        # (place, ops) of the finished units whose op lists ride the next
        # GET, and the running unit's place in its bundle (a worker sets it)
        self.riding: list[tuple[int, list[dict]]] = []
        self.place = 0
        # {td: value} the current bundle's grant carried
        self._carried: dict | None = None

    # ------------------------------------------------------------------- RPC

    def _rpc(self, server: int, msg: dict) -> Any:
        if self.reliable:
            reply = self._await(self._post(server, msg))
        else:
            self.comm.send(msg, server, C.TAG_REQUEST)
            reply, _ = self.comm.recv(source=server, tag=C.TAG_RESPONSE)
        if reply[0] == "error":
            raise AdlbError(reply[1])
        return reply[1]

    def _oneway(self, server: int, msg: dict) -> None:
        if self.reliable:
            # Fire-and-forget is unrecoverable after a failover or a
            # dropped message; reliable mode upgrades every oneway to an
            # acknowledged, idempotently re-sendable RPC.
            self._await(self._post(server, msg))
            return
        self.comm.send(msg, server, C.TAG_ONEWAY)

    def _post(self, anchor: int, msg: dict) -> _Pending:
        """Issue a reliable request: stamp it with the next per-client
        sequence number and send it to the anchor's current owner."""
        self._seq += 1
        msg = dict(msg, seq=self._seq)
        self.rpc_stats.sent += 1
        pending = _Pending(msg, anchor, self._seq, self.map.epoch, self.comm.now())
        self.comm.send(msg, self.map.resolve(anchor), C.TAG_REQUEST)
        return pending

    def _await(self, p: _Pending) -> tuple:
        """Wait for the reply to ``p``: at-least-once delivery with
        at-most-once server-side effects.

        Servers dedup on the sequence number and cache the reply, so
        re-sends (resend-interval expiry, or a ServerMap epoch bump
        after a failover) are safe even for mutating ops.  Replies echo
        the sequence; anything else in the response stream is a stale
        duplicate and is dropped."""
        while True:
            got = self.comm.recv_poll(tag=C.TAG_RESPONSE, timeout=0.02)
            if got is not None:
                reply, _ = got
                if reply and reply[-1] == p.seq:
                    return reply[:-1]
                self.rpc_stats.stale_replies += 1
                continue
            if p is self._park and self._park_answered(p.seq):
                return ("parked",)
            now = self.comm.now()
            cur = self.map.epoch
            if cur != p.epoch:
                p.epoch = cur
                self.rpc_stats.failovers += 1
            elif now - p.last_send < RESEND_INTERVAL:
                continue
            else:
                self.rpc_stats.resends += 1
            self.comm.send(p.msg, self.map.resolve(p.anchor), C.TAG_REQUEST)
            p.last_send = now

    def _park_answered(self, seq: int) -> bool:
        """True when the async channel holds the park's grant or a
        shutdown, after which its acknowledgement may never come; what
        is taken waits for :meth:`recv_async`, in order."""
        while (got := self.comm.recv_poll(tag=C.TAG_ASYNC, timeout=0)) is not None:
            self._taken.append(got[0])
        return any(
            msg[0] == "shutdown" or (msg[0] == "ctask" and msg[3:] == (seq,))
            for msg in self._taken
        )

    # ------------------------------------------------------------------ work

    def bound_for(self, target: int) -> int:
        """The server a task for ``target`` (-1: any rank) is queued on."""
        return self.my_server if target < 0 else self.layout.my_server(target)

    def tasks(self, spawns: list[tuple], prov: str | None = None) -> list[dict]:
        """TASKS ops for ``(type, payload, priority, target, server)``
        spawns, one per server, in order; ``prov``, the rule or unit that
        spawned them (a lineage edge source), rides on traced runs only."""
        if prov is None and self.tracer is not None:
            prov = self.prov_unit
        by_server: dict[int, list[tuple]] = {}
        for spawn in spawns:
            by_server.setdefault(spawn[4], []).append(spawn[:4])
        tail = {} if prov is None else {"prov": prov}
        return [{"op": C.OP_TASKS, "server": s, "tasks": t, **tail} for s, t in by_server.items()]

    def put(
        self,
        payload: Any,
        type: str = C.WORK,
        priority: int = 0,
        target: int = -1,
        prov: str | None = None,
        inputs: list | tuple = (),
    ) -> None:
        """Submit one task, which names the TDs ``inputs`` its grant
        carries the closed values of: a one-op :meth:`commit`."""
        spawn = (type, payload, priority, target, self.bound_for(target))
        ops = self.tasks([spawn], prov)
        if inputs:
            ops[0]["tasks"][0] += (tuple(inputs),)
        self.commit(ops)

    def get(self, types: tuple[str, ...] = (C.WORK,)) -> list[tuple[str, Any]] | None:
        """Blocking get; returns a bundle — a list of up to
        ``GET_BUNDLE`` (type, payload) pairs, to run in order — or None
        on shutdown.

        Asking for the next bundle also completes the lease on the
        previous one, and gives back what the carried :meth:`decr_work`
        calls of its units owe, with the op lists that ride."""
        msg: dict = {"op": C.OP_GET, "types": list(types)}
        if self._done:
            msg["done"], self._done = self._done, 0
        if self.riding:
            msg["units"], self.riding = self.riding, []
        self._carried = None
        if self.reliable:
            reply = self._await(self._post(self.my_server, msg))
        else:
            self.comm.send(msg, self.map.resolve(self.my_server), C.TAG_REQUEST)
            reply, _ = self.comm.recv(source=self.my_server, tag=C.TAG_RESPONSE)
        if reply[0] == "shutdown":
            return None
        if reply[0] == "task":
            if len(reply) > 2:
                self._carried = reply[2]
            return reply[1]
        raise AdlbError("unexpected get reply %r" % (reply,))

    def park_async(self, types: tuple[str, ...] = (C.CONTROL,)) -> None:
        """Engine-style parked get; delivery arrives on the async channel."""
        msg = {"op": C.OP_GET_ASYNC, "types": list(types)}
        if not self.reliable:
            self._oneway(self.my_server, msg)
            return
        # Wait for the ("parked", seq) acknowledgement so "parked" is
        # distinguishable from "request lost"; the grant itself arrives
        # on the async channel whenever work shows up.
        self._park = self._post(self.my_server, msg)
        self._await(self._park)

    def recv_async(self) -> tuple:
        """Receive the next async event: ('notify', id) |
        ('ctask', type, payload) | ('ckpt', gen) | ('adopt', rank,
        rules, repair) | ('shutdown',)."""
        if not self.reliable and self.tick is None:
            msg, _ = self.comm.recv(tag=C.TAG_ASYNC)
            return msg
        while True:
            if self._taken:
                got = (self._taken.pop(0), None)
            else:
                got = self.comm.recv_poll(tag=C.TAG_ASYNC, timeout=0.05)
            if got is not None:
                msg, _ = got
                if msg[0] == "ctask":
                    if len(msg) > 3:
                        if self._park is None or msg[3] != self._park.seq:
                            # duplicate of an already-consumed grant
                            self.rpc_stats.stale_replies += 1
                            continue
                        # Consume the park: later copies of this grant
                        # (failover resends) no longer match.
                        self._park = None
                        return msg[:3]
                return msg
            if self.tick is not None:
                self.tick()
            park, cur = self._park, self.map.epoch
            if park is not None and cur != park.epoch:
                # Our server died while we were parked: re-park at
                # the heir (same seq — its dedup table knows whether
                # the dead server already granted us something).
                park.epoch = cur
                self.rpc_stats.failovers += 1
                self.comm.send(park.msg, self.map.resolve(park.anchor), C.TAG_REQUEST)

    def journal(self, entries: list) -> None:
        """Stream rule-lifecycle journal entries to the anchor server.

        An empty list is a pure heartbeat (refreshes the journal's
        last-heard stamp).  Always a raw oneway, even in reliable mode:
        the thread-backed transport guarantees in-order delivery, a
        flush after the final counter decrement must not block on a
        server that already shut down, and entries stranded in a dead
        server's mailbox are recovered by the heir's scavenge pass
        (the message carries ``rank`` so provenance survives)."""
        self.comm.send(
            {"op": C.OP_JOURNAL, "rank": self.rank, "entries": entries},
            self.map.resolve(self.my_server),
            C.TAG_ONEWAY,
        )

    def task_fail(self, kind: str, error: str, traceback_text: str = "") -> None:
        """Report the running leased task (at :attr:`place`) as failed;
        ownership of the unit (and its termination-counter increment)
        passes back to the server, which will retry it or give up per
        its retry policy."""
        self._oneway(
            self.my_server,
            {
                "op": C.OP_TASK_FAIL,
                "kind": kind,
                "error": error,
                "traceback": traceback_text,
                "unit": self.place,
            },
        )

    # ------------------------------------------------------------------ data

    def allocate_id(self) -> int:
        if self._id_next >= self._id_limit:
            start, size = self._rpc(
                self.layout.master_server, {"op": C.OP_ID_BLOCK}
            )
            self._id_next, self._id_limit = start, start + size
        td_id = self._id_next
        self._id_next += 1
        return td_id

    def create(
        self, type: str, write_refcount: int = 1, read_refcount: int = 1, id: int | None = None
    ) -> int:
        """Create a TD at once: a one-op :meth:`commit`."""
        td_id = self.allocate_id() if id is None else id
        op = {"op": C.OP_CREATE, "id": td_id, "type": type, "write_refcount": write_refcount}
        self.commit([dict(op, read_refcount=read_refcount)])
        return td_id

    def store(self, id: int, value: Any, subscript: str | None = None, decr_write: int = 1) -> None:
        """Store at once: a one-op :meth:`commit`."""
        op = {"op": C.OP_STORE, "id": id, "value": value, "subscript": subscript}
        self.commit([dict(op, decr_write=decr_write)])

    def commit(self, ops: list[dict]) -> list[int]:
        """Apply a unit's ops, in order, as one OP_COMMIT per server (a
        oneway if it carries no data op); returns the ids its SUBSCRIBE
        ops found already closed.  A data op goes to its TD's home
        server, a TASKS op to its ``server``, WORK to the master.

        An op on one server can publish the id of a TD created on
        another (an insert of it that closes its container, a container
        reference or COPY whose server stores into ``dst`` at once), and
        a reader may then subscribe to that TD, or that store reach it,
        before its create lands; so such a create goes first, in a commit
        of its own per server.  Every op a server can reject lands before the
        counter move: the master's commit, which carries WORK, goes last.
        A TASKS op for another server follows it, so its tasks are
        counted before anything can run them.  A plain decrement last in
        ``ops`` rides the next :meth:`get` where the client
        :attr:`carries_done`, owed only once the rest has landed; the
        rest rides that GET too if all of it goes to this client's
        server and subscribes to nothing (the server applies it only
        while the lease the GET closes is still this client's)."""
        last = ops[-1] if ops else {}
        if self.carries_done and last.get("amount", 0) < 0 and "poison" not in last:
            ops, closed = ops[:-1], []
            if ops:
                mine, home = self.my_server, self.layout.home_server
                if last["amount"] == -1 and all(
                    op["server"] == mine if op["op"] == C.OP_TASKS
                    else op["op"] not in (C.OP_SUBSCRIBE, C.OP_WORK) and home(op["id"]) == mine
                    for op in ops
                ):
                    self._trace_writes(ops)
                    self.riding.append((self.place, ops))
                else:
                    closed = self.commit(ops)
            self._done -= last["amount"]
            return closed
        if not ops:
            return []
        home, master = self.layout.home_server, self.layout.master_server
        self._trace_writes(ops)
        # TD id an op may publish (a member, a copy's dst) -> its servers
        publishers: dict[int, set[int]] = {}
        for op in ops:
            published = op.get("dst", op.get("value"))
            if op["op"] != C.OP_CREATE and isinstance(published, int):
                publishers.setdefault(published, set()).add(home(op["id"]))
        # (phase, is the master, server) -> its ops, sent in key order:
        # early creates, the rest (the master's last), the other TASKS
        groups: dict[tuple, list[dict]] = {}
        rpcs = set()  # the keys whose ops include a data op
        for op in ops:
            kind = op["op"]
            if kind == C.OP_WORK:
                key = (1, True, master)
            elif kind == C.OP_TASKS:
                server = op["server"]
                key = (1, True, server) if server == master else (2, False, server)
            else:
                server = home(op["id"])
                early = kind == C.OP_CREATE and publishers.get(op["id"], set()) - {server}
                key = (0 if early else 1, server == master, server)
                rpcs.add(key)
            groups.setdefault(key, []).append(op)
        closed: list[int] = []
        for key in sorted(groups):
            msg = {"op": C.OP_COMMIT, "ops": groups[key]}
            if key in rpcs:
                closed += self._rpc(key[2], msg)
            else:
                self._oneway(key[2], msg)
        return closed

    def _trace_writes(self, ops: list[dict]) -> None:
        if self.tracer is not None:
            for op in ops:
                if op["op"] == C.OP_STORE:
                    # Lineage edge: the current unit wrote this TD; it is
                    # readable from now on.
                    self.tracer.emit("write", op["id"], self.prov_unit, op.get("subscript"))

    def read(self, msg: dict) -> Any:
        """A read of ``msg["id"]``: the one data op outside a commit.  A
        whole-TD retrieve of a value the bundle's grant carried is
        answered here."""
        carried = self._carried
        if carried and msg["id"] in carried and msg["op"] == C.OP_RETRIEVE:
            if msg.get("subscript") is None:
                return carried[msg["id"]]
        return self._rpc(self.layout.home_server(msg["id"]), msg)

    def retrieve(self, id: int, subscript: str | None = None) -> Any:
        return self.read({"op": C.OP_RETRIEVE, "id": id, "subscript": subscript})

    def subscribe(self, id: int) -> bool:
        """Subscribe to a TD's close (a one-op :meth:`commit`); True if closed."""
        return bool(self.commit([{"op": C.OP_SUBSCRIBE, "id": id, "rank": self.rank}]))

    # ----------------------------------------------------------- termination

    def work(self, amount: int, poison: bool = False) -> list[dict]:
        """The WORK ops that move the termination counter by ``amount``:
        none for 0.  ``poison=True`` marks a decrement from a unit that
        failed for good under ``continue``: dataflow blocked on its
        outputs never resolves, so the master arms quiescence-based
        drain shutdown."""
        op: dict = {"op": C.OP_WORK, "amount": amount}
        if poison:
            op["poison"] = True
        return [op] if amount else []

    def incr_work(self, amount: int = 1) -> None:
        self.commit(self.work(amount))

    def decr_work(self, amount: int = 1, poison: bool = False) -> None:
        self.commit(self.work(-amount, poison))
