"""The ADLB server loop.

Each server owns a slice of the data store (TDs with ``id % n_servers``
matching its index), a work queue, and the parked GET requests of its
attached clients.  The first server additionally runs the distributed
termination counter: clients increment it for every unit of pending
work (rules, tasks, the initial program) and decrement on completion;
when it returns to zero the master fans out shutdown.  A client changes
state only through OP_COMMIT, a unit's op list for this server.  A
worker attached to the master returns its finished unit on its next GET
(``done``), and if that was the last one the GET is answered
"shutdown"; a reliable client never does, since a re-sent parked GET
is processed again and would count its ``done`` twice.

Work stealing: a server whose parked GETs cannot be satisfied locally
probes the other servers round-robin for untargeted tasks of the types
those GETs ask for, as in ADLB.

Every server also leases what it hands out (``leases``), drains a
poisoned run (``drain``) and routes through a :class:`ServerMap`
(``map``: the world's shared one, or its own).  Each opt-in
fault-tolerance feature is a collaborator object in its own module
(``replication``, ``journal``, ``checkpoint``), constructed only when
the feature is on — the attribute is ``None`` otherwise — and adding
its ops to the server's op table (DESIGN.md has the map).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..faults import RankKilled, TaskError, TaskFailure, snippet
from ..mpi import Comm
from . import constants as C
from .checkpoint import Checkpointer, load_shard
from .dataops import READ_OPS, apply_data_op
from .datastore import DataStore, DataStoreError, Notification
from .dedup import PARKED, REPLAY_SAFE_OPS, DedupTable, channel_of
from .drain import Drain
from .journal import Journals
from .layout import Layout, ServerMap
from .leases import Leases
from .replication import Replication, ReplStats
from .workqueue import Task, WorkQueue


@dataclass
class ParkedGet:
    rank: int
    types: tuple[str, ...]
    is_async: bool
    seq: int = -1  # reliable-RPC sequence of the parked request


@dataclass
class ServerStats:
    """Per-server counters: ``adlb.*`` in the run's metrics, and the
    ``RunResult.server_stats`` surface."""

    tasks_queued: int = 0
    tasks_matched: int = 0
    tasks_matched_targeted: int = 0
    steal_requests: int = 0
    tasks_stolen_in: int = 0
    tasks_stolen_out: int = 0
    data_ops: int = 0
    max_queue: int = 0
    idle_polls: int = 0


_NO_REPLY = object()


class Server:
    def __init__(
        self,
        comm: Comm,
        layout: Layout,
        lease_timeout: float = 60.0,
        max_retries: int = 2,
        on_error: str = "retry",
        server_map: ServerMap | None = None,
        replicate: bool = False,
        faults: Any | None = None,
        reliable: bool = False,
        checkpoint_path: str | None = None,
        checkpoint_interval: float | None = None,
        restore_shard: dict | None = None,
        journal: bool = False,
    ):
        self.comm = comm
        self.layout = layout
        self.rank = comm.rank
        # This rank's event ring / its level-1 alias (see Comm).
        self.ring = comm.ring
        self.tracer = comm.tracer
        # Reliable mode (re-sendable RPCs) and checkpoint restore can
        # replay a mutation that already landed; the store then treats
        # exact duplicates as no-ops instead of DoubleWriteError.
        self.store = DataStore(replay_ok=reliable or restore_shard is not None)
        self.queue = WorkQueue()
        self.parked: list[ParkedGet] = []
        metrics = comm.metrics
        self.stats = metrics.register("adlb", ServerStats(), self.rank)
        # Op-log and dedup counters share one struct: duplicates of
        # seq-stamped requests are reliable-RPC traffic, replicated or not.
        self.repl_stats: ReplStats | None = None
        if reliable or replicate:
            self.repl_stats = metrics.register("adlb.repl", ReplStats(), self.rank)
        self.dedup = DedupTable()
        self.on_error = on_error
        self.failures: list[TaskFailure] = []
        self._uid_counter = 0
        # termination counter, poison flag and id allocation (master only)
        self.is_master = self.rank == layout.master_server
        self.work_count = 0
        self.work_started = False
        # Set when a poisoned decrement reports a permanently failed
        # unit whose dependent dataflow can never resolve.
        self.poisoned = False
        self.next_id = 1
        # shutdown: each attached client (it sends its work requests
        # here) must be told to shut down before this server may exit.
        self.shutting_down = False
        self.attached_clients = {
            r
            for r in range(layout.size)
            if not layout.is_server(r) and layout.my_server(r) == self.rank
        }
        self._shutdown_acked: set[int] = set()
        self.dead_ranks: set[int] = set()  # clients swept by Leases.rank_dead
        # steal state: stealing is on whenever there is another server
        self.steal_inflight = False
        self._steal_ring = 0
        self.other_servers = [s for s in layout.servers if s != self.rank]
        # op -> handler(msg, source).  Each collaborator below adds its
        # own ops when constructed, so an op whose feature is off is
        # simply absent and gets the unknown-op error.
        self.ops: dict[str, Any] = {
            C.OP_GET: self._op_get,
            C.OP_GET_ASYNC: self._op_get,
            C.OP_ID_BLOCK: self._op_id_block,
            C.OP_COMMIT: self._op_commit,
            C.SOP_STEAL_REQ: self._op_steal_req,
            C.SOP_STEAL_RESP: self._op_steal_resp,
            C.SOP_SHUTDOWN: self._op_shutdown,
        }
        self.ops.update(dict.fromkeys(READ_OPS, self._op_data))
        # shard owners: the world's shared map, which failover re-points
        self.map = server_map or ServerMap(layout)
        self.faults = faults
        self.leases = Leases(self, lease_timeout, max_retries)
        self.drain = Drain(self)
        # ---- opt-in fault tolerance: one collaborator per feature, or None
        self.repl: Replication | None = None
        self.journals: Journals | None = None
        self.ckpt: Checkpointer | None = None
        if replicate:
            self.repl = Replication(self, lease_timeout)
        if journal:
            self.journals = Journals(self, lease_timeout)
        if checkpoint_path is not None:
            self.ckpt = Checkpointer(self, checkpoint_path, checkpoint_interval)
        if restore_shard is not None:
            load_shard(self, restore_shard)
        metrics.sources[self.rank] = self.state

    # ------------------------------------------------------------------ loop

    def run(self) -> ServerStats:
        """Serve until shutdown completes; returns server statistics."""
        if self.repl is not None:
            # Establish the ward heartbeat immediately so buddies can
            # tell "never started" from "died silently".
            self.repl.flush(heartbeat=True)
        try:
            while not self._done():
                if not self.pump(timeout=0.02):
                    self.stats.idle_polls += 1
                    self._idle_tick()
        except RankKilled as e:
            if self.repl is not None and not e.silent:
                self.repl.last_gasp()
            raise
        return self.stats

    def pump(self, timeout: float) -> bool:
        """Take one message off the mailbox, waiting up to ``timeout``
        for it, and dispatch it; False if none came.  The one place a
        server receives: ``run`` loops over it, a checkpoint drains
        what is already deposited with ``timeout=0``."""
        got = self.comm.recv_poll(timeout=timeout)
        self.leases.tick()
        if got is None:
            return False
        msg, status = got
        self.dispatch(msg, status.source, status.tag)
        return True

    def _done(self) -> bool:
        if self.repl is not None and not self.repl.wards_settled():
            return False
        released = self.shutting_down and self._shutdown_acked >= self.attached_clients
        return released and (self.journals is None or self.journals.settled())

    def _idle_tick(self) -> None:
        self._maybe_steal()
        if self.repl is not None:
            self.repl.tick()
        if self.journals is not None:
            self.journals.tick()
        if self.ckpt is not None:
            self.ckpt.tick()
        if self.poisoned and not self.shutting_down:
            self.drain.tick()

    def state(self) -> dict:
        """What this server holds right now (DESIGN.md, "Live state"):
        ``--monitor``, a hang report and the black box ask while the loop
        runs — from another thread, so plain reads, ``len()`` and
        C-level copies only — and the audit after it ended."""
        state = {
            "role": "server",
            "rank": self.rank,
            "is_master": self.is_master,
            "work_started": self.work_started,
            "work_count": self.work_count,
            "poisoned": self.poisoned,
            "queued_tasks": self.queue.size,
            "parked_gets": len(self.parked),
            "pending_copies": self.store.pending_copies,
            "dedup_slots": self.dedup.counts(),
            "dead_ranks": sorted(self.dead_ranks),
            "attached_clients": len(self.attached_clients),
            "failures": len(self.failures),
            **self.leases.state(),
        }
        for part in (self.journals, self.repl):
            if part is not None:
                state.update(part.state())
        return state

    # ---------------------------------------------------------------- dispatch

    def dispatch(self, msg: dict, source: int, tag: int) -> None:
        if self.faults is not None:
            directive = self.faults.on_server_op(self.rank)
            if directive is not None:
                # Fail-stop at the message boundary: nothing of this
                # dispatch has run, so the replicated image is exact.
                raise RankKilled(self.rank, silent=directive[1])
        op = msg["op"]
        handler = self.ops.get(op)
        seq = msg.get("seq", -1)
        if tag == C.TAG_SERVER:
            if handler is None:
                raise RuntimeError("unknown server op %r" % op)
            handler(msg, source)
        elif seq < 0 or not self._dedup_hit(op, source, seq):
            try:
                if handler is None:
                    raise DataStoreError("unknown ADLB op %r" % op)
                result = handler(msg, source)
            except DataStoreError as e:
                if tag != C.TAG_REQUEST:
                    raise
                self._reply(("error", str(e)), source, seq)
            else:
                if tag == C.TAG_REQUEST and result is not _NO_REPLY:
                    self._reply(("ok", result), source, seq)
            if self.repl is not None and seq >= 0 and op not in REPLAY_SAFE_OPS:
                cached = self.dedup.slots.get((source, "rpc"))
                if cached is not None and cached[0] == seq:
                    self.log(("dedup", source, seq, cached[1]))
        # Replication batches flush at every dispatch boundary, so the
        # buddy's image is at most one in-flight batch behind.
        if self.repl is not None and self.repl.buf:
            self.repl.flush()

    def _reply(self, payload: tuple, source: int, seq: int) -> None:
        """Send a TAG_RESPONSE reply, seq-stamped and dedup-cached when
        the request came from a reliable client."""
        if seq >= 0:
            payload = payload + (seq,)
            self.dedup.slots[source, "rpc"] = (seq, (C.TAG_RESPONSE, payload))
        self.comm.send(payload, source, C.TAG_RESPONSE)

    def _dedup_hit(self, op: str, source: int, seq: int) -> bool:
        """True when a seq-stamped request is a duplicate and was fully
        handled here (cached reply resent, or silently dropped)."""
        channel = channel_of(op)
        cached = self.dedup.slots.get((source, channel))
        if cached is None:
            return False
        cseq, (ctag, cpayload) = cached
        if seq > cseq:
            return False  # genuinely new request
        if seq < cseq:
            return True  # duplicate of an already-superseded request
        self.repl_stats.dedup_hits += 1
        if cpayload is PARKED:
            # Re-sent park (failover or resend timer): reprocess so the
            # request parks — or is served — at the current owner.
            self._unpark(source)
            return False
        if channel == "async":
            # Re-ack the park, then resend the grant; the client drops
            # whichever copy it already consumed by sequence number.
            self.comm.send(("parked", seq), source, C.TAG_RESPONSE)
        self.comm.send(cpayload, source, ctag)
        return True

    def log(self, entry: tuple) -> None:
        """Append a mutation to the replication op-log, if there is one
        (and a buddy left alive to ship it to)."""
        if self.repl is not None and self.repl.buddy is not None:
            self.repl.buf.append(entry)

    # ---------------------------------------------------------------- work ops

    def _op_tasks(self, msg: dict) -> None:
        """A TASKS op: ``tasks`` is a list of (type, payload, priority,
        target), accepted in order — parked GETs match in list order."""
        prov = msg.get("prov")
        for ttype, payload, priority, target in msg["tasks"]:
            task = Task(ttype, payload, priority, target, prov=prov)
            if self.tracer is not None:
                self.tracer.emit("put", task.type, task.target >= 0)
            self.accept_task(task)

    def _op_get(self, msg: dict, source: int) -> Any:
        """OP_GET (worker: the task comes back as the RPC reply) and
        OP_GET_ASYNC (engine: parked, delivery on the async channel)."""
        is_async = msg["op"] == C.OP_GET_ASYNC
        seq = msg.get("seq", -1)
        if is_async and seq >= 0:
            # Reliable clients block on this acknowledgement so
            # "parked" is distinguishable from "request lost"; it
            # goes out in every branch (the grant/shutdown travels
            # separately on the async channel).
            self.comm.send(("parked", seq), source, C.TAG_RESPONSE)
        # Asking for the next task completes the previous lease, and a
        # carried ``done`` gives back its counter unit: the last one
        # has this very GET answered "shutdown".
        if self.leases.take(source) is not None and self.journals is not None:
            self.journals.lease_returned(source)
        if "done" in msg:
            self._op_work({"amount": -msg["done"]})
        if self.shutting_down:
            self._tell_shutdown(source, is_async, seq)
            return _NO_REPLY
        types = tuple(msg["types"])
        task = self.queue.pop(types, source)
        if task is not None:
            self._record_match(task)
            self._send_grant(task, source, is_async, seq)
        else:
            if self.tracer is not None:
                self.tracer.emit("get_park", source)
            self._park(source, types, is_async, seq)
            self._maybe_steal()
        return _NO_REPLY

    def _op_id_block(self, msg: dict, source: int) -> tuple[int, int]:
        assert self.is_master, "id blocks come from the master server"
        start = self.next_id
        self.next_id += C.ID_BLOCK_SIZE
        self.log(("master", self.next_id))
        return (start, C.ID_BLOCK_SIZE)

    def _op_steal_req(self, msg: dict, source: int) -> None:
        tasks = self.queue.steal(msg["types"])
        for task in tasks:  # gone from here: the buddy's image must drop it too
            self.log(("task-", task.uid))
        self.stats.tasks_stolen_out += len(tasks)
        if self.tracer is not None:
            self.tracer.emit("steal_out", source, len(tasks))
        self.comm.send(
            {"op": C.SOP_STEAL_RESP, "tasks": tasks}, source, C.TAG_SERVER
        )

    def _op_steal_resp(self, msg: dict, source: int) -> None:
        self.steal_inflight = False
        tasks = msg["tasks"]
        self.stats.tasks_stolen_in += len(tasks)
        if self.tracer is not None:
            self.tracer.emit("steal_in", source, len(tasks))
        for task in tasks:
            self.accept_task(task)
        # Empty responses retry from the idle tick, not immediately,
        # to avoid a steal storm when the whole system is idle.

    def _maybe_steal(self) -> None:
        if (
            not self.other_servers
            or self.steal_inflight
            or not self.parked
            or self.shutting_down
        ):
            return
        victim = self.other_servers[self._steal_ring % len(self.other_servers)]
        self._steal_ring += 1
        self.steal_inflight = True
        self.stats.steal_requests += 1
        if self.tracer is not None:
            self.tracer.emit("steal_req", victim)
        # only what a parked GET here can take: the thief's own queue
        # may be full of the other types
        types = sorted({t for parked in self.parked for t in parked.types})
        self.comm.send({"op": C.SOP_STEAL_REQ, "types": types}, victim, C.TAG_SERVER)

    # ---------------------------------------------------------------- matching

    def _record_match(self, task: Task) -> None:
        self.stats.tasks_matched += 1
        if task.target >= 0:
            self.stats.tasks_matched_targeted += 1
        if self.tracer is not None:
            self.tracer.emit("match", task.type, task.target >= 0)

    def stamp(self, task: Task) -> Task:
        """Give a unit a stable identity, so op-log inserts/removals
        correlate and provenance can chain retried attempts to their
        original (only replicated or traced runs need one)."""
        if task.uid >= 0 or (self.repl is None and self.tracer is None):
            return task
        self._uid_counter += 1
        task = dataclasses.replace(task, uid=(self.rank << 20) | self._uid_counter)
        if self.tracer is not None:
            # Lineage node: a unit of queued work, linked back to
            # the rule/unit that spawned it.
            self.tracer.emit("task", task.uid, task.prov, task.type)
        return task

    def accept_task(self, task: Task) -> None:
        task = self.stamp(task)
        for i, parked in enumerate(self.parked):
            if task.type in parked.types and task.target in (-1, parked.rank):
                del self.parked[i]
                self._record_match(task)
                self._send_grant(task, parked.rank, parked.is_async, parked.seq)
                return
        self.queue.push(task)
        self.log(("task+", task))
        self.stats.tasks_queued += 1
        self.stats.max_queue = max(self.stats.max_queue, self.queue.size)

    def _send_grant(
        self, task: Task, source: int, is_async: bool, seq: int = -1
    ) -> None:
        """Hand a matched task to a client: lease it, send it, and
        replicate the grant (which doubles as the dedup record a
        failover heir resends)."""
        if is_async:
            payload: tuple = ("ctask", task.type, task.payload)
            tag = C.TAG_ASYNC
        else:
            payload = ("task", task.type, task.payload)
            tag = C.TAG_RESPONSE
        if seq >= 0:
            payload = payload + (seq,)
            channel = "async" if is_async else "rpc"
            self.dedup.slots[source, channel] = (seq, (tag, payload))
        self.leases.grant(task, source)
        if self.ring is not None:
            # Lineage edge: the queued unit was handed to this client;
            # the k-th grant to a rank pairs with its k-th executed unit
            # (one outstanding task per client).
            self.ring.emit(
                "grant",
                source,
                task.type,
                task.attempts,
                {"uid": task.uid} if self.tracer is not None else None,
            )
        self.comm.send(payload, source, tag)
        self.log(
            ("grant", task, source, seq if seq >= 0 else None, (tag, payload))
        )

    def _park(
        self, rank: int, types: tuple[str, ...], is_async: bool, seq: int
    ) -> None:
        """Park a GET; a re-sent park replaces any stale entry so one
        client never holds two parked requests on a channel."""
        self._unpark(rank)
        self.parked.append(ParkedGet(rank, types, is_async=is_async, seq=seq))
        if seq >= 0:
            channel = "async" if is_async else "rpc"
            self.dedup.slots[rank, channel] = (seq, (C.TAG_RESPONSE, PARKED))

    def _unpark(self, rank: int) -> None:
        self.parked = [p for p in self.parked if p.rank != rank]

    def forget_client(self, rank: int) -> None:
        """A dead client can never request work or ack shutdown again,
        and close notifications must stop chasing it (its adopter's
        re-subscription re-points them at itself)."""
        self.attached_clients.discard(rank)
        self._shutdown_acked.discard(rank)
        self._unpark(rank)
        self.store.drop_subscriber(rank)

    # ---------------------------------------------------------------- data ops

    def _op_commit(self, msg: dict, source: int) -> list[int]:
        """OP_COMMIT: a unit's data ops, TASKS and WORK, applied and
        logged one at a time in list order.  The first op rejected fails
        the commit; the ones before it stay applied, on the buddy too.
        Returns the ids its SUBSCRIBE ops found already closed."""
        closed = []
        for op in msg["ops"]:
            kind = op["op"]
            if kind == C.OP_TASKS:
                self._op_tasks(op)
            elif kind == C.OP_WORK:
                self._op_work(op)
            elif self._op_data(op, source) and kind == C.OP_SUBSCRIBE:
                closed.append(op["id"])
        return closed

    def _op_data(self, msg: dict, source: int) -> Any:
        op = msg["op"]
        if self.tracer is not None:
            self.tracer.emit("data", op.lower(), source)
        if op != C.OP_TYPEOF:  # a type query has never counted as a data op
            self.stats.data_ops += 1
        return self._apply(msg, source)

    def _apply(self, msg: dict, source: int) -> Any:
        """Apply a data op to this server's shard: log the mutation to
        the buddy, then emit the notifications it triggered."""
        notes: list[Notification] = []
        issued: list[dict] = []
        try:
            result, logged = apply_data_op(self.store, msg, source, notes, issued)
            if logged is not None:
                self.log(("data", logged))
        finally:
            if notes or issued:
                self._emit(notes, issued, msg["id"])
        return result

    def _emit(self, notes: list[Notification], issued: list[dict], src: int) -> None:
        """Notify; apply each issued op here or as a one-way commit at its
        TD's home.  An issued STORE is a copy of TD ``src`` (the op's TD)."""
        for note in notes:
            self.comm.send(("notify", note.id), note.rank, C.TAG_ASYNC)
        for op in issued:
            if op["op"] == C.OP_STORE and self.tracer is not None:
                self.tracer.emit("copy", op["id"], src)  # lineage
            home = self.map.home_server(op["id"])
            if home == self.rank:
                self._apply(op, self.rank)
            else:
                self.comm.send({"op": C.OP_COMMIT, "ops": [op]}, home, C.TAG_ONEWAY)

    # ------------------------------------------------------------- termination

    def _op_work(self, msg: dict) -> None:
        """A WORK op: move the counter by ``amount``.  A ``poison``ed
        decrement arms the drain; back at zero, the run shuts down."""
        assert self.is_master
        if msg.get("poison"):
            self.poisoned = True
        self.work_count += msg["amount"]
        if self.work_count < 0:
            raise DataStoreError("termination counter went negative")
        self.work_started = self.work_started or msg["amount"] > 0
        self._log_work()
        if self.work_count == 0 and self.work_started:
            self.initiate_shutdown()

    def _log_work(self) -> None:
        # Absolute counter state, not deltas: replays are idempotent.
        self.log(("work", self.work_count, self.work_started, self.poisoned))

    def decr_work(self, amount: int = 1, poison: bool = False) -> None:
        """Repair the termination counter for a unit the client will
        never account for (failed permanently, or its rank died)."""
        master = self.map.master
        op: dict = {"op": C.OP_WORK, "amount": -amount}
        if poison:
            op["poison"] = True
        if self.rank == master:
            self._op_work(op)
        else:
            self.comm.send({"op": C.OP_COMMIT, "ops": [op]}, master, C.TAG_ONEWAY)

    def fail_unit(self, msg: dict, source: int, task: Task | None) -> None:
        """An OP_TASK_FAIL with no attempt left (``task`` is the unit's
        lease — None for a report this server holds no lease for): in
        ``continue`` mode record the failure and repair the counter;
        otherwise surface a TaskError."""
        failure = TaskFailure(
            rank=source,
            kind=msg.get("kind", "task"),
            payload=snippet(task.payload) if task else "",
            attempts=task.attempts + 1 if task else 1,
            error=msg["error"],
            traceback=msg.get("traceback", ""),
        )
        self.failures.append(failure)
        if self.on_error == "continue":
            self.decr_work(poison=True)
            return
        raise TaskError(failure)

    # ---------------------------------------------------------------- shutdown

    def initiate_shutdown(self) -> None:
        for s in self.other_servers:
            self.comm.send({"op": C.SOP_SHUTDOWN}, s, C.TAG_SERVER)
        self._op_shutdown()

    def _op_shutdown(self, msg: dict | None = None, source: int = -1) -> None:
        if self.shutting_down:
            return
        self.shutting_down = True
        if self.ring is not None:
            self.ring.emit("shutdown")
        if self.repl is not None:
            self.repl.goodbye()
        for parked in self.parked:
            self._tell_shutdown(parked.rank, parked.is_async, parked.seq)
        self.parked = []

    def _tell_shutdown(self, rank: int, is_async: bool, seq: int) -> None:
        if is_async:
            self.comm.send(("shutdown",), rank, C.TAG_ASYNC)
        else:
            payload: tuple = ("shutdown",)
            if seq >= 0:
                payload = payload + (seq,)
                self.dedup.slots[rank, "rpc"] = (seq, (C.TAG_RESPONSE, payload))
            self.comm.send(payload, rank, C.TAG_RESPONSE)
        self._shutdown_acked.add(rank)
