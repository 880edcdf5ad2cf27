"""The ADLB server loop.

Each server owns a slice of the data store (TDs with ``id % n_servers``
matching its index), a work queue, and the parked GET requests of its
attached clients.  The first server additionally runs the distributed
termination counter: clients increment it for every unit of pending
work (rules, tasks, the initial program) and decrement on completion;
when it returns to zero the master fans out shutdown.

Work stealing: a server whose parked GETs cannot be satisfied locally
probes the other servers round-robin for untargeted tasks, as in ADLB.

Fault tolerance (``replicate=True``): every mutation — data-store ops,
work-queue inserts/grants, termination-counter changes — is logged to
the server's *buddy* (the next live server in ring order) as batched
``SOP_REPLICATE`` entries, flushed at every dispatch boundary.  Injected
kills fire *between* dispatches (fail-stop), so a dead server's
replicated image is exact.  The buddy detects death by notification or
heartbeat loss, promotes the replica shard, re-routes clients via the
shared epoch-stamped :class:`~repro.adlb.layout.ServerMap`, adopts the
dead server's leases and attached clients, and scavenges its undelivered
mailbox.  Without replication, a server death raises a diagnostic
:class:`~repro.faults.ServerLost` instead of hanging the run.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from dataclasses import dataclass, field
from typing import Any

from ..faults import (
    EngineLost,
    QuarantinedTask,
    RankKilled,
    ServerLost,
    TaskError,
    TaskFailure,
    snippet,
)
from ..mpi import Comm
from . import constants as C
from .datastore import DataStore, DataStoreError, Notification, RefStore
from .layout import Layout, ServerMap
from .workqueue import Task, WorkQueue


@dataclass
class ParkedGet:
    rank: int
    types: tuple[str, ...]
    is_async: bool
    seq: int = -1  # reliable-RPC sequence of the parked request


@dataclass
class _Lease:
    """One handed-out work unit awaiting completion by ``client``."""

    task: Task
    client: int
    deadline: float


@dataclass
class LeaseStats:
    """Lease-layer counters, folded into metrics as ``adlb.lease.*``."""

    granted: int = 0
    requeued: int = 0
    expired: int = 0
    dead_ranks: int = 0
    failed_permanent: int = 0


@dataclass
class ReplStats:
    """Replication counters, folded into metrics as ``adlb.repl.*``."""

    batches_sent: int = 0
    entries_sent: int = 0
    entries_applied: int = 0
    heartbeats: int = 0
    resilvers: int = 0
    server_deaths: int = 0
    promotions: int = 0
    scavenged_msgs: int = 0
    dedup_hits: int = 0
    # Peak op-log entries sent but not yet acked by the buddy (worst
    # replication lag observed; per-rank gauge on traced runs).
    max_lag: int = 0


@dataclass
class CkptStats:
    """Checkpoint counters, folded into metrics as ``adlb.ckpt.*``."""

    written: int = 0
    abandoned: int = 0
    units_captured: int = 0


@dataclass
class QuarantineStats:
    """Poison-task counters, folded into metrics as ``adlb.quarantine.*``."""

    quarantined: int = 0
    rank_kills: int = 0  # total rank deaths across quarantined units' chains


class RuleJournal:
    """Server-side mirror of one engine's pending rule table.

    Built from the engine's streamed rule-lifecycle entries; at engine
    death :meth:`pending` yields exactly the rules the dead engine had
    registered but not yet fired/released (checkpoint-rule format, so
    an adopter replays them through ``add_rule``).  ``guard`` is the
    program/restore guard unit the engine holds, ``ctask_done`` marks a
    control task whose effects are journaled but whose lease has not
    been returned yet (its lease must not requeue).
    """

    __slots__ = ("rules", "guard", "ctask_done", "last_heard")

    def __init__(self) -> None:
        self.rules: dict[int, dict] = {}  # rule id -> {inputs: set, ...}
        self.guard = 0
        self.ctask_done = False
        self.last_heard = time.monotonic()

    def apply(self, entries: list) -> None:
        for entry in entries:
            kind = entry[0]
            if kind == "create":
                rule = dict(entry[1])
                rule["inputs"] = set(rule["inputs"])
                self.rules[rule["id"]] = rule
            elif kind == "close":
                td = entry[1]
                for rule in self.rules.values():
                    rule["inputs"].discard(td)
            elif kind == "done":
                self.rules.pop(entry[1], None)
            elif kind == "guard":
                self.guard = entry[1]
            elif kind == "ctask_done":
                self.ctask_done = True
            elif kind == "ctask_clear":
                self.ctask_done = False
            else:
                raise RuntimeError("unknown journal entry %r" % (kind,))

    def pending(self) -> list[dict]:
        """Pending rules in checkpoint-rule format for adoption replay."""
        return [
            {
                "inputs": sorted(rule["inputs"]),
                "action": rule["action"],
                "type": rule["type"],
                "target": rule["target"],
                "priority": rule["priority"],
                "name": rule["name"],
            }
            for rule in self.rules.values()
        ]

    def state(self) -> dict:
        """Serializable image for resilver transfer."""
        return {
            "rules": [
                dict(rule, inputs=sorted(rule["inputs"]))
                for rule in self.rules.values()
            ],
            "guard": self.guard,
            "ctask_done": self.ctask_done,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RuleJournal":
        journal = cls()
        for rule in state["rules"]:
            rule = dict(rule)
            rule["inputs"] = set(rule["inputs"])
            journal.rules[rule["id"]] = rule
        journal.guard = state["guard"]
        journal.ctask_done = state["ctask_done"]
        return journal


#: dedup-cache marker: the request is parked, there is no reply to resend
_PARKED = "__parked__"


class Replica:
    """Shadow of one ward server's replicable state, held by its buddy.

    Built incrementally from the ward's op-log entries (or wholesale
    from a ``reset`` resilver image); promoted into the buddy's own
    state when the ward dies.  ``replay_ok`` on the shadow store keeps
    a resilver/incremental overlap from raising.
    """

    def __init__(self) -> None:
        self.store = DataStore(replay_ok=True)
        self.tasks: dict[int, Task] = {}  # uid -> queued/delayed task
        self.leases: dict[int, Task] = {}  # client -> granted task
        # client -> (seq, (tag, payload)): plain-RPC, sync-GET, and
        # async-park dedup slots.  Three slots because the channels
        # interleave: a parked engine keeps issuing sync RPCs, and a
        # worker's split GET stays outstanding across its decr_work —
        # one shared slot would let a later reply evict an earlier
        # channel's cached reply while its client still awaits it.
        self.dedup: dict[int, tuple[int, Any]] = {}
        self.gdedup: dict[int, tuple[int, Any]] = {}
        self.adedup: dict[int, tuple[int, Any]] = {}
        self.dead_ranks: set[int] = set()
        # engine rank -> mirrored rule journal (survives anchor death)
        self.journals: dict[int, RuleJournal] = {}
        self.work_count = 0
        self.work_started = False
        self.poisoned = False
        self.next_id = 1
        self.last_heard = time.monotonic()

    def apply(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "data":
            self._apply_data(entry[1])
        elif kind == "task+":
            task = entry[1]
            self.tasks[task.uid] = task
        elif kind == "task-":
            for uid in entry[1]:
                self.tasks.pop(uid, None)
        elif kind == "grant":
            _, task, client, seq, reply = entry
            self.tasks.pop(task.uid, None)
            self.leases[client] = task
            if seq is not None and seq >= 0:
                slot = self.adedup if reply[0] == C.TAG_ASYNC else self.gdedup
                cur = slot.get(client)
                if cur is None or seq >= cur[0]:
                    slot[client] = (seq, reply)
        elif kind == "done":
            self.leases.pop(entry[1], None)
        elif kind == "dedup":
            _, client, seq, reply = entry
            cur = self.dedup.get(client)
            if cur is None or seq >= cur[0]:
                self.dedup[client] = (seq, reply)
        elif kind == "work":
            _, self.work_count, self.work_started, self.poisoned = entry
        elif kind == "master":
            self.next_id = entry[1]
        elif kind == "deadrank":
            self.dead_ranks.add(entry[1])
        elif kind == "journal":
            self.journals.setdefault(entry[1], RuleJournal()).apply(entry[2])
        elif kind == "journal_clear":
            self.journals.pop(entry[1], None)
        elif kind == "reset":
            state = entry[1]
            self.store.load_snapshot(state["store"])
            self.tasks = {t.uid: t for t in state["tasks"]}
            self.leases = dict(state["leases"])
            self.dedup = dict(state["dedup"])
            self.gdedup = dict(state["gdedup"])
            self.adedup = dict(state["adedup"])
            self.dead_ranks = set(state["dead_ranks"])
            self.journals = {
                r: RuleJournal.from_state(s)
                for r, s in state.get("journals", {}).items()
            }
            self.work_count = state["work_count"]
            self.work_started = state["work_started"]
            self.poisoned = state["poisoned"]
            self.next_id = state["next_id"]
        else:
            raise RuntimeError("unknown replication entry %r" % (kind,))

    def _apply_data(self, msg: dict) -> None:
        """Replay one data-store mutation onto the shadow store.

        Notifications and ref store-throughs are discarded — the owner
        already emitted them; the shadow only tracks resulting state."""
        op = msg["op"]
        s = self.store
        try:
            if op == C.OP_CREATE:
                s.create(
                    msg["id"],
                    msg["type"],
                    write_refcount=msg.get("write_refcount", 1),
                    read_refcount=msg.get("read_refcount", 1),
                )
            elif op == C.OP_MULTICREATE:
                for spec in msg["specs"]:
                    s.create(
                        spec["id"],
                        spec["type"],
                        write_refcount=spec.get("write_refcount", 1),
                        read_refcount=spec.get("read_refcount", 1),
                    )
            elif op == C.OP_STORE:
                s.store(
                    msg["id"],
                    msg["value"],
                    subscript=msg.get("subscript"),
                    decr_write=msg.get("decr_write", 1),
                )
            elif op == C.OP_SUBSCRIBE:
                s.subscribe(msg["id"], msg["rank"])
            elif op == C.OP_CONTAINER_REF:
                s.container_reference(msg["id"], msg["subscript"], msg["ref_id"])
            elif op == C.OP_REFCOUNT:
                s.refcount(
                    msg["id"],
                    read_delta=msg.get("read_delta", 0),
                    write_delta=msg.get("write_delta", 0),
                )
            elif op == C.OP_REFCOUNT_BATCH:
                for item in msg["ops"]:
                    s.refcount(
                        item["id"],
                        read_delta=item.get("read_delta", 0),
                        write_delta=item.get("write_delta", 0),
                    )
        except DataStoreError:
            # The owner validated the op before logging it; a replay
            # divergence (e.g. resilver overlap) must not kill the buddy.
            pass


@dataclass
class ServerStats:
    """Per-server counter snapshot.

    Kept as the stable ``RunResult.server_stats`` surface; the values
    are folded into the run's :class:`repro.obs.Metrics` registry
    (``adlb.*`` counters) when tracing is enabled.
    """

    tasks_queued: int = 0
    tasks_matched: int = 0
    tasks_matched_targeted: int = 0
    steal_requests: int = 0
    tasks_stolen_in: int = 0
    tasks_stolen_out: int = 0
    data_ops: int = 0
    max_queue: int = 0
    idle_polls: int = 0


#: client data ops traced as ``adlb``-category instants
_DATA_OPS = {
    C.OP_CREATE,
    C.OP_MULTICREATE,
    C.OP_STORE,
    C.OP_RETRIEVE,
    C.OP_EXISTS,
    C.OP_SUBSCRIBE,
    C.OP_CONTAINER_REF,
    C.OP_ENUMERATE,
    C.OP_REFCOUNT,
    C.OP_REFCOUNT_BATCH,
    C.OP_TYPEOF,
}

#: ops whose replies need no cross-server dedup replication: replaying
#: them after a failover cannot corrupt state (GETs are dedup'd through
#: the grant path instead).
_READ_ONLY_OPS = {
    C.OP_RETRIEVE,
    C.OP_EXISTS,
    C.OP_TYPEOF,
    C.OP_ENUMERATE,
    C.OP_STATS,
    C.OP_GET,
    C.OP_GET_ASYNC,
}


class Server:
    def __init__(
        self,
        comm: Comm,
        layout: Layout,
        steal: bool = True,
        leases: bool = False,
        lease_timeout: float = 60.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        on_error: str = "retry",
        server_map: ServerMap | None = None,
        replicate: bool = False,
        faults: Any | None = None,
        reliable: bool = False,
        checkpoint_path: str | None = None,
        checkpoint_interval: float | None = None,
        restore_shard: dict | None = None,
        monitor: Any | None = None,
        status_interval: float | None = None,
        journal: bool = False,
    ):
        self.comm = comm
        self.layout = layout
        self.rank = comm.rank
        self.steal_enabled = steal and layout.n_servers > 1
        # This rank's event ring / its level-1 alias (see Comm).
        self.ring = comm.ring
        self.tracer = comm.tracer
        # Reliable mode (re-sendable RPCs) and checkpoint restore can
        # replay a mutation that already landed; the store then treats
        # exact duplicates as no-ops instead of DoubleWriteError.
        self.store = DataStore(replay_ok=reliable or restore_shard is not None)
        self.reliable = reliable
        self.queue = WorkQueue()
        self.parked: list[ParkedGet] = []
        self.stats = ServerStats()
        # Lease table: None when disabled, so the hot path stays a
        # single `is None` test per handout/completion.
        self._leases: dict[int, _Lease] | None = {} if leases else None
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.on_error = on_error
        self.lease_stats = LeaseStats()
        self.failures: list[TaskFailure] = []
        # ---- engine rule-table journaling -----------------------------
        self.journal = journal
        # engine rank -> its journaled rule table (this server is the
        # engine's anchor; entries ride the op-log to the buddy too).
        self._journals: dict[int, RuleJournal] = {}
        # Units withdrawn as poisonous (their attempts kept killing
        # their host ranks); collected onto RunResult.quarantined.
        self.quarantined: list[QuarantinedTask] = []
        self.quarantine_stats = QuarantineStats()
        # (release_at, seq, task) heap of backoff-delayed requeues
        self._delayed: list[tuple[float, int, Task]] = []
        self._delay_seq = 0
        self._dead_ranks: set[int] = set()
        self._next_lease_check = 0.0
        # Drain-shutdown state (master only): set when a poisoned
        # decrement reports a permanently failed unit whose dependent
        # dataflow can never resolve.
        self._poisoned = False
        self._drain_since: float | None = None
        self._drain_count = 0
        self._drain_probes_ok: set[int] = set()
        self._drain_probing = False
        self.is_master = self.rank == layout.master_server
        # termination counter (master only)
        self.work_count = 0
        self.work_started = False
        self.shutting_down = False
        self._shutdown_sent: set[int] = set()
        # id allocation (master only)
        self._next_id = 1
        # steal state
        self._steal_inflight = False
        self._steal_ring = 0
        self._other_servers = [s for s in layout.servers if s != self.rank]
        # Clients attached to this server for work requests; each must be
        # told to shut down before this server may exit.
        self.attached_clients = {
            r
            for r in range(layout.size)
            if not layout.is_server(r) and layout.my_server(r) == self.rank
        }
        self._shutdown_acked: set[int] = set()
        # ---- fault tolerance ------------------------------------------
        self.map = server_map
        self.faults = faults
        self.replicate = replicate and layout.n_servers >= 2
        if self.replicate and self.map is None:
            # Replication routes through a shared epoch-stamped map.
            self.map = ServerMap(layout)
        self.repl_stats = ReplStats()
        self.ckpt_stats = CkptStats()
        # RPC dedup caches: client -> (seq, (tag, payload)); payload may
        # be the _PARKED sentinel (request parked, nothing to resend).
        # Plain RPCs, sync GETs, and async parks interleave from one
        # client (a split GET stays outstanding across the worker's
        # decr_work), so each channel gets its own slot.
        self._dedup: dict[int, tuple[int, tuple[int, Any]]] = {}
        self._gdedup: dict[int, tuple[int, tuple[int, Any]]] = {}
        self._adedup: dict[int, tuple[int, tuple[int, Any]]] = {}
        self._buddy = self.map.buddy(self.rank) if self.replicate else None
        self._replicas: dict[int, Replica] = {}
        self._dead_servers: set[int] = set()
        self._repl_buf: list[tuple] = []
        self._repl_seq = 0  # entries sent
        self._repl_acked = 0  # entries the buddy confirmed applied
        self._last_flush = time.monotonic()
        self._ward_timeout = min(lease_timeout, 5.0)
        self._hb_interval = max(0.02, min(self._ward_timeout / 4, 0.25))
        self._uid_counter = 0
        # ---- live monitoring ------------------------------------------
        # The master server holds the shared RunMonitor; other servers
        # push their status dict to it every status_interval.  Checked
        # in the main loop (busy servers never reach _idle_tick).
        self._monitor = monitor
        self._status_interval = status_interval
        self._next_status = 0.0
        # ---- checkpointing (master drives) ----------------------------
        self.ckpt_path = checkpoint_path
        self.ckpt_interval = checkpoint_interval or 0.5
        self._ckpt_gen = 0
        self._ckpt_phase: str | None = None
        self._ckpt_started = 0.0
        self._ckpt_parts: dict[tuple[str, int], dict] = {}
        self._ckpt_waiting: set[int] = set()
        self._last_ckpt = time.monotonic()
        if restore_shard is not None:
            self._load_shard(restore_shard)
        # Hang reports dump this server's lease table and replication
        # lag, so a stuck run is diagnosable from the exception alone.
        comm.register_diagnostic(self._diagnostic)

    def _load_shard(self, shard: dict) -> None:
        """Adopt a checkpoint shard (``repro run --restore``)."""
        self.store.load_snapshot(shard["store"])
        for task in shard.get("tasks", ()):
            self._accept_task(task)
        if shard.get("next_id") is not None:
            self._next_id = shard["next_id"]
        if shard.get("work_count") is not None:
            self.work_count = shard["work_count"]
            self.work_started = True

    # ------------------------------------------------------------------ loop

    def run(self) -> ServerStats:
        """Serve until shutdown completes; returns server statistics."""
        if self.replicate:
            # Establish the ward heartbeat immediately so buddies can
            # tell "never started" from "died silently".
            self._repl_flush(heartbeat=True)
        try:
            while not self._done():
                got = self.comm.recv_poll(timeout=0.02)
                if self._leases is not None:
                    self._lease_tick()
                if self._status_interval is not None:
                    self._status_tick()
                if got is None:
                    self.stats.idle_polls += 1
                    self._idle_tick()
                    continue
                msg, status = got
                self._dispatch(msg, status.source, status.tag)
        except RankKilled as e:
            if self.replicate and not e.silent:
                # Final gasp: push any unflushed op-log tail to the
                # buddy before dying (a silent kill models an abrupt
                # crash, so it gets no such courtesy).
                try:
                    self._repl_flush()
                except Exception:
                    pass
            raise
        self._journal_sweep()
        if self._status_interval is not None:
            # Final status so the driver's last sample reflects the
            # completed run even when shorter than one interval.
            self._next_status = 0.0
            self._status_tick()
        recorder = self.comm.world.recorder
        if recorder is not None:
            fold = recorder.metrics.fold_struct
            fold("adlb", self.stats, rank=self.rank)
            if self._leases is not None:
                fold("adlb.lease", self.lease_stats, rank=self.rank)
            if self.replicate or self.reliable:
                fold("adlb.repl", self.repl_stats, rank=self.rank)
            if self.ckpt_path is not None:
                fold("adlb.ckpt", self.ckpt_stats, rank=self.rank)
            if self.quarantined:
                fold("adlb.quarantine", self.quarantine_stats, rank=self.rank)
        return self.stats

    def _done(self) -> bool:
        return (
            self.shutting_down
            and self._shutdown_acked >= self.attached_clients
        )

    def _journal_sweep(self) -> None:
        """Drain in-flight journal flushes after a clean shutdown.

        An engine's final ``done`` entry is flushed *after* the
        ``decr_work`` that zeroes the termination counter (the jot is
        buffered in ``drain()``; the flush lands at the next loop
        boundary), and parked clients are acked without a round trip —
        so this server can satisfy :meth:`_done` while that last
        ``OP_JOURNAL`` oneway is still in its mailbox or on the wire.
        The engine is guaranteed to send it before blocking, so a
        short bounded drain makes the mirrors exact for the terminal
        audit; a live engine's mirror that *stays* pending past the
        deadline is a real leak and is left for the audit to flag.
        """
        live_pending = lambda: any(  # noqa: E731
            journal.rules
            for engine, journal in self._journals.items()
            if engine not in self._dead_ranks
        )
        if not live_pending():
            return
        deadline = time.monotonic() + 1.0
        while live_pending() and time.monotonic() < deadline:
            got = self.comm.recv_poll(timeout=0.02)
            if got is None:
                continue
            msg, status = got
            if isinstance(msg, dict) and msg.get("op") == C.OP_JOURNAL:
                jr = self._journals.setdefault(
                    msg.get("rank", status.source), RuleJournal()
                )
                jr.apply(msg["entries"])
                jr.last_heard = time.monotonic()
            # Anything else (heartbeats, reliable-RPC resends) would
            # have been dropped by exiting anyway; discard it.

    def audit_row(self) -> dict:
        """Terminal bookkeeping snapshot for run-invariant auditing.

        Called once, after :meth:`run` returns on a clean shutdown
        (never on a killed rank), by the runtime's collection path when
        ``RuntimeConfig.audit`` is set.  Pure reads — the server loop
        has already exited, so no lock is needed.  The conservation
        laws over these rows live in :mod:`repro.chaos.invariants`.
        """
        return {
            "role": "server",
            "rank": self.rank,
            "is_master": self.is_master,
            "work_started": self.work_started,
            "work_count": self.work_count,
            "poisoned": self._poisoned,
            "queued_tasks": self.queue.size,
            "delayed_tasks": len(self._delayed),
            "parked_gets": len(self.parked),
            # client rank -> uid of the task it still holds a lease on
            "leases": {
                client: str(lease.task.uid)
                for client, lease in (self._leases or {}).items()
            },
            # engine rank -> rules still pending in its journal mirror
            "journal_pending": {
                engine: len(journal.rules)
                for engine, journal in self._journals.items()
            },
            # per-channel dedup-slot counts (bounded by client count)
            "dedup_slots": {
                "rpc": len(self._dedup),
                "get": len(self._gdedup),
                "async": len(self._adedup),
            },
            "dead_ranks": sorted(self._dead_ranks),
            "attached_clients": len(self.attached_clients),
            "failures": len(self.failures),
            "quarantined": len(self.quarantined),
        }

    # ---------------------------------------------------------------- dispatch

    def _dispatch(self, msg: dict, source: int, tag: int) -> None:
        if self.faults is not None:
            directive = self.faults.on_server_op(self.rank)
            if directive is not None:
                # Fail-stop at the message boundary: nothing of this
                # dispatch has run, so the replicated image is exact.
                raise RankKilled(self.rank, silent=directive[1])
        op = msg["op"]
        if tag == C.TAG_SERVER:
            self._server_op(op, msg, source)
        else:
            seq = msg.get("seq", -1)
            if seq >= 0 and self._dedup_hit(msg, source, seq):
                pass
            else:
                try:
                    result = self._client_op(op, msg, source)
                except DataStoreError as e:
                    if tag == C.TAG_REQUEST:
                        self._reply(("error", str(e)), source, seq)
                    else:
                        raise
                else:
                    if tag == C.TAG_REQUEST and result is not _NO_REPLY:
                        self._reply(("ok", result), source, seq)
                if seq >= 0 and op not in _READ_ONLY_OPS:
                    cached = self._dedup.get(source)
                    if cached is not None and cached[0] == seq:
                        self._repl(("dedup", source, seq, cached[1]))
        # Replication batches flush at every dispatch boundary, so the
        # buddy's image is at most one in-flight batch behind.
        if self._repl_buf:
            self._repl_flush()

    def _reply(self, payload: tuple, source: int, seq: int) -> None:
        """Send a TAG_RESPONSE reply, seq-stamped and dedup-cached when
        the request came from a reliable client."""
        if seq >= 0:
            payload = payload + (seq,)
            self._dedup[source] = (seq, (C.TAG_RESPONSE, payload))
        self.comm.send(payload, source, C.TAG_RESPONSE)

    def _dedup_hit(self, msg: dict, source: int, seq: int) -> bool:
        """True when a seq-stamped request is a duplicate and was fully
        handled here (cached reply resent, or silently dropped)."""
        op = msg["op"]
        is_async = op == C.OP_GET_ASYNC
        if is_async:
            slot = self._adedup
        elif op == C.OP_GET:
            slot = self._gdedup
        else:
            slot = self._dedup
        cached = slot.get(source)
        if cached is None:
            return False
        cseq, (ctag, cpayload) = cached
        if seq > cseq:
            return False  # genuinely new request
        if seq < cseq:
            return True  # duplicate of an already-superseded request
        if cpayload is _PARKED:
            # Re-sent park (failover or resend timer): reprocess so the
            # request parks — or is served — at the current owner.
            self.repl_stats.dedup_hits += 1
            self._unpark(source)
            return False
        self.repl_stats.dedup_hits += 1
        if is_async:
            # Re-ack the park, then resend the grant; the client drops
            # whichever copy it already consumed by sequence number.
            self.comm.send(("parked", seq), source, C.TAG_RESPONSE)
        self.comm.send(cpayload, source, ctag)
        return True

    def _unpark(self, rank: int) -> None:
        self.parked = [p for p in self.parked if p.rank != rank]

    # -------------------------------------------------------------- client ops

    def _client_op(self, op: str, msg: dict, source: int) -> Any:
        tracer = self.tracer
        if tracer is not None and op in _DATA_OPS:
            tracer.emit("data", op.lower(), source)
        if op == C.OP_PUT:
            task = Task(
                type=msg["type"],
                payload=msg["payload"],
                priority=msg.get("priority", 0),
                target=msg.get("target", -1),
                prov=msg.get("prov"),
            )
            if tracer is not None:
                tracer.emit("put", task.type, task.target >= 0)
            self._accept_task(task)
            return None
        if op == C.OP_GET:
            seq = msg.get("seq", -1)
            if self._leases is not None:
                # Asking for the next task completes the previous lease.
                if self._leases.pop(source, None) is not None:
                    self._repl(("done", source))
            if self.shutting_down:
                payload: tuple = ("shutdown",)
                if seq >= 0:
                    payload = payload + (seq,)
                    self._gdedup[source] = (seq, (C.TAG_RESPONSE, payload))
                self.comm.send(payload, source, C.TAG_RESPONSE)
                self._shutdown_acked.add(source)
                return _NO_REPLY
            types = tuple(msg["types"])
            task = self.queue.pop(types, source)
            if task is not None:
                self._record_match(task)
                self._send_grant(task, source, is_async=False, seq=seq)
            else:
                if tracer is not None:
                    tracer.emit("get_park", source)
                self._park(source, types, is_async=False, seq=seq)
                self._maybe_steal()
            return _NO_REPLY
        if op == C.OP_GET_ASYNC:
            seq = msg.get("seq", -1)
            if seq >= 0:
                # Reliable clients block on this acknowledgement so
                # "parked" is distinguishable from "request lost"; it
                # goes out in every branch (the grant/shutdown travels
                # separately on the async channel).
                self.comm.send(("parked", seq), source, C.TAG_RESPONSE)
            if self._leases is not None:
                if self._leases.pop(source, None) is not None:
                    self._repl(("done", source))
                    # The lease's control task is fully accounted by
                    # the engine now; a later engine death must not
                    # repair it again.
                    jr = self._journals.get(source)
                    if jr is not None and jr.ctask_done:
                        jr.ctask_done = False
                        self._repl(("journal", source, [("ctask_clear",)]))
            if self.shutting_down:
                self.comm.send(("shutdown",), source, C.TAG_ASYNC)
                self._shutdown_acked.add(source)
                return _NO_REPLY
            types = tuple(msg["types"])
            task = self.queue.pop(types, source)
            if task is not None:
                self._record_match(task)
                self._send_grant(task, source, is_async=True, seq=seq)
            else:
                if tracer is not None:
                    tracer.emit("get_park", source)
                self._park(source, types, is_async=True, seq=seq)
                self._maybe_steal()
            return _NO_REPLY
        if op == C.OP_ID_BLOCK:
            assert self.is_master, "id blocks come from the master server"
            start = self._next_id
            self._next_id += C.ID_BLOCK_SIZE
            self._repl(("master", self._next_id))
            return (start, C.ID_BLOCK_SIZE)
        if op == C.OP_CREATE:
            self.stats.data_ops += 1
            self.store.create(
                msg["id"],
                msg["type"],
                write_refcount=msg.get("write_refcount", 1),
                read_refcount=msg.get("read_refcount", 1),
            )
            self._repl(("data", msg))
            return msg["id"]
        if op == C.OP_MULTICREATE:
            self.stats.data_ops += 1
            for spec in msg["specs"]:
                self.store.create(
                    spec["id"],
                    spec["type"],
                    write_refcount=spec.get("write_refcount", 1),
                    read_refcount=spec.get("read_refcount", 1),
                )
            self._repl(("data", msg))
            return len(msg["specs"])
        if op == C.OP_STORE:
            self.stats.data_ops += 1
            notes, refs = self.store.store(
                msg["id"],
                msg["value"],
                subscript=msg.get("subscript"),
                decr_write=msg.get("decr_write", 1),
            )
            self._repl(("data", msg))
            self._emit(notes, refs)
            return None
        if op == C.OP_RETRIEVE:
            self.stats.data_ops += 1
            # Reply is (value, closed): the closed bit marks the value
            # immutable, licensing the client to cache it locally.
            return self.store.retrieve_tagged(
                msg["id"], subscript=msg.get("subscript")
            )
        if op == C.OP_EXISTS:
            self.stats.data_ops += 1
            return self.store.exists(msg["id"], subscript=msg.get("subscript"))
        if op == C.OP_TYPEOF:
            return self.store.lookup(msg["id"]).type
        if op == C.OP_SUBSCRIBE:
            self.stats.data_ops += 1
            closed = self.store.subscribe(msg["id"], msg.get("rank", source))
            if not closed:
                self._repl(
                    ("data", dict(msg, rank=msg.get("rank", source)))
                )
            return closed
        if op == C.OP_CONTAINER_REF:
            self.stats.data_ops += 1
            ref = self.store.container_reference(
                msg["id"], msg["subscript"], msg["ref_id"]
            )
            if ref is not None:
                self._emit([], [ref])
            else:
                self._repl(("data", msg))
            return None
        if op == C.OP_ENUMERATE:
            self.stats.data_ops += 1
            return self.store.enumerate(msg["id"])
        if op == C.OP_REFCOUNT:
            self.stats.data_ops += 1
            notes = self.store.refcount(
                msg["id"],
                read_delta=msg.get("read_delta", 0),
                write_delta=msg.get("write_delta", 0),
            )
            self._repl(("data", msg))
            self._emit(notes, [])
            # freed: the read refcount dropped the TD; clients evict it
            # from their retrieve caches.
            return {"freed": msg["id"] not in self.store.tds}
        if op == C.OP_REFCOUNT_BATCH:
            # Coalesced refcount deltas from one client task (one entry
            # per id).  Ops are applied in order; if one fails, the
            # preceding ops stay applied and the error is reported for
            # the whole batch — matching the per-op RPC failure the
            # client would have seen at its deferred call site.
            self.stats.data_ops += 1
            freed: list[int] = []
            for item in msg["ops"]:
                notes = self.store.refcount(
                    item["id"],
                    read_delta=item.get("read_delta", 0),
                    write_delta=item.get("write_delta", 0),
                )
                self._emit(notes, [])
                if item["id"] not in self.store.tds:
                    freed.append(item["id"])
            self._repl(("data", msg))
            return {"freed": freed}
        if op == C.OP_INCR_WORK:
            assert self.is_master
            self.work_count += msg.get("amount", 1)
            self.work_started = True
            self._repl_work()
            return None
        if op == C.OP_DECR_WORK:
            assert self.is_master
            if msg.get("poison"):
                self._poisoned = True
            self.work_count -= msg.get("amount", 1)
            if self.work_count < 0:
                raise DataStoreError("termination counter went negative")
            self._repl_work()
            if self.work_count == 0 and self.work_started:
                self._initiate_shutdown()
            return None
        if op == C.OP_TASK_FAIL:
            self._task_fail(source, msg)
            return None
        if op == C.OP_JOURNAL:
            # Engine rule-lifecycle journal (empty = pure heartbeat).
            rank = msg.get("rank", source)
            jr = self._journals.setdefault(rank, RuleJournal())
            jr.apply(msg["entries"])
            jr.last_heard = time.monotonic()
            if msg["entries"]:
                if self.ring is not None:
                    self.ring.emit("journal", len(msg["entries"]), rank)
                self._repl(("journal", rank, msg["entries"]))
            return None
        if op == C.OP_STATS:
            from dataclasses import asdict

            return asdict(self.stats)
        raise DataStoreError("unknown ADLB op %r" % op)

    # --------------------------------------------------------------- server ops

    def _server_op(self, op: str, msg: dict, source: int) -> None:
        if op == C.SOP_STEAL_REQ:
            n = max(1, self.queue.size // 2)
            tasks = self.queue.steal(n) if self.queue.size else []
            self.stats.tasks_stolen_out += len(tasks)
            if self.tracer is not None:
                self.tracer.emit("steal_out", source, len(tasks))
            self.comm.send(
                {"op": C.SOP_STEAL_RESP, "tasks": tasks}, source, C.TAG_SERVER
            )
            return
        if op == C.SOP_STEAL_RESP:
            self._steal_inflight = False
            tasks = msg["tasks"]
            self.stats.tasks_stolen_in += len(tasks)
            if self.tracer is not None:
                self.tracer.emit("steal_in", source, len(tasks))
            for task in tasks:
                self._accept_task(task)
            # Empty responses retry from the idle tick, not immediately,
            # to avoid a steal storm when the whole system is idle.
            return
        if op == C.SOP_SHUTDOWN:
            self._enter_shutdown()
            return
        if op == C.SOP_STATUS:
            # Relayed status from a non-master server; drop it quietly
            # when not (or no longer) holding the monitor.
            if self._monitor is not None:
                self._monitor.update(msg["rank"], msg["status"])
            return
        if op == C.SOP_RANK_DEAD:
            rank = msg["rank"]
            if self.layout.is_server(rank):
                self._server_dead(rank, reason=msg.get("reason", "rank died"))
            else:
                self._mark_rank_dead(
                    rank, reason=msg.get("reason", "rank died")
                )
            return
        if op == C.SOP_REPLICATE:
            rep = self._replicas.setdefault(source, Replica())
            rep.last_heard = time.monotonic()
            for entry in msg["entries"]:
                rep.apply(entry)
            self.repl_stats.entries_applied += len(msg["entries"])
            self.comm.send(
                {"op": C.SOP_REPL_ACK, "seq": msg["seq"]},
                source,
                C.TAG_SERVER,
            )
            return
        if op == C.SOP_REPL_ACK:
            self._repl_acked = max(self._repl_acked, msg["seq"])
            return
        if op == C.SOP_CKPT_REQ:
            # Drain already-deposited messages first so in-flight puts
            # land in the snapshot (the master's request was sent after
            # every engine contributed, so anything an engine counted is
            # already in our mailbox).
            self._drain_mailbox()
            part = self._server_ckpt_part()
            part["op"] = C.SOP_CKPT_PART
            part["gen"] = msg["gen"]
            self.comm.send(part, source, C.TAG_SERVER)
            return
        if op == C.SOP_CKPT_PART:
            self._ckpt_part(msg, source)
            return
        if op == C.SOP_DRAIN_PROBE:
            self.comm.send(
                {"op": C.SOP_DRAIN_RESP, "quiescent": self._quiescent()},
                source,
                C.TAG_SERVER,
            )
            return
        if op == C.SOP_DRAIN_RESP:
            if self._drain_probing and msg["quiescent"]:
                self._drain_probes_ok.add(source)
                if self._drain_probes_ok >= set(self._other_servers):
                    self._drain_shutdown()
            elif self._drain_probing:
                # Someone still has runnable work: disarm and re-observe.
                self._drain_probing = False
                self._drain_since = None
            return
        raise RuntimeError("unknown server op %r" % op)

    # ---------------------------------------------------------------- matching

    def _record_match(self, task: Task) -> None:
        self.stats.tasks_matched += 1
        if task.target >= 0:
            self.stats.tasks_matched_targeted += 1
        if self.tracer is not None:
            self.tracer.emit("match", task.type, task.target >= 0)

    def _accept_task(self, task: Task) -> None:
        if task.uid < 0 and (self.replicate or self.tracer is not None):
            # Stable identity so op-log inserts/removals correlate and
            # provenance can chain retried attempts to their original.
            self._uid_counter += 1
            task = dataclasses.replace(
                task, uid=(self.rank << 20) | self._uid_counter
            )
            if self.tracer is not None:
                # Lineage node: a unit of queued work, linked back to
                # the rule/unit that spawned it.
                self.tracer.emit("task", task.uid, task.prov, task.type)
        for i, parked in enumerate(self.parked):
            if task.type in parked.types and task.target in (-1, parked.rank):
                del self.parked[i]
                self._record_match(task)
                self._send_grant(task, parked.rank, parked.is_async, parked.seq)
                return
        self.queue.push(task)
        self._repl(("task+", task))
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
            slot = self._adedup if is_async else self._gdedup
            slot[source] = (seq, (tag, payload))
        if self._leases is not None:
            self._grant(task, source)
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
        self._repl(
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
            slot = self._adedup if is_async else self._gdedup
            slot[rank] = (seq, (C.TAG_RESPONSE, _PARKED))

    def _emit(self, notes: list[Notification], refs: list[RefStore]) -> None:
        for note in notes:
            self.comm.send(("notify", note.id), note.rank, C.TAG_ASYNC)
        for ref in refs:
            home = self._home(ref.ref_id)
            store_msg = {
                "op": C.OP_STORE,
                "id": ref.ref_id,
                "value": ref.value,
                "decr_write": 1,
            }
            if home == self.rank:
                notes2, refs2 = self.store.store(ref.ref_id, ref.value)
                self._repl(("data", store_msg))
                self._emit(notes2, refs2)
            else:
                self.comm.send(store_msg, home, C.TAG_ONEWAY)

    def _home(self, td_id: int) -> int:
        if self.map is not None:
            return self.map.home_server(td_id)
        return self.layout.home_server(td_id)

    # ------------------------------------------------------------- replication

    def _repl(self, entry: tuple) -> None:
        if self.replicate and self._buddy is not None:
            self._repl_buf.append(entry)

    def _repl_work(self) -> None:
        # Absolute counter state, not deltas: replays are idempotent.
        self._repl(
            ("work", self.work_count, self.work_started, self._poisoned)
        )

    def _repl_flush(self, heartbeat: bool = False) -> None:
        """Ship the op-log tail to the buddy.  Empty batches double as
        liveness heartbeats."""
        if not self.replicate or self._buddy is None:
            return
        buf, self._repl_buf = self._repl_buf, []
        self._repl_seq += len(buf)
        self.repl_stats.batches_sent += 1
        self.repl_stats.entries_sent += len(buf)
        lag = self._repl_seq - self._repl_acked
        if lag > self.repl_stats.max_lag:
            self.repl_stats.max_lag = lag
        if heartbeat:
            self.repl_stats.heartbeats += 1
        if buf and self.ring is not None:
            # Replication lag is causal state: a promotion can only
            # recover what was flushed, so the analyzer links these to
            # promote/requeue events.
            self.ring.emit("repl_flush", len(buf), lag, self._repl_seq)
        self.comm.send(
            {"op": C.SOP_REPLICATE, "entries": buf, "seq": self._repl_seq},
            self._buddy,
            C.TAG_SERVER,
        )
        self._last_flush = time.monotonic()

    def _resilver(self) -> None:
        """Replace the buddy's shadow with a full image of this server.

        Needed whenever incremental history is insufficient: at a buddy
        change (the old buddy — and the op-log it held — is gone) and
        after a promotion (this server's state just changed wholesale).
        """
        if not self.replicate or self._buddy is None:
            return
        self.repl_stats.resilvers += 1
        tasks = self.queue.all_tasks() + [t for _, _, t in self._delayed]
        state = {
            "store": self.store.snapshot(),
            "tasks": tasks,
            "leases": {c: l.task for c, l in (self._leases or {}).items()},
            "dedup": dict(self._dedup),
            "gdedup": dict(self._gdedup),
            "adedup": dict(self._adedup),
            "dead_ranks": set(self._dead_ranks),
            "work_count": self.work_count,
            "work_started": self.work_started,
            "poisoned": self._poisoned,
            "next_id": self._next_id,
            "journals": {r: j.state() for r, j in self._journals.items()},
        }
        self._repl_buf = [("reset", state)]
        self._repl_flush()

    # -------------------------------------------------------------- failover

    def _server_dead(
        self, dead: int, reason: str = "server died", broadcast: bool = False
    ) -> None:
        """A fellow server is gone: re-route, and promote its replica
        if this server is the heir.  Without replication this is fatal —
        the dead server's shard is unrecoverable — so fail loudly."""
        if dead == self.rank or dead in self._dead_servers:
            return
        if not self.replicate or self.map is None:
            raise ServerLost(dead, reason)
        self._dead_servers.add(dead)
        self.repl_stats.server_deaths += 1
        if self.ring is not None:
            self.ring.emit("server_dead", dead)
        self.map.mark_dead(dead)
        if broadcast:
            # Heartbeat-detected death: the launcher sent no
            # notification, so tell the other survivors ourselves.
            for s in self.map.alive:
                if s != self.rank:
                    self.comm.send(
                        {"op": C.SOP_RANK_DEAD, "rank": dead, "reason": reason},
                        s,
                        C.TAG_SERVER,
                    )
        self._other_servers = [s for s in self.map.alive if s != self.rank]
        self._steal_inflight = False  # a pending steal may never answer
        if not self._other_servers:
            self.steal_enabled = False
        old_buddy = self._buddy
        self._buddy = self.map.buddy(self.rank)
        if self.map.resolve(dead) == self.rank:
            self._promote(dead)  # ends with a resilver to the new buddy
        else:
            self._replicas.pop(dead, None)
            if self._buddy != old_buddy:
                # Our op-log history died with the old buddy: full resync.
                self._resilver()

    def _promote(self, dead: int) -> None:
        """Absorb the dead server's replica shard into this server."""
        rep = self._replicas.pop(dead, None) or Replica()
        self.repl_stats.promotions += 1
        if self.ring is not None:
            self.ring.emit("promote", dead, len(rep.store.tds), len(rep.tasks))
        self.store.absorb(rep.store)
        self.store.replay_ok = True  # scavenged re-sends may replay ops
        if not self.is_master and self.map.master == self.rank:
            # The master anchor now resolves here: adopt the termination
            # counter, poison flag, and ID allocator.
            self.work_count = rep.work_count
            self.work_started = rep.work_started
            self._poisoned = self._poisoned or rep.poisoned
            self._next_id = max(self._next_id, rep.next_id)
            self.is_master = True
        for client, cached in rep.dedup.items():
            cur = self._dedup.get(client)
            if cur is None or cached[0] > cur[0]:
                self._dedup[client] = cached
        for client, cached in rep.gdedup.items():
            cur = self._gdedup.get(client)
            if cur is None or cached[0] > cur[0]:
                self._gdedup[client] = cached
        for client, cached in rep.adedup.items():
            cur = self._adedup.get(client)
            if cur is None or cached[0] > cur[0]:
                self._adedup[client] = cached
        self._dead_ranks |= rep.dead_ranks
        # Engine rule journals anchored at the dead server now live
        # here.  The replica image merges first; flushes stranded in
        # the dead server's mailbox are re-applied by the scavenge
        # below, and the engine only re-aims new flushes at this heir
        # after it learns of the failover — so entry order holds.
        for r, j in rep.journals.items():
            self._journals.setdefault(r, j)
        # Adopt the dead server's clients: they re-route here and must
        # be shut down before this server may exit.
        for r in range(self.layout.size):
            if (
                not self.layout.is_server(r)
                and r not in self._dead_ranks
                and self.map.my_server(r) == self.rank
            ):
                self.attached_clients.add(r)
        for client, task in rep.leases.items():
            if client in self._dead_ranks:
                if task.target == client:
                    task = dataclasses.replace(task, target=-1)
                self._requeue(task, task.attempts + 1)
            elif self._leases is not None:
                self._leases[client] = _Lease(
                    task, client, time.monotonic() + self.lease_timeout
                )
        for task in list(rep.tasks.values()):
            self._accept_task(task)
        self._scavenge(dead)
        self._resilver()

    def _scavenge(self, dead: int) -> None:
        """Recover messages stranded in a dead server's mailbox.

        Clients' requests and oneways (puts, counter decrements) are
        re-dispatched here as the shard's new owner; peer steal
        responses are absorbed; everything else from the old topology
        is stale and dropped."""
        for payload, status in self.comm.drain_dead(dead):
            self.repl_stats.scavenged_msgs += 1
            if status.tag == C.TAG_SERVER:
                sop = payload.get("op")
                if sop == C.SOP_STEAL_RESP:
                    for task in payload["tasks"]:
                        self._accept_task(task)
                elif sop == C.SOP_RANK_DEAD:
                    self._dispatch(payload, status.source, status.tag)
                # REPLICATE / REPL_ACK / DRAIN_* / SHUTDOWN / CKPT_*:
                # addressed to the old topology; superseded.
            elif status.tag in (C.TAG_REQUEST, C.TAG_ONEWAY):
                self._dispatch(payload, status.source, status.tag)

    # ------------------------------------------------------------------ leases

    def _grant(self, task: Task, client: int) -> None:
        """Record a handed-out unit; completion is implied by the
        client's next GET (one outstanding task per client)."""
        self.lease_stats.granted += 1
        self._leases[client] = _Lease(
            task, client, time.monotonic() + self.lease_timeout
        )

    def _decr_work(self, amount: int = 1, poison: bool = False) -> None:
        """Repair the termination counter for a unit the client will
        never account for (failed permanently, or its rank died)."""
        master = (
            self.map.master if self.map is not None else self.layout.master_server
        )
        msg: dict = {"op": C.OP_DECR_WORK, "amount": amount}
        if poison:
            msg["poison"] = True
        if self.rank == master:
            self._client_op(C.OP_DECR_WORK, msg, self.rank)
        else:
            self.comm.send(msg, master, C.TAG_ONEWAY)

    def _requeue(self, task: Task, attempts: int) -> None:
        """Put a failed/orphaned unit back with exponential backoff."""
        nxt = dataclasses.replace(task, attempts=attempts)
        delay = self.retry_backoff * (2 ** max(0, attempts - 1))
        self.lease_stats.requeued += 1
        if self.ring is not None:
            self.ring.emit("requeue", task.type, attempts, task.uid)
        if delay <= 0:
            self._accept_task(nxt)
        else:
            if nxt.uid < 0 and (self.replicate or self.tracer is not None):
                self._uid_counter += 1
                nxt = dataclasses.replace(
                    nxt, uid=(self.rank << 20) | self._uid_counter
                )
            self._repl(("task+", nxt))
            self._delay_seq += 1
            heapq.heappush(
                self._delayed, (time.monotonic() + delay, self._delay_seq, nxt)
            )

    def _task_fail(self, source: int, msg: dict) -> None:
        """OP_TASK_FAIL: the client hands its leased unit back as failed.

        Ownership of the unit (and its termination-counter increment)
        transfers to this server: either it is requeued for another
        attempt, or given up permanently.
        """
        lease = self._leases.pop(source, None) if self._leases is not None else None
        if lease is None:
            if source in self._dead_ranks:
                # The rank was already declared dead and its lease
                # swept (requeued or quarantined); a straggling
                # failure report — e.g. a watchdog TaskTimeout racing
                # the sweep — must not fail the unit a second time.
                return
            # Leases disabled or the unit was already swept by a
            # dead-rank notification: permanently failed.
            self._give_up(
                TaskFailure(
                    rank=source,
                    kind=msg.get("kind", "task"),
                    payload=msg.get("payload", ""),
                    attempts=msg.get("attempts", 1),
                    error=msg["error"],
                    traceback=msg.get("traceback", ""),
                )
            )
            return
        attempts = lease.task.attempts + 1
        if attempts <= self.max_retries:
            self._requeue(lease.task, attempts)
            return
        self._give_up(
            TaskFailure(
                rank=source,
                kind=msg.get("kind", "task"),
                payload=snippet(lease.task.payload),
                attempts=attempts,
                error=msg["error"],
                traceback=msg.get("traceback", ""),
            )
        )

    def _give_up(self, failure: TaskFailure) -> None:
        """Retries exhausted: in ``continue`` mode record the failure
        and repair the counter; otherwise surface a TaskError."""
        self.lease_stats.failed_permanent += 1
        self.failures.append(failure)
        if self.on_error == "continue":
            self._decr_work(poison=True)
            return
        raise TaskError(failure)

    def _mark_rank_dead(self, rank: int, reason: str = "rank died") -> None:
        """Sweep all state tied to a dead client rank.

        Called on a launcher-side SOP_RANK_DEAD notification or a lease
        expiry.  Safe if the rank is merely slow: its unit is re-run
        elsewhere (at-least-once semantics) and it can no longer be
        granted work or block shutdown.
        """
        if self.layout.is_server(rank):
            self._server_dead(rank, reason=reason)
            return
        if rank in self._dead_ranks:
            return
        self._dead_ranks.add(rank)
        self._repl(("deadrank", rank))
        self.lease_stats.dead_ranks += 1
        if self.ring is not None:
            self.ring.emit("rank_dead", rank)
        # The dead rank can never request work or ack shutdown again.
        self.attached_clients.discard(rank)
        self._shutdown_acked.discard(rank)
        self.parked = [p for p in self.parked if p.rank != rank]
        # Close notifications must stop chasing the dead rank (the
        # adopter's re-subscription re-points them at itself).
        self.store.drop_subscriber(rank)
        if self._ckpt_phase is not None and rank in self._ckpt_waiting:
            # A checkpoint round must not stall 10s waiting on a corpse.
            self._ckpt_waiting.discard(rank)
            if not self._ckpt_waiting:
                if self._ckpt_phase == "engines":
                    self._ckpt_engines_done()
                else:
                    self._ckpt_write()
        ctask_done = False
        if self.layout.is_engine(rank):
            ctask_done = self._engine_dead(rank, reason)
        # Re-aim queued tasks that could only run on the dead rank.
        for task in self.queue.remove_targeted(rank):
            self._accept_task(dataclasses.replace(task, target=-1))
        if self._leases is None:
            return
        lease = self._leases.pop(rank, None)
        if lease is None:
            return
        self._repl(("done", rank))
        if ctask_done:
            # The journal shows the leased control task completed (its
            # rule creates are journaled and adopted, its counter unit
            # rides the adoption repair): requeueing would re-run it
            # and double every one of its effects.
            return
        task = lease.task
        if task.target == rank:
            task = dataclasses.replace(task, target=-1)
        attempts = task.attempts + 1
        # A unit lost to a rank death gets at least one more chance,
        # even when task retries are disabled.
        if attempts <= max(1, self.max_retries):
            self._requeue(
                dataclasses.replace(task, chain=tuple(task.chain) + ((rank, reason),)),
                attempts,
            )
        else:
            self._quarantine(task, rank, reason, attempts)

    def _quarantine(
        self, task: Task, rank: int, reason: str, attempts: int
    ) -> None:
        """Withdraw a unit whose attempts keep killing their host ranks.

        Unlike a task *error* (the unit raised and retries exhausted —
        a TaskError), every attempt here took its rank down via a
        ``RankKilled`` announcement or lease expiry; requeueing again
        would keep feeding ranks to it.  The unit is recorded with its
        retry chain and its counter unit poisoned ``continue``-style so
        the run drains cleanly instead of respawn-looping.
        """
        chain = tuple(task.chain) + ((rank, reason),)
        record = QuarantinedTask(
            uid=str(task.uid),
            kind="ctask" if task.type == C.CONTROL else "task",
            payload=snippet(task.payload),
            attempts=attempts,
            chain=chain,
        )
        self.quarantined.append(record)
        self.quarantine_stats.quarantined += 1
        self.quarantine_stats.rank_kills += len(chain)
        if self.ring is not None:
            self.ring.emit(
                "quarantine",
                task.type,
                attempts,
                task.uid,
                {"ranks": [r for r, _ in chain]}
                if self.tracer is not None
                else None,
            )
        self.lease_stats.failed_permanent += 1
        self._decr_work(poison=True)

    def _engine_dead(self, rank: int, reason: str) -> bool:
        """Engine-specific death handling; runs on every server.

        Returns True when the dead engine's journal shows its leased
        control task completed (so the caller must not requeue it).
        Only the engine's anchor server performs the adoption: it
        replays the journal into pending rules and ships them — plus
        the termination-counter repair — to the lowest surviving
        engine on the async channel.
        """
        if not self.journal:
            # No journal: the pending rules died with the rank.  Raise
            # the diagnostic instead of hanging (mirrors ServerLost).
            raise EngineLost(rank, reason)
        anchor = (
            self.map.my_server(rank)
            if self.map is not None
            else self.layout.my_server(rank)
        )
        if anchor != self.rank:
            return False
        jr = self._journals.pop(rank, None)
        if jr is None:
            # Never journaled: the fail-stop invariant says it held
            # nothing (first flush precedes the first kill-point).
            return False
        self._repl(("journal_clear", rank))
        rules = jr.pending()
        repair = len(rules) + jr.guard + (1 if jr.ctask_done else 0)
        adopter = next(
            (
                e
                for e in self.layout.engines
                if e != rank and e not in self._dead_ranks
            ),
            None,
        )
        if adopter is None:
            if rules or repair:
                raise EngineLost(
                    rank,
                    reason + "; no surviving engine to adopt",
                    rules_pending=len(rules),
                )
            return jr.ctask_done
        if self.ring is not None:
            self.ring.emit(
                "engine_adopt",
                rank,
                adopter,
                len(rules),
                {"repair": repair} if self.tracer is not None else None,
            )
        self.comm.send(("adopt", rank, rules, repair), adopter, C.TAG_ASYNC)
        return jr.ctask_done

    def _lease_tick(self) -> None:
        """Release due backoff requeues; expire overdue leases."""
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, _, task = heapq.heappop(self._delayed)
            self._accept_task(task)
        if now < self._next_lease_check:
            return
        self._next_lease_check = now + 0.05
        expired = [l for l in self._leases.values() if l.deadline <= now]
        for lease in expired:
            self.lease_stats.expired += 1
            if self.ring is not None:
                self.ring.emit("lease_expired", lease.client, lease.task.type)
            self._mark_rank_dead(
                lease.client,
                reason="lease expired after %.1fs (rank presumed dead)"
                % self.lease_timeout,
            )

    # ---------------------------------------------------------------- stealing

    def _maybe_steal(self) -> None:
        if (
            not self.steal_enabled
            or self._steal_inflight
            or not self.parked
            or self.shutting_down
        ):
            return
        victim = self._other_servers[self._steal_ring % len(self._other_servers)]
        self._steal_ring += 1
        self._steal_inflight = True
        self.stats.steal_requests += 1
        if self.tracer is not None:
            self.tracer.emit("steal_req", victim)
        self.comm.send({"op": C.SOP_STEAL_REQ}, victim, C.TAG_SERVER)

    def _status_tick(self) -> None:
        """Push this server's status to the monitor (master: directly;
        others: an ``SOP_STATUS`` one-liner to the master)."""
        now = time.monotonic()
        if now < self._next_status:
            return
        self._next_status = now + (self._status_interval or 0.5)
        status = self._status()
        if self._monitor is not None:
            self._monitor.update(self.rank, status)
            return
        master = (
            self.map.master if self.map is not None else self.layout.master_server
        )
        if master != self.rank and master not in self._dead_servers:
            self.comm.send(
                {"op": C.SOP_STATUS, "rank": self.rank, "status": status},
                master,
                C.TAG_SERVER,
            )

    def _status(self) -> dict:
        status = {
            "matched": self.stats.tasks_matched,
            "queued": self.queue.size,
            "parked": len(self.parked),
            "clients": len(self.attached_clients),
        }
        if self._leases is not None:
            status["leases"] = len(self._leases)
        if self.replicate:
            status["repl_lag"] = self._repl_seq - self._repl_acked
        if self.is_master:
            status["outstanding"] = max(0, self.work_count)
        return status

    def _idle_tick(self) -> None:
        self._maybe_steal()
        if self.replicate:
            self._repl_tick()
        if self.journal and self.faults is not None and self._leases is not None:
            self._journal_tick()
        if self.ckpt_path is not None:
            self._ckpt_tick()
        if self._poisoned and not self.shutting_down:
            self._drain_tick()

    def _journal_tick(self) -> None:
        """Detect a silently-dead engine via journal-heartbeat loss.

        A kill-notified engine death arrives as SOP_RANK_DEAD; a
        *silent* kill models an abrupt crash, so the only signal is
        that the engine's journal flushes/heartbeats stop.  Uses the
        lease timeout as the staleness threshold — same budget a slow
        worker gets.
        """
        now = time.monotonic()
        for rank, jr in list(self._journals.items()):
            if rank in self._dead_ranks:
                continue
            if now - jr.last_heard > self.lease_timeout:
                reason = "journal heartbeat lost for %.1fs" % (
                    now - jr.last_heard
                )
                for s in self._other_servers:
                    self.comm.send(
                        {"op": C.SOP_RANK_DEAD, "rank": rank, "reason": reason},
                        s,
                        C.TAG_SERVER,
                    )
                self._mark_rank_dead(rank, reason)

    def _repl_tick(self) -> None:
        """Heartbeat the buddy; detect a silently-dead ward."""
        now = time.monotonic()
        if now - self._last_flush >= self._hb_interval:
            self._repl_flush(heartbeat=True)
        # Wards: live servers whose buddy is this server.  A ward that
        # stops flushing (silent kill — no launcher notification) is
        # declared dead and its replica promoted.
        for ward in list(self.map.alive):
            if ward == self.rank or self.map.buddy(ward) != self.rank:
                continue
            rep = self._replicas.setdefault(ward, Replica())
            if now - rep.last_heard > self._ward_timeout:
                self._server_dead(
                    ward,
                    reason="replication heartbeat lost for %.1fs"
                    % (now - rep.last_heard),
                    broadcast=True,
                )
        # Messages sent to a dead server after its mailbox was first
        # scavenged (in-flight racers) are re-drained by the current
        # owner of its shards.
        for dead in list(self._dead_servers):
            if self.map.resolve(dead) == self.rank:
                self._scavenge(dead)

    # ------------------------------------------------------- poisoned drain

    def _quiescent(self) -> bool:
        """Nothing on this server can make progress: every attached
        client is parked waiting for work, no work is queued, delayed,
        or leased out."""
        return (
            len(self.parked) >= len(self.attached_clients)
            and self.queue.size == 0
            and not self._delayed
            and not self._leases
        )

    def _drain_tick(self) -> None:
        """Master-side shutdown of a poisoned run.

        A permanently failed unit (on_error="continue") poisons the
        run: dataflow blocked on its outputs can never resolve, so the
        termination counter will never reach zero.  Once the system is
        quiescent — every client parked, nothing queued/delayed/leased
        anywhere, counter stable — the remaining units are unreachable
        and the master shuts the run down so `continue` terminates.
        """
        if not (self.is_master and self.work_started and self.work_count > 0):
            return
        now = time.monotonic()
        if not self._quiescent():
            self._drain_since = None
            self._drain_probing = False
            return
        if self._drain_since is None or self._drain_count != self.work_count:
            self._drain_since = now
            self._drain_count = self.work_count
            self._drain_probing = False
            return
        # Require the quiescent state to hold briefly so in-flight
        # oneway messages (puts, decrements) get a chance to land.
        if now - self._drain_since < 0.1 or self._drain_probing:
            return
        if not self._other_servers:
            self._drain_shutdown()
            return
        self._drain_probing = True
        self._drain_probes_ok = set()
        for s in self._other_servers:
            self.comm.send({"op": C.SOP_DRAIN_PROBE}, s, C.TAG_SERVER)

    def _drain_shutdown(self) -> None:
        if self.shutting_down:
            return
        if self.tracer is not None:
            self.tracer.emit("drain_shutdown", self.work_count)
        self._initiate_shutdown()

    # ---------------------------------------------------------------- shutdown

    def _initiate_shutdown(self) -> None:
        servers = self.map.alive if self.map is not None else self.layout.servers
        for s in servers:
            if s != self.rank:
                self.comm.send({"op": C.SOP_SHUTDOWN}, s, C.TAG_SERVER)
        self._enter_shutdown()

    def _enter_shutdown(self) -> None:
        if self.shutting_down:
            return
        self.shutting_down = True
        if self.ring is not None:
            self.ring.emit("shutdown")
        for parked in self.parked:
            tag = C.TAG_ASYNC if parked.is_async else C.TAG_RESPONSE
            payload: tuple = ("shutdown",)
            if parked.seq >= 0 and not parked.is_async:
                payload = payload + (parked.seq,)
            self.comm.send(payload, parked.rank, tag)
            self._shutdown_acked.add(parked.rank)
        self.parked = []

    # ------------------------------------------------------------- checkpoint

    def _ckpt_tick(self) -> None:
        """Master-driven periodic consistent snapshot.

        Two phases: engines first snapshot their rule tables (counting
        any put they already issued), then every server drains its
        mailbox — capturing those in-flight puts — and snapshots its
        shard.  The ordering closes the consistency window: a put an
        engine counted is in some server's mailbox before that server
        drains."""
        if (
            not self.is_master
            or self.shutting_down
            or not self.work_started
            or self.work_count <= 0
        ):
            return
        now = time.monotonic()
        if self._ckpt_phase is not None:
            if now - self._ckpt_started > 10.0:
                self.ckpt_stats.abandoned += 1
                self._ckpt_phase = None
            return
        if now - self._last_ckpt < self.ckpt_interval:
            return
        self._ckpt_gen += 1
        self._ckpt_phase = "engines"
        self._ckpt_started = now
        self._ckpt_parts = {}
        self._ckpt_waiting = {
            r for r in self.layout.engines if r not in self._dead_ranks
        }
        if not self._ckpt_waiting:
            self._ckpt_engines_done()
            return
        for r in self._ckpt_waiting:
            self.comm.send(("ckpt", self._ckpt_gen), r, C.TAG_ASYNC)

    def _ckpt_part(self, msg: dict, source: int) -> None:
        if msg.get("gen") != self._ckpt_gen or self._ckpt_phase is None:
            return  # straggler from an abandoned generation
        self._ckpt_parts[(msg["kind"], source)] = msg
        self._ckpt_waiting.discard(source)
        if self._ckpt_waiting:
            return
        if self._ckpt_phase == "engines":
            self._ckpt_engines_done()
        else:
            self._ckpt_write()

    def _ckpt_engines_done(self) -> None:
        self._ckpt_phase = "servers"
        self._drain_mailbox()
        part = self._server_ckpt_part()
        self._ckpt_parts[("server", self.rank)] = part
        others = [
            s
            for s in (self.map.alive if self.map else self.layout.servers)
            if s != self.rank
        ]
        self._ckpt_waiting = set(others)
        if not others:
            self._ckpt_write()
            return
        for s in others:
            self.comm.send(
                {"op": C.SOP_CKPT_REQ, "gen": self._ckpt_gen}, s, C.TAG_SERVER
            )

    def _drain_mailbox(self) -> None:
        """Process every message already deposited for this rank."""
        while True:
            got = self.comm.recv_poll(timeout=0)
            if got is None:
                return
            msg, status = got
            self._dispatch(msg, status.source, status.tag)

    def _server_ckpt_part(self) -> dict:
        tasks = [dataclasses.asdict(t) for t in self.queue.all_tasks()]
        tasks += [dataclasses.asdict(t) for _, _, t in self._delayed]
        if self._leases:
            # In-flight units are re-run on restore (at-least-once).
            tasks += [dataclasses.asdict(l.task) for l in self._leases.values()]
        return {
            "kind": "server",
            "rank": self.rank,
            "store": self.store.snapshot(),
            "tasks": tasks,
            "next_id": self._next_id,
        }

    def _ckpt_write(self) -> None:
        from .checkpoint import write_checkpoint

        servers = {}
        units = 0
        for (kind, rank), part in self._ckpt_parts.items():
            if kind == "server":
                servers[rank] = {
                    "store": part["store"],
                    "tasks": part["tasks"],
                    "next_id": part["next_id"],
                }
                units += len(part["tasks"])
        engines = {
            rank: part["rules"]
            for (kind, rank), part in self._ckpt_parts.items()
            if kind == "engine"
        }
        image = {
            "version": 1,
            "gen": self._ckpt_gen,
            "size": self.layout.size,
            "n_servers": self.layout.n_servers,
            "n_engines": len(self.layout.engines),
            "work_count": self.work_count,
            "servers": servers,
            "engines": engines,
        }
        write_checkpoint(self.ckpt_path, image)
        self.ckpt_stats.written += 1
        self.ckpt_stats.units_captured = units
        self._last_ckpt = time.monotonic()
        self._ckpt_phase = None
        if self.tracer is not None:
            self.tracer.emit("checkpoint", self._ckpt_gen, units)

    # ------------------------------------------------------------ diagnostics

    def _diagnostic(self) -> str:
        """One-line state summary for recv-timeout hang reports."""
        parts = [
            "server q=%d parked=%d delayed=%d"
            % (self.queue.size, len(self.parked), len(self._delayed))
        ]
        if self._leases:
            now = time.monotonic()
            parts.append(
                "leases={%s}"
                % ", ".join(
                    "%d: %s (%.1fs left)"
                    % (c, snippet(l.task.payload, 40), l.deadline - now)
                    for c, l in sorted(self._leases.items())
                )
            )
        else:
            parts.append("leases=none")
        if self.replicate:
            parts.append(
                "repl lag=%d (sent=%d acked=%d) buddy=%s dead_servers=%s"
                % (
                    self._repl_seq - self._repl_acked,
                    self._repl_seq,
                    self._repl_acked,
                    self._buddy,
                    sorted(self._dead_servers) or "{}",
                )
            )
        if self._journals:
            parts.append(
                "journals={%s}"
                % ", ".join(
                    "%d: %d rule(s)%s%s"
                    % (
                        r,
                        len(j.rules),
                        " +guard" if j.guard else "",
                        " +ctask_done" if j.ctask_done else "",
                    )
                    for r, j in sorted(self._journals.items())
                )
            )
        if self.quarantined:
            parts.append(
                "quarantined=%d" % len(self.quarantined)
            )
        if self.is_master:
            parts.append(
                "work_count=%d%s"
                % (self.work_count, " poisoned" if self._poisoned else "")
            )
        return "; ".join(parts)


_NO_REPLY = object()
