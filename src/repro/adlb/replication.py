"""Buddy replication and server failover (``replicate=True``).

Every mutation — data-store ops, work-queue inserts/grants,
termination-counter changes — is logged to the server's *buddy* (the
next live server in ring order) as batched ``SOP_REPLICATE`` entries,
flushed at every dispatch boundary.  Injected kills fire *between*
dispatches (fail-stop), so a dead server's replicated image is exact.
The buddy detects death by notification or heartbeat loss, promotes the
replica shard, re-routes clients via the shared epoch-stamped
:class:`~repro.adlb.layout.ServerMap`, adopts the dead server's leases
and attached clients, and scavenges its undelivered mailbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import constants as C
from .dataops import apply_data_op
from .datastore import DataStore, DataStoreError
from .dedup import DedupTable
from .journal import RuleJournal
from .workqueue import Task


@dataclass
class ReplStats:
    """Replication and reliable-RPC dedup counters, registered as
    ``adlb.repl.*`` by the server that owns them."""

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


class Replica:
    """Shadow of one ward server's replicable state, held by its buddy.

    Starts from a resilver image (``Replication.image``) or empty,
    then follows the ward's op-log entries; promoted into the buddy's
    own state when the ward dies (``Replication.promote``).
    ``replay_ok`` on the shadow store keeps a resilver/incremental
    overlap from raising.
    """

    def __init__(self, image: dict | None = None) -> None:
        image = image or {}
        self.store = DataStore(replay_ok=True)
        self.store.load_snapshot(image.get("store", {}))
        # uid -> queued/delayed task
        self.tasks: dict[int, Task] = {t.uid: t for t in image.get("tasks", ())}
        # client -> granted task
        self.leases: dict[int, Task] = dict(image.get("leases", {}))
        self.dedup = DedupTable(image.get("dedup"))
        self.dead_ranks: set[int] = set(image.get("dead_ranks", ()))
        # engine rank -> mirrored rule journal (survives anchor death)
        self.journals: dict[int, RuleJournal] = image.get("journals", {})
        # termination counter: (work_count, work_started, poisoned)
        self.work: tuple = image.get("work", (0, False, False))
        self.next_id: int = image.get("next_id", 1)

    def apply(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "data":
            try:
                # Notifications and the ops it issues are discarded —
                # the owner already emitted them; the shadow only
                # tracks resulting state.
                apply_data_op(self.store, entry[1], -1, [], [])
            except DataStoreError:
                # The owner validated the op before logging it; a replay
                # divergence (e.g. resilver overlap) must not kill the buddy.
                pass
        elif kind == "task+":
            task = entry[1]
            self.tasks[task.uid] = task
        elif kind == "task-":
            self.tasks.pop(entry[1], None)
        elif kind == "grant":
            _, task, client, seq, reply = entry
            self.tasks.pop(task.uid, None)
            self.leases[client] = task
            if seq is not None and seq >= 0:
                channel = "async" if reply[0] == C.TAG_ASYNC else "rpc"
                self.dedup.offer(client, channel, seq, reply, ties=True)
        elif kind == "done":
            self.leases.pop(entry[1], None)
        elif kind == "dedup":
            _, client, seq, reply = entry
            self.dedup.offer(client, "rpc", seq, reply, ties=True)
        elif kind == "work":
            self.work = entry[1:]
        elif kind == "master":
            self.next_id = entry[1]
        elif kind == "deadrank":
            self.dead_ranks.add(entry[1])
        elif kind == "journal":
            self.journals.setdefault(entry[1], RuleJournal()).apply(entry[2])
        elif kind == "journal_clear":
            self.journals.pop(entry[1], None)
        else:
            raise RuntimeError("unknown replication entry %r" % (kind,))


class Replication:
    """One server's op-log stream to its buddy, the shadows it holds
    for its wards, and the failover that promotes them."""

    def __init__(self, core: Any, lease_timeout: float) -> None:
        self.core = core
        self.stats: ReplStats = core.repl_stats
        self.buddy = core.map.buddy(core.rank)
        self.replicas: dict[int, Replica] = {}
        # ward -> when its last batch arrived, by comm.now()
        self.last_heard: dict[int, float] = {}
        self.dead_servers: set[int] = set()
        # wards whose own shutdown has begun (their last entry, "bye")
        self.departed: set[int] = set()
        self.buf: list[tuple] = []
        self.seq = 0  # entries sent
        self.acked = 0  # entries the buddy confirmed applied
        self._last_flush = core.comm.now()
        # Strictly inside the lease: a client blocked on a dead server
        # took its lease before that server's last beat, so at an equal
        # bound the live client is swept first (and `pump` ticks leases
        # before `_idle_tick` ticks this, so a tie goes the wrong way).
        self._ward_timeout = min(lease_timeout / 2, 5.0)
        self._hb_interval = max(0.02, min(self._ward_timeout / 4, 0.25))
        core.ops[C.SOP_REPLICATE] = self.op_replicate
        core.ops[C.SOP_REPL_ACK] = self.op_ack

    # ---------------------------------------------------------------- op-log

    def flush(self, heartbeat: bool = False) -> None:
        """Ship the op-log tail to the buddy.  Empty batches double as
        liveness heartbeats."""
        if self.buddy is None:
            return
        buf, self.buf = self.buf, []
        self.seq += len(buf)
        self.stats.batches_sent += 1
        self.stats.entries_sent += len(buf)
        lag = self.seq - self.acked
        if lag > self.stats.max_lag:
            self.stats.max_lag = lag
        if heartbeat:
            self.stats.heartbeats += 1
        if buf and self.core.ring is not None:
            # Replication lag is causal state: a promotion can only
            # recover what was flushed, so the analyzer links these to
            # promote/requeue events.
            self.core.ring.emit("repl_flush", len(buf), lag, self.seq)
        self.core.comm.send(
            {"op": C.SOP_REPLICATE, "entries": buf, "seq": self.seq},
            self.buddy,
            C.TAG_SERVER,
        )
        self._last_flush = self.core.comm.now()

    def last_gasp(self) -> None:
        """Push the unflushed op-log tail to the buddy before dying (not
        on a silent kill: an abrupt crash gets no such courtesy)."""
        try:
            self.flush()
        except Exception:
            pass

    def image(self) -> dict:
        """This server's whole replicable state: what a :class:`Replica`
        fed every op-log entry must equal."""
        core = self.core
        state = {
            "store": core.store.snapshot(),
            "tasks": core.queue.all_tasks(),
            "dedup": dict(core.dedup.slots),
            "dead_ranks": set(core.dead_ranks),
            "work": (core.work_count, core.work_started, core.poisoned),
            "next_id": core.next_id,
        }
        core.leases.image(state)
        if core.journals is not None:
            state["journals"] = core.journals.image()
        return state

    def resilver(self) -> None:
        """Replace the buddy's shadow with a full image of this server.

        Needed whenever incremental history is insufficient: at a buddy
        change (the old buddy — and the op-log it held — is gone) and
        after a promotion (this server's state just changed wholesale).
        """
        if self.buddy is None:
            return
        self.stats.resilvers += 1
        self.buf = [("reset", self.image())]
        if self.core.shutting_down:
            self.buf.append(("bye",))  # the old buddy's copy of it is gone
        self.flush()

    def op_replicate(self, msg: dict, source: int) -> None:
        rep = self.replicas.get(source)
        if rep is None:
            rep = self.replicas[source] = Replica()
        for entry in msg["entries"]:
            if entry[0] == "reset":
                rep = self.replicas[source] = Replica(entry[1])
            elif entry[0] == "bye":
                self.departed.add(source)
            else:
                rep.apply(entry)
        self.last_heard[source] = self.core.comm.now()
        self.stats.entries_applied += len(msg["entries"])
        self.core.comm.send(
            {"op": C.SOP_REPL_ACK, "seq": msg["seq"]}, source, C.TAG_SERVER
        )

    def op_ack(self, msg: dict, source: int) -> None:
        self.acked = max(self.acked, msg["seq"])

    # -------------------------------------------------------------- failover

    def server_dead(self, dead: int, reason: str, broadcast: bool = False) -> None:
        """A fellow server is gone: re-route, and promote its replica
        if this server is the heir."""
        core = self.core
        if dead == core.rank or dead in self.dead_servers:
            return
        self.dead_servers.add(dead)
        self.stats.server_deaths += 1
        if core.ring is not None:
            core.ring.emit("server_dead", dead)
        core.map.mark_dead(dead)
        if broadcast:
            # Heartbeat-detected death: the launcher sent no
            # notification, so tell the other survivors ourselves.
            for s in core.map.alive:
                if s != core.rank:
                    core.comm.send(
                        {"op": C.SOP_RANK_DEAD, "rank": dead, "reason": reason},
                        s,
                        C.TAG_SERVER,
                    )
        core.other_servers = [s for s in core.map.alive if s != core.rank]
        core.steal_inflight = False  # a pending steal may never answer
        old_buddy = self.buddy
        self.buddy = core.map.buddy(core.rank)
        if core.map.resolve(dead) == core.rank:
            self.promote(dead)  # ends with a resilver to the new buddy
        else:
            self.replicas.pop(dead, None)
            if self.buddy != old_buddy:
                # Our op-log history died with the old buddy: full resync.
                self.resilver()

    def promote(self, dead: int) -> None:
        """Absorb the dead server's replica shard into this server."""
        core = self.core
        rep = self.replicas.pop(dead, None) or Replica()
        self.stats.promotions += 1
        if core.ring is not None:
            core.ring.emit("promote", dead, len(rep.store.tds), len(rep.tasks))
        core.store.absorb(rep.store)
        core.store.replay_ok = True  # scavenged re-sends may replay ops
        if not core.is_master and core.map.master == core.rank:
            # The master anchor now resolves here: adopt the termination
            # counter, poison flag, and ID allocator.
            core.work_count, core.work_started, poisoned = rep.work
            core.poisoned = core.poisoned or poisoned
            core.next_id = max(core.next_id, rep.next_id)
            core.is_master = True
        core.dedup.merge(rep.dedup)
        core.dead_ranks |= rep.dead_ranks
        # Adopt the dead server's clients: they re-route here and must
        # be shut down before this server may exit.
        for r in range(core.layout.size):
            if (
                not core.layout.is_server(r)
                and r not in core.dead_ranks
                and core.map.my_server(r) == core.rank
            ):
                core.attached_clients.add(r)
        if core.journals is not None:
            core.journals.absorb(rep.journals)
        core.leases.absorb(rep.leases)
        for task in list(rep.tasks.values()):
            core.accept_task(task)
        self.scavenge(dead)
        self.resilver()

    def scavenge(self, dead: int) -> None:
        """Recover messages stranded in a dead server's mailbox.

        Clients' requests and oneways (puts, counter decrements) are
        re-dispatched here as the shard's new owner; peer steal
        responses are absorbed; everything else from the old topology
        is stale and dropped."""
        core = self.core
        for payload, status in core.comm.drain_dead(dead):
            self.stats.scavenged_msgs += 1
            if status.tag == C.TAG_SERVER:
                sop = payload.get("op")
                if sop == C.SOP_STEAL_RESP:
                    for task in payload["tasks"]:
                        core.accept_task(task)
                elif sop == C.SOP_RANK_DEAD:
                    core.dispatch(payload, status.source, status.tag)
                # REPLICATE / REPL_ACK / DRAIN_* / SHUTDOWN / CKPT_*:
                # addressed to the old topology; superseded.
            elif status.tag in (C.TAG_REQUEST, C.TAG_ONEWAY):
                core.dispatch(payload, status.source, status.tag)

    def tick(self) -> None:
        """Heartbeat the buddy; detect a silently-dead ward."""
        core = self.core
        now = core.comm.now()
        if now - self._last_flush >= self._hb_interval:
            self.flush(heartbeat=True)
        # Wards: live servers whose buddy is this server.  A ward that
        # stops flushing (silent kill — no launcher notification) is
        # declared dead and its replica promoted; one that said "bye"
        # stopped on purpose and is never promoted.
        for ward in list(core.map.alive):
            if ward == core.rank or core.map.buddy(ward) != core.rank:
                continue
            if ward in self.departed:
                continue
            heard = self.last_heard.setdefault(ward, now)
            if now - heard > self._ward_timeout:
                self.server_dead(
                    ward,
                    reason="replication heartbeat lost for %.1fs" % (now - heard),
                    broadcast=True,
                )
        # Messages sent to a dead server after its mailbox was first
        # scavenged (in-flight racers) are re-drained by the current
        # owner of its shards.
        for dead in list(self.dead_servers):
            if core.map.resolve(dead) == core.rank:
                self.scavenge(dead)

    def goodbye(self) -> None:
        """This server's shutdown has begun: the last op-log entry."""
        if self.buddy is not None:
            self.buf.append(("bye",))
            self.flush()

    def wards_settled(self) -> bool:
        """No live ward is unaccounted for: each has said "bye".  One
        that went quiet without it may have died silently, and if this
        server left too nothing would ever release that ward's clients
        — so it keeps ticking until the ward speaks or is declared dead
        and promoted."""
        core = self.core
        return all(
            ward in self.departed
            for ward in core.map.alive
            if ward != core.rank and core.map.buddy(ward) == core.rank
        )

    def state(self) -> dict:
        """This server's slice of ``Server.state``."""
        return {
            "repl_lag": self.seq - self.acked,
            "repl_sent": self.seq,
            "repl_acked": self.acked,
            "buddy": self.buddy,
            "dead_servers": sorted(self.dead_servers),
        }
