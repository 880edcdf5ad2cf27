"""Task leases: at-least-once execution, on every server.

The server records what it hands out to a client as one lease: a
worker's bundle of up to ``GET_BUNDLE`` units, an engine's one control
task.  The client's next GET completes it (one outstanding lease per
client), and lands the units that ride it only while the lease is
open.  A unit whose client reports it failed (``OP_TASK_FAIL``,
naming its place in the bundle) is requeued alone; every unit of a
lease whose client dies (``SOP_RANK_DEAD``) or, under a fault plan,
goes silent past the lease deadline is requeued, with exponential
backoff — or, out of attempts, surfaced as a failure or quarantined.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Any

from ..faults import EngineLost, QuarantinedTask, ServerLost, snippet
from . import constants as C
from .datastore import DataStoreError
from .workqueue import Task

#: base requeue delay; attempt ``k`` of a unit waits ``RETRY_BACKOFF * 2**(k-1)``,
#: at most ``RETRY_BACKOFF_MAX``
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_MAX = 0.5


@dataclass
class _Lease:
    """The units one grant handed to ``client``, awaiting completion; a
    unit handed back as failed leaves ``None`` in its place, so a later
    report still names its own."""

    tasks: list[Task | None]
    client: int
    deadline: float

    @property
    def live(self) -> list[Task]:
        return [t for t in self.tasks if t is not None]


@dataclass
class LeaseStats:
    """Lease-layer counters, registered as ``adlb.lease.*``."""

    granted: int = 0
    requeued: int = 0
    expired: int = 0
    dead_ranks: int = 0
    failed_permanent: int = 0


@dataclass
class QuarantineStats:
    """Poison-task counters, registered as ``adlb.quarantine.*``."""

    quarantined: int = 0
    rank_kills: int = 0  # total rank deaths across quarantined units' chains


class Leases:
    def __init__(self, core: Any, timeout: float, max_retries: int) -> None:
        self.core = core
        self.table: dict[int, _Lease] = {}  # client -> its outstanding units
        self.timeout = timeout
        self.max_retries = max_retries
        register = core.comm.metrics.register
        self.stats = register("adlb.lease", LeaseStats(), core.rank)
        # Units withdrawn as poisonous (their attempts kept killing
        # their host ranks); collected onto RunResult.quarantined.
        self.quarantined: list[QuarantinedTask] = []
        self.quarantine_stats = register("adlb.quarantine", QuarantineStats(), core.rank)
        # (release_at, seq, task) heap of backoff-delayed requeues
        self.delayed: list[tuple[float, int, Task]] = []
        self._delay_seq = 0
        self._next_check = 0.0
        core.ops[C.OP_TASK_FAIL] = self.op_task_fail
        core.ops[C.SOP_RANK_DEAD] = self.op_rank_dead

    def grant(self, tasks: list[Task], client: int) -> None:
        """Record handed-out units, ``granted`` counting each; completion
        is implied by the client's next GET (one lease per client)."""
        self.stats.granted += len(tasks)
        deadline = self.core.comm.now() + self.timeout
        self.table[client] = _Lease(list(tasks), client, deadline)

    def take(self, client: int) -> _Lease | None:
        """Close the client's lease, if it holds one (asking for the
        next task completes the previous one; so does dying)."""
        lease = self.table.pop(client, None)
        if lease is not None:
            self.core.log(("done", client))
        return lease

    def close(self, client: int, get: dict) -> _Lease | None:
        """A worker's GET closes its lease: first apply the op lists of
        the units that ride it (``units``: ``(place, ops)`` in bundle
        order), logged before the close, then count its ``done``.  A
        unit whose list is rejected fails at its place like an
        OP_TASK_FAIL, and its -1 is not counted; ops before the rejected
        one stand.  A GET that closes no lease (a swept rank's late one,
        a re-send) applies and counts nothing: the fence."""
        lease = self.table.get(client)
        if lease is None:
            return None
        core, done = self.core, get.get("done", 0)
        for place, ops in get.get("units", ()):
            try:
                core.op_commit({"ops": ops}, client)
            except DataStoreError as e:
                done -= 1
                task, lease.tasks[place] = lease.tasks[place], None
                core.log(("failed", client, place))
                fail = {"kind": "task", "error": "AdlbError: %s" % e}
                self.settle(task, fail, client, core.on_error == "retry")
        self.take(client)
        if done:
            core.decr_work(done)
        return lease

    def requeue(self, task: Task, attempts: int) -> None:
        """Put a failed/orphaned unit back with exponential backoff."""
        core = self.core
        self.stats.requeued += 1
        if core.ring is not None:
            core.ring.emit("requeue", task.type, attempts, task.uid)
        nxt = core.stamp(dataclasses.replace(task, attempts=attempts))
        core.log(("task+", nxt))
        self._delay_seq += 1
        delay = min(RETRY_BACKOFF_MAX, RETRY_BACKOFF * 2 ** max(0, attempts - 1))
        release_at = core.comm.now() + delay
        heapq.heappush(self.delayed, (release_at, self._delay_seq, nxt))

    def op_task_fail(self, msg: dict, source: int) -> None:
        """OP_TASK_FAIL: the client hands one leased unit back as failed,
        the one at place ``unit`` of its bundle; the rest stay leased
        (the last one out closes the lease).

        Ownership of the unit (and its termination-counter increment)
        transfers to this server: either it is requeued for another
        attempt, or given up permanently.
        """
        lease = self.table.get(source)
        if lease is None and source in self.core.dead_ranks:
            # The rank was already declared dead and its lease swept
            # (requeued or quarantined); a straggling failure report —
            # e.g. a watchdog TaskTimeout racing the sweep — must not
            # fail the unit a second time.
            return
        task = None
        if lease is not None:
            place = msg.get("unit", 0)
            task, lease.tasks[place] = lease.tasks[place], None
            if lease.live:
                self.core.log(("failed", source, place))
            else:
                self.take(source)
        self.settle(task, msg, source, retry=True)

    def settle(self, task: Task | None, msg: dict, source: int, retry: bool) -> None:
        """A failed unit: requeued while ``retry`` and attempts are left,
        else given up (``Server.fail_unit``)."""
        if retry and task is not None and task.attempts + 1 <= self.max_retries:
            self.requeue(task, task.attempts + 1)
            return
        self.stats.failed_permanent += 1
        self.core.fail_unit(msg, source, task)

    def op_rank_dead(self, msg: dict, source: int) -> None:
        rank, reason = msg["rank"], msg.get("reason", "rank died")
        core = self.core
        if not core.layout.is_server(rank):
            self.rank_dead(rank, reason)
        elif core.repl is not None:
            core.repl.server_dead(rank, reason)
        elif rank != core.rank:
            # Without replication the dead server's shard is
            # unrecoverable: fail loudly instead of hanging.
            raise ServerLost(rank, reason)

    def rank_dead(self, rank: int, reason: str) -> None:
        """Sweep all state tied to a dead client rank.

        Called on a launcher-side SOP_RANK_DEAD notification, a lease
        expiry, or a lost journal heartbeat.  The rank can no longer be
        granted work or block shutdown and every unit of its lease is
        re-run elsewhere (at-least-once: a worker's bundle units that
        already committed too).  A merely slow worker is fenced for what
        its late GET carries, which closes no lease (:meth:`close`): its
        ``-1``s and the units that ride it.  A unit whose ops span
        servers (or subscribe, or spawn) commits on its own and still
        lands beside the re-run's, and so does a control task's commit,
        which is why expiry is armed only under a fault plan.
        """
        core = self.core
        if rank in core.dead_ranks:
            return
        core.dead_ranks.add(rank)
        core.log(("deadrank", rank))
        self.stats.dead_ranks += 1
        if core.ring is not None:
            core.ring.emit("rank_dead", rank)
        core.forget_client(rank)
        if core.ckpt is not None:
            core.ckpt.rank_dead(rank)
        ctask_done = False
        if core.layout.is_engine(rank):
            if core.journals is None:
                # No journal: the pending rules died with the rank.  Raise
                # the diagnostic instead of hanging (mirrors ServerLost).
                raise EngineLost(rank, reason)
            ctask_done = core.journals.engine_dead(rank, reason)
        # Re-aim queued tasks that could only run on the dead rank.
        for task in core.queue.remove_targeted(rank):
            core.accept_task(dataclasses.replace(task, target=-1))
        lease = self.take(rank)
        if lease is None or ctask_done:
            # ctask_done: the journal shows the leased control task
            # completed (its rule creates are journaled and adopted, its
            # counter unit went back in its commit): requeueing would
            # re-run it and double every one of its effects.
            return
        for task in lease.live:
            if task.target == rank:
                task = dataclasses.replace(task, target=-1)
            attempts = task.attempts + 1
            # A unit lost to a rank death gets at least one more chance,
            # even when task retries are disabled.
            if attempts <= max(1, self.max_retries):
                chain = tuple(task.chain) + ((rank, reason),)
                self.requeue(dataclasses.replace(task, chain=chain), attempts)
            else:
                self.quarantine(task, rank, reason, attempts)

    def quarantine(self, task: Task, rank: int, reason: str, attempts: int) -> None:
        """Withdraw a unit whose attempts keep killing their host ranks.

        Unlike a task *error* (the unit raised and retries exhausted —
        a TaskError), every attempt here took its rank down via a
        ``RankKilled`` announcement or lease expiry; requeueing again
        would keep feeding ranks to it.  The unit is recorded with its
        retry chain and its counter unit poisoned ``continue``-style so
        the run drains cleanly instead of respawn-looping.
        """
        core = self.core
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
        if core.ring is not None:
            core.ring.emit(
                "quarantine",
                task.type,
                attempts,
                task.uid,
                {"ranks": [r for r, _ in chain]}
                if core.tracer is not None
                else None,
            )
        self.stats.failed_permanent += 1
        core.decr_work(poison=True)

    def tick(self) -> None:
        """Release due backoff requeues; expire overdue leases — under a
        fault plan only.  Only an injected kill is silent in this
        runtime (a rank that dies otherwise is announced), so without a
        plan an overdue lease is a long leaf, not a dead rank: sweeping
        it would re-run the leaf, and a leaf that commits on its own would
        land both runs' writes (what rides its GET is fenced).  A runaway
        leaf is ``task_timeout``'s job."""
        now = self.core.comm.now()
        while self.delayed and self.delayed[0][0] <= now:
            _, _, task = heapq.heappop(self.delayed)
            self.core.accept_task(task)
        if self.core.faults is None or now < self._next_check:
            return
        self._next_check = now + 0.05
        expired = [l for l in self.table.values() if l.deadline <= now]
        for lease in expired:
            self.stats.expired += 1
            if self.core.ring is not None:
                self.core.ring.emit("lease_expired", lease.client, lease.live[0].type)
            self.rank_dead(
                lease.client,
                reason="lease expired after %.1fs (rank presumed dead)"
                % self.timeout,
            )

    def unfinished(self) -> list[Task]:
        """Backoff-delayed and leased-out units (checkpointed with the
        queue: in-flight units re-run on restore, at-least-once)."""
        tasks = [t for _, _, t in self.delayed]
        return tasks + [t for lease in self.table.values() for t in lease.live]

    # -- replica slice, state -------------------------------------------------

    def image(self, state: dict) -> None:
        state["tasks"] += [t for _, _, t in self.delayed]
        state["leases"] = {c: list(lease.tasks) for c, lease in self.table.items()}

    def absorb(self, leases: dict[int, list[Task | None]]) -> None:
        """Promotion: adopt the dead server's outstanding leases; the
        units of a holder that is dead too go back on the queue."""
        for client, tasks in leases.items():
            lease = _Lease(list(tasks), client, self.core.comm.now() + self.timeout)
            if client not in self.core.dead_ranks:
                self.table[client] = lease
                continue
            for task in lease.live:
                if task.target == client:
                    task = dataclasses.replace(task, target=-1)
                self.requeue(task, task.attempts + 1)

    def state(self) -> dict:
        """This server's slice of ``Server.state``."""
        now = self.core.comm.now()
        leases = {}  # client rank -> the units it holds, and for how long
        for client, lease in sorted(self.table.copy().items()):
            live = lease.live
            if live:
                leases[client] = "%s: %s%s (%.1fs left)" % (
                    live[0].uid,
                    snippet(live[0].payload, 40),
                    " +%d more" % (len(live) - 1) if len(live) > 1 else "",
                    lease.deadline - now,
                )
        return {
            "delayed_tasks": len(self.delayed),
            "leases": leases,
            "quarantined": len(self.quarantined),
        }
