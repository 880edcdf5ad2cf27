"""Communicators and point-to-point messaging: what a rank may ask of
the world (collectives are a library over it, :mod:`.collectives`)."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.metrics import Metrics

_pc = time.perf_counter

ANY_SOURCE = -1
ANY_TAG = -1


class AbortError(RuntimeError):
    """The world was aborted (a peer rank raised)."""


class DeadlockError(RuntimeError):
    """A blocking receive timed out with no matching message."""


@dataclass
class Status:
    """Result metadata of a receive."""

    source: int
    tag: int


@dataclass
class CommStats:
    """Per-rank traffic counters, used by benchmarks and tests;
    ``bytes_sent`` is None (not in the table) where no tracer sizes sends."""

    sends: int = 0
    recvs: int = 0
    bytes_sent: int | None = 0

    def add_send(self, payload: Any) -> int:
        size = _approx_size(payload)
        self.sends += 1
        self.bytes_sent += size
        return size


def _approx_size(obj: Any) -> int:
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 8
    if isinstance(obj, (list, tuple)):
        return 8 + sum(_approx_size(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(_approx_size(k) + _approx_size(v) for k, v in obj.items())
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return 64


class _Mailbox:
    """One rank's incoming message queue with tag/source matching."""

    __slots__ = ("lock", "cond", "messages")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        # (source, tag, payload, clock) — the clock is the sender's
        # Lamport stamp piggybacked for the recorder (0 when it is off).
        self.messages: list[tuple[int, int, Any, int]] = []

    def put(self, source: int, tag: int, payload: Any, clock: int = 0) -> None:
        with self.cond:
            self.messages.append((source, tag, payload, clock))
            self.cond.notify_all()

    def _match(self, source: int, tag: int) -> int:
        for i, (src, t, _, _) in enumerate(self.messages):
            if (source == ANY_SOURCE or src == source) and (
                tag == ANY_TAG or t == tag
            ):
                return i
        return -1

    def get(
        self,
        source: int,
        tag: int,
        timeout: float | None,
        aborted: threading.Event,
    ) -> tuple[Any, Status, int] | None:
        """Take the first matching message, waiting up to ``timeout``
        for one (None: for ever); None if none came."""
        # How long a thread sleeps on its condition is real time by
        # nature: not the world's clock, which a test may hold still.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while True:
                if aborted.is_set():
                    raise AbortError("world aborted during recv")
                i = self._match(source, tag)
                if i >= 0:
                    src, t, payload, clock = self.messages.pop(i)
                    return payload, Status(src, t), clock
                if deadline is None:
                    wait_t = 0.25
                else:
                    wait_t = min(0.25, deadline - time.monotonic())
                    if wait_t <= 0:
                        return None
                self.cond.wait(timeout=wait_t)


class World:
    """A set of ranks sharing an address space (one simulated MPI job).

    ``recorder`` is an optional :class:`repro.obs.Recorder`; when set,
    every Comm stamps one ``send`` header and one ``recv`` wait span per
    message into its rank's ring, and the sender's Lamport clock rides
    the message envelope; a level-1 one also sizes each payload
    (``bytes_sent``).  ``faults`` is an optional
    :class:`repro.faults.FaultState` whose message rules can drop or
    delay sends.  When either is ``None`` the instrumentation is a
    single pointer test per call.  ``metrics`` is the run's counter
    table, where every layer of every rank registers its stats structs;
    a world built without one (a probe, a unit test) gets a private one.
    ``clock`` is the time every protocol timer of every rank reads, as
    ``Comm.now`` (leases, heartbeats, staleness, back-off, resends): a
    test — or a deterministic transport — passes one it advances itself.
    """

    def __init__(
        self,
        size: int,
        recv_timeout: float | None = 120.0,
        recorder: Any | None = None,
        faults: Any | None = None,
        metrics: Any | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.recv_timeout = recv_timeout
        self.recorder = recorder
        self.faults = faults
        self.clock = clock
        if metrics is None:
            metrics = Metrics()
        self.metrics = metrics
        self.mailboxes = [_Mailbox() for _ in range(size)]
        nbytes = 0 if recorder is not None and recorder.level else None
        self.stats = [
            metrics.register("mpi", CommStats(bytes_sent=nbytes), rank=r) for r in range(size)
        ]
        self.aborted = threading.Event()
        self.abort_reason: BaseException | None = None

    def comm(self, rank: int) -> "Comm":
        return Comm(self, rank)

    def abort(self, reason: BaseException | None = None) -> None:
        if reason is not None and self.abort_reason is None:
            self.abort_reason = reason
        self.aborted.set()
        # Wake all sleepers.
        for mb in self.mailboxes:
            with mb.cond:
                mb.cond.notify_all()


class Comm:
    """One rank's view of the world: MPI_COMM_WORLD analog.

    Its public names are the whole of what a rank may ask of the world
    (DESIGN.md, "What a rank may ask of the world"); a second transport
    implements these and nothing else.
    """

    def __init__(self, world: World, rank: int):
        if not 0 <= rank < world.size:
            raise ValueError("rank %d out of range" % rank)
        self._world = world
        self.rank = rank
        self.size = world.size
        #: the time, for every protocol timer on this rank (World.clock)
        self.now = world.clock
        #: the run's counter table: this rank's stats structs, its ``state``
        self.metrics = world.metrics
        # This rank's event ring (None when the run has no recorder),
        # and the same ring again for level-1-only events (None unless
        # the run is traced).  The layers above share both, so every
        # instrumented site is a single `is None` test, like faults.
        rec = world.recorder
        self.ring = rec.ring(rank) if rec is not None else None
        self.tracer = self.ring if rec is not None and rec.level else None

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        world = self._world
        if world.aborted.is_set():
            raise AbortError("world aborted during send")
        if not 0 <= dest < self.size:
            raise ValueError("bad destination rank %d" % dest)
        faults = world.faults
        if faults is not None:
            directive = faults.on_send(self.rank, dest, tag)
            if directive is not None:
                if directive[0] == "drop":
                    return
                time.sleep(directive[1])
        stats = world.stats[self.rank]
        if self.tracer is not None:
            clock = self.tracer.emit("send", dest, tag, stats.add_send(obj))
        else:  # untraced: no payload walk, and no size in the header
            stats.sends += 1
            clock = 0 if self.ring is None else self.ring.emit("send", dest, tag, None)
        world.mailboxes[dest].put(self.rank, tag, obj, clock)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> tuple[Any, Status]:
        if timeout is None:
            timeout = self._world.recv_timeout
        got = self.recv_poll(source, tag, timeout)
        if got is None:
            raise DeadlockError(self._hang_report(source, tag, timeout))
        return got

    def _received(self, source: int, tag: int, clock: int, t0: float) -> None:
        """Account for one message taken out of a mailbox: count it and
        stamp the wait span, merging the sender's piggybacked clock."""
        self._world.stats[self.rank].recvs += 1
        ring = self.ring
        if ring is not None:
            ring.emit("recv", source, tag, clock, None, t0, clock)

    def _hang_report(self, source: int, tag: int, timeout: float) -> str:
        """Actionable deadlock report: who is blocked on what, and the
        pending-queue depth of every rank at the moment of the timeout."""
        depths = " ".join(
            "rank%d=%d" % (r, len(mb.messages))
            for r, mb in enumerate(self._world.mailboxes)
        )
        src = "ANY_SOURCE" if source == ANY_SOURCE else str(source)
        tg = "ANY_TAG" if tag == ANY_TAG else str(tag)
        report = (
            "rank %d blocked in recv(source=%s, tag=%s) timed out after "
            "%.1fs with no matching message; per-rank pending-queue "
            "depths: %s" % (self.rank, src, tg, timeout, depths)
        )
        # What every live rank holds tells a lost message from a dead
        # server, a stuck lease or a variable nobody writes.
        for rank, line in self.metrics.state_lines().items():
            report += "\n  rank %d: %s" % (rank, line)
        return report

    def drain_dead(self, rank: int) -> list[tuple[Any, Status]]:
        """Scavenge every message pending in a dead rank's mailbox.

        In-process stand-in for a fault-tolerant transport's redelivery:
        messages deposited for a rank that died before receiving them
        are handed to the caller (the server that inherited the dead
        rank's shards) instead of being lost.  Must only be called for
        a rank known dead — the mailbox is emptied.
        """
        t0 = _pc()
        mb = self._world.mailboxes[rank]
        with mb.cond:
            pending = mb.messages
            mb.messages = []
        # The scavenger inherits the causal history of the messages it
        # adopts: each one is received here, clock merge included.
        for src, tag, _, clock in pending:
            self._received(src, tag, clock, t0)
        return [(payload, Status(src, tag)) for src, tag, payload, _ in pending]

    def recv_poll(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = 0.05,
    ) -> tuple[Any, Status] | None:
        """Like recv but returns None on timeout instead of raising: the
        one place this rank takes a message off its own mailbox."""
        t0 = _pc()
        world = self._world
        got = world.mailboxes[self.rank].get(source, tag, timeout, world.aborted)
        if got is None:
            return None
        obj, status, clock = got
        self._received(status.source, status.tag, clock, t0)
        return obj, status
