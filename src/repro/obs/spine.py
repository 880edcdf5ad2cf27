"""The event spine: one levelled, Lamport-clocked ring per rank.

Everything the runtime records about a run goes through one class.
A :class:`Recorder` owns one single-writer :class:`Ring` per rank
(plus one for the driver pseudo-rank) and the run's :class:`Metrics`
counter table; every instrumented site makes one ``ring.emit(kind, a, b,
c, ...)`` call, and every view — :class:`Trace`, ``Profile``,
``Analysis``, the ``repro-blackbox-v1`` artifact read by ``repro
postmortem`` — is decoded from the rings afterwards.

Two levels share the ring:

* **Level 0** — lifecycle events and message *headers* (never
  payloads).  On whenever a recorder exists (``flightrec=True``, the
  default) in a ring of :data:`LEVEL0_CAPACITY` slots per rank, so an
  untraced run that dies still leaves a black box.
* **Level 1** — spans, provenance and data-op instants.  Emitted only
  when ``trace=True``, into the same ring, whose capacity is then
  ``trace_capacity`` per rank.

Sites hold their rank's ring (``None`` when the run has no recorder)
and, for level-1-only events, the same ring again as ``tracer``
(``None`` unless the run is traced): one pointer test per site.

A ring holds immutable slot tuples ``(lam, t, dur, kind, a, b, c,
payload)`` and grows lazily to its capacity, after which the oldest
slot is overwritten; ``emitted`` keeps counting, so what was dropped
is always known.  Only the owning rank's thread writes a ring (the
worker watchdog's failure oneway is the lone, benign exception), so
there are no locks.

Causal order comes from Lamport clocks: every event advances the
rank's clock, every ``mpi.comm`` send piggybacks the sender's clock
on the message envelope, and every recv merges it (``max(local, seen)
+ 1``).  Sorting merged rings by ``(lam, t, rank)`` therefore never
places a receive before its send.

:data:`KINDS` is the single source of the event vocabulary.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Any

from .metrics import Metrics
from .trace import Trace, TraceEvent

_clock = time.perf_counter

#: Slots per rank when only level 0 is recorded.
LEVEL0_CAPACITY = 512

#: Artifact schema tag; bump when the envelope layout changes.
BLACKBOX_FORMAT = "repro-blackbox-v1"

_DUMP_SEQ = itertools.count(1)

#: kind -> (level, trace category, trace name, names of a / b / c).
#: Events passing ``t0`` are spans.  Unit spans (``task_*``, ``program``,
#: ``ctask_done``) count as failed attempts when they carry ``error``
#: (the exception class name).  Level-0 kinds may carry extra level-1
#: detail in ``payload`` on traced runs (noted per kind).
KINDS: dict[str, tuple[int, str, str, tuple[str, ...]]] = {
    # -- mpi.comm: message headers; ``seen`` is the sender's piggybacked clock
    "send": (0, "mpi", "send", ("dest", "tag", "bytes")),
    "recv": (0, "mpi", "recv", ("source", "tag", "seen")),  # span: the wait
    # -- adlb.server: matching, leases, recovery
    "grant": (0, "prov", "grant", ("client", "type", "attempts")),  # + uid
    "requeue": (0, "adlb", "lease_requeue", ("type", "attempts", "uid")),
    "lease_expired": (0, "adlb", "lease_expired", ("client", "type")),
    "rank_dead": (0, "adlb", "rank_dead", ("rank",)),
    "server_dead": (0, "adlb", "server_dead", ("rank",)),
    "promote": (0, "adlb", "promote", ("from", "tds", "tasks")),
    "engine_adopt": (0, "adlb", "engine_adopt", ("dead", "adopter", "rules")),  # + repair
    "quarantine": (0, "adlb", "quarantine", ("type", "attempts", "uid")),  # + ranks
    "journal": (0, "adlb", "journal", ("entries", "engine")),
    "repl_flush": (0, "repl", "flush", ("entries", "lag", "seq")),
    "shutdown": (0, "adlb", "shutdown", ()),
    "data": (1, "adlb", "data", ("op", "client")),
    "put": (1, "adlb", "put", ("type", "targeted")),
    "get_park": (1, "adlb", "get_park", ("client",)),
    "match": (1, "adlb", "match", ("type", "targeted")),
    "task": (1, "prov", "task", ("uid", "by", "type")),
    "steal_req": (1, "adlb", "steal_req", ("victim",)),
    "steal_out": (1, "adlb", "steal_out", ("to", "n")),
    "steal_in": (1, "adlb", "steal_in", ("from", "n")),
    "drain_shutdown": (1, "adlb", "drain_shutdown", ("abandoned_units",)),
    "checkpoint": (1, "adlb", "checkpoint", ("gen", "units")),
    # -- adlb.client (``refcount_flush``: turbine.unit, at a unit's commit)
    "refcount_flush": (0, "prov", "refcount_flush", ("ops", "unit")),  # + tds
    "write": (1, "prov", "write", ("td", "unit", "sub")),
    # -- turbine.engine
    "rule_create": (0, "rule", "create", ("id", "n_inputs")),  # + type, name, inputs, by
    "rule_fire": (0, "rule", "fire_start", ("id",)),
    "rule_release": (0, "rule", "release", ("id", "type", "name")),
    "journal_flush": (0, "engine", "journal_flush", ("entries",)),
    "adopt": (0, "engine", "adopt", ("dead", "rules", "repair")),
    "ctask": (0, "engine", "ctask_start", ("bytes",)),
    "rule_fired": (1, "rule", "fire", ("id", "name")),  # span
    "notify": (1, "rule", "notify", ("td",)),
    "stall": (1, "engine", "stall", ("kind",)),  # span: blocked in recv_async
    "program": (1, "engine", "program", ("unit", "error")),  # span
    "ctask_done": (1, "engine", "ctask", ("unit", "error")),  # span
    # -- turbine.worker: the three endings of a task are one span each
    "task_start": (0, "task", "start", ("bytes",)),
    "task_done": (0, "task", "task", ("bytes", "unit")),
    "task_fail": (0, "task", "task", ("bytes", "unit", "error")),
    "task_abandon": (0, "task", "task", ("bytes", "unit", "error")),
    # -- driver pseudo-rank
    "run": (1, "run", "run", ("size", "entry")),  # span
    "compile_parse": (1, "compile", "parse", ()),  # span
    "compile_check": (1, "compile", "check", ()),  # span
    "compile_codegen": (1, "compile", "codegen", ("opt", "procs", "lines")),  # span
}

#: Field names of a kind the table does not know.
ABC = ("a", "b", "c")


class Ring:
    """One rank's event ring.  Single-writer, lock-free."""

    __slots__ = ("capacity", "epoch", "slots", "emitted", "clock")

    def __init__(self, capacity: int, epoch: float):
        self.capacity = capacity
        self.epoch = epoch
        self.slots: list[tuple] = []
        self.emitted = 0
        self.clock = 0

    def emit(
        self,
        kind: str,
        a: Any = 0,
        b: Any = 0,
        c: Any = 0,
        payload: dict | None = None,
        t0: float | None = None,
        seen: int = 0,
    ) -> int:
        """Stamp one event; returns the rank's new Lamport clock.

        ``a``/``b``/``c`` are small scalars named per kind in
        :data:`KINDS`; ``payload`` holds level-1 detail that does not
        fit them.  ``t0`` (a ``perf_counter`` reading) makes the event
        a span from ``t0`` to now.  ``seen`` is a received message's
        piggybacked clock, merged before stamping.
        """
        clock = self.clock
        if seen > clock:
            clock = seen
        self.clock = clock = clock + 1
        now = _clock()
        if t0 is None:
            slot = (clock, now - self.epoch, 0.0, kind, a, b, c, payload)
        else:
            slot = (clock, t0 - self.epoch, now - t0, kind, a, b, c, payload)
        n = self.emitted
        self.emitted = n + 1
        if n < self.capacity:
            self.slots.append(slot)
        else:
            self.slots[n % self.capacity] = slot
        return clock

    def ordered(self) -> list[tuple]:
        """The retained slots, oldest first."""
        n, slots = self.emitted, list(self.slots)
        if n <= len(slots):
            return slots
        start = n % self.capacity
        return slots[start:] + slots[:start]

    @property
    def dropped(self) -> int:
        # (clamped: the watchdog's cross-thread stamp can lose an
        # ``emitted`` increment, leaving one slot more than events)
        return max(0, self.emitted - len(self.slots))


class Recorder:
    """The per-rank rings of one run (or one session) plus its metrics.

    ``level`` 0 records lifecycle events only; ``level`` 1 adds spans
    and provenance (``trace=True``).  A session shares one recorder
    across every ``rt.run(...)`` so traces compose.
    """

    def __init__(self, level: int = 0, capacity: int = LEVEL0_CAPACITY):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.level = level
        self.capacity = capacity
        self.epoch = _clock()
        self.metrics = Metrics()
        self._rings: dict[int, Ring] = {}

    def ring(self, rank: int) -> Ring:
        """The ring of ``rank``, created on first use."""
        ring = self._rings.get(rank)
        if ring is None:
            ring = self._rings.setdefault(rank, Ring(self.capacity, self.epoch))
        return ring

    # ------------------------------------------------------------- the trace

    def freeze(self, meta: dict | None = None, since: float | None = None) -> Trace:
        """Decode every ring into an immutable, time-ordered Trace.

        With ``since`` (a recorder-relative timestamp) the latency
        histograms of the events from then on — one run of a session —
        are observed into the metrics before they are snapshotted.
        """
        events: list[TraceEvent] = []
        for rank, ring in sorted(self._rings.items()):
            for lam, t, dur, kind, a, b, c, extra in ring.ordered():
                _, category, name, fields = KINDS.get(kind) or (0, "?", kind, ABC)
                payload = dict(zip(fields, (a, b, c)))
                if extra:
                    payload.update(extra)
                events.append(
                    TraceEvent(t, dur, rank, category, name, payload or None, lam)
                )
        events.sort(key=lambda e: e.t)
        if since is not None:
            from .report import feed_latency_histograms

            feed_latency_histograms(
                self.metrics, (e for e in events if e.t >= since)
            )
        return Trace(
            events=events,
            metrics=self.metrics.snapshot(),
            meta=dict(meta or {}),
            dropped=sum(r.dropped for r in self._rings.values()),
            emitted={rank: r.emitted for rank, r in self._rings.items()},
        )

    # ---------------------------------------------------------- the black box

    def snapshot(self, size: int) -> list[dict]:
        """The level-0 view of ranks ``0..size-1``, oldest event first.

        One dict per rank: ``events`` is a list of ``[lam, t, kind, a,
        b, c]`` rows (``t`` is when the event was stamped, i.e. a
        span's end), trimmed to the last
        :data:`LEVEL0_CAPACITY`; ``dropped`` counts events lost to ring
        wrap; ``clock`` is the rank's final Lamport clock.
        """
        out = []
        for rank in range(size):
            ring = self.ring(rank)
            rows = [
                [lam, t + dur, kind, a, b, c]
                for lam, t, dur, kind, a, b, c, _ in ring.ordered()
                if KINDS.get(kind, (0,))[0] == 0
            ]
            out.append(
                {
                    "events": rows[-LEVEL0_CAPACITY:],
                    "dropped": ring.dropped,
                    "clock": ring.clock,
                }
            )
        return out

    def blackbox(
        self,
        size: int,
        reason: str,
        detail: str = "",
        roles: list[str] | None = None,
        stacks: dict[int, str] | None = None,
        diagnostics: dict[int, str] | None = None,
        failed_ranks: list[int] | None = None,
    ) -> dict:
        """Assemble the black-box artifact around a ring snapshot.

        ``size`` is the world size, ``reason`` names the failure class
        (exception type or ``"quarantine"``), ``stacks`` holds the
        Python stacks of ranks still alive at capture time, ``diagnostics``
        the ranks' state lines (``Metrics.state_lines``), ``failed_ranks``
        the ranks the launcher blamed.  The dict is JSON-serializable as-is.
        """
        return {
            "format": BLACKBOX_FORMAT,
            "reason": reason,
            "detail": detail,
            "size": size,
            "capacity": LEVEL0_CAPACITY,
            "roles": list(roles) if roles is not None else None,
            "failed_ranks": sorted(failed_ranks or []),
            "stacks": {str(r): s for r, s in (stacks or {}).items()},
            "diagnostics": {str(r): d for r, d in (diagnostics or {}).items()},
            "rings": self.snapshot(size),
        }


def write_blackbox(box: dict, out_dir: str, stem: str | None = None) -> str:
    """Write a black-box dict to ``out_dir/blackbox-<stem>-<n>.json``.

    The sequence number keeps repeated failures in one process from
    clobbering each other; the path is returned for reporting.
    """
    os.makedirs(out_dir, exist_ok=True)
    label = (stem or box.get("reason", "failure")).lower().replace(" ", "-")
    path = os.path.join(
        out_dir, "blackbox-%s-%d-%d.json" % (label, os.getpid(), next(_DUMP_SEQ))
    )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(box, f, indent=1)
        f.write("\n")
    return path
