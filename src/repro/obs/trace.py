"""The trace readers: what a frozen event spine looks like from outside.

A :class:`Trace` is the immutable view of a traced run: every slot of
every rank's ring (see :mod:`repro.obs.spine`) decoded into a
:class:`TraceEvent` ``(t, dur, rank, category, name, payload, lam)``,
plus the metrics snapshot and run-level ``meta``.  Spans are
events with ``dur > 0``, instants have ``dur == 0``; ``lam`` is the
rank's Lamport clock at the event, so sorting by ``(lam, t, rank)``
never places a receive before its send.

A ring that wrapped lost its oldest events.  ``Trace.dropped`` counts
them, ``Trace.emitted`` says how many each rank produced, and every
report built from a truncated trace opens with
:func:`truncation_banner` — a critical path over the surviving window
is not the run's critical path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

#: rank id used for events that happen outside the rank world
#: (e.g. compile phases run on the launching thread).
RANK_DRIVER = -1


class TraceEvent(NamedTuple):
    """One trace record.  ``t`` is seconds since the recorder's epoch."""

    t: float
    dur: float
    rank: int
    category: str
    name: str
    payload: dict | None = None
    lam: int = 0

    @property
    def end(self) -> float:
        return self.t + self.dur


def truncation_banner(
    dropped: int, ring_counts: dict[int, tuple[int, int]]
) -> str | None:
    """The first line of any report over a trace that lost events.

    ``ring_counts`` maps rank -> (emitted, kept); it is empty for
    traces saved before per-rank counts were exported, in which case
    only the total is known.
    """
    if not dropped:
        return None
    lost = [
        (rank, emitted - kept, emitted)
        for rank, (emitted, kept) in sorted(ring_counts.items())
        if emitted > kept
    ]
    if lost:
        who = ", ".join("rank %d dropped %d of %d events" % row for row in lost)
        need = "trace_capacity >= %d" % max(emitted for _, _, emitted in lost)
    else:
        who = "%d events dropped" % dropped
        need = "a larger trace_capacity"
    return (
        "WARNING: trace truncated — %s; counts, makespan and critical "
        "path cover only the surviving window; re-run with %s" % (who, need)
    )


@dataclass
class CategoryTotal:
    """Aggregate of one event category (see :meth:`Trace.by_category`)."""

    count: int = 0
    spans: int = 0
    total_dur: float = 0.0


@dataclass
class Trace:
    """An immutable snapshot of a recorder: the public trace object.

    ``meta`` carries run-level context (role layout, elapsed wall time);
    ``metrics`` is the merged counter/gauge/histogram snapshot;
    ``dropped`` counts events lost to ring wrap and ``emitted`` maps
    each rank to the number of events it produced.
    """

    events: list[TraceEvent] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    dropped: int = 0
    emitted: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def ring_counts(self) -> dict[int, tuple[int, int]]:
        """rank -> (events emitted, events kept)."""
        kept = Counter(e.rank for e in self.events)
        return {r: (n, kept.get(r, 0)) for r, n in self.emitted.items()}

    def spans(
        self, category: str | None = None, name: str | None = None
    ) -> list[TraceEvent]:
        """All span events (dur > 0), optionally filtered."""
        return [
            e
            for e in self.events
            if e.dur > 0.0
            and (category is None or e.category == category)
            and (name is None or e.name == name)
        ]

    def instants(self, category: str | None = None) -> list[TraceEvent]:
        return [
            e
            for e in self.events
            if e.dur == 0.0 and (category is None or e.category == category)
        ]

    def by_category(self) -> dict[str, CategoryTotal]:
        out: dict[str, CategoryTotal] = {}
        for e in self.events:
            tot = out.setdefault(e.category, CategoryTotal())
            tot.count += 1
            if e.dur > 0.0:
                tot.spans += 1
                tot.total_dur += e.dur
        return out

    # ------------------------------------------------------------- export

    def _message_flows(self) -> tuple[dict[int, int], dict[int, int]]:
        """Pair each mpi ``send`` with its matching ``recv``.

        Returns ``(send_flows, recv_flows)`` mapping ``id(event)`` to a
        shared flow id.  A recv records the sender's piggybacked
        Lamport clock (``seen``), and send clocks are unique per rank,
        so ``(src, dest, tag, clock)`` pairs them exactly.  Unmatched
        events (dropped by the ring, or still in flight) get no flow.
        """
        recvs: dict[tuple, TraceEvent] = {}
        for e in self.events:
            if e.category == "mpi" and e.name == "recv" and e.payload:
                p = e.payload
                recvs[(p.get("source"), e.rank, p.get("tag"), p.get("seen"))] = e
        send_flows: dict[int, int] = {}
        recv_flows: dict[int, int] = {}
        for e in self.events:
            if e.category != "mpi" or e.name != "send" or not e.payload:
                continue
            match = recvs.get(
                (e.rank, e.payload.get("dest"), e.payload.get("tag"), e.lam)
            )
            if match is not None:
                send_flows[id(e)] = recv_flows[id(match)] = len(send_flows) + 1
        return send_flows, recv_flows

    def _chrome_records(self):
        """Yield Chrome ``trace_event`` records one at a time."""
        roles: dict = self.meta.get("roles", {})
        for rank in sorted({e.rank for e in self.events}):
            role = roles.get(rank, "driver" if rank == RANK_DRIVER else "rank")
            yield {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": rank,
                "args": {"name": "rank %d (%s)" % (rank, role)},
            }
        send_flows, recv_flows = self._message_flows()
        for e in self.events:
            rec: dict = {
                "name": e.name,
                "cat": e.category,
                "pid": 0,
                "tid": e.rank,
                "ts": e.t * 1e6,  # trace_event timestamps are microseconds
            }
            if e.dur > 0.0:
                rec["ph"] = "X"
                rec["dur"] = e.dur * 1e6
            else:
                rec["ph"] = "i"
                rec["s"] = "t"
            if e.payload:
                rec["args"] = dict(e.payload)
            if e.lam:
                rec["lam"] = e.lam
            yield rec
            if e.category != "mpi":
                continue
            # Flow events ("s" start at the send, "f" finish bound to
            # the end of the recv span) let Perfetto draw cross-rank
            # message arrows.  from_chrome skips non-X/i phases, so the
            # round-trip stays lossless for the event list itself.
            fid = send_flows.get(id(e))
            if fid is not None:
                yield {
                    "ph": "s",
                    "id": fid,
                    "name": "msg",
                    "cat": "mpi.flow",
                    "pid": 0,
                    "tid": e.rank,
                    "ts": e.t * 1e6,
                }
                continue
            fid = recv_flows.get(id(e))
            if fid is not None:
                yield {
                    "ph": "f",
                    "bp": "e",
                    "id": fid,
                    "name": "msg",
                    "cat": "mpi.flow",
                    "pid": 0,
                    "tid": e.rank,
                    "ts": e.end * 1e6,
                }

    def _chrome_other_data(self) -> dict:
        return {
            "dropped_events": self.dropped,
            "emitted_by_rank": {str(k): v for k, v in self.emitted.items()},
            "metrics": self.metrics,
            "roles": {str(k): v for k, v in self.meta.get("roles", {}).items()},
            **{k: v for k, v in self.meta.items() if k != "roles"},
        }

    def to_chrome(self) -> dict:
        """Render as a Chrome ``trace_event`` JSON object.

        Load the saved file in ``chrome://tracing`` or https://ui.perfetto.dev.
        Spans become complete ("X") events, instants become instant
        ("i") events; rank threads are named from ``meta['roles']``.
        Prefer :meth:`write_chrome` for saving: it streams records
        instead of materializing the whole document.
        """
        return {
            "traceEvents": list(self._chrome_records()),
            "displayTimeUnit": "ms",
            "otherData": self._chrome_other_data(),
        }

    def write_chrome(self, f) -> None:
        """Stream the Chrome ``trace_event`` JSON to a file object.

        Writes one record at a time, so peak memory is one event
        instead of the whole serialized document (traces routinely hold
        hundreds of thousands of events).
        """
        import json

        f.write('{"traceEvents": [\n')
        first = True
        for rec in self._chrome_records():
            if not first:
                f.write(",\n")
            first = False
            f.write(json.dumps(rec))
        f.write('\n],\n"displayTimeUnit": "ms",\n"otherData": ')
        json.dump(self._chrome_other_data(), f)
        f.write("}\n")

    def save_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            self.write_chrome(f)

    @classmethod
    def from_chrome(cls, path_or_dict) -> "Trace":
        """Rebuild a Trace from a saved Chrome ``trace_event`` JSON.

        Inverse of :meth:`write_chrome` (modulo event order); lets
        ``repro analyze`` work on a saved ``.trace.json`` without
        re-running the program.
        """
        import json

        if isinstance(path_or_dict, dict):
            doc = path_or_dict
        else:
            with open(path_or_dict, "r", encoding="utf-8") as f:
                doc = json.load(f)
        events: list[TraceEvent] = []
        for rec in doc.get("traceEvents", ()):
            ph = rec.get("ph")
            if ph not in ("X", "i"):
                continue
            events.append(
                TraceEvent(
                    t=rec.get("ts", 0.0) / 1e6,
                    dur=rec.get("dur", 0.0) / 1e6 if ph == "X" else 0.0,
                    rank=rec.get("tid", 0),
                    category=rec.get("cat", ""),
                    name=rec.get("name", ""),
                    payload=rec.get("args"),
                    lam=rec.get("lam", 0),
                )
            )
        events.sort(key=lambda e: e.t)
        other = doc.get("otherData", {})
        meta = {
            k: v
            for k, v in other.items()
            if k not in ("dropped_events", "emitted_by_rank", "metrics", "roles")
        }
        if "roles" in other:
            meta["roles"] = {int(k): v for k, v in other["roles"].items()}
        return cls(
            events=events,
            metrics=other.get("metrics", {}),
            meta=meta,
            dropped=other.get("dropped_events", 0),
            emitted={
                int(k): v for k, v in other.get("emitted_by_rank", {}).items()
            },
        )
