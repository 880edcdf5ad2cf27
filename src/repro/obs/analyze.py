"""Causal dataflow analysis of a traced run.

Reconstructs the run DAG from the provenance events the runtime emits
when tracing is on (``prov/write``, ``prov/copy``, ``prov/task``,
``prov/grant``, ``rule/create``, ``rule/release``, plus the executed-unit
spans), then answers the questions a Chrome timeline cannot.  A trace
whose rings dropped events supports none of these answers for the whole
run: the analysis still runs over the surviving window, but ``render()``
opens with the truncation banner and ``repro analyze`` exits non-zero.

* **critical path** — the causal chain of units that determined the
  makespan, with a per-hop breakdown of where the time between one
  unit finishing and the next finishing went: waiting for input data
  (``data_wait``), engine dispatch latency (``dispatch``), sitting in a
  server work queue (``queue``), grant-to-start communication
  (``comm``), and the unit's own execution (``compute``).  Hops tile
  the analysis window exactly, so their durations sum to the measured
  makespan by construction.
* **utilization / imbalance** — per-rank busy time, average and peak
  concurrency, and worker load imbalance.
* **what-if bound** — the serial compute along the critical path is a
  floor no worker count can beat.
* **retry lineage** — units that re-ran a leased task (stable ``uid``
  across requeues) are chained attempt-to-attempt.

The join between server-side grants and client-side execution spans
needs no extra wire traffic: each client has one outstanding lease,
whose grant emits one ``prov/grant`` per task and whose tasks it runs
in order, so the k-th ``prov/grant`` aimed at a client rank
(time-ordered across servers) pairs with the k-th executed unit span on
that rank.  Failed and abandoned attempts emit spans too, keeping the
zip aligned.  This module
is the only place a trace is joined: the latency distributions a frozen
trace carries (:meth:`Analysis.histograms`) and the per-worker busy
time of ``Profile`` read :meth:`Analysis.join` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import Trace, TraceEvent, truncation_banner

#: hop segment names, in causal order
SEGMENTS = ("data_wait", "dispatch", "queue", "comm", "compute")

#: (category, name) -> unit kind for executed-unit spans
_UNIT_SPANS = {
    ("engine", "program"): "program",
    ("engine", "ctask"): "ctask",
    ("task", "task"): "task",
    ("rule", "fire"): "rule",
}


def summarize(samples: list[float]) -> dict:
    """``count``, ``total``, ``min``, ``max``, ``mean`` and the exact
    nearest-rank ``p50`` / ``p95`` / ``p99`` of a non-empty sample."""
    ordered = sorted(samples)
    n, total = len(ordered), sum(samples)
    out = {"count": n, "total": total, "min": ordered[0], "max": ordered[-1]}
    out["mean"] = total / n
    for p in (50, 95, 99):
        out["p%d" % p] = ordered[-(-p * n // 100) - 1]  # the ceil(p% n)-th
    return out


@dataclass
class Unit:
    """One executed unit of work (program / ctask / task / rule fire)."""

    id: str  # "P0" | "C0.3" | "T5.2" | "R0.7"
    kind: str
    rank: int
    start: float
    end: float
    ok: bool = True
    uid: int | None = None  # granted units: stable task identity
    attempts: int = 0  # grant's attempt counter (>0: a retry)
    rule: str | None = None  # spawning rule node ("R0.7") or unit id
    t_grant: float | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class RuleNode:
    """A registered dataflow rule (may or may not have executed)."""

    id: str  # "R<rank>.<ruleid>"
    rank: int
    type: str
    name: str
    inputs: list[int] = field(default_factory=list)
    by: str | None = None  # unit that registered the rule
    t_create: float = 0.0
    t_release: float | None = None  # WORK/CONTROL: handed to ADLB


@dataclass
class Hop:
    """One critical-path step: the window from the predecessor unit's
    end (or the run start) to this unit's end, tiled into segments."""

    unit: str
    kind: str
    rank: int
    pred: str | None
    via_td: int | None  # input TD that carried the dependency (if any)
    total: float = 0.0
    segments: dict[str, float] = field(default_factory=dict)


@dataclass
class Analysis:
    """The reconstructed run DAG + derived measurements."""

    units: dict[str, Unit] = field(default_factory=dict)
    # A session's runs reuse unit ids; the latest run owns the name (as
    # it owns the rule ids and the writes that refer to it) and the
    # units it displaced are kept here, so the join still sees them.
    earlier: list[Unit] = field(default_factory=list)
    # accept-to-grant wait of each queued unit, at its first grant
    queue_waits: list[float] = field(default_factory=list)
    rules: dict[str, RuleNode] = field(default_factory=dict)
    writes: dict[int, list[tuple[float, str]]] = field(default_factory=dict)
    critical_path: list[Hop] = field(default_factory=list)
    makespan: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    busy_by_rank: dict[int, float] = field(default_factory=dict)
    avg_concurrency: float = 0.0
    peak_concurrency: int = 0
    imbalance: float = 0.0  # max worker busy / mean worker busy
    stalls: dict[str, float] = field(default_factory=dict)
    serial_compute: float = 0.0  # what-if floor
    retries: list[list[str]] = field(default_factory=list)  # uid chains
    repl_max_lag: int = 0
    incomplete: bool = False  # backward walk hit a missing join
    dropped: int = 0  # events the trace lost to ring wrap
    ring_counts: dict[int, tuple[int, int]] = field(default_factory=dict)

    # ------------------------------------------------------------ building

    @classmethod
    def from_trace(cls, trace: Trace) -> "Analysis":
        a = cls.join(trace)
        if a.units:
            a._timelines()
            a._walk()
        return a

    @classmethod
    def join(cls, trace: Trace) -> "Analysis":
        """Only the join: executed units with their grants attached,
        task acceptance by uid, the queue waits — no critical path."""
        a = cls(dropped=trace.dropped, ring_counts=trace.ring_counts())
        a._collect(trace)
        a._link()
        return a

    def executed(self) -> list[Unit]:
        """Every executed unit, a session's earlier runs' included."""
        return self.earlier + list(self.units.values())

    def histograms(self) -> dict[str, dict]:
        """The run's latency distributions (seconds, :func:`summarize`
        form; an empty one is left out): each leaf task's span
        (``task.latency_s``), each queued unit's accept-to-grant wait
        (``adlb.queue_wait_s``) and each leaf task's grant-to-start
        delay (``adlb.dispatch_s``, a hop's ``comm`` segment)."""
        tasks = [u for u in self.executed() if u.kind == "task"]
        samples = {
            "task.latency_s": [u.dur for u in tasks],
            "adlb.queue_wait_s": self.queue_waits,
            "adlb.dispatch_s": [
                u.start - u.t_grant
                for u in tasks
                if u.t_grant is not None and u.start >= u.t_grant
            ],
        }
        return {name: summarize(s) for name, s in samples.items() if s}

    def _collect(self, trace: Trace) -> None:
        """First pass: units, rules, writes, grants, task provenance."""
        self._grants: dict[int, list[TraceEvent]] = {}
        # uid -> the prov/task payload; "t" (accepted at) until its first grant
        self._tasks: dict[int, dict] = {}
        copies: list[tuple[float, int, int]] = []  # (t, dst, src) of each server copy
        for e in trace.events:
            kind = _UNIT_SPANS.get((e.category, e.name))
            if kind is not None and e.dur > 0.0:
                p = e.payload or {}
                if kind == "rule":
                    uid = "R%d.%d" % (e.rank, p.get("id", -1))
                else:
                    uid = p.get("unit") or "%s?%d.%d" % (
                        kind[0].upper(),
                        e.rank,
                        len(self.units),
                    )
                if uid in self.units:
                    self.earlier.append(self.units[uid])
                self.units[uid] = Unit(
                    id=uid,
                    kind=kind,
                    rank=e.rank,
                    start=e.t,
                    end=e.end,
                    # a unit span carrying an error is a failed attempt
                    ok=p.get("ok", not p.get("error")),
                    rule=uid if kind == "rule" else None,
                )
                continue
            if e.category == "rule" and e.name == "create":
                p = e.payload or {}
                rid = "R%d.%d" % (e.rank, p.get("id", -1))
                self.rules[rid] = RuleNode(
                    id=rid,
                    rank=e.rank,
                    type=p.get("type", "LOCAL"),
                    name=p.get("name", ""),
                    inputs=list(p.get("inputs", ())),
                    by=p.get("by"),
                    t_create=e.t,
                )
            elif e.category == "rule" and e.name == "release":
                p = e.payload or {}
                rid = "R%d.%d" % (e.rank, p.get("id", -1))
                if rid in self.rules:
                    self.rules[rid].t_release = e.t
            elif e.category == "prov" and e.name == "write":
                p = e.payload or {}
                if "td" in p:
                    self.writes.setdefault(p["td"], []).append(
                        (e.t, p.get("unit"))
                    )
            elif e.category == "prov" and e.name == "copy":
                copies.append((e.t, e.payload["td"], e.payload["src"]))
            elif e.category == "prov" and e.name == "task":
                p = e.payload or {}
                if "uid" in p:
                    self._tasks[p["uid"]] = {"by": p.get("by"), "t": e.t}
            elif e.category == "prov" and e.name == "grant":
                p = e.payload or {}
                info = self._tasks.get(p.get("uid"))
                if info is not None and "t" in info:
                    self.queue_waits.append(e.t - info.pop("t"))
                if "client" in p:
                    self._grants.setdefault(p["client"], []).append(e)
            elif e.category == "repl" and e.name == "flush":
                lag = (e.payload or {}).get("lag", 0)
                self.repl_max_lag = max(self.repl_max_lag, lag)
        # A server copy writes dst for src's writer (in time order: a copy of a copy).
        for t, dst, src in sorted(copies):
            if src in self.writes:
                writer = max(self.writes[src], key=lambda w: w[0])[1]
                self.writes.setdefault(dst, []).append((t, writer))

    def _link(self) -> None:
        """Zip grants to executed units; attach uid/rule/attempts."""
        granted: dict[int, list[Unit]] = {}
        for u in self.executed():
            if u.kind in ("ctask", "task"):
                granted.setdefault(u.rank, []).append(u)
        for rank, units in granted.items():
            units.sort(key=lambda u: u.start)
            grants = sorted(self._grants.get(rank, ()), key=lambda e: e.t)
            for unit, grant in zip(units, grants):
                p = grant.payload or {}
                unit.uid = p.get("uid")
                unit.attempts = p.get("attempts", 0)
                unit.t_grant = grant.t
                info = self._tasks.get(unit.uid)
                if info is not None:
                    unit.rule = info.get("by")
        # Retry chains: attempts of the same uid, in execution order.
        by_uid: dict[int, list[Unit]] = {}
        for u in self.units.values():
            if u.uid is not None and u.uid >= 0:
                by_uid.setdefault(u.uid, []).append(u)
        for uid, units in sorted(by_uid.items()):
            if len(units) > 1:
                units.sort(key=lambda u: u.start)
                self.retries.append([u.id for u in units])

    def _timelines(self) -> None:
        """Utilization, concurrency, and imbalance from unit spans."""
        t0 = min(u.start for u in self.units.values())
        t1 = max(u.end for u in self.units.values())
        self.window = (t0, t1)
        self.makespan = t1 - t0
        for u in self.units.values():
            self.busy_by_rank[u.rank] = (
                self.busy_by_rank.get(u.rank, 0.0) + u.dur
            )
        total_busy = sum(self.busy_by_rank.values())
        if self.makespan > 0:
            self.avg_concurrency = total_busy / self.makespan
        marks = sorted(
            [(u.start, 1) for u in self.units.values()]
            + [(u.end, -1) for u in self.units.values()]
        )
        depth = 0
        for _, d in marks:
            depth += d
            self.peak_concurrency = max(self.peak_concurrency, depth)
        worker_busy = [
            busy
            for rank, busy in self.busy_by_rank.items()
            if any(
                u.rank == rank and u.kind == "task" for u in self.units.values()
            )
        ]
        if worker_busy and sum(worker_busy) > 0:
            mean = sum(worker_busy) / len(worker_busy)
            self.imbalance = max(worker_busy) / mean if mean else 0.0

    # -------------------------------------------------------- critical path

    def _pred(self, unit: Unit) -> tuple[Unit | None, int | None, float | None]:
        """Predecessor of ``unit``: the candidate whose enabling event
        (input-TD write, rule registration, or prior attempt) happened
        last.  Note a writer can *outlive* the reader — a task's store
        enables dependents mid-span — so candidates are ranked by the
        enable time, not by when the candidate unit finished.
        Returns (pred, via_td, t_ready)."""
        if unit.attempts > 0 and unit.uid is not None:
            # A retried attempt chains to the previous attempt of the
            # same uid, not to the data that enabled the original.
            prior = [
                u
                for u in self.units.values()
                if u.uid == unit.uid and u.start < unit.start
            ]
            if prior:
                prev = max(prior, key=lambda u: u.start)
                return prev, None, prev.end
        src = unit.rule
        # (enable time, candidate unit, via td)
        candidates: list[tuple[float, Unit, int | None]] = []
        t_ready = None
        rule = self.rules.get(src) if src is not None else None
        if rule is not None:
            t_ready = rule.t_create
            if rule.by is not None and rule.by in self.units:
                candidates.append(
                    (rule.t_create, self.units[rule.by], None)
                )
            for td in rule.inputs:
                writes = self.writes.get(td)
                if not writes:
                    continue
                t_w, writer = max(writes, key=lambda w: w[0])
                t_ready = max(t_ready, t_w)
                if writer is not None and writer in self.units:
                    candidates.append((t_w, self.units[writer], td))
        elif src is not None and src in self.units:
            # Spawned directly from a unit (turbine::spawn) — no rule.
            spawner = self.units[src]
            candidates.append((spawner.end, spawner, None))
            t_ready = spawner.end
        if not candidates:
            return None, None, t_ready
        _, pred, via = max(candidates, key=lambda c: c[0])
        return pred, via, t_ready

    def _hop(
        self, unit: Unit, pred: Unit | None, via: int | None, floor: float
    ) -> Hop:
        """Tile [floor, unit.end] into causal segments (monotonically
        clipped boundaries, so segments are >= 0 and sum to total)."""
        rule = self.rules.get(unit.rule) if unit.rule else None
        t_ready = None
        if rule is not None:
            t_ready = rule.t_create
            for td in rule.inputs:
                writes = self.writes.get(td)
                if writes:
                    t_ready = max(t_ready, max(w[0] for w in writes))
        t_release = rule.t_release if rule is not None else None
        if unit.t_grant is None and t_release is None:
            # Inline unit (LOCAL fire / program): ready-to-start delay
            # is engine dispatch, not queueing or communication.
            t_release = unit.start
        bounds = []
        lo = min(floor, unit.end)
        for v in (t_ready, t_release, unit.t_grant, unit.start):
            v = lo if v is None else min(max(v, lo), unit.end)
            bounds.append(v)
            lo = v
        edges = [min(floor, unit.end)] + bounds + [unit.end]
        segments = {
            name: edges[i + 1] - edges[i] for i, name in enumerate(SEGMENTS)
        }
        return Hop(
            unit=unit.id,
            kind=unit.kind,
            rank=unit.rank,
            pred=pred.id if pred is not None else None,
            via_td=via,
            total=unit.end - edges[0],
            segments=segments,
        )

    def _walk(self) -> None:
        """Backward walk from the last-finishing unit; hops tile the
        window so totals sum to the makespan."""
        terminal = max(self.units.values(), key=lambda u: u.end)
        chain: list[tuple[Unit, Unit | None, int | None]] = []
        cur = terminal
        seen = {cur.id}
        while True:
            pred, via, _ = self._pred(cur)
            if pred is not None and (
                pred.id in seen or pred.start >= cur.end
            ):
                # Cycle guard / causality violation from an imperfect
                # join: stop the walk rather than produce nonsense.
                # (pred.end > cur.start is fine — a writer unit can
                # keep running after its store enabled the reader.)
                pred = None
            chain.append((cur, pred, via))
            if pred is None:
                break
            seen.add(pred.id)
            cur = pred
        chain.reverse()
        first = chain[0][0]
        self.incomplete = first.start - self.window[0] > 1e-9 and (
            first.kind != "program"
        )
        # The floor only moves forward: overlapping units (a writer
        # outliving its reader) yield a zero-length hop window instead
        # of double-counting, keeping sum(hop totals) == makespan.
        floor = self.window[0]
        for unit, pred, via in chain:
            hop = self._hop(unit, pred, via, floor)
            self.critical_path.append(hop)
            floor = max(floor, unit.end)
        for hop in self.critical_path:
            for name, dur in hop.segments.items():
                self.stalls[name] = self.stalls.get(name, 0.0) + dur
        self.serial_compute = self.stalls.get("compute", 0.0)

    # ------------------------------------------------------------ rendering

    def render(self) -> str:
        banner = truncation_banner(self.dropped, self.ring_counts)
        lines = [banner] if banner else []
        if not self.units:
            lines.append(
                "analyze: no provenance events in trace (run with "
                "trace=True on a runtime new enough to emit prov events)"
            )
            return "\n".join(lines)
        kinds: dict[str, int] = {}
        for u in self.units.values():
            kinds[u.kind] = kinds.get(u.kind, 0) + 1
        lines.append(
            "analyze: makespan %.4fs, %d units (%s), %d ranks busy"
            % (
                self.makespan,
                len(self.units),
                ", ".join(
                    "%d %s" % (n, k) for k, n in sorted(kinds.items())
                ),
                len(self.busy_by_rank),
            )
        )
        path_total = sum(h.total for h in self.critical_path)
        pct = 100.0 * path_total / self.makespan if self.makespan else 0.0
        lines.append(
            "critical path: %d hops, %.4fs (%.1f%% of makespan%s)"
            % (
                len(self.critical_path),
                path_total,
                pct,
                "; walk incomplete" if self.incomplete else "",
            )
        )
        lines.append(
            "  %-10s %-7s %4s %9s %9s %9s %9s %9s %9s  %s"
            % (
                "unit",
                "kind",
                "rank",
                "total",
                "compute",
                "data_wait",
                "dispatch",
                "queue",
                "comm",
                "from",
            )
        )
        for h in self.critical_path:
            via = ""
            if h.pred:
                via = h.pred + (
                    " (td %d)" % h.via_td if h.via_td is not None else ""
                )
            lines.append(
                "  %-10s %-7s %4d %8.4fs %8.4fs %8.4fs %8.4fs %8.4fs %8.4fs  %s"
                % (
                    h.unit,
                    h.kind,
                    h.rank,
                    h.total,
                    h.segments["compute"],
                    h.segments["data_wait"],
                    h.segments["dispatch"],
                    h.segments["queue"],
                    h.segments["comm"],
                    via,
                )
            )
        if path_total > 0:
            attribution = ", ".join(
                "%s %.1f%%" % (name, 100.0 * self.stalls.get(name, 0.0) / path_total)
                for name in SEGMENTS
                if self.stalls.get(name, 0.0) > 1e-9
            )
            lines.append("stall attribution (critical path): %s" % attribution)
        lines.append(
            "concurrency: %.2f avg, %d peak; worker imbalance %.2fx"
            % (self.avg_concurrency, self.peak_concurrency, self.imbalance)
        )
        lines.append("per-rank busy time:")
        for rank in sorted(self.busy_by_rank):
            busy = self.busy_by_rank[rank]
            util = busy / self.makespan if self.makespan else 0.0
            bar = "#" * int(round(40 * min(util, 1.0)))
            lines.append(
                "  rank %-3d %8.4fs %6.1f%% |%-40s|"
                % (rank, busy, 100 * util, bar)
            )
        lines.append(
            "what-if: serial compute along the critical path is %.4fs — "
            "no worker count can finish faster than that "
            "(current makespan is %.2fx the floor)"
            % (
                self.serial_compute,
                self.makespan / self.serial_compute
                if self.serial_compute
                else 0.0,
            )
        )
        if self.retries:
            lines.append("retries:")
            for chain in self.retries:
                lines.append(
                    "  %s (%d attempts)" % (" -> ".join(chain), len(chain))
                )
        if self.repl_max_lag:
            lines.append(
                "replication: peak op-log lag %d entries" % self.repl_max_lag
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    # -------------------------------------------------------------- export

    def to_json(self) -> dict:
        return {
            "makespan": self.makespan,
            "units": {
                u.id: {
                    "kind": u.kind,
                    "rank": u.rank,
                    "start": u.start - self.window[0],
                    "dur": u.dur,
                    "ok": u.ok,
                    "uid": u.uid,
                    "attempts": u.attempts,
                    "rule": u.rule,
                }
                for u in self.units.values()
            },
            "critical_path": [
                {
                    "unit": h.unit,
                    "kind": h.kind,
                    "rank": h.rank,
                    "pred": h.pred,
                    "via_td": h.via_td,
                    "total": h.total,
                    "segments": dict(h.segments),
                }
                for h in self.critical_path
            ],
            "stalls": dict(self.stalls),
            "serial_compute": self.serial_compute,
            "avg_concurrency": self.avg_concurrency,
            "peak_concurrency": self.peak_concurrency,
            "imbalance": self.imbalance,
            "busy_by_rank": dict(self.busy_by_rank),
            "retries": list(self.retries),
            "repl_max_lag": self.repl_max_lag,
            "incomplete": self.incomplete,
            "dropped": self.dropped,
        }

    def to_dot(self) -> str:
        """DOT digraph of the unit-level DAG; critical path in red."""
        crit = {h.unit for h in self.critical_path}
        crit_edges = {
            (h.pred, h.unit) for h in self.critical_path if h.pred
        }
        lines = [
            "digraph run {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        for u in sorted(self.units.values(), key=lambda u: u.start):
            attrs = 'label="%s\\n%s r%d %.4fs"' % (
                u.id,
                u.kind,
                u.rank,
                u.dur,
            )
            if u.id in crit:
                attrs += ", color=red, penwidth=2"
            if not u.ok:
                attrs += ", style=dashed"
            lines.append("  %s [%s];" % (_dot_id(u.id), attrs))
        emitted = set()
        for u in self.units.values():
            pred, via, _ = self._pred(u)
            if pred is None:
                continue
            edge = (pred.id, u.id)
            if edge in emitted:
                continue
            emitted.add(edge)
            attrs = []
            if via is not None:
                attrs.append('label="td %d"' % via)
            if edge in crit_edges:
                attrs.append("color=red")
                attrs.append("penwidth=2")
            lines.append(
                "  %s -> %s%s;"
                % (
                    _dot_id(pred.id),
                    _dot_id(u.id),
                    " [%s]" % ", ".join(attrs) if attrs else "",
                )
            )
        lines.append("}")
        return "\n".join(lines)


def _dot_id(unit_id: str) -> str:
    return '"%s"' % unit_id.replace('"', "")


__all__ = ["Analysis", "Hop", "Unit", "RuleNode", "SEGMENTS"]
