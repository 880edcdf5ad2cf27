"""Post-run aggregation: turn a Trace into a human-readable profile.

The profile mirrors the measurements behind the paper's figures:
per-category time totals (where did the run spend its time), per-worker
utilization (the load-balance efficiency of Fig. 3), and the headline
ADLB/MPI counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analyze import Analysis
from .postmortem import TAG_NAMES
from .trace import CategoryTotal, Trace, truncation_banner


@dataclass
class WorkerUtilization:
    rank: int
    tasks: int
    busy: float
    utilization: float  # busy / wall


@dataclass
class Profile:
    """Aggregated view of one trace (``RunResult.profile``)."""

    trace: Trace
    wall: float = 0.0
    categories: dict[str, CategoryTotal] = field(default_factory=dict)
    workers: list[WorkerUtilization] = field(default_factory=list)
    efficiency: float = 0.0  # mean worker utilization (paper Fig. 3)

    @classmethod
    def from_trace(cls, trace: Trace) -> "Profile":
        wall = trace.meta.get("elapsed") or 0.0
        if not wall and trace.events:
            wall = max(e.end for e in trace.events) - min(
                e.t for e in trace.events
            )
        prof = cls(trace=trace, wall=wall, categories=trace.by_category())
        tasks = [u for u in Analysis.join(trace).executed() if u.kind == "task"]
        roles: dict = trace.meta.get("roles", {})
        ranks = {u.rank for u in tasks} | {r for r, x in roles.items() if x == "worker"}
        for rank in sorted(ranks):
            spans = [u.dur for u in tasks if u.rank == rank]
            busy = sum(spans, 0.0)
            utilization = busy / wall if wall else 0.0
            prof.workers.append(WorkerUtilization(rank, len(spans), busy, utilization))
        if prof.workers:
            prof.efficiency = sum(w.utilization for w in prof.workers) / len(
                prof.workers
            )
        return prof

    # ----------------------------------------------------------- rendering

    def render(self) -> str:
        lines: list[str] = []
        banner = truncation_banner(self.trace.dropped, self.trace.ring_counts())
        if banner:
            lines.append(banner)
        lines.append("profile: %.3fs wall, %d events" % (self.wall, len(self.trace)))
        headline = self._critical_path_headline()
        if headline:
            lines.append(headline)
        lines.append("")
        lines.append("per-category time:")
        lines.append(
            "  %-12s %8s %8s %10s %8s"
            % ("category", "events", "spans", "total(s)", "% wall")
        )
        for cat, tot in sorted(
            self.categories.items(), key=lambda kv: -kv[1].total_dur
        ):
            pct = 100.0 * tot.total_dur / self.wall if self.wall else 0.0
            lines.append(
                "  %-12s %8d %8d %10.4f %7.1f%%"
                % (cat, tot.count, tot.spans, tot.total_dur, pct)
            )
        if self.workers:
            lines.append("")
            lines.append("worker utilization (load balance):")
            for w in self.workers:
                bar = "#" * int(round(40 * min(w.utilization, 1.0)))
                lines.append(
                    "  rank %-3d %5d tasks %8.3fs busy %6.1f%% |%-40s|"
                    % (w.rank, w.tasks, w.busy, 100 * w.utilization, bar)
                )
            lines.append("  mean utilization: %.1f%%" % (100 * self.efficiency))
        by_tag = {tag: [0, 0] for tag in sorted(TAG_NAMES)}  # messages, bytes
        for e in self.trace.events:
            if e.category == "mpi" and e.name == "send":
                row = by_tag.setdefault(e.payload["tag"], [0, 0])
                row[0] += 1
                row[1] += e.payload["bytes"]
        if any(n for n, _ in by_tag.values()):
            # Who talks to whom: server<->server traffic is the "server"
            # row, what one client RPC costs is request + response.
            lines.append("")
            lines.append("messages by tag:")
            lines.append("  %-12s %10s %12s" % ("tag", "messages", "bytes"))
            for tag, (n, size) in by_tag.items():
                lines.append("  %-12s %10d %12d" % (TAG_NAMES.get(tag, tag), n, size))
        hists = self.trace.metrics.get("histograms", {})
        populated = [
            (name, h) for name, h in sorted(hists.items()) if h.get("count")
        ]
        if populated:
            lines.append("")
            lines.append("latency percentiles:")
            lines.append(
                "  %-24s %8s %10s %10s %10s %10s"
                % ("histogram", "n", "p50(s)", "p95(s)", "p99(s)", "max(s)")
            )
            for name, h in populated:
                lines.append(
                    "  %-24s %8d %10.6f %10.6f %10.6f %10.6f"
                    % (
                        name,
                        h["count"],
                        h.get("p50", 0.0),
                        h.get("p95", 0.0),
                        h.get("p99", 0.0),
                        h["max"],
                    )
                )
        counters = self.trace.metrics.get("counters", {})
        headline = [
            (name, counters[name])
            for name in sorted(counters)
            if "[" not in name  # skip per-rank gauge-style entries
        ]
        if headline:
            lines.append("")
            lines.append("counters:")
            for name, value in headline:
                if isinstance(value, float) and not value.is_integer():
                    lines.append("  %-36s %14.4f" % (name, value))
                else:
                    lines.append("  %-36s %14d" % (name, int(value)))
        return "\n".join(lines)

    def _critical_path_headline(self) -> str | None:
        """One-line causal summary when the trace carries provenance
        events (see :mod:`repro.obs.analyze` for the full report)."""
        if not any(e.category == "prov" for e in self.trace.events):
            return None
        a = Analysis.from_trace(self.trace)
        if not a.critical_path:
            return None
        dominant = max(a.stalls.items(), key=lambda kv: kv[1])
        return (
            "critical path: %d hops, %.4fs serial compute floor, "
            "dominant stall %s (%.1f%%) — see `repro analyze`"
            % (
                len(a.critical_path),
                a.serial_compute,
                dominant[0],
                100.0 * dominant[1] / a.makespan if a.makespan else 0.0,
            )
        )

    def __str__(self) -> str:
        return self.render()
