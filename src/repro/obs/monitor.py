"""Live run monitoring: a reader of the run's counter table.

Nothing is pushed.  A driver-side sampler thread calls
:meth:`RunMonitor.sample` at a fixed cadence; each call composes one
:class:`MonitorSample` from the run's :class:`~repro.obs.Metrics` — the
live ``adlb.tasks_matched`` counters plus the ``state()`` of every server
still alive (``Metrics.sources``: safe to ask from another thread).
``repro run --monitor`` renders each sample as a one-line progress
readout and the full timeline lands on ``RunResult.timeline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .metrics import Metrics


@dataclass
class MonitorSample:
    """One composed snapshot of run-wide progress."""

    t: float  # seconds since run start
    tasks: int = 0  # tasks granted so far (all servers)
    queued: int = 0  # tasks sitting in work queues
    parked: int = 0  # clients parked waiting for work
    clients: int = 0  # clients attached across all servers
    leases: int = 0  # clients holding handed-out tasks, completion pending
    repl_lag: int = 0  # op-log entries sent but unacked (max over servers)
    outstanding: int = -1  # termination-counter units (-1: no live master)
    ranks: dict[int, dict] = field(default_factory=dict)  # server -> its state()

    @property
    def busy(self) -> int:
        """Clients not parked — an upper bound on ranks doing work."""
        return max(0, self.clients - self.parked)

    @property
    def utilization(self) -> float:
        return self.busy / self.clients if self.clients else 0.0

    def render(self) -> str:
        parts = [
            "t=%6.2fs" % self.t,
            "tasks=%d" % self.tasks,
            "queued=%d" % self.queued,
            "busy=%d/%d" % (self.busy, self.clients),
            "util=%3.0f%%" % (100.0 * self.utilization),
        ]
        for name in ("leases", "repl_lag"):  # shown only when nonzero
            if getattr(self, name):
                parts.append("%s=%d" % (name, getattr(self, name)))
        if self.outstanding >= 0:
            parts.append("outstanding=%d" % self.outstanding)
        return "[monitor] " + " ".join(parts)


class RunMonitor:
    """Composes samples of one run from its counter table."""

    def __init__(self, metrics: Metrics, out: Callable[[str], None] | None = None):
        self.metrics = metrics
        # A session's earlier runs counted into the same table.
        self._tasks_before = metrics.counter("adlb.tasks_matched")
        self.samples: list[MonitorSample] = []
        self.out = out

    def sample(self, t: float) -> MonitorSample:
        # A dead server's state is gone but its matches still count,
        # so ``tasks`` never steps back across a failover.
        tasks = self.metrics.counter("adlb.tasks_matched") - self._tasks_before
        states = [read() for read in list(self.metrics.sources.values())]
        ranks = {st["rank"]: st for st in states if st["role"] == "server"}
        s = MonitorSample(t=t, tasks=int(tasks), ranks=ranks)
        for state in ranks.values():
            s.queued += state["queued_tasks"]
            s.parked += state["parked_gets"]
            s.clients += state["attached_clients"]
            s.leases += len(state["leases"])
            s.repl_lag = max(s.repl_lag, state.get("repl_lag", 0))
            if state["is_master"]:
                s.outstanding = max(0, state["work_count"])
        self.samples.append(s)
        if self.out is not None:
            self.out(s.render())
        return s


__all__ = ["MonitorSample", "RunMonitor"]
