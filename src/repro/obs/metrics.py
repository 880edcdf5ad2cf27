"""The run's counter table: registered structs, read live.

Every layer counts into its own typed stats dataclass (plain attribute
increments, no locks — each rank thread owns its structs) and registers
it with the run's :class:`Metrics` once, where it is constructed.  The
table refers to the struct, it does not copy it: ``snapshot()`` /
``counter()`` sum whatever is registered when they are called — mid-run
for ``--monitor``, after a rank died (what it counted stays), or after
the run for ``RunResult.metrics`` and the reports.  A traced run's
latency distributions are not counted here: they are a reading of its
trace (:meth:`repro.obs.Analysis.histograms`).
"""

from __future__ import annotations

import threading
from dataclasses import fields
from typing import Any, Callable


class Metrics:
    """Registered counter structs and rank state sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (prefix, struct, rank) of the run in progress, in registration
        # order, on top of what a session's finished runs counted.
        self._structs: list[tuple[str, Any, int | None]] = []
        self._settled: dict = {"counters": {}, "gauges": {}}
        #: rank -> its server's / engine's / worker's ``state()``: what it
        #: holds right now, as a dict any thread may ask for.  Set when
        #: the rank is built, deleted when it is killed.
        self.sources: dict[int, Callable[[], dict]] = {}

    def register(self, prefix: str, struct: Any, rank: int | None = None) -> Any:
        """Make a stats dataclass part of the table; returns it.

        Its numeric fields read as ``prefix.field`` counters (summed
        over everything registered under the prefix) and, when ``rank``
        is given, as per-rank gauges ``prefix.field[rank]`` so imbalance
        is visible.  Costs one list append; the fields are read when
        a reader asks.
        """
        with self._lock:
            self._structs.append((prefix, struct, rank))
        return struct

    def settle(self) -> None:
        """The run is over (no rank thread is left to count): keep the
        sums, let go of its structs and state sources — the latter pin
        the ranks' whole state, and a session's table must not grow
        with every run."""
        done = self.snapshot()
        with self._lock:
            self._settled = done
            self._structs.clear()
            self.sources.clear()

    # ------------------------------------------------------------ reading

    def counter(self, name: str) -> float:
        """The current sum of one ``prefix.field`` counter."""
        prefix, _, attr = name.rpartition(".")
        with self._lock:
            return self._settled["counters"].get(name, 0) + sum(
                getattr(struct, attr, 0)
                for p, struct, _ in self._structs
                if p == prefix
            )

    def state_lines(self) -> dict[int, str]:
        """One line per registered rank for a hang report or a black
        box: its role, then ``key=value`` of its ``state()`` with empty,
        zero and false values elided (inside a map too)."""
        lines = {}
        for rank, read in sorted(self.sources.copy().items()):
            try:
                state = read()
                parts = [state["role"]]
                for key, value in state.items():
                    if isinstance(value, dict):
                        value = {k: v for k, v in value.items() if v}
                    if value and key not in ("role", "rank"):
                        parts.append("%s=%s" % (key, value))
                lines[rank] = " ".join(parts)
            except Exception as e:  # a broken state() must not mask the failure
                lines[rank] = "<diagnostic failed: %s>" % e
        return lines

    def snapshot(self) -> dict:
        with self._lock:
            counters: dict[str, float] = dict(self._settled["counters"])
            gauges: dict[str, float] = dict(self._settled["gauges"])
            for prefix, struct, rank in self._structs:
                for f in fields(struct):
                    value = getattr(struct, f.name)
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    name = "%s.%s" % (prefix, f.name)
                    counters[name] = counters.get(name, 0) + value
                    if rank is not None:
                        gauges["%s[%d]" % (name, rank)] = value
        return {"counters": counters, "gauges": gauges}
