"""The run's counter table: registered structs, read live.

Every layer counts into its own typed stats dataclass (plain attribute
increments, no locks — each rank thread owns its structs) and registers
it with the run's :class:`Metrics` once, where it is constructed.  The
table refers to the struct, it does not copy it: ``snapshot()`` /
``counter()`` sum whatever is registered when they are called — mid-run
for ``--monitor``, after a rank died (what it counted stays), or after
the run for ``RunResult.metrics`` and the reports.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field, fields
from typing import Any, Callable

#: Bounded sample pool per histogram; beyond this, reservoir sampling
#: (Algorithm R with a fixed-seed RNG, so summaries are reproducible)
#: keeps a uniform subset for the percentile estimates.
RESERVOIR_SIZE = 512


@dataclass
class HistogramSummary:
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    _samples: list = field(default_factory=list, repr=False, compare=False)
    _rng: random.Random = field(
        default_factory=lambda: random.Random(0x5EED),
        repr=False,
        compare=False,
    )

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < RESERVOIR_SIZE:
                self._samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) over the
        retained reservoir — exact until the pool overflows."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        k = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered))) - 1))
        return ordered[k] if p > 0 else ordered[0]

    def as_dict(self) -> dict:
        if not self.count:
            return {
                "count": 0,
                "total": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Metrics:
    """Registered counter structs, rank state sources and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (prefix, struct, rank) of the run in progress, in registration
        # order, on top of what a session's finished runs counted.
        self._structs: list[tuple[str, Any, int | None]] = []
        self._settled: dict = {"counters": {}, "gauges": {}}
        self._hists: dict[str, HistogramSummary] = {}
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

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = HistogramSummary()
            hist.observe(value)

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
            hists = {k: h.as_dict() for k, h in self._hists.items()}
        return {"counters": counters, "gauges": gauges, "histograms": hists}
