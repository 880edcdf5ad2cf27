"""The metrics registry: named counters, gauges, and histograms.

Hot paths in the runtime keep their own per-rank stat structs (plain
dataclass fields, no locks — each rank thread owns its struct).  At the
end of a run those per-rank structs are *folded* into the recorder's
Metrics registry, which is also available for direct use by cold paths.
Folding is deferred to the first read, so a run whose counters nobody
looks at pays one list append per struct.  ``snapshot()`` renders
everything as plain dicts for reports and the Chrome export.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

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
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, HistogramSummary] = {}
        # (prefix, struct, rank) handed to fold_struct, not yet summed.
        self._unfolded: list[tuple] = []

    # ------------------------------------------------------------- updates

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            cur = self._gauges.get(name)
            if cur is None or value > cur:
                self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = HistogramSummary()
            hist.observe(value)

    def fold_struct(self, prefix: str, struct, rank: int | None = None) -> None:
        """Fold a per-rank stats dataclass into the registry.

        Numeric fields become ``prefix.field`` counters (summed across
        ranks); when ``rank`` is given, per-rank gauges
        ``prefix.field[rank]`` are kept as well so imbalance is visible.
        The struct is read at the next ``snapshot()``/``counter()``,
        so hand it over once its owner has stopped updating it.
        """
        self._unfolded.append((prefix, struct, rank))

    def _fold(self) -> None:
        """Sum the structs handed to fold_struct (caller holds the lock)."""
        from dataclasses import fields as dc_fields

        while self._unfolded:
            prefix, struct, rank = self._unfolded.pop(0)
            for f in dc_fields(struct):
                value = getattr(struct, f.name)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    continue
                name = "%s.%s" % (prefix, f.name)
                self._counters[name] = self._counters.get(name, 0) + value
                if rank is not None:
                    self._gauges["%s[%d]" % (name, rank)] = value

    # ------------------------------------------------------------ reading

    def counter(self, name: str) -> float:
        with self._lock:
            self._fold()
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        with self._lock:
            self._fold()
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.as_dict() for k, h in self._hists.items()},
            }
