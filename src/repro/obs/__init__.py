"""repro.obs: the unified runtime observability layer.

One spine for every measurement in the repo (:mod:`repro.obs.spine`):
a :class:`Recorder` keeps one Lamport-clocked event ring per rank plus
the run's counter table (:class:`Metrics`), every instrumented site
makes one ``emit`` call into its rank's ring, and every view is a
reader of those rings — the structured :class:`Trace` with its Chrome
``trace_event`` exporter, post-run aggregation (:class:`Profile`),
causal dataflow analysis (:class:`Analysis`), and the black-box
artifact replayed offline by ``repro postmortem``
(:mod:`repro.obs.postmortem`).  The event vocabulary — every kind, its
level, its trace category/name and its fields — is the one table
:data:`repro.obs.spine.KINDS`.

Two levels share the ring.  *Level 0* (lifecycle events and message
headers) is ON by default (``flightrec=True``): 512 slots per rank,
snapshotted into a ``blackbox-*.json`` artifact on any failure path,
and the counters of every run on ``RunResult.metrics``.
*Level 1* (spans, provenance, data-op instants) is recorded only with
``swift_run(..., trace=True)``, ``RuntimeConfig(trace=True)``, or the
``repro profile`` / ``repro trace`` / ``repro analyze`` CLI
subcommands, into rings of ``trace_capacity`` slots per rank.  A ring
that wraps drops its oldest events and says so: ``Trace.dropped``, and
a ``WARNING: trace truncated`` first line on every report.  With both
off no recorder is built and each site is a single ``is None`` test.

Counters live in per-rank stats structs, registered with the table
where they are built and summed live by its readers (a dead rank keeps
what it counted): ``mpi.*``, ``adlb.*``, ``engine.*``, ``worker.*`` and
``tcl.vm.*`` always; ``adlb.lease.*``, ``adlb.quarantine.*``,
``adlb.repl.*``, ``adlb.rpc.*``, ``adlb.ckpt.*``, ``engine.journal.*``,
``worker.watchdog.*`` and ``fault.*`` with the machinery they count.
The latency histograms (``task.latency_s``, ``adlb.queue_wait_s``,
``adlb.dispatch_s``) come from level-1 events: traced runs only.

Live monitoring (``swift_run(..., monitor=True)`` / ``repro run
--monitor``, :class:`RunMonitor`) is one more reader of that table: a
driver thread samples it; the ranks push nothing.
"""

from .analyze import Analysis, Hop, Unit
from .metrics import HistogramSummary, Metrics
from .monitor import MonitorSample, RunMonitor
from .postmortem import load_blackbox, render_postmortem
from .report import Profile, WorkerUtilization
from .spine import Recorder, write_blackbox
from .trace import RANK_DRIVER, CategoryTotal, Trace, TraceEvent

__all__ = [
    "Recorder",
    "Trace",
    "TraceEvent",
    "CategoryTotal",
    "Metrics",
    "HistogramSummary",
    "Profile",
    "WorkerUtilization",
    "Analysis",
    "Hop",
    "Unit",
    "MonitorSample",
    "RunMonitor",
    "write_blackbox",
    "load_blackbox",
    "render_postmortem",
    "RANK_DRIVER",
]
