"""What one pinned workload process does: set up, time reps from the
outside, check every rep's output, and derive the metrics.

The run protocol is the point of this file (README.md has the
measurements behind it): one CPU, one untimed rep of the issue's size
that warms up and sets the memory peak, ``gc.collect()`` before every
timed rep with GC left enabled, 1-leaf reps interleaved with the timed
ones so ``startup_ms`` samples the same window, and a calibration on
either side of every rep and of every group of 1-leaf reps, so that
each sample is reported in nominal seconds (see estimator.py).
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro import SwiftRuntime
from repro.obs.analyze import Analysis

import probes
from estimator import (
    HarnessError,
    Pace,
    Stopwatch,
    lower_quartile,
    nominal_seconds,
    summary,
)
from workloads import Operands, Workload

# A 1-leaf rep costs 5-15 ms; five of them between two calibrations is
# a slot short enough for the calibrations to price (~50 ms) and gives
# startup_ms ~200 samples per run.
STARTUPS_PER_REP = 5
# A traced run spends its --seconds on a few untraced reps (the
# baseline for trace overhead, busy and idle fractions), one traced
# rep, and the probes; this is the probes' share.
PROBE_BUDGET_S = 10.0
MIN_TRACE_MODE_REPS = 3
# ~200-450 events per leaf task today; the tracer's deque only grows
# to what is emitted, so a generous cap costs nothing.
TRACE_CAPACITY = 1 << 23

# Counters that must read zero unless replication/journaling/stealing
# are active (asserted per workload, see recovery_guard).
RECOVERY_METRICS = (
    "adlb.rpcs_per_task",
    "adlb.repl_entries_per_task",
    "adlb.repl_batches_per_task",
    "adlb.repl_max_lag",
    "adlb.stolen_per_matched",
    "adlb.rpc_resends",
    "turbine.journal_entries_per_task",
    "turbine.journal_flushes_per_task",
)
# ... and the subset that must be non-zero on a recovery workload
# (resends and stealing legitimately can be zero in a clean run).
RECOVERY_ACTIVE = (
    "adlb.rpcs_per_task",
    "adlb.repl_entries_per_task",
    "adlb.repl_batches_per_task",
    "turbine.journal_entries_per_task",
    "turbine.journal_flushes_per_task",
)
# Counts that must repeat bit-for-bit between runs of the same code on
# the single-server workloads (compared by --selfcheck).
EXACT_METRICS = (
    "adlb.data_ops_per_task",
    "adlb.matches_per_task",
    "adlb.leases_per_task",
    "turbine.rules_per_task",
    "turbine.notifications_per_task",
    "turbine.control_tasks_per_task",
    "core.tcl_bytes",
)

_clock = time.perf_counter


def pin_to_one_cpu() -> int:
    """Restrict this process (and its children) to one CPU.

    The rank threads share one GIL, so a second core buys nothing and
    lets the OS scheduler pick between two regimes with identical work
    (~520 vs ~215 tasks/s on the fan-out); unpinned numbers do not
    repeat, so there is no unpinned mode.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        pinned = os.sched_getaffinity(0)
    except (AttributeError, OSError) as e:
        raise HarnessError(
            "cannot pin to one CPU (%s: %s); refusing to time" % (type(e).__name__, e)
        ) from e
    if pinned != {cpu}:
        raise HarnessError(
            "affinity is %s after asking for {%d}; refusing to time" % (pinned, cpu)
        )
    return cpu


@dataclass
class Rep:
    leaves: int
    wall: float
    cpu: float
    busy: float  # what estimates are made from (estimator.Stopwatch)
    failed: int  # leaf tasks with a missing/wrong output, or all on error
    raised: bool  # the run ended in an exception
    steal_requests: int  # between servers: non-zero only at a recovery layout
    worker_busy: float  # sum of WorkerStats.busy_time
    max_queue: int  # longest work queue any server saw
    # The RunResult, kept only on request: holding every rep's output
    # would make peak RSS grow with the number of reps a run fits in.
    result: Any = None


@dataclass
class Cycle:
    """A group of 1-leaf reps, then one timed rep, each with how much
    slower than nominal the machine was while it ran."""

    startups: list[Rep]
    startup_slowdown: float
    rep: Rep
    slowdown: float


class Session:
    """One workload at one seed: its three compiled programs (timed,
    peak and 1-leaf size), their expected outputs, and the runtime
    handle reps go through."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.ops = Operands.from_seed(seed)
        self.size = workload.size
        self.runtime = SwiftRuntime(
            workers=workload.workers,
            servers=workload.servers,
            engines=workload.engines,
        )
        self.source = workload.source(self.size, self.ops)
        self._programs = {
            n: (
                self.runtime.compile(workload.source(n, self.ops)),
                workload.expected(n, self.ops),
            )
            for n in (self.size, workload.peak_size, 1)
        }

    @property
    def tcl_bytes(self) -> int:
        return len(self._programs[self.size][0].tcl_text)

    def run(
        self, leaves: int | None = None, keep_result: bool = False, **overrides
    ) -> Rep:
        """One rep of the ``leaves``-leaf program (default: the timed size)."""
        n = leaves or self.size
        compiled, expected = self._programs[n]
        if n > 1:
            gc.collect()
        try:
            with Stopwatch() as watch:
                result = self.runtime.run_compiled(compiled, **overrides)
        except Exception:  # a rep that raises is a failed rep, not a crash
            traceback.print_exc(file=sys.stderr)
            return Rep(n, watch.wall, watch.cpu, watch.busy, n, True, 0, 0.0, 0)
        failed = self.workload.failed_leaves(n, expected, result.stdout_lines)
        failed = max(failed, len(result.failures) + len(result.quarantined))
        return Rep(
            n,
            watch.wall,
            watch.cpu,
            watch.busy,
            min(n, failed),
            False,
            sum(s.steal_requests for s in result.server_stats),
            sum(w.busy_time for w in result.worker_stats),
            max(s.max_queue for s in result.server_stats),
            result if keep_result else None,
        )


def set_up(workload: Workload, seed: int) -> Session:
    """Everything ``setup_s`` covers after the interpreter has started
    and ``repro`` is imported: compile the programs and push the first
    (1-leaf) one through a cold runtime."""
    session = Session(workload, seed)
    session.run(1)
    return session


def peak_rep(session: Session, pace: Pace) -> tuple[Rep, float]:
    """The untimed rep that opens every measuring run, at the issue's
    program size, and how much slower than nominal the machine was
    while it ran.  It is the warm-up, the rep whose queue and outputs
    set ``peak_rss_mb`` and ``adlb.max_queue``, and it is checked and
    counted like any other; its per-task cost is printed beside the
    timed size's, never folded into a metric."""
    pace.slowdown()
    rep = session.run(session.workload.peak_size)
    return rep, pace.slowdown()


def timed_cycles(
    session: Session, pace: Pace, seconds: float, min_reps: int = 1
) -> list[Cycle]:
    """Cycles of calibrate, ``STARTUPS_PER_REP`` 1-leaf reps,
    calibrate, one timed rep, until ``seconds`` have passed.
    Callers run ``peak_rep`` first."""
    cycles: list[Cycle] = []
    start = _clock()
    pace.slowdown()  # the first cycle starts at a fresh calibration
    while len(cycles) < min_reps or _clock() - start < seconds:
        startups = [session.run(1) for _ in range(STARTUPS_PER_REP)]
        startup_slowdown = pace.slowdown()
        rep = session.run()
        cycles.append(Cycle(startups, startup_slowdown, rep, pace.slowdown()))
    return cycles


def _timed(cycles: list[Cycle]) -> list[Cycle]:
    """The cycles that count towards timing: a rep with a failed leaf
    is in the failure share only (unless none is clean; then the run
    is reported incorrect and the times are all there is)."""
    return [c for c in cycles if not c.rep.failed] or cycles


def _accounting(reps: list[Rep]) -> dict:
    """Leaf tasks attempted and failed.  A rep that raised fails all
    its leaves; ``wrong_output`` says whether any rep that *completed*
    printed something other than the reference."""
    return {
        "attempted": sum(r.leaves for r in reps),
        "failed": sum(r.failed for r in reps),
        "failed_reps": sum(1 for r in reps if r.failed),
        "wrong_output": any(r.failed and not r.raised for r in reps),
    }


def _all_reps(cycles: list[Cycle]) -> list[Rep]:
    return [r for c in cycles for r in c.startups + [c.rep]]


def recovery_guard(workload: Workload, values: dict[str, float]) -> list[str]:
    """A default that silently turns recovery on or off changes the
    workload; report it as that, never as a speed-up or a regression."""
    problems = []
    for name in RECOVERY_METRICS:
        if not workload.recovery and values.get(name):
            problems.append(
                "%s = %r on %s, which must run without recovery"
                % (name, values[name], workload.name)
            )
    for name in RECOVERY_ACTIVE:
        if workload.recovery and name in values and not values[name]:
            problems.append(
                "%s = 0 on %s, which must run with recovery on"
                % (name, workload.name)
            )
    return problems


def _steal_guard(workload: Workload, reps: list[Rep]) -> list[str]:
    """The same check on the one recovery-layout counter ``RunResult``
    carries without tracing: steal requests between servers."""
    steals = sum(r.steal_requests for r in reps)
    if bool(steals) == workload.recovery:
        return []
    return [
        "%d steal requests on %s (recovery layout: %s)"
        % (steals, workload.name, workload.recovery)
    ]


def _rep_seconds(cycles: list[Cycle]) -> float:
    """Nominal seconds of one timed rep."""
    timed = _timed(cycles)
    return nominal_seconds([c.rep.busy for c in timed], [c.slowdown for c in timed])


def _startup_seconds(cycles: list[Cycle]) -> float:
    """Nominal seconds of one 1-leaf rep."""
    samples = [(s, c.startup_slowdown) for c in cycles for s in c.startups]
    clean = [(s, x) for s, x in samples if not s.failed] or samples
    return nominal_seconds([s.busy for s, _ in clean], [x for _, x in clean])


def _diagnostics(
    session: Session, cycles: list[Cycle], peak: Rep, peak_slowdown: float
) -> dict:
    rep_walls = [c.rep.wall for c in _timed(cycles)]
    startup_walls = [s.wall for c in cycles for s in c.startups]
    return {
        # The issue's estimator, in this host's own seconds: the lower
        # quartile of raw wall time.  It does not repeat here (README.md)
        # but it is what another machine's numbers compare with.
        "tasks_per_s_wall_q25": session.size / lower_quartile(rep_walls),
        "startup_ms_wall_q25": 1e3 * lower_quartile(startup_walls),
        # Nominal per-task cost at the timed and at the issue's size.
        "ms_per_task": {
            str(session.size): 1e3 * _rep_seconds(cycles) / session.size,
            str(peak.leaves): 1e3 * peak.busy / peak_slowdown / peak.leaves,
        },
        "rep_wall_s": summary(rep_walls),
        "startup_wall_s": summary(startup_walls),
        "slowdown_x": summary(
            [x for c in cycles for x in (c.startup_slowdown, c.slowdown)]
        ),
        # Every sample, so that another estimator can be tried on a
        # recorded run: per cycle, the slow-down and busy seconds of
        # the 1-leaf reps, then of the timed rep.
        "samples": [
            [
                round(c.startup_slowdown, 4),
                [round(s.busy, 6) for s in c.startups],
                round(c.slowdown, 4),
                round(c.rep.busy, 6),
            ]
            for c in cycles
        ],
    }


def measure_end_to_end(session: Session, pace: Pace, seconds: float) -> dict:
    """The untraced run: end-to-end metrics plus their diagnostics."""
    peak, peak_slowdown = peak_rep(session, pace)
    cycles = timed_cycles(session, pace, seconds)
    out = _accounting([peak] + _all_reps(cycles))
    out["metrics"] = {
        "tasks_per_s": session.size / _rep_seconds(cycles),
        "startup_ms": 1e3 * _startup_seconds(cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out["diagnostics"] = _diagnostics(session, cycles, peak, peak_slowdown)
    out["problems"] = _steal_guard(session.workload, [peak] + [c.rep for c in cycles])
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _serial_baseline(session: Session, pace: Pace) -> tuple[float, bool]:
    """Nominal ms per leaf of the payloads in one plain loop, and
    whether that loop's outputs matched the reference too."""
    w, n = session.workload, session.size
    expected = w.expected(n, session.ops)
    loops = 0
    ok = True
    pace.slowdown()
    with Stopwatch() as watch:
        t0 = _clock()
        while loops == 0 or (_clock() - t0 < 0.3 and loops < 5):
            lines = w.serial_outputs(n, session.ops)
            ok = ok and w.failed_leaves(n, expected, lines) == 0
            loops += 1
    return 1e3 * watch.busy / pace.slowdown() / (loops * n), ok


def measure_per_layer(session: Session, pace: Pace, seconds: float) -> dict:
    """The traced run: untraced reps for the baselines, one traced rep
    for the counts and the critical path, then the isolated probes."""
    n = session.size
    peak, peak_slowdown = peak_rep(session, pace)
    # A traced rep costs ~2.5x an untraced one; leave room for it.
    budget = seconds - PROBE_BUDGET_S - 2.5 * peak.wall * n / peak.leaves
    cycles = timed_cycles(session, pace, budget, min_reps=MIN_TRACE_MODE_REPS)
    traced = session.run(
        keep_result=True, trace=True, trace_capacity=TRACE_CAPACITY
    )
    traced_slowdown = pace.slowdown()
    out = _accounting([peak] + _all_reps(cycles) + [traced])
    out["problems"] = []

    rep_s = _rep_seconds(cycles)
    ms_per_task = 1e3 * rep_s / n
    done = [c for c in cycles if not c.rep.raised]
    busy = sum(c.rep.worker_busy for c in done)
    done_busy = sum(c.rep.busy for c in done)
    serial_ms, serial_ok = _serial_baseline(session, pace)
    if not serial_ok:
        out["problems"].append("serial baseline disagrees with the reference")

    m: dict[str, float | None] = probes.run_all(session.source, session.ops, pace)
    m.update(
        {
            "core.tcl_bytes": session.tcl_bytes,
            # Of the rep that sets peak_rss_mb: every leaf queued at once.
            "adlb.max_queue": peak.max_queue,
            "turbine.worker_busy_ms_per_task": 1e3
            * _ratio(busy, sum(c.slowdown * c.rep.leaves for c in done)),
            "turbine.worker_busy_frac": _ratio(
                busy, session.workload.workers * done_busy
            ),
            # (clamped: the CPU and wall clocks disagree by microseconds)
            "run.idle_frac": max(
                0.0, 1.0 - _ratio(sum(c.rep.cpu for c in done), done_busy)
            ),
            "baseline.serial_ms_per_task": serial_ms,
            "baseline.stack_overhead_x": _ratio(ms_per_task, serial_ms),
            "obs.trace_overhead_x": traced.busy / traced_slowdown / rep_s,
        }
    )
    m.update(_traced_metrics(traced, n, traced_slowdown))
    if m["obs.dropped_events"] == 0:
        # Ledger: counts x isolated unit costs against the measured
        # per-task time, all in nominal units.  A data op is one client
        # RPC (2 messages), a match is a put + get (3); what is left of
        # the message count is priced as streamed messages.  The rows
        # overlap nowhere, so the remainder is cost no probe accounts for.
        other_msgs = max(
            0.0,
            m["mpi.msgs_per_task"]
            - 2 * m["adlb.data_ops_per_task"]
            - 3 * m["adlb.matches_per_task"],
        )
        explained_ms = serial_ms + 1e-3 * (
            m["adlb.data_ops_per_task"] * m["adlb.data_rpc_us"]
            + m["adlb.matches_per_task"] * m["adlb.put_get_us"]
            + m["turbine.rules_per_task"] * m["turbine.rule_us"]
            + other_msgs * m["mpi.stream_us_per_msg"]
        )
        m["ledger.explained_frac"] = explained_ms / ms_per_task
        m["ledger.unexplained_ms_per_task"] = ms_per_task - explained_ms
        out["problems"] += recovery_guard(session.workload, m)
    else:
        m["ledger.explained_frac"] = m["ledger.unexplained_ms_per_task"] = None
        out["problems"].append(
            "trace dropped %d events: counts are unresolved" % m["obs.dropped_events"]
        )
    out["metrics"] = m
    out["diagnostics"] = _diagnostics(session, cycles, peak, peak_slowdown)
    out["diagnostics"]["traced_rep"] = {
        "busy_s": traced.busy,
        "slowdown_x": traced_slowdown,
    }
    return out


def _traced_metrics(traced: Rep, n: int, slowdown: float) -> dict[str, float | None]:
    """Per-task counts, histograms (in nominal time) and the
    critical-path tiling of the traced rep; all ``None`` (printed
    ``unresolved``) if the trace dropped events, because every count
    would then be an undercount."""
    if traced.raised:
        raise HarnessError("the traced rep raised: no per-layer numbers")
    trace = traced.result.trace
    c = trace.metrics["counters"]
    h = trace.metrics["histograms"]
    zero_hist = {"p50": 0.0, "p95": 0.0}

    def per_task(name: str) -> float:
        return c.get(name, 0) / n

    def hit_ratio(hits: str, misses: str) -> float:
        return _ratio(c.get(hits, 0), c.get(hits, 0) + c.get(misses, 0))

    analysis = Analysis.from_trace(trace)
    path = sum(analysis.stalls.values())
    task_latency = h.get("task.latency_s", zero_hist)
    m = {
        "mpi.msgs_per_task": per_task("mpi.sends"),
        "mpi.bytes_per_task": per_task("mpi.bytes_sent"),
        "adlb.data_ops_per_task": per_task("adlb.data_ops"),
        "adlb.matches_per_task": per_task("adlb.tasks_matched"),
        "adlb.leases_per_task": per_task("adlb.lease.granted"),
        "adlb.rpcs_per_task": per_task("adlb.rpc.sent"),
        "adlb.read_cache_hit_ratio": hit_ratio(
            "adlb.retrieve_cache.hits", "adlb.retrieve_cache.misses"
        ),
        "adlb.refcount_batched_ops_per_task": per_task(
            "adlb.retrieve_cache.refcount_batched_ops"
        ),
        "adlb.queue_wait_ms_p50": 1e3
        * h.get("adlb.queue_wait_s", zero_hist)["p50"]
        / slowdown,
        "adlb.dispatch_us_p50": 1e6
        * h.get("adlb.dispatch_s", zero_hist)["p50"]
        / slowdown,
        "adlb.repl_entries_per_task": per_task("adlb.repl.entries_sent"),
        "adlb.repl_batches_per_task": per_task("adlb.repl.batches_sent"),
        "adlb.repl_max_lag": analysis.repl_max_lag,
        "adlb.stolen_per_matched": _ratio(
            c.get("adlb.tasks_stolen_in", 0), c.get("adlb.tasks_matched", 0)
        ),
        "adlb.rpc_resends": c.get("adlb.rpc.resends", 0),
        "turbine.rules_per_task": per_task("engine.rules_created"),
        "turbine.notifications_per_task": per_task("engine.notifications"),
        "turbine.control_tasks_per_task": per_task("engine.control_tasks_run"),
        "turbine.journal_entries_per_task": per_task("engine.journal.entries"),
        "turbine.journal_flushes_per_task": per_task("engine.journal.flushes"),
        "turbine.task_ms_p50": 1e3 * task_latency["p50"] / slowdown,
        "turbine.task_ms_p95": 1e3 * task_latency["p95"] / slowdown,
        "tcl.vm_frames_per_task": per_task("tcl.vm.frames"),
        "tcl.cmd_cache_hit_ratio": hit_ratio("tcl.vm.cache_hits", "tcl.vm.cache_misses"),
        "tcl.code_cache_hit_ratio": hit_ratio("tcl.vm.code_hits", "tcl.vm.code_misses"),
        "obs.events_per_task": len(trace.events) / n,
    }
    for segment in ("dispatch", "compute", "data_wait", "queue", "comm"):
        m["cp.%s_frac" % segment] = _ratio(analysis.stalls.get(segment, 0.0), path)
    if trace.dropped:
        m = dict.fromkeys(m)
    m["obs.dropped_events"] = trace.dropped
    return m
