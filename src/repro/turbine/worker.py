"""The Turbine worker loop: get a leaf task, run it, repeat."""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any

from ..adlb import constants as C
from ..adlb.client import AdlbClient
from ..adlb.constants import WORK
from ..faults import InjectedFault, RankKilled, TaskError, TaskFailure, snippet
from ..mpi import AbortError, DeadlockError


@dataclass
class WorkerStats:
    tasks_run: int = 0
    busy_time: float = 0.0


@dataclass
class WatchdogStats:
    """Folded into run metrics as ``worker.watchdog.*``."""

    fired: int = 0  # deadlines that expired with the task still running
    abandoned: int = 0  # tasks whose results were discarded after expiry
    recycled: int = 0  # interpreter recycles after an abandoned task


class _Watchdog:
    """One daemon thread arming a per-task deadline.

    ``arm`` starts the clock for a task, ``disarm`` stops it; both are
    mutually exclusive with the expiry firing (the condition lock is
    held across the fire callback), so a task either finishes normally
    or is abandoned — never both.  The fire callback runs on the
    watchdog thread and must only do thread-safe work (the mailbox
    sends of the thread-backed comm are queue-based and safe).
    """

    def __init__(self, timeout: float, on_expire: Any):
        self.timeout = timeout
        self.on_expire = on_expire
        self._cond = threading.Condition()
        self._gen = 0
        self._deadline: float | None = None
        self._fired_gen = -1
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="task-watchdog", daemon=True
        )
        self._thread.start()

    def arm(self) -> int:
        with self._cond:
            self._gen += 1
            self._deadline = time.monotonic() + self.timeout
            self._cond.notify()
            return self._gen

    def disarm(self, gen: int) -> bool:
        """Stop the clock; True if this arming already fired (the task
        was abandoned while it ran — its unit is no longer ours)."""
        with self._cond:
            self._deadline = None
            return self._fired_gen == gen

    def fired(self, gen: int) -> bool:
        with self._cond:
            return self._fired_gen == gen

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stop:
                    return
                if self._deadline is None:
                    self._cond.wait()
                    continue
                now = time.monotonic()
                if now < self._deadline:
                    self._cond.wait(self._deadline - now)
                    continue
                # Expired: fire under the lock so a concurrent disarm
                # (task just finished) cannot race the abandonment.
                self._fired_gen = self._gen
                self._deadline = None
                self.on_expire()


class Worker:
    """Executes leaf tasks; each one ends as a ``task`` span in this
    rank's event ring (read back via ``result.trace.spans("task")`` on
    traced runs).

    ``on_error`` selects what happens when a task raises: ``retry``
    (report the leased unit back via OP_TASK_FAIL so the server can
    requeue it), ``continue`` (record a :class:`TaskFailure`, repair
    the accounting, keep serving), or ``fail_fast`` (repair the
    accounting, then raise a :class:`TaskError`).  ``faults`` is an
    optional :class:`repro.faults.FaultState` consulted before each
    task; when ``None`` — the default — the check is one pointer test.
    """

    def __init__(
        self,
        client: AdlbClient,
        interp,
        on_error: str = "retry",
        retries_enabled: bool = False,
        faults: Any | None = None,
        task_timeout: float | None = None,
    ):
        self.client = client
        self.interp = interp
        self.stats = WorkerStats()
        self.on_error = on_error
        self.retries_enabled = retries_enabled
        self.faults = faults
        self.failures: list[TaskFailure] = []
        self.task_timeout = task_timeout
        self.watchdog_stats = WatchdogStats()
        self._watchdog = (
            _Watchdog(task_timeout, self._watchdog_fire)
            if task_timeout is not None
            else None
        )
        # This rank's event ring (None without a recorder); ``tracer``
        # is the same ring on traced runs, else None.
        self.ring = client.ring
        self.tracer = client.tracer
        # Provenance unit ids for tasks run on this worker
        # ("T<rank>.<n>"); counts executions, including retries.
        self._unit_seq = 0

    def _watchdog_fire(self) -> None:
        """Expiry callback (watchdog thread): hand the overdue unit
        back as failed so the server can retry it elsewhere.

        Sent as a raw oneway — never through the reliable-RPC path,
        whose per-client sequence numbers belong to the main thread.
        The main loop notices the abandonment at ``disarm`` and skips
        the unit's accounting; the interpreter is recycled there.
        """
        self.watchdog_stats.fired += 1
        self.client.comm.send(
            {
                "op": C.OP_TASK_FAIL,
                "kind": "task",
                "error": "TaskTimeout: task exceeded %.3gs watchdog"
                % self.task_timeout,
            },
            self.client.my_server,
            C.TAG_ONEWAY,
        )

    def serve(self) -> WorkerStats:
        try:
            return self._serve()
        finally:
            if self._watchdog is not None:
                self._watchdog.stop()

    def audit_row(self) -> dict:
        """Terminal bookkeeping snapshot for run-invariant auditing.

        Called once, after :meth:`serve` returns on a clean shutdown
        (never on a killed rank).  A quiescent worker holds no
        unflushed refcount deltas: ``flush_refcounts`` runs at every
        task boundary and failed attempts discard theirs.
        """
        return {
            "role": "worker",
            "rank": self.client.rank,
            "pending_refcounts": len(self.client._pending_refcounts),
            "tasks_run": self.stats.tasks_run,
            "abandoned": self.watchdog_stats.abandoned,
            "failures": len(self.failures),
        }

    def _serve(self) -> WorkerStats:
        tracer = self.tracer
        faults = self.faults
        ring = self.ring
        rank = self.client.rank
        wd = self._watchdog
        while True:
            got = self.client.get((WORK,))
            if got is None:
                recorder = self.client.comm.world.recorder
                if recorder is not None:
                    metrics = recorder.metrics
                    metrics.fold_struct("worker", self.stats, rank=rank)
                    if wd is not None:
                        metrics.fold_struct(
                            "worker.watchdog", self.watchdog_stats, rank=rank
                        )
                    fold_cache_stats(metrics, self.client, self.interp, rank)
                return self.stats
            _, payload = got
            unit = None
            if tracer is not None:
                self._unit_seq += 1
                unit = "T%d.%d" % (rank, self._unit_seq)
                self.client.prov_unit = unit
            directive = None
            if faults is not None:
                directive = faults.on_task(rank, payload)
                if directive is not None and directive[0] == "kill":
                    # Not a task failure: the whole rank dies holding
                    # its lease; recovery is the server's job.
                    raise RankKilled(rank, directive[1])
            if ring is not None:
                ring.emit("task_start", len(payload))
            t0 = time.perf_counter()
            gen = wd.arm() if wd is not None else 0
            try:
                if directive is not None:
                    if directive[0] == "raise":
                        raise InjectedFault(directive[1])
                    time.sleep(directive[1])
                if wd is None or not wd.fired(gen):
                    # An expiry during the injected delay already handed
                    # the unit back; running the payload now would
                    # double-apply its stores.
                    self.interp.eval(payload)
            except (AbortError, DeadlockError):
                # Transport-level failures are rank problems, not task
                # failures: never retried or recorded, always fatal.
                raise
            except Exception as e:  # task failure — rank stays up
                if wd is not None and wd.disarm(gen):
                    self._abandon(payload, unit, t0)
                    continue
                if ring is not None:
                    # Failed attempts keep their span so grant instants
                    # stay aligned 1:1 with unit spans on this rank.
                    ring.emit(
                        "task_fail", len(payload), unit, type(e).__name__, t0=t0
                    )
                self._task_error(rank, payload, e)
                continue
            if wd is not None and wd.disarm(gen):
                self._abandon(payload, unit, t0)
                continue
            self.stats.tasks_run += 1
            self.stats.busy_time += time.perf_counter() - t0
            if ring is not None:
                ring.emit("task_done", len(payload), unit, t0=t0)
            # Deferred refcount decrements must land before the task's
            # accounting unit: a batched write-decrement can close TDs
            # and fire rules, which the termination counter must see.
            self.client.flush_refcounts()
            self.client.decr_work()

    def _abandon(self, payload: Any, unit: str | None, t0: float) -> None:
        """The watchdog expired while this task ran: its unit was
        already failed back to the server (and is being retried
        elsewhere), so this attempt's results are discarded — no
        counter decrement, no refcount flush — and the embedded
        interpreters are recycled in case the runaway task wedged them.
        """
        self.watchdog_stats.abandoned += 1
        self.client.discard_pending_refcounts()
        self._recycle_interp()
        if self.ring is not None:
            self.ring.emit("task_abandon", len(payload), unit, "TaskTimeout", t0=t0)

    def _recycle_interp(self) -> None:
        """Reset per-interpreter state a runaway task may have wedged:
        the persistent embedded Python/R sessions (``python_persist``
        globals survive tasks by design — a hung task's partial state
        must not leak into retries) and the interp's code cache (absent
        in oracle mode)."""
        self.watchdog_stats.recycled += 1
        interp = self.interp
        for attr in ("_embedded_python", "_embedded_r"):
            state = getattr(interp, attr, None)
            if state is not None:
                state["embedded"].reset()
        if interp.compile_enabled:
            interp._vm_code_cache.clear()

    def _task_error(self, rank: int, payload: Any, e: BaseException) -> None:
        """Exception-safe task accounting: every failed task either
        hands its unit back to the server (retry) or decrements the
        termination counter itself (continue / fail_fast) — never
        leaks it, so runs finish or abort deterministically."""
        error = "%s: %s" % (type(e).__name__, e)
        tb = "".join(traceback.format_exception(type(e), e, e.__traceback__))
        if self.on_error == "retry" and self.retries_enabled:
            # The retry re-executes the task's refcount decrements;
            # flushing this attempt's would double-apply them.
            self.client.discard_pending_refcounts()
            self.client.task_fail("task", error, tb)
            return
        # The unit completes (as a failure): land the decrements it
        # already performed, then account for it.
        self.client.flush_refcounts()
        failure = TaskFailure(
            rank=rank,
            kind="task",
            payload=snippet(payload),
            attempts=1,
            error=error,
            traceback=tb,
        )
        if self.on_error == "continue":
            self.failures.append(failure)
            # Poisoned: dataflow blocked on this task's outputs will
            # never resolve; the master drains the run at quiescence.
            self.client.decr_work(poison=True)
            return
        self.client.decr_work()
        raise TaskError(failure) from e


def fold_cache_stats(metrics: Any, client: AdlbClient, interp, rank: int) -> None:
    """Fold the rank's Tcl/read-cache counters into run metrics.

    Exposes ``tcl.vm.{frames,cache_hits,cache_misses,code_hits,
    code_misses,expr_hits,expr_misses,...}`` and
    ``adlb.retrieve_cache.{hits,misses,...}``.
    """
    metrics.fold_struct("tcl.vm", interp.vm_stats, rank=rank)
    data_stats = getattr(client, "data_stats", None)
    if data_stats is not None:
        metrics.fold_struct("adlb.retrieve_cache", data_stats, rank=rank)
    rpc_stats = getattr(client, "rpc_stats", None)
    if rpc_stats is not None and rpc_stats.sent:
        metrics.fold_struct("adlb.rpc", rpc_stats, rank=rank)
