"""The Turbine worker loop: get a bundle of leaf tasks, run each, repeat."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from ..adlb import constants as C
from ..adlb.client import AdlbClient
from ..adlb.constants import WORK
from .unit import UnitRunner


@dataclass
class WorkerStats:
    tasks_run: int = 0
    busy_time: float = 0.0


@dataclass
class WatchdogStats:
    """Registered as ``worker.watchdog.*`` when a watchdog is armed."""

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
        self._deadline: float | None = None
        self._expired = False  # the current arming fired
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="task-watchdog", daemon=True
        )
        self._thread.start()

    def arm(self) -> None:
        with self._cond:
            self._expired = False
            self._deadline = time.monotonic() + self.timeout
            self._cond.notify()

    def expired(self) -> bool:
        with self._cond:
            return self._expired

    def disarm(self) -> bool:
        """Stop the clock; True if this arming already fired (the task
        was abandoned while it ran — its unit is no longer ours)."""
        with self._cond:
            self._deadline = None
            return self._expired

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
                self._expired = True
                self._deadline = None
                self.on_expire()


class Worker:
    """Executes leaf tasks; each one ends as a ``task`` span in this
    rank's event ring (read back via ``result.trace.spans("task")`` on
    traced runs).

    Running a task and accounting for it (error policy, fault
    directives, spans, commit / roll-back) is the rank's
    :class:`~repro.turbine.unit.UnitRunner`, ``unit``.
    """

    def __init__(
        self,
        client: AdlbClient,
        interp,
        on_error: str = "retry",
        faults: Any | None = None,
        task_timeout: float | None = None,
        output=None,
    ):
        self.unit = UnitRunner(client, interp, on_error, faults, output=output)
        self.client = client
        register = client.comm.metrics.register
        self.stats = register("worker", WorkerStats(), client.rank)
        self.watchdog_stats = WatchdogStats()
        self._watchdog = None
        if task_timeout is not None:
            register("worker.watchdog", self.watchdog_stats, client.rank)
            self._watchdog = _Watchdog(task_timeout, self._watchdog_fire)
        client.comm.metrics.sources[client.rank] = self.state

    def _watchdog_fire(self) -> None:
        """Expiry callback (watchdog thread): hand the overdue unit
        back as failed so the server can retry it elsewhere.

        Sent as a raw oneway — never through the reliable-RPC path,
        whose per-client sequence numbers belong to the main thread.
        The runner notices the abandonment at ``disarm`` and rolls the
        unit back; the interpreter is recycled by the serve loop.
        """
        self.watchdog_stats.fired += 1
        self.client.comm.send(
            {
                "op": C.OP_TASK_FAIL,
                "kind": "task",
                "error": "TaskTimeout: task exceeded %.3gs watchdog"
                % self._watchdog.timeout,
                "unit": self.client.place,
            },
            self.client.my_server,
            C.TAG_ONEWAY,
        )

    def state(self) -> dict:
        """What this worker holds right now (DESIGN.md, "Live state"):
        at quiescence no deferred refcount decrement and no unsent write
        — every task ends in a commit or a roll-back, and the units whose
        commit rides the next GET (counted in ``pending_writes``) left
        with it.  Plain reads and ``len()`` only."""
        return {
            "role": "worker",
            "rank": self.client.rank,
            "pending_refcounts": len(self.unit.held.deferred),
            "pending_writes": len(self.unit.held.writes) + len(self.client.riding),
            "tasks_run": self.stats.tasks_run,
            "abandoned": self.watchdog_stats.abandoned,
            "failures": len(self.unit.failures),
        }

    def serve(self) -> None:
        unit = self.unit
        wd = self._watchdog
        try:
            while True:
                bundle = self.client.get((WORK,))
                if bundle is None:
                    break
                # Each task is its own unit: one that fails or is
                # abandoned is handed back alone, and the rest still run.
                for place, (_, payload) in enumerate(bundle):
                    self.client.place = place
                    t0 = time.perf_counter()
                    if unit.run("task", payload, guard=wd):
                        self.stats.tasks_run += 1
                        self.stats.busy_time += time.perf_counter() - t0
                    elif wd is not None and wd.expired():
                        # Abandoned, not failed: the embedded interpreters
                        # are recycled in case the runaway task wedged them.
                        self.watchdog_stats.abandoned += 1
                        self._recycle_interp()
        finally:
            if wd is not None:
                wd.stop()

    def _recycle_interp(self) -> None:
        """Reset per-interpreter state a runaway task may have wedged:
        the persistent embedded Python/R sessions (``python_persist``
        globals survive tasks by design — a hung task's partial state
        must not leak into retries) and the interp's code cache (absent
        in oracle mode), whose bound copies carry its inline caches.
        The process-wide ``lru_cache``s stay: each maps a text to what
        it parses or compiles to (templates no interp writes to)."""
        self.watchdog_stats.recycled += 1
        interp = self.unit.interp
        for embedded in interp.embedded.values():
            embedded.reset()
        if interp.compile_enabled:
            interp._vm_code_cache.clear()
