"""Live-monitoring status pushes (``--monitor``).

The master server holds the shared ``RunMonitor``; every server pushes
its status to it each interval — the master directly, the others as an
``SOP_STATUS`` message relayed through the master.
"""

from __future__ import annotations

import time
from typing import Any

from . import constants as C


class Status:
    def __init__(self, core: Any, monitor: Any | None, interval: float) -> None:
        self.core = core
        self.monitor = monitor
        self.interval = interval or 0.5
        self._next_push = 0.0
        core.ops[C.SOP_STATUS] = self.op_status

    def op_status(self, msg: dict, source: int) -> None:
        # Relayed status from a non-master server; drop it quietly
        # when not (or no longer) holding the monitor.
        if self.monitor is not None:
            self.monitor.update(msg["rank"], msg["status"])

    def tick(self) -> None:
        """Checked in the main loop (busy servers never go idle)."""
        if time.monotonic() >= self._next_push:
            self.push()

    def push(self) -> None:
        self._next_push = time.monotonic() + self.interval
        core = self.core
        status = self.snapshot()
        if self.monitor is not None:
            self.monitor.update(core.rank, status)
            return
        master = core.master_rank()
        dead = core.repl.dead_servers if core.repl is not None else ()
        if master != core.rank and master not in dead:
            core.comm.send(
                {"op": C.SOP_STATUS, "rank": core.rank, "status": status},
                master,
                C.TAG_SERVER,
            )

    def snapshot(self) -> dict:
        core = self.core
        status = {
            "matched": core.stats.tasks_matched,
            "queued": core.queue.size,
            "parked": len(core.parked),
            "clients": len(core.attached_clients),
        }
        if core.leases is not None:
            status["leases"] = len(core.leases.table)
        if core.repl is not None:
            status["repl_lag"] = core.repl.lag()
        if core.is_master:
            status["outstanding"] = max(0, core.work_count)
        return status
