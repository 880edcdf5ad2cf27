"""Shutdown of a poisoned run (``on_error="continue"``, quarantine).

A permanently failed unit poisons the run: dataflow blocked on its
outputs can never resolve, so the termination counter will never reach
zero.  Once the system is quiescent — every client parked, nothing
queued/delayed/leased anywhere, counter stable — the remaining units
are unreachable and the master shuts the run down so it terminates.
Every server has one; it ticks only once the run is poisoned.
"""

from __future__ import annotations

from typing import Any

from . import constants as C


class Drain:
    def __init__(self, core: Any) -> None:
        self.core = core
        self._since: float | None = None
        self._count = 0
        self._probes_ok: set[int] = set()
        self._probing = False
        core.ops[C.SOP_DRAIN_PROBE] = self.op_probe
        core.ops[C.SOP_DRAIN_RESP] = self.op_resp

    def quiescent(self) -> bool:
        """Nothing on this server can make progress: every attached
        client is parked waiting for work, no work is queued, delayed,
        or leased out."""
        core = self.core
        return (
            len(core.parked) >= len(core.attached_clients)
            and core.queue.size == 0
            and not (core.leases.delayed or core.leases.table)
        )

    def tick(self) -> None:
        """Master side, once poisoned: observe quiescence, then confirm
        it with every peer before shutting down."""
        core = self.core
        if not (core.is_master and core.work_started and core.work_count > 0):
            return
        now = core.comm.now()
        if not self.quiescent():
            self._since = None
            self._probing = False
            return
        if self._since is None or self._count != core.work_count:
            self._since = now
            self._count = core.work_count
            self._probing = False
            return
        # Require the quiescent state to hold briefly so in-flight
        # oneway messages (puts, decrements) get a chance to land.
        if now - self._since < 0.1 or self._probing:
            return
        if not core.other_servers:
            self._shutdown()
            return
        self._probing = True
        self._probes_ok = set()
        for s in core.other_servers:
            core.comm.send({"op": C.SOP_DRAIN_PROBE}, s, C.TAG_SERVER)

    def op_probe(self, msg: dict, source: int) -> None:
        self.core.comm.send(
            {"op": C.SOP_DRAIN_RESP, "quiescent": self.quiescent()},
            source,
            C.TAG_SERVER,
        )

    def op_resp(self, msg: dict, source: int) -> None:
        if self._probing and msg["quiescent"]:
            self._probes_ok.add(source)
            if self._probes_ok >= set(self.core.other_servers):
                self._shutdown()
        elif self._probing:
            # Someone still has runnable work: disarm and re-observe.
            self._probing = False
            self._since = None

    def _shutdown(self) -> None:
        core = self.core
        if core.shutting_down:
            return
        if core.tracer is not None:
            core.tracer.emit("drain_shutdown", core.work_count)
        core.initiate_shutdown()
