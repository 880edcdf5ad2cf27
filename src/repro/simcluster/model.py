"""Discrete-event model of the Swift/T runtime at large scale.

This reproduces the *scaling shape* of the real system at rank counts a
single machine cannot host natively (the paper reports runs on "hundreds
of thousands of cores").  The model follows Fig. 2: engines emit leaf
tasks (serialized by a per-task emit overhead), ADLB servers process
protocol messages serially (GET/PUT/steal, each costing a service time),
and workers loop get -> execute -> get with network latency on every
message.  All protocol decisions (parked gets, round-robin attachment,
half-queue stealing) mirror :mod:`repro.adlb`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .des import Simulator


@dataclass
class ClusterParams:
    n_workers: int = 64
    n_servers: int = 1
    n_engines: int = 1
    net_latency: float = 2e-6  # one-way message latency (s)
    server_op_time: float = 1e-6  # server CPU per protocol message
    engine_emit_time: float = 5e-6  # engine CPU to release one task
    worker_overhead: float = 1e-6  # worker CPU around each task
    steal: bool = True
    steal_retry: float = 200e-6


@dataclass
class ClusterResult:
    params: ClusterParams
    n_tasks: int
    makespan: float
    tasks_per_sec: float
    worker_utilization: float
    worker_busy_spread: float  # max-min busy fraction across workers
    server_utilization: list[float] = field(default_factory=list)
    messages: int = 0
    steals: int = 0
    events: int = 0


class _Server:
    __slots__ = (
        "idx", "queue", "parked", "next_free", "busy", "steal_inflight",
        "ring",
    )

    def __init__(self, idx: int):
        self.idx = idx
        self.queue: deque[float] = deque()  # task durations
        self.parked: deque[int] = deque()  # worker ids
        self.next_free = 0.0
        self.busy = 0.0
        self.steal_inflight = False
        self.ring = 0


class ClusterModel:
    def __init__(self, params: ClusterParams, durations: np.ndarray):
        self.p = params
        self.durations = durations
        self.sim = Simulator()
        self.servers = [_Server(i) for i in range(params.n_servers)]
        self.worker_busy = np.zeros(params.n_workers)
        self.worker_server = [
            i % params.n_servers for i in range(params.n_workers)
        ]
        self.completed = 0
        self.n_tasks = len(durations)
        self.messages = 0
        self.steals = 0
        self.finish_time = 0.0
        self._emit_cursor = 0

    # -- server message serialization -------------------------------------

    def _server_process(self, server: _Server, fn, *args) -> None:
        """Model the server's serial CPU: queue the op, apply at done."""
        start = max(self.sim.now, server.next_free)
        done = start + self.p.server_op_time
        server.next_free = done
        server.busy += self.p.server_op_time
        self.sim.at(done, fn, server, *args)

    # -- engine ---------------------------------------------------------------

    def _engine_emit(self, engine_idx: int) -> None:
        if self._emit_cursor >= self.n_tasks:
            return
        duration = float(self.durations[self._emit_cursor])
        self._emit_cursor += 1
        # As in real ADLB, a PUT goes to the emitting client's attached
        # server; work reaches other servers only by stealing.
        server = self.servers[engine_idx % self.p.n_servers]
        # message flies to the server while the engine keeps emitting
        self.messages += 1
        self.sim.schedule(
            self.p.net_latency,
            self._server_process,
            server,
            self._on_put,
            duration,
        )
        self.sim.schedule(self.p.engine_emit_time, self._engine_emit, engine_idx)

    def _on_put(self, server: _Server, duration: float) -> None:
        if server.parked:
            worker = server.parked.popleft()
            self._deliver(worker, duration)
        else:
            server.queue.append(duration)

    # -- worker ------------------------------------------------------------------

    def _worker_get(self, worker: int) -> None:
        server = self.servers[self.worker_server[worker]]
        self.messages += 1
        self.sim.schedule(
            self.p.net_latency, self._server_process, server, self._on_get, worker
        )

    def _on_get(self, server: _Server, worker: int) -> None:
        if server.queue:
            duration = server.queue.popleft()
            self._deliver(worker, duration)
            return
        server.parked.append(worker)
        if self.p.steal and self.p.n_servers > 1:
            self._maybe_steal(server)

    def _deliver(self, worker: int, duration: float) -> None:
        self.messages += 1
        exec_time = duration + self.p.worker_overhead
        self.worker_busy[worker] += duration
        # reply latency + execution, then the task completes
        self.sim.schedule(
            self.p.net_latency + exec_time, self._task_done, worker
        )

    def _task_done(self, worker: int) -> None:
        self.completed += 1
        if self.completed >= self.n_tasks:
            self.finish_time = self.sim.now
        self._worker_get(worker)

    # -- stealing ----------------------------------------------------------------

    def _maybe_steal(self, server: _Server) -> None:
        if server.steal_inflight or self.completed >= self.n_tasks:
            return
        victims = [s for s in self.servers if s is not server]
        victim = victims[server.ring % len(victims)]
        server.ring += 1
        server.steal_inflight = True
        self.steals += 1
        self.messages += 2
        self.sim.schedule(
            self.p.net_latency,
            self._server_process,
            victim,
            self._on_steal_req,
            server,
        )

    def _on_steal_req(self, victim: _Server, thief: _Server) -> None:
        n = (len(victim.queue) + 1) // 2  # up to half the victim's queue
        batch = [victim.queue.popleft() for _ in range(n)]
        self.sim.schedule(
            self.p.net_latency,
            self._server_process,
            thief,
            self._on_steal_resp,
            batch,
        )

    def _on_steal_resp(self, thief: _Server, batch: list[float]) -> None:
        thief.steal_inflight = False
        for duration in batch:
            self._on_put(thief, duration)
        if not batch and thief.parked and self.completed < self.n_tasks:
            self.sim.schedule(self.p.steal_retry, self._maybe_steal, thief)

    # -- run -------------------------------------------------------------------------

    def run(self) -> ClusterResult:
        for e in range(self.p.n_engines):
            # engines interleave over the shared task list
            self.sim.schedule(0.0, self._engine_emit, e)
        for w in range(self.p.n_workers):
            self.sim.schedule(0.0, self._worker_get, w)
        self.sim.run()
        makespan = self.finish_time if self.finish_time > 0 else self.sim.now
        busy_frac = self.worker_busy / makespan if makespan > 0 else self.worker_busy
        return ClusterResult(
            params=self.p,
            n_tasks=self.n_tasks,
            makespan=makespan,
            tasks_per_sec=self.n_tasks / makespan if makespan > 0 else 0.0,
            worker_utilization=float(np.mean(busy_frac)),
            worker_busy_spread=float(np.max(busy_frac) - np.min(busy_frac))
            if len(busy_frac)
            else 0.0,
            server_utilization=[
                min(1.0, s.busy / makespan) if makespan > 0 else 0.0
                for s in self.servers
            ],
            messages=self.messages,
            steals=self.steals,
            events=self.sim.events_processed,
        )


def simulate(params: ClusterParams, durations: np.ndarray) -> ClusterResult:
    """Run one cluster simulation to completion."""
    return ClusterModel(params, durations).run()
