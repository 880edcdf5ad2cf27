"""Baseline scheduler for the load-balancing comparison (LB experiment).

The paper (§II-A) argues that "the asynchronous, load-balanced Swift
model is an excellent fit" for compute-intensive functions with varying
runtimes.  The natural baseline is *static round-robin*: pre-assign
task i to worker ``i % W`` with no runtime balancing.  Both paths here
run over the same thread-backed MPI substrate so measured makespans are
directly comparable with the dynamic ADLB runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..mpi import Comm, barrier, run_world
from .client import AdlbClient
from .constants import WORK
from .layout import Layout
from .server import Server


@dataclass
class DispatchResult:
    makespan: float
    per_worker_busy: list[float] = field(default_factory=list)

    @property
    def imbalance(self) -> float:
        """max busy / mean busy - 1 (0 means perfectly balanced)."""
        busy = np.asarray(self.per_worker_busy)
        mean = float(busy.mean()) if busy.size else 0.0
        if mean == 0:
            return 0.0
        return float(busy.max()) / mean - 1.0


def run_static_round_robin(
    n_workers: int, task_fn: Callable[[int], None], n_tasks: int
) -> DispatchResult:
    """Execute tasks with static assignment: task i -> worker i % W."""
    busy = [0.0] * n_workers

    def main(comm: Comm) -> None:
        rank = comm.rank
        barrier(comm)
        t0 = time.perf_counter()
        for i in range(rank, n_tasks, comm.size):
            task_fn(i)
        busy[rank] = time.perf_counter() - t0
        barrier(comm)

    t0 = time.perf_counter()
    run_world(n_workers, main)
    return DispatchResult(
        makespan=time.perf_counter() - t0, per_worker_busy=busy
    )


def run_adlb_dynamic(
    n_workers: int,
    task_fn: Callable[[int], None],
    n_tasks: int,
    n_servers: int = 1,
) -> DispatchResult:
    """Execute the same tasks through the real ADLB server/worker path."""
    size = n_workers + n_servers + 1  # one "engine" rank submits the bag
    layout = Layout(size, n_servers, 1)
    busy = [0.0] * size

    def main(comm: Comm) -> None:
        rank = comm.rank
        if layout.is_server(rank):
            Server(comm, layout).run()
            return
        client = AdlbClient(comm, layout)
        if layout.is_engine(rank):
            client.incr_work()  # cover the submission phase
            for i in range(n_tasks):
                client.incr_work()
                client.put(i, type=WORK)
            client.decr_work()
            # engines idle: park for control tasks until shutdown
            client.park_async(("CONTROL",))
            while True:
                msg = client.recv_async()
                if msg[0] == "shutdown":
                    return
            return
        t_busy = 0.0
        while True:
            got = client.get((WORK,))
            if got is None:
                busy[rank] = t_busy
                return
            _, payload = got
            t0 = time.perf_counter()
            task_fn(payload)
            t_busy += time.perf_counter() - t0
            client.decr_work()

    t0 = time.perf_counter()
    run_world(size, main)
    makespan = time.perf_counter() - t0
    worker_busy = [busy[r] for r in layout.workers]
    return DispatchResult(makespan=makespan, per_worker_busy=worker_busy)
