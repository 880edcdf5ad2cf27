"""Work queues for one ADLB server.

Tasks are matched by type, priority (higher first, FIFO within a
priority), and optional target rank.  Communication-free so the
matching invariants can be property-tested.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Task:
    type: str
    payload: Any
    priority: int = 0
    target: int = -1  # -1 means any rank
    # the TDs its WORK rule waited on: a grant carries the closed ones
    inputs: tuple = ()
    attempts: int = 0  # executions so far (>0 only for lease requeues)
    uid: int = -1  # stable identity across requeues/replication (-1: none)
    prov: str | None = None  # spawning rule/unit id (traced runs only)
    chain: tuple = ()  # (rank, reason) per host-rank death this unit caused


class WorkQueue:
    def __init__(self) -> None:
        self._seq = itertools.count()
        # type -> heap of (-priority, seq, Task)
        self._untargeted: dict[str, list[tuple[int, int, Task]]] = {}
        # (type, rank) -> heap
        self._targeted: dict[tuple[str, int], list[tuple[int, int, Task]]] = {}
        self.size = 0

    def push(self, task: Task) -> None:
        entry = (-task.priority, next(self._seq), task)
        if task.target >= 0:
            heapq.heappush(
                self._targeted.setdefault((task.type, task.target), []), entry
            )
        else:
            heapq.heappush(self._untargeted.setdefault(task.type, []), entry)
        self.size += 1

    def pop(self, types: tuple[str, ...], rank: int) -> Task | None:
        """Best task of any of the given types for this rank.

        Targeted tasks win over untargeted tasks of equal priority,
        matching ADLB semantics.
        """
        best_key: tuple[int, int] | None = None
        best_src: tuple[bool, Any] | None = None
        for t in types:
            heap = self._targeted.get((t, rank))
            if heap:
                key = heap[0][:2]
                if best_key is None or key < best_key:
                    best_key, best_src = key, (True, (t, rank))
            heap = self._untargeted.get(t)
            if heap:
                key = heap[0][:2]
                if best_key is None or key < best_key:
                    best_key, best_src = key, (False, t)
        if best_src is None:
            return None
        targeted, k = best_src
        heap = self._targeted[k] if targeted else self._untargeted[k]
        _, _, task = heapq.heappop(heap)
        self.size -= 1
        return task

    def matching(self, types: tuple[str, ...], rank: int) -> int:
        """How many queued tasks :meth:`pop` could hand this rank."""
        n = 0
        for t in types:
            n += len(self._untargeted.get(t, ())) + len(self._targeted.get((t, rank), ()))
        return n

    def steal(self, types: list[str]) -> list[Task]:
        """Remove half (at least one) of the *untargeted* tasks of
        ``types`` for another server, whose parked GETs ask for them.

        Targeted tasks must stay on the server that owns the target's
        attachment, so only untargeted work migrates.
        """
        heaps = [self._untargeted[t] for t in types if self._untargeted.get(t)]
        max_count = max(1, sum(map(len, heaps)) // 2)
        out: list[Task] = []
        for heap in heaps:
            while heap and len(out) < max_count:
                _, _, task = heapq.heappop(heap)
                out.append(task)
                self.size -= 1
            if len(out) >= max_count:
                break
        return out

    def remove_targeted(self, rank: int) -> list[Task]:
        """Remove every task targeted at ``rank`` (it died); caller
        decides whether to retarget or drop them."""
        out: list[Task] = []
        for key in [k for k in self._targeted if k[1] == rank]:
            heap = self._targeted.pop(key)
            for _, _, task in heap:
                out.append(task)
                self.size -= 1
        return out

    def all_tasks(self) -> list[Task]:
        """Every queued task (targeted and untargeted), unordered.

        Used for resilvering a replica and for checkpoint snapshots;
        the queue itself is not mutated."""
        out: list[Task] = []
        for heap in self._untargeted.values():
            out.extend(task for _, _, task in heap)
        for heap in self._targeted.values():
            out.extend(task for _, _, task in heap)
        return out
