"""Rank layout: which ranks are servers, engines, and workers.

Following the paper's Fig. 2, the MPI job is split into engines (Swift
logic), ADLB servers, and workers.  As in real ADLB, servers occupy the
highest ranks.  Engines come first, workers in between.

:class:`Layout` is immutable — it names the *shards*: rank ``s`` of the
initial server set anchors the data-store slice ``id % n_servers == s -
first`` and the work attachments ``client % n_servers``.  When servers
can die (``replicate=True``), routing goes through a shared, mutable
:class:`ServerMap` layered on top: an epoch-stamped table mapping each
shard anchor to the rank currently serving it.  Server death promotes
the shard to the dead rank's buddy and bumps the epoch; clients resolve
through the map at send time and re-send in-flight requests when the
epoch moves under them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class Layout:
    size: int
    n_servers: int
    n_engines: int

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one ADLB server")
        if self.n_engines < 1:
            raise ValueError("need at least one engine")
        if self.n_workers < 1:
            raise ValueError(
                "layout (size=%d, servers=%d, engines=%d) leaves no workers"
                % (self.size, self.n_servers, self.n_engines)
            )

    # -- role partitions -----------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self.size - self.n_servers - self.n_engines

    @property
    def servers(self) -> list[int]:
        return list(range(self.size - self.n_servers, self.size))

    @property
    def engines(self) -> list[int]:
        return list(range(self.n_engines))

    @property
    def workers(self) -> list[int]:
        return list(range(self.n_engines, self.size - self.n_servers))

    @property
    def master_server(self) -> int:
        return self.size - self.n_servers

    def is_server(self, rank: int) -> bool:
        return rank >= self.size - self.n_servers

    def is_engine(self, rank: int) -> bool:
        return rank < self.n_engines

    def role(self, rank: int) -> str:
        if self.is_server(rank):
            return "server"
        if self.is_engine(rank):
            return "engine"
        return "worker"

    # -- attachments -----------------------------------------------------------

    def my_server(self, rank: int) -> int:
        """The server a client rank sends work requests to."""
        first = self.size - self.n_servers
        return first + rank % self.n_servers

    def home_server(self, td_id: int) -> int:
        """The server that owns a TD."""
        first = self.size - self.n_servers
        return first + td_id % self.n_servers


class ServerMap:
    """Epoch-stamped, mutable shard-routing table over a static Layout.

    One instance is shared by every rank of a world (the simulated
    ranks share an address space, so a mutation by the promoting server
    is immediately visible to clients — the in-process stand-in for
    ADLB's routing-update broadcast).  All reads are optimistic: a
    client snapshots ``epoch`` before sending and re-resolves when the
    epoch has moved, and servers reject requests for shards they do not
    own with a redirect reply, so a racy read is never worse than one
    extra round trip.
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self._lock = threading.Lock()
        #: bumped on every promotion; requests are stamped with it
        self.epoch = 0
        # shard anchor (initial server rank) -> rank currently serving it
        self._owner = {s: s for s in layout.servers}
        self._dead: set[int] = set()

    # -- resolution (hot path: one dict lookup over the static layout) -----

    def resolve(self, anchor: int) -> int:
        """The rank currently serving the shard anchored at ``anchor``."""
        return self._owner[anchor]

    def my_server(self, rank: int) -> int:
        return self._owner[self.layout.my_server(rank)]

    def home_server(self, td_id: int) -> int:
        return self._owner[self.layout.home_server(td_id)]

    @property
    def master(self) -> int:
        """The rank currently running the termination counter."""
        return self._owner[self.layout.master_server]

    @property
    def alive(self) -> list[int]:
        return [s for s in self.layout.servers if s not in self._dead]

    # -- failover ----------------------------------------------------------

    def buddy(self, rank: int) -> int | None:
        """The replication partner of ``rank``: the next live server in
        ring order — hence also the heir of its shards when it dies,
        computable by every survivor independently.  ``None`` when no
        other server is alive."""
        ring = self.layout.servers
        i = ring.index(rank)
        for step in range(1, len(ring)):
            cand = ring[(i + step) % len(ring)]
            if cand not in self._dead and cand != rank:
                return cand
        return None

    def mark_dead(self, rank: int) -> int | None:
        """Record a server death and re-home its shards to the successor.

        Idempotent; returns the successor rank (or ``None`` if this was
        the last live server).  The epoch bump is what in-flight
        clients observe."""
        with self._lock:
            if rank in self._dead:
                return None
            self._dead.add(rank)
            heir = self.buddy(rank)
            if heir is None:
                self.epoch += 1
                return None
            for anchor, owner in self._owner.items():
                if owner == rank:
                    self._owner[anchor] = heir
            self.epoch += 1
            return heir
