"""A thread-backed MPI-like message-passing substrate.

The real Swift/T runs as an MPI program on Blue Gene/Q or Cray XE6; no
MPI library or cluster is available here, so this package provides the
same programming model — ranks, communicators, blocking and polling
point-to-point messages with tags, and collectives — with each rank
hosted on a Python thread inside one process.  The ADLB and Turbine
layers are written against :class:`Comm` exactly as they would be
against ``MPI_Comm``: its public names (messages, the clock, the
counter table, the event ring) are all a rank asks of the world.

Use :func:`run_world` as the ``mpiexec`` analog.
"""

from .collectives import allgather, allreduce, barrier, bcast, gather, reduce, scatter
from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    AbortError,
    Comm,
    CommStats,
    DeadlockError,
    Status,
    World,
)
from .launcher import RankFailure, run_world

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "World",
    "Status",
    "CommStats",
    "AbortError",
    "DeadlockError",
    "RankFailure",
    "run_world",
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "reduce",
    "allreduce",
]
