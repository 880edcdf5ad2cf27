"""The ``mpiexec`` analog: run a rank program on N thread-backed ranks."""

from __future__ import annotations

import sys
import threading
import time
import traceback
from typing import Any, Callable, Sequence

from ..faults import BlackboxCarrier, DeadlineExceeded
from .comm import AbortError, Comm, World


def _format_exception(e: BaseException) -> str:
    return "".join(traceback.format_exception(type(e), e, e.__traceback__))


def _indent(text: str, prefix: str = "    ") -> str:
    return "".join(prefix + line for line in text.splitlines(keepends=True))


def _rank_label(rank: int, rank_labels: Sequence[str] | None) -> str:
    if rank_labels is not None and 0 <= rank < len(rank_labels):
        return "rank %d (%s)" % (rank, rank_labels[rank])
    return "rank %d" % rank


def _thread_stack(thread: threading.Thread) -> str:
    """The current Python stack of a live thread (for stuck-rank reports)."""
    frame = sys._current_frames().get(thread.ident)
    if frame is None:
        return "<thread already exited>\n"
    return "".join(traceback.format_stack(frame))


class RankFailure(BlackboxCarrier):
    """One or more ranks raised; carries (rank, exception) pairs.

    The message names every failed rank (with its role when the
    launcher was given ``rank_labels``) and attaches each failure's
    formatted traceback, so a run is debuggable from the message alone.
    When the run kept a recorder, ``blackbox`` holds the captured
    black-box dict (see :mod:`repro.obs.spine`).
    """

    def __init__(
        self,
        failures: list[tuple[int, BaseException]],
        rank_labels: Sequence[str] | None = None,
    ):
        self.failures = failures
        summary = "; ".join(
            "%s: %s: %s" % (_rank_label(r, rank_labels), type(e).__name__, e)
            for r, e in failures
        )
        details = "\n".join(
            "%s:\n%s" % (_rank_label(r, rank_labels), _indent(_format_exception(e)))
            for r, e in failures
        )
        super().__init__(summary + "\n" + details)


def _capture_blackbox(
    world: World,
    threads: Sequence[threading.Thread],
    rank_labels: Sequence[str] | None,
    reason: str,
    detail: str,
    failed_ranks: Sequence[int],
) -> dict | None:
    """Snapshot the recorder's rings plus live-rank stacks and every
    registered rank's state line at the moment of failure."""
    recorder = world.recorder
    if recorder is None:
        return None
    stacks = {
        r: _thread_stack(t) for r, t in enumerate(threads) if t.is_alive()
    }
    return recorder.blackbox(
        world.size,
        reason=reason,
        detail=detail,
        roles=list(rank_labels) if rank_labels is not None else None,
        stacks=stacks,
        diagnostics=world.metrics.state_lines(),
        failed_ranks=list(failed_ranks),
    )


def run_world(
    size: int,
    main: Callable[[Comm], Any],
    recv_timeout: float | None = 120.0,
    join_timeout: float | None = 300.0,
    recorder: Any | None = None,
    faults: Any | None = None,
    rank_labels: Sequence[str] | None = None,
    deadline: float | None = None,
    shutdown_grace: float = 10.0,
    metrics: Any | None = None,
) -> list[Any]:
    """Launch ``main(comm)`` on ``size`` ranks; return per-rank results.

    Equivalent of ``mpiexec -n size python program.py``.  If any rank
    raises, the world is aborted (waking blocked receivers) and a
    :class:`RankFailure` summarizing all failures is raised.

    ``recorder`` (a :class:`repro.obs.Recorder`) keeps the per-rank
    event rings: on any failure raised here the rings, stuck-rank
    stacks, and the ranks' state lines are snapshotted onto the
    exception as its ``blackbox`` attribute.  ``metrics`` is the run's
    counter table (see :class:`World`).  ``faults`` (a
    :class:`repro.faults.FaultState`) enables message-level fault
    injection.  ``rank_labels`` names each rank's role in
    failure reports.  ``deadline`` is a wall-clock limit for the whole
    run: on expiry the world is aborted — an orderly shutdown that
    wakes every blocked receiver — and :class:`DeadlineExceeded` is
    raised naming any rank that failed to unwind within
    ``shutdown_grace`` seconds.
    """
    world = World(
        size,
        recv_timeout=recv_timeout,
        recorder=recorder,
        faults=faults,
        metrics=metrics,
    )
    results: list[Any] = [None] * size
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = world.comm(rank)
        try:
            results[rank] = main(comm)
        except BaseException as e:  # noqa: BLE001 - report any rank failure
            with failures_lock:
                failures.append((rank, e))
            world.abort(e)

    threads = [
        threading.Thread(target=runner, args=(r,), name="rank-%d" % r, daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()

    deadline_at = None if deadline is None else time.monotonic() + deadline
    deadline_hit = False
    for t in threads:
        budget = join_timeout
        if deadline_at is not None:
            remaining = max(0.0, deadline_at - time.monotonic())
            budget = remaining if budget is None else min(budget, remaining)
        t.join(timeout=budget)
        if t.is_alive():
            if deadline_at is not None and time.monotonic() >= deadline_at:
                deadline_hit = True
                world.abort(
                    DeadlineExceeded(
                        "wall-clock deadline of %.1fs exceeded" % deadline
                    )
                )
            else:
                world.abort(TimeoutError("rank thread did not finish"))
            break
    # Orderly unwind: aborted ranks wake out of blocking recvs/barriers
    # and exit; give them a bounded grace period.
    for t in threads:
        t.join(timeout=shutdown_grace)
    stuck = [r for r, t in enumerate(threads) if t.is_alive()]

    with failures_lock:
        recorded = sorted(failures, key=lambda p: p[0])
    # Suppress secondary AbortErrors triggered by the primary failure.
    primary = [p for p in recorded if not isinstance(p[1], AbortError)]

    if deadline_hit and not primary:
        if stuck:
            detail = "still-stuck ranks after %.1fs grace:\n%s" % (
                shutdown_grace,
                "\n".join(
                    "%s:\n%s"
                    % (_rank_label(r, rank_labels), _indent(_thread_stack(threads[r])))
                    for r in stuck
                ),
            )
        else:
            detail = "all ranks unwound cleanly after the abort"
        exc: BaseException = DeadlineExceeded(
            "run exceeded its %.1fs deadline and was shut down; %s"
            % (deadline, detail)
        )
        exc.blackbox = _capture_blackbox(
            world, threads, rank_labels, "DeadlineExceeded", str(exc), stuck
        )
        raise exc
    if stuck:
        # The join timed out and the grace period did not reap the
        # threads: report exactly which ranks are stuck and where.
        entries: list[tuple[int, BaseException]] = []
        for r in stuck:
            entries.append(
                (
                    r,
                    TimeoutError(
                        "%s did not finish (join_timeout=%s); current stack:\n%s"
                        % (
                            _rank_label(r, rank_labels),
                            join_timeout,
                            _thread_stack(threads[r]),
                        )
                    ),
                )
            )
        all_failures = sorted(primary + entries, key=lambda p: p[0])
        exc = RankFailure(all_failures, rank_labels)
        exc.blackbox = _capture_blackbox(
            world,
            threads,
            rank_labels,
            "RankFailure",
            str(exc).splitlines()[0],
            [r for r, _ in all_failures],
        )
        raise exc
    if recorded:
        blamed = primary or recorded
        exc = RankFailure(blamed, rank_labels)
        exc.blackbox = _capture_blackbox(
            world,
            threads,
            rank_labels,
            type(blamed[0][1]).__name__,
            str(exc).splitlines()[0],
            [r for r, _ in blamed],
        )
        raise exc
    return results
