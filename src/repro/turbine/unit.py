"""The unit-of-work boundary: run a Tcl fragment, then commit or roll back.

To ADLB a leaf task, a control task and a fired rule are the same
thing — a unit that is handed out, runs a Tcl fragment, and gives back
one termination-counter unit.  :class:`UnitRunner` is that boundary,
once, for the four kinds of unit Turbine runs (``task`` on a worker;
``rule``, ``ctask`` and the ``program`` on an engine); the engine and
the worker each hold one and keep only their own loops.

Everything a unit does to the rest of the run waits here, in one
:class:`Held`.  Its *writes* (creates, stores, inserts, container
references, writer-slot increments), the tasks it *spawns*, the rules
it *registers*, its refcount *decrements* and the lines it *prints*
(``printf`` / ``trace``, an embedded language's prints, Tcl ``puts``)
are held until its Tcl returns.  That is not an optimisation: an
attempt that will be retried (or, abandoned by the watchdog, already
is being) re-executes all of them, so a unit that raises or is
abandoned must leave nothing behind for them to happen exactly once.
A finished unit is one step: its lines become program output, then
one op list — the writes, a SUBSCRIBE per new rule input, the k
spawns, the decrements and one ``WORK`` of ``k + r - 1`` (its r rules
and k spawns counted, its own counter unit back) — is sent as one
OP_COMMIT per server, so a unit whose write or subscribe a server
rejects has counted nothing and spawned nothing, and its rules are
registered only once it landed.
"""

from __future__ import annotations

import time
import traceback
from typing import Any

from ..adlb import constants as C
from ..adlb.client import AdlbClient
from ..adlb.datastore import DataStore
from ..faults import InjectedFault, RankKilled, TaskError, TaskFailure, snippet
from ..mpi import AbortError, DeadlockError

#: kind -> (unit-id prefix, start marker, span when ok, span when it
#: raised, retryable).  Only units a server hands out under a lease can
#: be handed back for retry: a LOCAL rule mutates engine-local state
#: and the program's partial effects are live.  The program is not
#: dispatched by anything, so it has no start marker — and no fault
#: directive: injected faults land at dispatch boundaries.
KINDS = {
    "task": ("T", "task_start", "task_done", "task_fail", True),
    "rule": ("R", "rule_fire", "rule_fired", None, False),
    "ctask": ("C", "ctask", "ctask_done", "ctask_done", True),
    "program": ("P", None, "program", "program", False),
}


class Held:
    """What the running unit holds until its Tcl returns.  The
    ``turbine::*`` builtins write into these very tables, so none is
    ever rebound: :meth:`clear` empties them in place."""

    __slots__ = ("writes", "scratch", "spawns", "rules", "deferred", "printed")

    def __init__(self, rules: bool = True):
        # data-op dicts of its writes, in program order; ``scratch`` has
        # them applied to the TDs the unit created, so it can read those
        # before they exist on their servers
        self.writes: list[dict] = []
        self.scratch = DataStore()
        self.spawns: list[tuple] = []  # (type, action, priority, target, server)
        # Rule.spec dicts; None on a worker, which registers no rule
        self.rules: list[dict] | None = [] if rules else None
        self.deferred: dict[int, list[int]] = {}  # td id -> [read, write] deltas
        self.printed: list[str] = []

    def clear(self) -> None:
        """Forget all of it: the unit committed, or rolled back."""
        del self.writes[:], self.spawns[:], self.printed[:]
        if self.rules:
            del self.rules[:]
        self.deferred.clear()
        self.scratch.tds.clear()


class UnitRunner:
    """Runs units of work on one rank and owns their accounting.

    ``on_error`` is the policy for a unit that raises (:meth:`_fail`).
    ``faults`` is an optional :class:`repro.faults.FaultState`
    consulted before each dispatched unit; when ``None`` the check is
    one pointer test.  ``subscriptions`` and ``add_rules`` are the
    engine's :meth:`~repro.turbine.engine.Engine.subscriptions` and
    :meth:`~repro.turbine.engine.Engine.add_rules`, None on a worker.
    ``output`` is the run's :class:`~repro.turbine.runtime.Output`, the
    one place a printed line becomes program output; None drops them.
    """

    def __init__(
        self,
        client: AdlbClient,
        interp,
        on_error: str = "retry",
        faults: Any | None = None,
        subscriptions=None,
        add_rules=None,
        output=None,
    ):
        self.client = client
        self.interp = interp
        self.on_error = on_error
        self.faults = faults
        self.subscriptions = subscriptions
        self.add_rules = add_rules
        self.output = output
        # the rank's event ring / the same ring on traced runs, else None
        self.ring = client.ring
        self.tracer = client.tracer
        self.failures: list[TaskFailure] = []
        self.held = Held(add_rules is not None)
        # numbers task / control-task unit ids; counts retries too
        self._seq = 0
        # the running task's place in its bundle, which a failure report
        # names (a worker sets it; every other unit is alone)
        self.place = 0

    # -------------------------------------------------------------- the unit

    def run(
        self,
        kind: str,
        script: str,
        ident: int = 0,
        label: str = "",
        guard: Any | None = None,
    ) -> bool:
        """Run one unit.  True: it ran to completion and its commit
        landed (its rules registered).  False: it raised (its commit
        failing too), or was abandoned, and is settled.  ``ident`` /
        ``label`` are a rule's id and name; ``guard`` is the worker's
        task watchdog, armed around the eval and asked at the end
        whether the unit is still ours."""
        prefix, start, span, fail_span, retryable = KINDS[kind]
        client = self.client
        rank = client.rank
        directive = None
        if self.faults is not None and start is not None:
            directive = self.faults.on_task(rank, script)
            if directive is not None and directive[0] == "kill":
                # Not a unit failure: the whole rank dies holding its
                # lease; recovery is the server's job.
                raise RankKilled(rank, directive[1])
        unit = None
        if self.tracer is not None:
            # Stores, puts and rule creations inside the eval are
            # attributed to this unit id.
            if kind == "program":
                unit = "P%d" % rank
            else:
                if not ident:
                    self._seq += 1
                unit = "%s%d.%d" % (prefix, rank, ident or self._seq)
            client.prov_unit = unit
        # Fields the kind's events lead with (see obs.spine.KINDS).
        if kind == "rule":
            mark, head = ident, (ident, label)
        elif kind == "task":
            mark, head = len(script), (len(script), unit)
        else:
            mark, head = len(script), (unit,)
        if start is not None and self.ring is not None:
            self.ring.emit(start, mark)
        # A task's endings are level-0 events; the other spans level 1.
        sink = self.ring if kind == "task" else self.tracer
        t0 = time.perf_counter()
        if guard is not None:
            guard.arm()
        error = None
        try:
            try:
                if directive is not None:
                    if directive[0] == "raise":
                        raise InjectedFault(directive[1])
                    time.sleep(directive[1])
                if guard is None or not guard.expired():
                    # An expiry during the injected delay already handed the
                    # unit back; running it now would run it twice.
                    self.interp.eval(script)
            finally:
                abandoned = guard is not None and guard.disarm()
            if not abandoned:
                # One op list, in order: the writes, so the subscribes
                # find the TDs the unit created; the subscribes, so a
                # read decrement cannot free a TD under a new rule; the
                # copies into TDs those read, so a copy's store (not the
                # reply) wakes its rule however the leaves race; the
                # spawns; the decrements; the counter move, k + r - 1.
                # The master's commit goes last, so a write or subscribe
                # a server rejects fails the unit before it counts.
                held = self.held
                spawns, rules, writes, deferred = held.spawns, held.rules, held.writes, held.deferred
                ops = writes[:]
                if rules:
                    subs = self.subscriptions(rules)
                    read = {op["id"] for op in subs}
                    ops = sorted(writes + subs, key=lambda op: op.get("dst") in read)
                if spawns:
                    ops += client.tasks(spawns)
                for id, (r, w) in deferred.items():
                    ops.append({"op": C.OP_REFCOUNT, "id": id, "read_delta": r, "write_delta": w})
                ops += client.work(len(spawns) + len(rules or ()) - 1)
                if held.printed and self.output is not None:
                    # Before the commit, never after: its data parts land
                    # and wake readers before its master part does, and a
                    # unit they enable must not print first.  A commit a
                    # server rejects has printed all the same.
                    for line in held.printed:
                        self.output.emit(rank, line)
                closed = client.commit(ops)
                if rules:
                    self.add_rules(rules, closed)
                if deferred and self.ring is not None:
                    # Lineage: the batch belongs to the unit whose commit
                    # landed it (decrements can close TDs and fire
                    # downstream rules, so the edge matters causally).
                    tds = {"tds": sorted(deferred)} if self.tracer is not None else None
                    self.ring.emit("refcount_flush", len(deferred), unit, payload=tds)
                held.clear()
        except (AbortError, DeadlockError):
            # Transport-level failures are rank problems, not unit
            # failures: never retried or recorded, always fatal.
            raise
        except Exception as e:  # unit failure — the rank stays up
            error = e
        if abandoned:
            # Expired while the unit ran: it was already failed back to
            # the server (and is being retried elsewhere), so this
            # attempt's results are discarded — no counter decrement.
            self.held.clear()
            if sink is not None:
                sink.emit("task_abandon", *head, "TaskTimeout", t0=t0)
            return False
        if error is None:
            if sink is not None:
                sink.emit(span, *head, t0=t0)
            return True
        if fail_span is not None and sink is not None:
            # Failed attempts keep their span so grant instants stay
            # aligned 1:1 with unit spans on this rank.
            sink.emit(fail_span, *head, type(error).__name__, t0=t0)
        self._fail(kind, script, error, retryable)
        return False

    def _fail(self, kind: str, script: str, e: BaseException, retryable: bool) -> None:
        """The one error policy, per ``on_error``: ``retry`` hands a
        leased unit back via OP_TASK_FAIL, and the server requeues it or,
        out of ``max_retries``, surfaces it; ``continue`` records a
        :class:`TaskFailure`, gives the counter unit back poisoned and
        keeps serving; ``fail_fast`` (and a ``retry`` nothing can re-run)
        gives it back, then raises a :class:`TaskError`.  The unit is
        never leaked, so runs finish or abort deterministically."""
        error = "%s: %s" % (type(e).__name__, e)
        tb = "".join(traceback.format_exception(type(e), e, e.__traceback__))
        # A unit that raised leaves nothing behind, under every policy.
        self.held.clear()
        if retryable and self.on_error == "retry":
            self.client.task_fail(kind, error, tb, self.place)
            return
        failure = TaskFailure(
            rank=self.client.rank,
            kind=kind,
            payload=snippet(script),
            attempts=1,
            error=error,
            traceback=tb,
        )
        if self.on_error == "continue":
            self.failures.append(failure)
            # Poisoned: dataflow blocked on this unit's outputs will
            # never resolve; the master drains the run at quiescence.
            self.client.decr_work(poison=True)
            return
        self.client.decr_work()
        raise TaskError(failure) from e
