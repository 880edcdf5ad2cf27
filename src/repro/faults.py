"""Fault injection and fault-tolerance primitives.

This module is the dependency-free core of the fault layer that spans
every runtime tier (see DESIGN.md "Failure model"):

* :class:`FaultPlan` — a seeded, declarative injection plan attached to
  :class:`repro.turbine.config.RuntimeConfig`.  It can kill a rank
  after its Nth task, make matching tasks raise or run slow, and delay
  or drop messages inside :mod:`repro.mpi.comm` — so every recovery
  path (leases, retries, dead-rank sweeps, deadlines) is testable and
  reproducible.
* :class:`FaultState` — the per-run instantiation of a plan: budgets,
  counters, and the seeded RNG.  One instance is shared by the MPI
  world and every worker/engine of a run, so a plan can be reused
  across runs without carrying state over.
* :class:`TaskFailure` / :class:`TaskError` — the failure record and
  the exception surfaced to users when a unit of work fails
  permanently.
* :class:`RankKilled` / :class:`InjectedFault` / :class:`DeadlineExceeded`
  — control-flow exceptions of the fault machinery.

Nothing here imports other repro modules; the MPI, ADLB, and Turbine
layers all hook into it without cycles.
"""

from __future__ import annotations

import random
import threading
from dataclasses import asdict, dataclass


def snippet(payload: object, limit: int = 200) -> str:
    """A bounded, single-object description of a task payload."""
    text = payload if isinstance(payload, str) else repr(payload)
    text = text.strip()
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


# --------------------------------------------------------------- failures


class BlackboxCarrier(RuntimeError):
    """Base of every exception that ends a run — :class:`TaskError`,
    :class:`DeadlineExceeded`, :class:`ServerLost`, :class:`EngineLost`
    and :class:`repro.mpi.RankFailure` — so a caller that reports failed
    runs (the CLI, the chaos runner) catches this one class.

    The launcher (and the Turbine runtime when it unwraps rank
    failures) stamps two attributes onto the surfaced exception:
    ``blackbox`` is the captured artifact dict (see
    :mod:`repro.obs.spine`) and ``blackbox_path`` the path it was
    written to, when the run configured a dump directory.  Both stay
    ``None`` on runs with the recorder disabled.
    """

    #: Flight-recorder black box captured at failure time (dict), or None.
    blackbox: dict | None = None
    #: Where the black box was written (``blackbox-*.json``), or None.
    blackbox_path: str | None = None


@dataclass
class TaskFailure:
    """Record of one failed unit of work.

    ``kind`` is ``task`` (worker leaf task), ``ctask`` (engine control
    task), ``rule`` (engine LOCAL rule action), or ``program`` (the
    initial engine program).  ``attempts`` counts executions, so a task
    that failed once without retries has ``attempts == 1``.
    """

    rank: int
    kind: str
    payload: str
    attempts: int
    error: str
    traceback: str = ""


class TaskError(BlackboxCarrier):
    """A unit of work failed permanently (fail-fast, or retries exhausted).

    Carries the :class:`TaskFailure`; the message embeds the original
    formatted traceback so the failure is debuggable from the message
    alone — this is the clean error users see instead of a rank crash.
    """

    def __init__(self, failure: TaskFailure):
        self.failure = failure
        msg = "%s failed on rank %d after %d attempt(s): %s" % (
            failure.kind,
            failure.rank,
            failure.attempts,
            failure.error,
        )
        if failure.traceback:
            msg += "\n" + failure.traceback.rstrip()
        if failure.payload:
            msg += "\npayload: %s" % failure.payload
        super().__init__(msg)


class InjectedFault(RuntimeError):
    """Raised inside a task by a :meth:`FaultPlan.fail_task` rule."""


class RankKilled(Exception):
    """A :meth:`FaultPlan.kill_rank` rule fired: the rank dies mid-task.

    Raised outside the task-failure handling so it is never treated as
    a task exception; the launcher-side wrapper turns it into a
    dead-rank notification to the ADLB servers (unless ``silent``, in
    which case recovery relies on the server lease sweep).
    """

    def __init__(self, rank: int, silent: bool = False):
        self.rank = rank
        self.silent = silent
        super().__init__(
            "rank %d killed by fault injection%s"
            % (rank, " (silent)" if silent else "")
        )


class DeadlineExceeded(BlackboxCarrier):
    """The run's wall-clock deadline expired before completion."""


class TaskTimeout(RuntimeError):
    """A per-task watchdog expired: the unit overran ``task_timeout``.

    Raised on the worker's watchdog thread, never inside the task
    itself; the overdue unit is *abandoned* (its lease is failed back
    to the server for retry) and the worker recycles its embedded
    interpreter state before taking new work, so a wedged interpreter
    cannot poison subsequent units.
    """


class ServerLost(BlackboxCarrier):
    """An ADLB server rank died and nothing held a replica of it.

    The dead server took its data-store shard, work queue, and (if it
    was the master) the termination counter with it, so the run cannot
    complete.  Raised by the surviving servers as a diagnostic instead
    of letting the run hang.  ``replicated`` is what the run's
    ``RuntimeConfig.resolve()`` said (it also decides when replication
    is on by default): only with it off is replication the remedy.
    """

    def __init__(
        self, rank: int, reason: str = "server died", replicated: bool = False
    ):
        self.rank = rank
        msg = "ADLB server rank %d lost (%s)" % (rank, reason)
        if replicated:
            msg += "; its data shard and queued work are gone."
        else:
            msg += (
                " and replication is disabled; its data shard and queued "
                "work are gone. Run with replicate=True on at least two "
                "servers to survive server death."
            )
        super().__init__(msg)


class EngineLost(BlackboxCarrier):
    """A Turbine engine rank died and its rule table could not be adopted.

    The dead engine took its pending dataflow rules with it, so the
    TDs those rules would have produced can never close and the run
    cannot complete.  Raised promptly as a diagnostic — by the dying
    rank itself for announced kills, or by the server lease sweep for
    silent ones — instead of letting the run hang until a recv
    timeout.  ``journaled`` is what the run's ``RuntimeConfig.resolve()``
    said (it also decides when journaling is on by default): only with
    it off are journal replay and engine adoption the remedy; with it
    on, ``reason`` says why adoption failed.
    """

    def __init__(
        self,
        rank: int,
        reason: str = "engine died",
        rules_pending: int | None = None,
        units_registered: int | None = None,
        journaled: bool = False,
    ):
        self.rank = rank
        self.rules_pending = rules_pending
        self.units_registered = units_registered
        detail = ""
        if rules_pending is not None:
            detail = " It held %d pending rule(s)" % rules_pending
            if units_registered is not None:
                detail += " across %d registered unit(s) of work" % (
                    units_registered
                )
            detail += "."
        msg = "Turbine engine rank %d lost (%s)" % (rank, reason)
        if journaled:
            msg += "; its pending dataflow rules are gone.%s" % detail
        else:
            msg += (
                " and rule-table journaling is disabled; its pending "
                "dataflow rules are gone.%s Run with journal=True on at "
                "least two engines to survive engine death." % detail
            )
        super().__init__(msg)


@dataclass
class QuarantinedTask:
    """Record of a unit quarantined as poisonous to its host ranks.

    A unit is quarantined when its lease attempts are exhausted by
    *rank deaths* (``RankKilled`` announcements or lease expiry) rather
    than by task exceptions: re-queueing it again would keep killing
    ranks.  ``chain`` records each failed attempt as ``(rank, reason)``
    in order.  Surfaced on ``RunResult.quarantined``.
    """

    uid: str
    kind: str
    payload: str
    attempts: int
    chain: tuple = ()


# --------------------------------------------------------------- the plan


@dataclass
class _KillRule:
    rank: int
    after_tasks: int
    silent: bool


@dataclass
class _PoisonRule:
    match: str
    times: int | None
    silent: bool


@dataclass
class _TaskRule:
    kind: str  # "raise" | "slow"
    match: str
    rank: int | None
    times: int | None
    delay: float
    message: str


@dataclass
class _MsgRule:
    kind: str  # "drop" | "delay"
    src: int | None
    dest: int | None
    tag: int | None
    times: int | None
    probability: float | None
    delay: float


class FaultPlan:
    """A deterministic, seeded fault-injection plan.

    Builder methods return ``self`` so plans chain::

        plan = (FaultPlan(seed=7)
                .kill_rank(2, after_tasks=1)
                .fail_task("emit 3", times=1)
                .delay_messages(probability=0.1, delay=0.005))

    Attach with ``RuntimeConfig(faults=plan)`` (or
    ``swift_run(..., faults=plan)``).  Rules with a ``probability``
    draw from a ``random.Random(seed)`` owned by the run's
    :class:`FaultState`; count-based rules are fully deterministic.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.kills: list[_KillRule] = []
        self.poison_rules: list[_PoisonRule] = []
        self.task_rules: list[_TaskRule] = []
        self.msg_rules: list[_MsgRule] = []

    def __repr__(self) -> str:
        return (
            "FaultPlan(seed=%d, kills=%d, poison=%d, task_rules=%d, "
            "msg_rules=%d)"
            % (
                self.seed,
                len(self.kills),
                len(self.poison_rules),
                len(self.task_rules),
                len(self.msg_rules),
            )
        )

    def kill_rank(
        self, rank: int, after_tasks: int = 0, silent: bool = False
    ) -> "FaultPlan":
        """Kill ``rank`` when it reaches its ``after_tasks + 1``-th unit.

        What counts as a unit depends on the rank's role, and each is a
        fail-stop boundary so the kill is deterministic per seed across
        both Tcl execution paths (the VM and the interpreted oracle,
        ``Interp(compile_enabled=False)``):

        * **workers** — leased work units received; the rank dies
          holding the lease, exercising requeue.
        * **engines** — rule-action hooks: every rule *fire* (LOCAL
          eval or WORK/CONTROL release) and every control task
          received.  Rule-count order is fixed by the dataflow, not by
          interpreter internals, so ``after_tasks=`` picks the same
          boundary under either Tcl path.
        * **servers** — dispatched messages; the server dies between
          receives, never mid-mutation.

        ``silent=True`` suppresses the launcher's dead-rank
        notification so recovery must come from the lease sweep.
        """
        self.kills.append(_KillRule(rank, after_tasks, silent))
        return self

    def poison_task(
        self, match: str, times: int | None = None, silent: bool = False
    ) -> "FaultPlan":
        """Kill whichever rank executes a task whose payload has ``match``.

        Unlike :meth:`kill_rank` this follows the *task*: every rank
        that picks the unit up dies, modelling a poisonous input that
        crashes its host.  With leases enabled the unit is re-queued
        until its attempts are exhausted by rank deaths, at which point
        the server quarantines it (``RunResult.quarantined``) instead
        of respawn-looping.  ``times`` bounds how many executions kill
        (``None`` = every one).
        """
        self.poison_rules.append(_PoisonRule(match, times, silent))
        return self

    def fail_task(
        self,
        match: str,
        times: int | None = 1,
        rank: int | None = None,
        message: str = "injected task fault",
    ) -> "FaultPlan":
        """Make tasks whose payload contains ``match`` raise InjectedFault.

        ``times`` bounds how many executions fail (``None`` = every
        one); with retries enabled, ``times=1`` models a transient
        fault that succeeds on re-execution.
        """
        self.task_rules.append(
            _TaskRule("raise", match, rank, times, 0.0, message)
        )
        return self

    def slow_task(
        self,
        match: str,
        delay: float = 0.05,
        times: int | None = 1,
        rank: int | None = None,
    ) -> "FaultPlan":
        """Sleep ``delay`` seconds before matching tasks execute."""
        self.task_rules.append(_TaskRule("slow", match, rank, times, delay, ""))
        return self

    def drop_messages(
        self,
        src: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        times: int | None = 1,
        probability: float | None = None,
    ) -> "FaultPlan":
        """Silently drop matching sends (``None`` filters match anything)."""
        self.msg_rules.append(
            _MsgRule("drop", src, dest, tag, times, probability, 0.0)
        )
        return self

    def delay_messages(
        self,
        delay: float = 0.01,
        src: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        times: int | None = None,
        probability: float | None = None,
    ) -> "FaultPlan":
        """Sleep the sender ``delay`` seconds before matching sends."""
        self.msg_rules.append(
            _MsgRule("delay", src, dest, tag, times, probability, delay)
        )
        return self

    # ------------------------------------------------------- serialization

    def rule_count(self) -> int:
        """Total number of rules across every category."""
        return (
            len(self.kills)
            + len(self.poison_rules)
            + len(self.task_rules)
            + len(self.msg_rules)
        )

    def to_dict(self) -> dict:
        """A JSON-serializable image of the plan.

        The inverse of :meth:`from_dict`; every rule keeps its dataclass
        field names, so shrunk chaos repros (``repro chaos``) round-trip
        through ``repro run --fault-plan plan.json`` unchanged.
        """
        return {
            "seed": self.seed,
            "kills": [asdict(r) for r in self.kills],
            "poison_rules": [asdict(r) for r in self.poison_rules],
            "task_rules": [asdict(r) for r in self.task_rules],
            "msg_rules": [asdict(r) for r in self.msg_rules],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict`.

        Unknown rule fields are rejected (``TypeError``) rather than
        silently dropped, so a stale repro artifact fails loudly.
        """
        plan = cls(seed=int(data.get("seed", 0)))
        plan.kills = [_KillRule(**r) for r in data.get("kills", [])]
        plan.poison_rules = [
            _PoisonRule(**r) for r in data.get("poison_rules", [])
        ]
        plan.task_rules = [_TaskRule(**r) for r in data.get("task_rules", [])]
        plan.msg_rules = [_MsgRule(**r) for r in data.get("msg_rules", [])]
        return plan


# --------------------------------------------------------------- run state


@dataclass
class FaultStats:
    """Injection counters, folded into metrics as ``fault.*``."""

    kills: int = 0
    task_errors: int = 0
    slow_tasks: int = 0
    dropped_msgs: int = 0
    delayed_msgs: int = 0


class FaultState:
    """One run's view of a :class:`FaultPlan`: budgets, counters, RNG.

    Thread-safe; the hooks are only reached when a plan is attached, so
    the faults-off fast path stays a single ``is None`` test at every
    call site.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = FaultStats()
        self._lock = threading.Lock()
        self._rng = random.Random(plan.seed)
        self._tasks_seen: dict[int, int] = {}
        self._server_ops_seen: dict[int, int] = {}
        self._kill_done = [False] * len(plan.kills)
        self._poison_budget = [r.times for r in plan.poison_rules]
        self._task_budget = [r.times for r in plan.task_rules]
        self._msg_budget = [r.times for r in plan.msg_rules]

    def on_task(
        self, rank: int, payload: object, kill_only: bool = False
    ) -> tuple | None:
        """Directive for the next unit of work on ``rank``.

        Returns ``None`` (run normally), ``("kill", silent)``,
        ``("raise", message)``, or ``("sleep", delay)``.
        ``kill_only=True`` is the engine's *release* hook: the unit
        counts toward ``kill_rank(after_tasks=...)`` (a release is a
        rule fire), but poison/fail/slow rules are skipped — those
        apply where the task payload actually executes.
        """
        plan = self.plan
        with self._lock:
            n = self._tasks_seen.get(rank, 0) + 1
            self._tasks_seen[rank] = n
            for i, kill in enumerate(plan.kills):
                if kill.rank == rank and not self._kill_done[i] and n > kill.after_tasks:
                    self._kill_done[i] = True
                    self.stats.kills += 1
                    return ("kill", kill.silent)
            if kill_only:
                return None
            if not plan.task_rules and not plan.poison_rules:
                return None
            text = payload if isinstance(payload, str) else repr(payload)
            for i, rule in enumerate(plan.poison_rules):
                budget = self._poison_budget[i]
                if budget is not None and budget <= 0:
                    continue
                if rule.match not in text:
                    continue
                if budget is not None:
                    self._poison_budget[i] = budget - 1
                self.stats.kills += 1
                return ("kill", rule.silent)
            if not plan.task_rules:
                return None
            for i, rule in enumerate(plan.task_rules):
                if rule.rank is not None and rule.rank != rank:
                    continue
                budget = self._task_budget[i]
                if budget is not None and budget <= 0:
                    continue
                if rule.match not in text:
                    continue
                if budget is not None:
                    self._task_budget[i] = budget - 1
                if rule.kind == "raise":
                    self.stats.task_errors += 1
                    return ("raise", rule.message)
                self.stats.slow_tasks += 1
                return ("sleep", rule.delay)
        return None

    def on_server_op(self, rank: int) -> tuple | None:
        """Directive for the next dispatched message on server ``rank``.

        Server ranks run no tasks, so :meth:`FaultPlan.kill_rank`'s
        ``after_tasks`` counts *dispatches* for them: the server dies at
        a message boundary, never mid-mutation — fail-stop, matching a
        process crash between MPI receives.  Returns ``None`` or
        ``("kill", silent)``.
        """
        plan = self.plan
        if not plan.kills:
            return None
        with self._lock:
            n = self._server_ops_seen.get(rank, 0) + 1
            self._server_ops_seen[rank] = n
            for i, kill in enumerate(plan.kills):
                if (
                    kill.rank == rank
                    and not self._kill_done[i]
                    and n > kill.after_tasks
                ):
                    self._kill_done[i] = True
                    self.stats.kills += 1
                    return ("kill", kill.silent)
        return None

    def on_send(self, src: int, dest: int, tag: int) -> tuple | None:
        """Directive for one message send.

        Returns ``None`` (deliver), ``("drop", 0.0)``, or
        ``("sleep", delay)`` (deliver after delaying the sender).
        """
        plan = self.plan
        if not plan.msg_rules:
            return None
        with self._lock:
            for i, rule in enumerate(plan.msg_rules):
                if rule.src is not None and rule.src != src:
                    continue
                if rule.dest is not None and rule.dest != dest:
                    continue
                if rule.tag is not None and rule.tag != tag:
                    continue
                budget = self._msg_budget[i]
                if budget is not None and budget <= 0:
                    continue
                if rule.probability is not None and self._rng.random() >= rule.probability:
                    continue
                if budget is not None:
                    self._msg_budget[i] = budget - 1
                if rule.kind == "drop":
                    self.stats.dropped_msgs += 1
                    return ("drop", 0.0)
                self.stats.delayed_msgs += 1
                return ("sleep", rule.delay)
        return None
