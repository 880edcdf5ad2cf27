"""The unit-of-work boundary (``repro.turbine.unit``).

One table for every kind of unit — worker task, fired rule, control
task, program — pins the accounting each ending owes, and two
whole-stack runs show why a unit's refcount decrements are deferred to
its commit rather than applied where the Tcl calls them.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import TaskError
from repro.mpi import AbortError, DeadlockError
from repro.obs.spine import Ring
from repro.turbine import RuntimeConfig, run_turbine_program
from repro.turbine.unit import KINDS, UnitRunner

RANK = 3


class FakeClient:
    """Records the accounting calls a runner makes, in order."""

    rank = RANK
    prov_unit = None

    def __init__(self, ring=None):
        self.ring = self.tracer = ring
        self.calls: list = []

    def decr_work(self, amount=1, poison=False):
        self.calls.append("decr_work(poison)" if poison else "decr_work")

    def task_fail(self, kind, error, traceback_text=""):
        self.calls.append("task_fail")
        self.handed_back = (kind, error)

    def refcount_batch(self, deltas):
        self.calls.append(("refcount_batch", deltas))

    def incr_work(self, amount=1):
        self.calls.append(("incr_work", amount))

    def put_all(self, tasks):
        self.calls.append(("put_all", list(tasks)))


class FakeInterp:
    def __init__(self, raises=None):
        self.raises = raises

    def eval(self, script):
        if self.raises is not None:
            raise self.raises


def make(on_error, raises=None, ring=None):
    client = FakeClient(ring)
    # the engine's add_rules, recorded in the same call list
    unit = UnitRunner(
        client,
        FakeInterp(raises),
        on_error,
        add_rules=lambda specs: client.calls.append(("add_rules", list(specs))),
    )
    # A decrement the unit performed before it ended.
    unit.deferred[11] = [0, -1]
    return unit, client


def run(unit, kind):
    """Only a rule brings its own id (and name); the rest are numbered."""
    if kind == "rule":
        return unit.run(kind, "leaf", ident=7, label="name")
    return unit.run(kind, "leaf")


LANDED = ("refcount_batch", {11: [0, -1]})
# a held input-free rule, as turbine::rule records it
RULE = dict(inputs=[], action="leaf", type="LOCAL", target=-1, priority=0, name="")
POLICIES = ("retry", "continue", "fail_fast")


class TestOneTableEveryKind:
    @pytest.mark.parametrize("on_error", POLICIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_success_owes_exactly_one_commit(self, kind, on_error):
        unit, client = make(on_error)
        assert run(unit, kind) is True
        # Nothing is accounted until the caller commits (the engine
        # drains and re-parks in between).
        assert client.calls == [] and unit.deferred
        unit.commit()
        assert client.calls == [LANDED, "decr_work"]
        assert not unit.deferred and not unit.failures

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_finished_unit_sends_its_spawns_as_one_put(self, kind):
        unit, client = make("retry")
        spawns = [("WORK", "leafA", 0, -1), ("CONTROL", "ctaskB", 1, -1)]
        unit.held.extend(spawns)
        assert run(unit, kind) is True
        # before the commit, which the caller makes
        assert client.calls == [("incr_work", 2), ("put_all", spawns)]
        assert unit.held == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_held_rules_are_registered_before_the_put(self, kind):
        unit, client = make("retry")
        spawns = [("WORK", "leafA", 0, -1)]
        rules = [RULE, dict(RULE, type="WORK")]
        unit.held.extend(spawns)
        unit.rules.extend(rules)
        assert run(unit, kind) is True
        # one increment covers both: the rules' units and the spawns'
        assert client.calls == [("incr_work", 3), ("add_rules", rules), ("put_all", spawns)]
        assert unit.held == [] and unit.rules == []

    @pytest.mark.parametrize("on_error", POLICIES)
    def test_a_failed_unit_drops_the_spawns_it_held(self, on_error):
        # ... and the rules: the next unit that finishes must not send or
        # register them
        unit, client = make(on_error, RecursionError("deep"))
        unit.held.append(("WORK", "leafA", 0, -1))
        unit.rules.append(RULE)
        try:
            run(unit, "ctask")
        except TaskError:
            pass
        assert unit.held == [] and unit.rules == []
        assert not any(call[0] in ("incr_work", "add_rules") for call in client.calls)
        unit.held.append(("WORK", "leafA", 0, -1))
        unit.rules.append(RULE)
        unit.roll_back()
        assert unit.held == [] and unit.rules == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_retry_hands_a_leased_unit_back_and_drops_its_decrements(self, kind):
        unit, client = make("retry", ValueError("boom"))
        if KINDS[kind][4]:
            # Always: the server's max_retries decides, even when it is 0.
            assert run(unit, kind) is False
            assert client.calls == ["task_fail"]
        else:
            # Not handed out under a lease: nothing can re-run it.
            with pytest.raises(TaskError, match="boom") as info:
                run(unit, kind)
            assert client.calls == [LANDED, "decr_work"]
            assert (info.value.failure.kind, info.value.failure.rank) == (kind, RANK)
        assert not unit.deferred and not unit.failures

    @pytest.mark.parametrize("kind", KINDS)
    def test_retry_without_leases_gives_up_at_once(self, kind):
        unit, client = make("retry", ValueError("boom"))
        if KINDS[kind][4]:
            # Every task and control task is leased: the runner never
            # gives up on its own, it hands the unit back with the error
            # the server surfaces when max_retries (even 0) is used up.
            assert run(unit, kind) is False
            assert client.calls == ["task_fail"]
            assert client.handed_back == (kind, "ValueError: boom")
        else:
            # a rule or the program: no server holds a lease to re-run it by
            with pytest.raises(TaskError, match="boom"):
                run(unit, kind)
            assert client.calls == [LANDED, "decr_work"]
        assert not unit.failures

    @pytest.mark.parametrize("kind", KINDS)
    def test_continue_records_and_poisons(self, kind):
        unit, client = make("continue", ValueError("boom"))
        assert run(unit, kind) is False
        assert client.calls == [LANDED, "decr_work(poison)"]
        (failure,) = unit.failures
        assert (failure.kind, failure.rank, failure.payload) == (kind, RANK, "leaf")
        assert failure.error == "ValueError: boom" and "boom" in failure.traceback

    @pytest.mark.parametrize("kind", KINDS)
    def test_fail_fast_accounts_then_raises(self, kind):
        unit, client = make("fail_fast", ValueError("boom"))
        with pytest.raises(TaskError, match="boom"):
            run(unit, kind)
        assert client.calls == [LANDED, "decr_work"]
        assert not unit.failures

    @pytest.mark.parametrize("exc", [AbortError, DeadlockError])
    @pytest.mark.parametrize("on_error", POLICIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_transport_failures_pass_through_unaccounted(self, kind, on_error, exc):
        unit, client = make(on_error, exc("transport"))
        with pytest.raises(exc):
            run(unit, kind)
        assert client.calls == [] and not unit.failures

    def test_abandoned_unit_is_rolled_back_unaccounted(self):
        class Expired:
            def arm(self):
                pass

            def expired(self):
                return False

            def disarm(self):
                return True  # the watchdog fired while the task ran

        for raises in (None, ValueError("late")):
            unit, client = make("retry", raises)
            unit.held.append(("WORK", "leafA", 0, -1))
            unit.rules.append(RULE)
            assert unit.run("task", "leaf", guard=Expired()) is False
            assert client.calls == [] and not unit.deferred and not unit.failures
            assert unit.held == [] and unit.rules == []

    @pytest.mark.parametrize(
        "kind, ok, failed",
        [
            ("task", ["task_start", "task_done"], ["task_start", "task_fail"]),
            ("rule", ["rule_fire", "rule_fired"], ["rule_fire"]),
            ("ctask", ["ctask", "ctask_done"], ["ctask", "ctask_done"]),
            ("program", ["program"], ["program"]),
        ],
    )
    def test_event_stream_per_kind(self, kind, ok, failed):
        def stream(raises):
            ring = Ring(64, time.perf_counter())
            unit, _ = make("continue", raises, ring=ring)
            run(unit, kind)
            return [(slot[3],) + slot[4:7] for slot in ring.ordered()]

        unit_id = {"task": "T3.1", "rule": "R3.7", "ctask": "C3.1", "program": "P3"}[kind]
        events = stream(None)
        assert [e[0] for e in events] == ok
        assert events[-1][1:] == {
            "task": (4, unit_id, 0),
            "rule": (7, "name", 0),
            "ctask": (unit_id, 0, 0),
            "program": (unit_id, 0, 0),
        }[kind]
        events = stream(ValueError("boom"))
        # ... then the failed unit's commit: refcount_flush is its last event
        assert [e[0] for e in events] == failed + ["refcount_flush"]
        assert events[-1][1:] == (1, unit_id, 0)
        if kind != "rule":
            assert events[-2][1:] == {
                "task": (4, unit_id, "ValueError"),
                "ctask": (unit_id, "ValueError", 0),
                "program": (unit_id, "ValueError", 0),
            }[kind]


# ------------------------------------------------------ why deferral stays

CTASK_RETRY = """
proc swift:main {} {
    set c [ turbine::allocate_container 1 ]
    turbine::rule [ list $c ] { turbine::log_output closed } LOCAL
    turbine::rule [ list ] [ list flaky $c ] CONTROL
}
proc flaky { c } {
    turbine::write_refcount_decr $c 1
    if { ! [ info exists ::tried ] } {
        set ::tried 1
        turbine::log_output "attempt 1"
        error "first attempt fails after its decrement"
    }
    turbine::log_output "attempt 2"
}
"""

RULE_RETRY = """
proc swift:main {} {
    turbine::rule [ list ] flaky CONTROL
}
proc flaky {} {
    turbine::rule [ list ] { turbine::log_output "rule fired" } LOCAL
    if { ! [ info exists ::tried ] } {
        set ::tried 1
        error "first attempt fails after its rule"
    }
    turbine::log_output "attempt 2"
}
"""

SLOW_TASK = """
proc swift:main {} {
    set c [ turbine::allocate_container 1 ]
    set flag [ turbine::allocate integer ]
    turbine::rule [ list $c ] { turbine::log_output closed } LOCAL
    turbine::rule [ list ] [ list slow $c $flag ] WORK
}
proc slow { c flag } {
    turbine::write_refcount_decr $c 1
    if { ! [ turbine::exists $flag ] } {
        turbine::store_integer $flag 1
        nap 0.6
    }
    turbine::log_output "slow done"
}
"""


class TestWhyDeferralStays:
    """Applied where the Tcl calls them, the first attempt's decrement
    would close the container early and the retry's would drive its
    write refcount negative."""

    def test_retried_control_task_closes_its_container_once(self):
        res = run_turbine_program(
            CTASK_RETRY, RuntimeConfig(size=3, on_error="retry", audit=True)
        )
        # The container closes after the retry, not after the failed attempt.
        assert res.stdout_lines == ["attempt 1", "attempt 2", "closed"]
        assert res.ok and res.audit.ok, res.audit.render()
        assert res.metrics["counters"]["adlb.lease.requeued"] == 1

    def test_abandoned_task_whose_late_attempt_finishes_closes_it_once(self):
        def setup(interp, ctx, client):
            interp.register("nap", lambda it, args: time.sleep(float(args[0])) or "")

        res = run_turbine_program(
            SLOW_TASK,
            RuntimeConfig(size=4, on_error="retry", task_timeout=0.2, audit=True),
            setup=setup,
        )
        # Both attempts ran to their end; only the retry's decrement landed.
        assert sorted(res.stdout_lines) == ["closed", "slow done", "slow done"]
        assert res.ok and res.audit.ok, res.audit.render()
        counters = res.metrics["counters"]
        assert counters["worker.watchdog.abandoned"] == 1
        assert counters["adlb.lease.requeued"] == 1


class TestRulesAreHeldLikeSpawns:
    """A rule registered by an attempt that raises is dropped with it:
    made at once, it fired for the failed attempt and again for the
    retry, and under ``continue`` for a unit that never returned."""

    def test_a_retried_control_tasks_rule_fires_once(self):
        res = run_turbine_program(RULE_RETRY, RuntimeConfig(size=3, on_error="retry"))
        assert res.stdout_lines == ["attempt 2", "rule fired"]
        assert res.ok

    def test_a_failed_control_tasks_rule_never_fires(self):
        res = run_turbine_program(RULE_RETRY, RuntimeConfig(size=3, on_error="continue"))
        assert "rule fired" not in res.stdout_lines
        assert [f.kind for f in res.failures] == ["ctask"]
