"""Fault injection, task leases, retries, and failure propagation.

The ``FAULT_SEED`` environment variable (used by the CI matrix) seeds
every :class:`FaultPlan` here, so the probabilistic injection paths get
exercised under several RNG streams without changing the assertions —
each test's invariants must hold for *any* seed.
"""

from __future__ import annotations

import os
import re
import sys
import time
import types

import pytest

from repro import DeadlineExceeded, FaultPlan, SwiftRuntime, TaskError, swift_run
from repro.adlb import constants as adlb_constants
from repro.adlb.constants import GET_BUNDLE
from repro.faults import FaultState, InjectedFault, TaskFailure
from repro.mpi import DeadlockError, run_world
from repro.mpi.launcher import RankFailure
from repro.obs import Analysis
from repro.turbine import RuntimeConfig, run_turbine_program

SEED = int(os.environ.get("FAULT_SEED", "0"))

# Dataflow fan-out whose leaf tasks are WORK units (python() ships to
# workers, unlike a bare trace() which runs engine-local).
# Each leaf takes 2 ms.  Since loops of leaves (ISSUE 24) the loop proc
# queues all ten at once; 50 us leaves were then drained by whichever
# workers woke first, and a kill placed at a rank's second task (or a
# server's sixth message) was sometimes never reached.
FANOUT = """
foreach i in [0:9] {
    string s = python(strcat("import time; time.sleep(0.002); x=", fromint(i)), "x");
    trace(s);
}
"""
FANOUT_EXPECTED = sorted("trace: %d" % i for i in range(10))


def counters(res) -> dict:
    return res.trace.metrics["counters"]


class TestRetry:
    def test_transient_task_error_is_retried(self):
        res = swift_run(
            FANOUT,
            workers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).fail_task("python", times=1),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok and not res.failures
        c = counters(res)
        assert c["adlb.lease.requeued"] >= 1
        assert c["fault.task_errors"] == 1

    def test_retries_exhausted_raises_task_error(self):
        with pytest.raises(TaskError, match="InjectedFault") as exc_info:
            swift_run(
                FANOUT,
                workers=2,
                max_retries=1,
                faults=FaultPlan(seed=SEED).fail_task("python", times=1000),
            )
        # Attempt accounting: the original try plus max_retries.
        assert "after 2 attempt(s)" in str(exc_info.value)

    def test_zero_retries_leases_all_and_requeues_nothing(self):
        # Every server leases what it hands out, whatever max_retries is.
        res = swift_run(FANOUT, workers=2, trace=True, max_retries=0)
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        c = counters(res)
        assert c["adlb.lease.granted"] == c["adlb.tasks_matched"] >= 10
        assert c["adlb.lease.requeued"] == 0

    def test_zero_retries_surfaces_the_first_failure_as_the_workers(self):
        # Handed back, then given up by the server at once: the same
        # TaskError a run that has used up its retries raises.
        leaf = 'string s = python("1/0", "x"); trace(s);'
        with pytest.raises(TaskError, match="ZeroDivisionError") as info:
            swift_run(leaf, workers=2, max_retries=0)
        failure = info.value.failure
        assert (failure.kind, failure.attempts) == ("task", 1)
        assert failure.rank in (1, 2)  # a worker: engine 0, workers 1-2, server 3


class TestWorkerDeath:
    def test_kill_one_of_three_workers_run_completes(self):
        # Rank 2 (a worker) dies after its first task while holding a
        # leased unit; the server notices, requeues, and the two
        # survivors finish the job.
        res = swift_run(
            FANOUT,
            workers=3,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(2, after_tasks=1),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["adlb.lease.requeued"] >= 1
        assert c["adlb.lease.dead_ranks"] == 1
        assert c["fault.kills"] == 1
        # Only the survivors report stats.
        assert len(res.worker_stats) == 2
        assert sum(w.tasks_run for w in res.worker_stats) == 9

    def test_a_dead_ranks_counters_stay_in_the_table(self):
        # Counter structs are registered where they are built and read
        # live, so what a rank counted before it died is not lost with
        # it.  Layout: engines 0-1, workers 2-3, servers 4 (master), 5.
        fanout = (
            "foreach i in [0:39] {\n"
            '    string s = python(strcat("x=", fromint(i)), "x");\n'
            "    trace(s);\n"
            "}\n"
        )
        expected = sorted("trace: %d" % i for i in range(40))
        layout = dict(workers=2, servers=2, engines=2)
        res = swift_run(
            fanout, **layout, faults=FaultPlan().kill_rank(2, after_tasks=5)
        )
        assert sorted(res.stdout_lines) == expected
        # 5 by the dead worker + 35 by the survivor (who alone hands
        # its struct back: worker_stats is the clean exits)
        assert res.metrics["counters"]["worker.tasks_run"] == 40
        assert res.metrics["gauges"]["worker.tasks_run[2]"] == 5
        assert [w.tasks_run for w in res.worker_stats] == [35]
        res = swift_run(
            fanout, **layout, faults=FaultPlan().kill_rank(5, after_tasks=30)
        )
        assert sorted(res.stdout_lines) == expected
        assert len(res.server_stats) == 1
        matched = [res.metrics["gauges"]["adlb.tasks_matched[%d]" % r] for r in (4, 5)]
        # 40 leaves and no control task: 40 iterations are one chunk, run
        # by the loop proc (>= 80 while each was a control task: ISSUE 24)
        assert sum(matched) == res.metrics["counters"]["adlb.tasks_matched"] >= 40

    def test_tasks_run_counts_what_a_killed_worker_ran(self):
        # RunResult.tasks_run is this run's count from the counter table,
        # not a sum over the workers that lived to hand their struct in:
        # it must not under-count exactly when a worker died.  Layout:
        # engine 0, workers 1-2, server 3.
        fanout = FANOUT.replace("[0:9]", "[0:39]")
        plan = FaultPlan(seed=0).kill_rank(2, after_tasks=5)
        res = swift_run(fanout, workers=2, servers=1, engines=1, faults=plan)
        assert res.ok and len(res.stdout_lines) == 40
        assert sum(w.tasks_run for w in res.worker_stats) == 35
        assert res.tasks_run == res.metrics["counters"]["worker.tasks_run"] == 40
        # no recorder, no difference; and in a session (one table for
        # all its runs) each run reports its own share
        off = swift_run(FANOUT, workers=2, flightrec=False)
        assert off.metrics is None and off.tasks_run == 10
        with SwiftRuntime(workers=2, trace=True) as rt:
            assert [rt.run(FANOUT).tasks_run for _ in range(2)] == [10, 10]
        assert rt.trace.metrics["counters"]["worker.tasks_run"] == 20

    def test_targeted_unit_outstanding_on_killed_rank(self):
        # A WORK task targeted at the doomed rank is queued while that
        # rank dies: the dead-rank sweep must strip the target and let
        # any surviving worker run it.
        program = (
            "proc swift:main {} {\n"
            "  turbine::rule [ list ] { turbine::log_output first } WORK"
            " -target 2\n"
            "  turbine::rule [ list ] { turbine::log_output second } WORK"
            " -target 2\n"
            "}\n"
        )
        res = run_turbine_program(
            program,
            RuntimeConfig(
                size=5,
                trace=True,
                faults=FaultPlan(seed=SEED).kill_rank(2, after_tasks=1),
            ),
        )
        assert sorted(res.stdout_lines) == ["first", "second"]
        assert counters(res)["adlb.lease.dead_ranks"] == 1

    def test_silent_death_recovered_by_lease_expiry(self):
        # A silent kill sends no dead-rank notification; recovery rests
        # entirely on the lease-timeout sweep.
        res = swift_run(
            FANOUT,
            workers=3,
            trace=True,
            lease_timeout=0.5,
            faults=FaultPlan(seed=SEED).kill_rank(2, after_tasks=1, silent=True),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        c = counters(res)
        assert c["adlb.lease.expired"] >= 1
        assert c["adlb.lease.dead_ranks"] == 1


class TestEngineFailure:
    # The injected fault matches the compiled rule body the engine
    # evaluates (every STC-compiled statement goes through a generated
    # proc), so the failure happens during rule evaluation.
    def test_engine_rule_failure_fail_fast(self):
        with pytest.raises(TaskError, match="InjectedFault"):
            run_turbine_program(
                "proc swift:main {} {\n"
                "  turbine::rule [ list ] { boom_rule } LOCAL\n"
                "}\n"
                "proc boom_rule {} { turbine::log_output fired }\n",
                RuntimeConfig(
                    size=4,
                    on_error="fail_fast",
                    faults=FaultPlan(seed=SEED).fail_task("boom_rule"),
                ),
            )

    def test_engine_rule_failure_continue_records(self):
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  turbine::rule [ list ] { boom_rule } LOCAL\n"
            "  turbine::rule [ list ] { turbine::log_output ok } LOCAL\n"
            "}\n"
            "proc boom_rule {} { turbine::log_output fired }\n",
            RuntimeConfig(
                size=4,
                on_error="continue",
                faults=FaultPlan(seed=SEED).fail_task("boom_rule"),
            ),
        )
        assert res.stdout_lines == ["ok"]
        assert not res.ok
        assert len(res.failures) == 1
        assert res.failures[0].kind == "rule"
        assert "InjectedFault" in res.failures[0].error


class TestOnErrorModes:
    def test_fail_fast_is_prompt_and_traceback_bearing(self):
        t0 = time.perf_counter()
        with pytest.raises(TaskError) as exc_info:
            swift_run(
                FANOUT,
                workers=2,
                on_error="fail_fast",
                faults=FaultPlan(seed=SEED).fail_task("python"),
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        msg = str(exc_info.value)
        assert "Traceback" in msg
        assert "InjectedFault" in msg
        # The failure surfaces as TaskError, not a RankFailure wrapper.
        assert not isinstance(exc_info.value, RankFailure)

    def test_continue_records_accurate_counts(self):
        res = swift_run(
            "foreach i in [0:5] {\n"
            '    string s = python(strcat("x=", fromint(i)), "x");\n'
            "    trace(s);\n"
            "}\n",
            workers=2,
            on_error="continue",
            faults=FaultPlan(seed=SEED).fail_task("python", times=2),
        )
        assert not res.ok
        assert len(res.failures) == 2
        assert res.tasks_run == 4
        assert len(res.stdout_lines) == 4
        for f in res.failures:
            assert isinstance(f, TaskFailure)
            assert f.kind == "task"
            assert "InjectedFault" in f.error
            assert "Traceback" in f.traceback

    def test_real_task_error_retried_then_surfaced(self):
        # No injection: a genuinely broken task exhausts retries and
        # surfaces with the underlying error text.
        with pytest.raises(TaskError, match="ZeroDivisionError"):
            swift_run(
                'string s = python("1/0", ""); trace(s);',
                workers=2,
                max_retries=1,
            )

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            swift_run("trace(1);", workers=2, on_error="explode")


class TestMessageFaults:
    def test_slow_task_and_delayed_messages_complete(self):
        res = swift_run(
            FANOUT,
            workers=2,
            trace=True,
            faults=(
                FaultPlan(seed=SEED)
                .slow_task("python", delay=0.01, times=2)
                .delay_messages(delay=0.005, times=3)
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        c = counters(res)
        assert c["fault.slow_tasks"] == 2
        assert c["fault.delayed_msgs"] == 3

    def test_deadline_on_dropped_messages(self):
        # Dropping async deliveries (tag 13) wedges the dataflow; the
        # deadline turns the hang into an orderly DeadlineExceeded.
        with pytest.raises(DeadlineExceeded):
            swift_run(
                FANOUT,
                workers=2,
                deadline=1.5,
                recv_timeout=30.0,
                faults=FaultPlan(seed=SEED).drop_messages(tag=13, times=100),
            )


class TestDiagnostics:
    def test_recv_hang_report_names_the_blockage(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("noise", dest=1, tag=9)
            elif comm.rank == 1:
                comm.recv(source=0, tag=42, timeout=0.2)

        with pytest.raises(RankFailure) as exc_info:
            run_world(2, main)
        failures = dict(exc_info.value.failures)
        err = failures[1]
        assert isinstance(err, DeadlockError)
        msg = str(err)
        assert "rank 1 blocked in recv(source=0, tag=42)" in msg
        assert "pending-queue depths" in msg
        assert "rank1=1" in msg  # the unmatched tag-9 message

    def test_hang_report_names_the_engine_and_the_td_it_waits_on(self):
        # The most common Swift mistake — reading a variable nobody
        # writes — ends in a hang report with a line for every live
        # rank: the engine holding the unfired rule says which TD it
        # waits on (what Swift/T prints as its unfired-rule report), and
        # the server holds the read of a[3] that nobody inserts: a
        # pending copy into that TD.
        with pytest.raises(RankFailure) as exc_info:
            swift_run(
                "int a[];\n"
                'string y = python("x=1", strcat("x+", fromint(a[3])));\n'
                "a[0] = 1;\n"
                "trace(y);\n",
                workers=2,
                servers=1,
                engines=1,
                recv_timeout=1,
            )
        err = exc_info.value.failures[0][1]
        assert isinstance(err, DeadlockError)
        lines = dict(
            re.findall(r"^  rank (\d): (.*)$", str(err), flags=re.MULTILINE)
        )
        assert sorted(lines) == ["0", "1", "2", "3"]
        engine = re.fullmatch(
            r"engine pending_rules=1 blocked_on=\[\d+\] rules_created=1", lines["0"]
        )
        assert engine
        assert lines["1"] == lines["2"] == "worker"  # no deferred refcounts
        assert lines["3"].startswith("server is_master=True work_started=True")
        assert "work_count=1 parked_gets=3 pending_copies=1" in lines["3"]

    def test_rank_failure_reports_roles_and_tracebacks(self):
        with pytest.raises(TaskError):
            swift_run(
                FANOUT,
                workers=2,
                on_error="fail_fast",
                faults=FaultPlan(seed=SEED).fail_task("python"),
            )
        # The richer diagnostics live on RankFailure itself.
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("kaboom")

        with pytest.raises(RankFailure) as exc_info:
            run_world(2, main, rank_labels=["engine", "worker"])
        msg = str(exc_info.value)
        assert "rank 1 (worker)" in msg
        assert "Traceback" in msg
        assert "kaboom" in msg

    def test_stuck_rank_diagnostics_on_join_timeout(self):
        # One rank never unwinds: the launcher reports it as stuck with
        # its current stack instead of hanging forever.
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("primary failure")
            if comm.rank == 0:
                # Ignores the abort; sleeps past the grace window.
                for _ in range(50):
                    time.sleep(0.1)

        with pytest.raises(RankFailure) as exc_info:
            run_world(2, main, shutdown_grace=0.5)
        msg = str(exc_info.value)
        assert "primary failure" in msg


class TestFaultPlanUnit:
    def test_fail_task_times_and_rank_filters(self):
        state = FaultState(
            FaultPlan(seed=SEED).fail_task("python", times=2, rank=3)
        )
        assert state.on_task(1, "python: x") is None  # wrong rank
        assert state.on_task(3, "shell: ls") is None  # no match
        assert state.on_task(3, "python: x")[0] == "raise"
        assert state.on_task(3, "python: x")[0] == "raise"
        assert state.on_task(3, "python: x") is None  # times exhausted
        assert state.stats.task_errors == 2

    def test_kill_after_tasks(self):
        state = FaultState(FaultPlan(seed=SEED).kill_rank(2, after_tasks=2))
        assert state.on_task(2, "a") is None
        assert state.on_task(2, "b") is None
        assert state.on_task(2, "c") == ("kill", False)

    def test_drop_probability_is_seeded(self):
        def sends(seed):
            state = FaultState(
                FaultPlan(seed=seed).drop_messages(probability=0.5, times=10**9)
            )
            return [state.on_send(0, 1, 13) for _ in range(64)]

        assert sends(SEED) == sends(SEED)  # deterministic replay
        dropped = [d for d in sends(SEED) if d is not None]
        assert 0 < len(dropped) < 64

    def test_injected_fault_message(self):
        state = FaultState(
            FaultPlan(seed=SEED).fail_task("x", message="custom boom")
        )
        kind, msg = state.on_task(0, "x")
        assert kind == "raise" and msg == "custom boom"
        with pytest.raises(InjectedFault, match="custom boom"):
            raise InjectedFault(msg)

    def test_drop_probability_respects_times_budget(self):
        # probability=1.0 makes every send a candidate, so the times
        # budget is the only thing bounding the damage.
        state = FaultState(
            FaultPlan(seed=SEED).drop_messages(probability=1.0, times=3)
        )
        directives = [state.on_send(0, 1, 10) for _ in range(10)]
        assert directives[:3] == [("drop", 0.0)] * 3
        assert directives[3:] == [None] * 7
        assert state.stats.dropped_msgs == 3

    def test_kill_only_skips_task_rules(self):
        # The engine's release hook: the unit counts toward the kill
        # schedule, but fail/slow rules apply where the payload runs.
        plan = FaultPlan(seed=SEED).fail_task("x").kill_rank(5, after_tasks=1)
        state = FaultState(plan)
        assert state.on_task(5, "x marks", kill_only=True) is None
        assert state.on_task(5, "x marks", kill_only=True) == ("kill", False)
        assert state.stats.task_errors == 0

    def test_silent_kill_directive_carries_flag(self):
        state = FaultState(FaultPlan(seed=SEED).kill_rank(1, silent=True))
        assert state.on_task(1, "anything") == ("kill", True)
        state = FaultState(
            FaultPlan(seed=SEED).poison_task("bad", silent=True)
        )
        assert state.on_task(0, "a bad unit") == ("kill", True)

    def test_overlapping_task_rules_first_match_wins_until_exhausted(self):
        # Two rules match the same payload: first-listed wins while it
        # has budget, then the next takes over, then injections stop.
        plan = (
            FaultPlan(seed=SEED)
            .fail_task("python", times=1, message="first")
            .slow_task("python", delay=0.5, times=1)
        )
        state = FaultState(plan)
        assert state.on_task(0, "python: a") == ("raise", "first")
        assert state.on_task(0, "python: b") == ("sleep", 0.5)
        assert state.on_task(0, "python: c") is None
        assert state.stats.task_errors == 1
        assert state.stats.slow_tasks == 1

    def test_exhausted_budget_leaves_later_msg_rules_live(self):
        plan = (
            FaultPlan(seed=SEED)
            .drop_messages(tag=10, times=1)
            .delay_messages(delay=0.01, tag=10, times=None)
        )
        state = FaultState(plan)
        assert state.on_send(0, 1, 10) == ("drop", 0.0)
        assert state.on_send(0, 1, 10) == ("sleep", 0.01)
        assert state.on_send(2, 3, 10) == ("sleep", 0.01)
        assert state.on_send(2, 3, 11) is None  # tag filter still holds


class TestFaultPlanSerialization:
    def test_plan_round_trips_through_dict(self):
        import json

        plan = (
            FaultPlan(seed=41)
            .kill_rank(2, after_tasks=3, silent=True)
            .poison_task("boom", times=1)
            .fail_task("python", times=2, rank=4, message="m")
            .slow_task("sh", delay=0.02, times=None)
            .drop_messages(src=1, dest=2, tag=10, times=5, probability=0.5)
            .delay_messages(delay=0.004, tag=13)
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert clone.rule_count() == plan.rule_count() == 6
        # JSON-safe: survives an actual encode/decode cycle.
        assert json.loads(json.dumps(plan.to_dict())) == plan.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            FaultPlan.from_dict(
                {
                    "seed": 0,
                    "kills": [
                        {
                            "rank": 1,
                            "after_tasks": 0,
                            "silent": False,
                            "bogus": 1,
                        }
                    ],
                }
            )

    def test_round_tripped_plan_replays_identically(self):
        # The deserialized plan drives the same injections end to end.
        plan = FaultPlan(seed=SEED).fail_task("python", times=1)
        clone = FaultPlan.from_dict(plan.to_dict())
        res = swift_run(FANOUT, workers=2, trace=True, faults=clone)
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert counters(res)["fault.task_errors"] == 1


class TestFaultsOffPath:
    def test_no_fault_counters_without_a_plan(self):
        res = swift_run(FANOUT, workers=2, trace=True, max_retries=0)
        c = counters(res)
        assert not any(k.startswith("fault.") for k in c)
        assert res.fault_stats is None

    def test_default_run_unaffected(self):
        res = swift_run(FANOUT, workers=2)
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok

    def test_a_leaf_longer_than_the_lease_is_not_a_dead_rank(self):
        # Without a fault plan no rank dies silently.  The lease sweep
        # used to presume both workers dead, re-run their leaves, and let
        # the "dead" workers' commits decrement the counter too: the
        # master shut down with work left, the workers hung in recv.
        slow = FANOUT.replace("0.002", "0.4").replace("[0:9]", "[0:3]")
        res = swift_run(slow, workers=2, lease_timeout=0.1, recv_timeout=5)
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED[:4]
        assert res.ok and res.tasks_run == 4
        assert res.metrics["counters"]["adlb.lease.expired"] == 0


# No fault plan here: under one every GET takes one task.  One worker
# runs the 20 leaves in queue order; its first GET takes leaf 0 alone
# (parked, or closing no lease), and with the pace rule out of the way
# (the ``unpaced`` fixture) its next takes leaves 1-8, so leaf 4 sits
# inside a bundle.
BUNDLED = """
foreach i in [0:19] {
    string s = python(strcat("import bundle_probe; x = bundle_probe.leaf(", fromint(i), ")"), "x");
    trace(s);
}
"""
BUNDLED_EXPECTED = ["trace: %d" % i for i in range(20)]
# 200 leaves of 2 ms, of which leaf 150 takes the time given
TAIL = (
    "foreach i in [0:199] {\n"
    '    string s = python(strcat("import time; time.sleep(%s if ", fromint(i),'
    ' " == 150 else 0.002); x=", fromint(i)), "x");\n'
    "    trace(s);\n"
    "}\n"
)


@pytest.fixture()
def unpaced(monkeypatch):
    """Bundles by the count rule alone: a GET's pace cap (BUNDLE_S of
    work at the pace of its last lease) reads wall-clock time."""
    monkeypatch.setattr(adlb_constants, "BUNDLE_S", 3600.0)


@pytest.fixture()
def probe(monkeypatch, unpaced):
    """The module :data:`BUNDLED`'s leaves call: it records each run and
    raises (``fails``: leaf -> how many of its runs) or sleeps (``slow``:
    leaf -> seconds, its first run only) as the test sets."""
    mod = types.ModuleType("bundle_probe")
    mod.runs, mod.fails, mod.slow = [], {}, {}

    def leaf(i):
        mod.runs.append(i)
        if mod.runs.count(i) <= mod.fails.get(i, 0):
            raise ValueError("leaf %d fails" % i)
        if mod.runs.count(i) == 1:
            time.sleep(mod.slow.get(i, 0))
        return i

    mod.leaf = leaf
    monkeypatch.setitem(sys.modules, "bundle_probe", mod)
    return mod


def bundles_of(res) -> list[list]:
    """Each worker's units grouped by the GET that granted them: a unit
    is of its predecessor's bundle when its grant came before that one
    began."""
    by_rank: dict[int, list] = {}
    for unit in Analysis.join(res.trace).executed():
        if unit.kind == "task":
            by_rank.setdefault(unit.rank, []).append(unit)
    out = []
    for units in by_rank.values():
        units.sort(key=lambda u: u.start)
        out.append([units[0]])
        for prev, unit in zip(units, units[1:]):
            if unit.t_grant < prev.start:
                out[-1].append(unit)
            else:
                out.append([unit])
    return out


def inside_a_bundle(res) -> bool:
    """The first unit that failed (or was abandoned) had units of its
    bundle before and after it."""
    for bundle in bundles_of(res):
        for place, unit in enumerate(bundle):
            if not unit.ok:
                return 0 < place < len(bundle) - 1
    return False


class TestBundleFailures:
    """A unit inside a bundle fails alone: the server requeues only it
    (``retry``, a watchdog expiry), the worker runs the rest, and the
    termination counter ends at zero — the run finishes."""

    def test_retry_requeues_only_the_failing_unit(self, probe):
        probe.fails = {4: 1}
        res = swift_run(BUNDLED, workers=1, trace=True)
        assert res.stdout_lines == BUNDLED_EXPECTED[:4] + BUNDLED_EXPECTED[5:] + ["trace: 4"]
        assert sorted(probe.runs) == sorted(list(range(20)) + [4])
        assert inside_a_bundle(res) and res.ok
        c = res.metrics["counters"]
        assert c["adlb.lease.requeued"] == 1 and c["adlb.lease.granted"] == 21

    def test_continue_records_the_unit_and_runs_the_rest(self, probe):
        probe.fails = {4: 99}
        res = swift_run(BUNDLED, workers=1, trace=True, on_error="continue")
        assert res.stdout_lines == BUNDLED_EXPECTED[:4] + BUNDLED_EXPECTED[5:]
        assert probe.runs == list(range(20)) and inside_a_bundle(res)
        (failure,) = res.failures
        assert "leaf 4 fails" in failure.error and res.tasks_run == 19

    def test_fail_fast_stops_at_the_failing_unit(self, probe):
        probe.fails = {4: 99}
        with pytest.raises(TaskError, match="leaf 4 fails"):
            swift_run(BUNDLED, workers=1, on_error="fail_fast")
        assert probe.runs == [0, 1, 2, 3, 4]  # the rest of its bundle never ran

    def test_a_watchdog_abandonment_mid_bundle_hands_back_that_unit(self, probe):
        probe.slow = {4: 0.6}
        res = swift_run(BUNDLED, workers=1, trace=True, task_timeout=0.2)
        assert sorted(res.stdout_lines) == sorted(BUNDLED_EXPECTED)
        assert sorted(probe.runs) == sorted(list(range(20)) + [4])
        assert inside_a_bundle(res)
        c = res.metrics["counters"]
        assert c["worker.watchdog.abandoned"] == 1 and c["adlb.lease.requeued"] == 1

    def test_a_long_leaf_does_not_hold_up_the_tail(self, unpaced):
        # One 200 ms leaf among 200 short ones at 2 workers: a bundle
        # holds at most GET_BUNDLE tasks and a share of the queue, so
        # what waits behind the long leaf is a few short leaves, and the
        # run ends within 1.2x of the long leaf plus the short leaves
        # run one after another.  (Paced, these 2 ms leaves would go one
        # a GET: the count rule is what is checked.)
        t0 = time.perf_counter()
        assert len(swift_run(TAIL % "0.002", workers=1).stdout_lines) == 200
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = swift_run(TAIL % "0.2", workers=2, trace=True)
        assert time.perf_counter() - t0 <= 1.2 * (0.2 + serial)
        assert len(res.stdout_lines) == 200
        for bundle in bundles_of(res):
            spans = [u.dur for u in bundle]
            if max(spans) >= 0.2:  # the long leaf's bundle
                assert len(bundle) - spans.index(max(spans)) <= GET_BUNDLE
