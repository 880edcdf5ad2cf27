"""Engine fault tolerance: rule-table journaling, adoption, poison-task
quarantine, and per-task watchdogs.

Like :mod:`tests.test_faults`, every plan here is seeded from the
``FAULT_SEED`` environment variable (the CI matrix runs 0/1/2), so the
assertions must hold for *any* seed.  The CI rank-kill job filters
these tests with ``-k journal_on`` / ``-k journal_off`` /
``-k quarantine`` / ``-k watchdog``, which is why those substrings
appear in the test names.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro import (
    DeadlineExceeded,
    EngineLost,
    ServerLost,
    FaultPlan,
    QuarantinedTask,
    swift_run,
)
from repro.adlb import constants as C
from repro.adlb.client import AdlbClient
from repro.adlb.layout import Layout
from repro.mpi import World
from repro.turbine.builtins import SPLIT_OVER
from repro.turbine.engine import Engine

SEED = int(os.environ.get("FAULT_SEED", "0"))

FANOUT = """
foreach i in [0:9] {
    string s = python(strcat("x=", fromint(i)), "x");
    trace(s);
}
"""
FANOUT_EXPECTED = sorted("trace: %d" % i for i in range(10))

# With engines=2 the program runs on engine rank 0; rank 1 serves
# split control tasks and stands by as the adopter.
PROGRAM_ENGINE, SPARE_ENGINE = 0, 1

# The engine-death tests count LOCAL rule fires to place the kill and
# assert that a rule table was journalled, adopted and replayed.  At the
# default level STC leaves this fan-out no rule at all, so they compile
# it at -O0 (the all-TD shape); TestByValueFanout is the default level.
RULES_IN_FLIGHT = 0


def counters(res) -> dict:
    return res.trace.metrics["counters"]


class TestEngineDeath:
    def test_engine_kill_recovery_journal_on(self):
        # The program engine dies mid-run; the anchor server replays
        # its journal and the surviving engine adopts the pending
        # rules.  The output must be identical to a fault-free run.
        res = swift_run(
            FANOUT,
            opt=RULES_IN_FLIGHT,
            workers=2,
            servers=1,
            engines=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(PROGRAM_ENGINE, after_tasks=3),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["fault.kills"] == 1
        assert c["engine.journal.adoptions"] == 1
        # Only the survivor reports engine stats.
        assert len(res.engine_stats) == 1

    def test_spare_engine_kill_recovery_journal_on(self):
        # The non-program engine dies; it may hold split control work
        # but few (or no) pending rules.  The run must still complete.
        res = swift_run(
            FANOUT,
            opt=RULES_IN_FLIGHT,
            workers=2,
            servers=1,
            engines=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(SPARE_ENGINE, after_tasks=1),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        assert counters(res)["fault.kills"] == 1

    def test_engine_kill_recovery_journal_on_replicate_on(self):
        # Journal + replication compose: the journal is part of the
        # anchor's replicated image, so engine recovery still works in
        # a world that can also lose servers.
        res = swift_run(
            FANOUT,
            opt=RULES_IN_FLIGHT,
            workers=2,
            servers=2,
            engines=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(PROGRAM_ENGINE, after_tasks=3),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        assert counters(res)["engine.journal.adoptions"] == 1

    def test_engine_and_server_kill_recovery_journal_on_replicate_on(self):
        # Lose a server AND an engine in the same run: the heir
        # inherits the replicated journal, then adopts the engine.
        res = swift_run(
            FANOUT,
            opt=RULES_IN_FLIGHT,
            workers=2,
            servers=2,
            engines=2,
            trace=True,
            faults=FaultPlan(seed=SEED)
            .kill_rank(5, after_tasks=5)  # the non-master server
            .kill_rank(PROGRAM_ENGINE, after_tasks=4),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["adlb.repl.promotions"] == 1
        assert c["engine.journal.adoptions"] == 1

    def test_silent_engine_kill_recovery_journal_on(self):
        # A silent kill sends no dead-rank notification: the anchor
        # must notice the missing journal heartbeat on its own.
        res = swift_run(
            FANOUT,
            opt=RULES_IN_FLIGHT,
            workers=2,
            servers=1,
            engines=2,
            trace=True,
            lease_timeout=0.5,
            faults=FaultPlan(seed=SEED).kill_rank(
                PROGRAM_ENGINE, after_tasks=3, silent=True
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        assert counters(res)["engine.journal.adoptions"] == 1

    def test_kill_boundary_deterministic_across_backends(self, tcl_oracle):
        # Engine kills count rule fires, a dataflow property: the same
        # plan must pick the same boundary (and still recover) under
        # the bytecode VM and the interpreted walk alike.
        for backend in ("vm", "interpreted"):
            with tcl_oracle() if backend == "interpreted" else contextlib.nullcontext():
                res = swift_run(
                    FANOUT,
                    opt=RULES_IN_FLIGHT,
                    workers=2,
                    servers=1,
                    engines=2,
                    trace=True,
                    faults=FaultPlan(seed=SEED).kill_rank(
                        PROGRAM_ENGINE, after_tasks=3
                    ),
                )
            assert sorted(res.stdout_lines) == FANOUT_EXPECTED, backend
            assert res.ok, backend
            assert counters(res)["fault.kills"] == 1, backend


class TestJournalHeartbeat:
    def test_an_idle_engine_beats_every_fifth_of_a_second_of_its_comms_clock(
        self, clock
    ):
        # Thread-free: the poll hook is called by hand, the clock moved
        # by hand; a beat that read the wall clock would not see 0.2 s.
        layout = Layout(size=4, n_servers=1, n_engines=1)
        world = World(layout.size, recv_timeout=None, clock=clock)
        engine = Engine(AdlbClient(world.comm(0), layout), None, journal=True)
        server = world.comm(layout.master_server)

        def beats() -> list:
            got = server.drain_dead(server.rank)
            return [m["entries"] for m, _ in got if m["op"] == C.OP_JOURNAL]

        engine.journal_heartbeat()
        assert beats() == [[]]  # the first call beats
        clock.advance(0.19)
        engine.journal_heartbeat()
        assert beats() == []
        clock.advance(0.02)
        engine.journal_heartbeat()
        assert beats() == [[]]
        engine._jot(("guard", 1))  # something to say: flushed at once
        engine.journal_heartbeat()
        assert beats() == [[("guard", 1)]]
        clock.advance(0.19)
        engine.journal_heartbeat()
        assert beats() == []  # a flush counts as a beat


class TestByValueFanout:
    """The default level: no TD, no rule — what an engine can lose is
    the control task it holds a lease on, payload and all.  Since loops
    of leaves (ISSUE 24) that is not one iteration but a chunk of the
    range: 100 iterations are split into two CONTROL tasks of 50."""

    def test_engine_kill_requeues_the_control_task_journal_on(self):
        # While the program engine is busy running swift:main, the
        # spare is the only engine parked for CONTROL work, so the
        # first chunk is granted to it: it dies holding that lease,
        # before the chunk spawned anything (kills land at unit starts).
        n = 100
        assert SPLIT_OVER < n <= 2 * SPLIT_OVER
        res = swift_run(
            FANOUT.replace("[0:9]", "[0:%d]" % (n - 1)),
            workers=2,
            servers=1,
            engines=2,
            trace=True,
            audit=True,
            faults=FaultPlan(seed=SEED).kill_rank(SPARE_ENGINE, after_tasks=0),
        )
        # the requeued chunk carried its bounds with it, and ran once:
        # no leaf is missing and none printed twice
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(n))
        assert res.ok
        c = counters(res)
        assert c["fault.kills"] == 1
        assert c["adlb.lease.requeued"] >= 1
        assert c["engine.rules_created"] == 0
        # two chunks, one of them received twice (the dead engine's
        # counters stay in the table)
        assert c["engine.control_tasks_run"] == 3
        assert res.audit.ok, res.audit.render()


class TestEngineLostDiagnostic:
    def test_engine_kill_journal_off_raises_engine_lost(self):
        with pytest.raises(EngineLost, match="journaling is disabled"):
            swift_run(
                FANOUT,
                opt=RULES_IN_FLIGHT,
                workers=2,
                servers=1,
                engines=2,
                journal=False,
                faults=FaultPlan(seed=SEED).kill_rank(
                    PROGRAM_ENGINE, after_tasks=3
                ),
            )

    def test_single_engine_kill_journal_off_raises_engine_lost(self):
        # One engine means journaling defaults off (nobody could adopt)
        # and its death is promptly diagnosed, not a hang.
        with pytest.raises(EngineLost) as info:
            swift_run(
                FANOUT,
                opt=RULES_IN_FLIGHT,
                workers=2,
                servers=1,
                engines=1,
                faults=FaultPlan(seed=SEED).kill_rank(
                    PROGRAM_ENGINE, after_tasks=3
                ),
            )
        # The diagnostic reports the lost rule-table size.
        assert "pending rule(s)" in str(info.value)
        assert info.value.rank == PROGRAM_ENGINE

    def test_journal_on_needs_two_engines(self):
        with pytest.raises(ValueError, match="n_engines >= 2"):
            swift_run(FANOUT, workers=2, servers=1, engines=1, journal=True)

    def test_remedy_is_offered_only_when_the_feature_was_off(self):
        # The texts say what the resolved config said, not a fixed guess.
        off = str(EngineLost(1, "killed", rules_pending=2))
        assert "journaling is disabled" in off and "journal=True" in off
        on = str(EngineLost(1, "killed; no adopter", rules_pending=2, journaled=True))
        assert "lost (killed; no adopter)" in on and "2 pending rule(s)" in on
        assert "disabled" not in on and "journal=True" not in on
        off = str(ServerLost(5, "killed"))
        assert "replication is disabled" in off and "replicate=True" in off
        on = str(ServerLost(5, "killed", replicated=True))
        assert "server rank 5 lost (killed)" in on
        assert "disabled" not in on and "replicate=True" not in on


class TestQuarantine:
    # python_persist compiles to a distinct task proc, so the poison
    # rule can follow one unit without touching the other ten.
    POISONED = FANOUT + """
string p = python_persist("x='POISON'", "x");
trace(p);
"""

    def test_poison_task_quarantined_after_retries(self):
        res = swift_run(
            self.POISONED,
            workers=5,
            servers=1,
            engines=1,
            trace=True,
            max_retries=2,
            faults=FaultPlan(seed=SEED).poison_task("task:python_persist"),
        )
        # The run drains cleanly: every healthy unit completes, the
        # poisonous one is withdrawn instead of eating ranks forever.
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert not res.ok
        assert not res.failures
        assert len(res.quarantined) == 1
        q = res.quarantined[0]
        assert isinstance(q, QuarantinedTask)
        assert "python_persist" in q.payload
        # max_retries=2 allows 3 attempts; each one killed its rank.
        assert q.attempts == 3
        assert len(q.chain) == 3
        assert len({rank for rank, _ in q.chain}) == 3
        c = counters(res)
        assert c["fault.kills"] == 3
        assert c["adlb.quarantine.quarantined"] == 1
        assert c["adlb.quarantine.rank_kills"] == 3

    def test_quarantine_reported_by_cli_exit_code(self, capsys):
        from repro.cli import _report_failures

        res = swift_run(
            self.POISONED,
            workers=5,
            servers=1,
            engines=1,
            max_retries=2,
            faults=FaultPlan(seed=SEED).poison_task("task:python_persist"),
        )
        assert _report_failures(res) == 3
        err = capsys.readouterr().err
        assert "1 quarantined task(s)" in err
        assert "task:python_persist" in err


class TestTaskWatchdog:
    def test_watchdog_abandons_and_retries_overdue_task(self):
        # One attempt stalls well past the timeout: the watchdog fails
        # the unit back mid-flight and a retry completes it elsewhere,
        # so the run finishes long before the stall would have.
        res = swift_run(
            FANOUT,
            workers=3,
            servers=1,
            engines=1,
            trace=True,
            task_timeout=0.3,
            faults=FaultPlan(seed=SEED).slow_task(
                "task:python", delay=1.2, times=1
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["fault.slow_tasks"] == 1
        assert c["worker.watchdog.fired"] == 1
        assert c["worker.watchdog.abandoned"] == 1
        # The embedded interpreters were recycled after the abandon.
        assert c["worker.watchdog.recycled"] == 1
        assert c["adlb.lease.requeued"] == 1

    def test_watchdog_idle_run_unaffected(self):
        # No task exceeds the timeout: the watchdog never fires and the
        # run is bit-identical to an unwatched one.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=1,
            engines=1,
            trace=True,
            task_timeout=30.0,
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c.get("worker.watchdog.fired", 0) == 0
        assert c.get("worker.watchdog.abandoned", 0) == 0


class TestCheckpointAcrossEngineDeath:
    def test_restore_after_run_crossing_engine_death(self, tmp_path):
        # Run 1 loses an engine (journal recovery keeps it going),
        # checkpoints past the death, and is then cut off by the
        # deadline; run 2 restores and finishes the remaining work.
        ckpt = str(tmp_path / "run.ckpt")
        program = (
            "foreach i in [0:9] {\n"
            '    string code = strcat("import time; time.sleep(0.2); '
            "open('%s/out_\", fromint(i), \"','w').write('\", fromint(i), "
            '"\'); x=", fromint(i));\n'
            '    string s = python(code, "x");\n'
            "    trace(s);\n"
            "}\n"
        ) % tmp_path
        with pytest.raises(DeadlineExceeded):
            swift_run(
                program,
                opt=RULES_IN_FLIGHT,
                workers=2,
                servers=1,
                engines=2,
                checkpoint_path=ckpt,
                checkpoint_interval=0.05,
                deadline=0.7,
                faults=FaultPlan(seed=SEED).kill_rank(
                    PROGRAM_ENGINE, after_tasks=3
                ),
            )
        assert os.path.exists(ckpt)
        done_before = {f for f in os.listdir(tmp_path) if f.startswith("out_")}
        assert len(done_before) < 10  # the run really was cut short
        res = swift_run(
            program, opt=RULES_IN_FLIGHT, workers=2, servers=1, engines=2, restore=ckpt
        )
        assert res.ok
        for i in range(10):
            assert (tmp_path / ("out_%d" % i)).read_text() == str(i)
