"""The unit-of-work boundary (``repro.turbine.unit``).

One table for every kind of unit — worker task, fired rule, control
task, program — pins the accounting each ending owes, and whole-stack
runs show why a unit's writes, rules, refcount decrements and printed
lines wait for it to end rather than take effect where the Tcl calls
them: a unit that raises leaves nothing behind, at one server or two.
"""

from __future__ import annotations

import itertools
import sys
import time
import types

import pytest

from repro import swift_run
from repro.adlb import constants as C
from repro.adlb.client import AdlbClient
from repro.faults import TaskError
from repro.mpi import AbortError, DeadlockError
from repro.obs.spine import Ring
from repro.turbine import RuntimeConfig, run_turbine_program
from repro.tcl.errors import TclError
from repro.tcl.interp import Interp
from repro.turbine.builtins import register_turbine
from repro.turbine.unit import KINDS, Held, UnitRunner

RANK = 3


class FakeClient:
    """Records the messages a runner sends, in order.  Its op lists are
    built by the real client's ``work`` and ``tasks``."""

    rank = RANK
    prov_unit = None
    carries_done = False
    work = AdlbClient.work
    tasks = AdlbClient.tasks

    def __init__(self, ring=None):
        self.ring = self.tracer = ring
        self.calls: list = []

    def decr_work(self, amount=1, poison=False):
        self.calls.append("decr_work(poison)" if poison else "decr_work")

    def task_fail(self, kind, error, traceback_text="", place=0):
        self.calls.append("task_fail")
        self.handed_back = (kind, error)

    def commit(self, ops):
        self.calls.append(("commit", list(ops)))
        return [5]  # what its subscribes found closed


class FakeEngine:
    """The engine's rule side: a SUBSCRIBE per distinct input, and
    registration recorded in the client's call list."""

    def __init__(self, client):
        self.client = client

    def subscriptions(self, specs):
        tds = dict.fromkeys(td for spec in specs for td in spec["inputs"])
        return [{"op": "SUBSCRIBE", "id": td, "rank": RANK} for td in tds]

    def add_rules(self, specs, closed):
        self.client.calls.append(("add_rules", list(specs), closed))


class FakeOutput:
    """The run's output, recorded in the client's call list."""

    def __init__(self, client):
        self.client = client

    def emit(self, rank, line):
        self.client.calls.append(("emit", rank, line))


class FakeInterp:
    def __init__(self, raises=None):
        self.raises = raises

    def eval(self, script):
        if self.raises is not None:
            raise self.raises


def make(on_error, raises=None, ring=None):
    client = FakeClient(ring)
    engine = FakeEngine(client)
    unit = UnitRunner(
        client,
        FakeInterp(raises),
        on_error,
        subscriptions=engine.subscriptions,
        add_rules=engine.add_rules,
        output=FakeOutput(client),
    )
    # A write and a decrement the unit performed before it ended.
    unit.held.writes.append(WRITE)
    unit.held.deferred[11] = [0, -1]
    return unit, client


def run(unit, kind):
    """Only a rule brings its own id (and name); the rest are numbered."""
    if kind == "rule":
        return unit.run(kind, "leaf", ident=7, label="name")
    return unit.run(kind, "leaf")


WRITE = {"op": "STORE", "id": 12, "value": 1, "subscript": None, "decr_write": 1}
# the deferred decrement, after the unit's writes, subscribes and spawns
DECREMENT = {"op": "REFCOUNT", "id": 11, "read_delta": 0, "write_delta": -1}


def counter_move(counted):
    """The op a finished unit ends with: the ``counted`` spawns and
    rules it holds counted, its own counter unit back."""
    return {"op": "WORK", "amount": counted - 1}


LANDED = ("commit", [WRITE, DECREMENT, counter_move(0)])
# a held input-free rule, as turbine::rule records it
RULE = dict(inputs=[], action="leaf", type="LOCAL", target=-1, priority=0, name="")
SERVER = 9  # the server the held spawns are bound for
POLICIES = ("retry", "continue", "fail_fast")


class TestOneTableEveryKind:
    @pytest.mark.parametrize("on_error", POLICIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_success_owes_exactly_one_commit(self, kind, on_error):
        unit, client = make(on_error)
        assert run(unit, kind) is True
        # When the Tcl returns, everything leaves in one step: the
        # writes, the decrements and the counter unit, in one commit;
        # nothing is left for the caller to send.
        assert client.calls == [LANDED]
        assert not unit.held.deferred and not unit.held.writes and not unit.failures

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_finished_unit_sends_its_spawns_as_one_put(self, kind):
        unit, client = make("retry")
        spawns = [("WORK", "leafA", 0, -1, SERVER), ("CONTROL", "ctaskB", 1, -1, SERVER)]
        unit.held.spawns.extend(spawns)
        assert run(unit, kind) is True
        # in the one commit the unit sends, after the writes and before
        # the decrements and the counter move that counts them
        put = {"op": "TASKS", "server": SERVER, "tasks": [s[:4] for s in spawns]}
        assert client.calls == [("commit", [WRITE, put, DECREMENT, counter_move(2)])]
        assert unit.held.spawns == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_held_rules_are_registered_before_the_put(self, kind):
        unit, client = make("retry")
        spawns = [("WORK", "leafA", 0, -1, SERVER)]
        rules = [RULE, dict(RULE, type="WORK", inputs=[5, 6]), dict(RULE, inputs=[6])]
        unit.held.spawns.extend(spawns)
        unit.held.rules.extend(rules)
        assert run(unit, kind) is True
        # One commit: the writes first, so the rules' subscribes (one
        # per input) find what the unit created; the put; the
        # decrements after the subscribes, so none frees a TD under a
        # rule; and the counter move last, which covers the rules' units
        # and the spawns' — a rejected subscribe fails the unit before
        # it.  The engine registers the rules once it landed, with the
        # inputs it found closed.
        sub = {"op": "SUBSCRIBE", "rank": RANK}
        put = {"op": "TASKS", "server": SERVER, "tasks": [("WORK", "leafA", 0, -1)]}
        assert client.calls == [
            ("commit", [WRITE, dict(sub, id=5), dict(sub, id=6), put, DECREMENT, counter_move(4)]),
            ("add_rules", rules, [5]),
        ]
        assert unit.held.spawns == [] and unit.held.rules == []

    @pytest.mark.parametrize("on_error", POLICIES)
    def test_a_failed_unit_drops_the_spawns_it_held(self, on_error):
        # ... and the rules and writes: the next unit that finishes must
        # not send, register or commit them
        unit, client = make(on_error, RecursionError("deep"))
        unit.held.spawns.append(("WORK", "leafA", 0, -1, SERVER))
        unit.held.rules.append(RULE)
        try:
            run(unit, "ctask")
        except TaskError:
            pass
        assert unit.held.spawns == [] and unit.held.rules == [] and unit.held.writes == []
        assert not any(call[0] in ("commit", "add_rules") for call in client.calls)
        unit.held.spawns.append(("WORK", "leafA", 0, -1, SERVER))
        unit.held.rules.append(RULE)
        unit.held.cut()
        assert unit.held.spawns == [] and unit.held.rules == []

    @pytest.mark.parametrize("on_error", POLICIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_printed_lines_go_out_just_before_the_commit_or_never(self, kind, on_error):
        unit, client = make(on_error)
        unit.held.printed.extend(["one", "two"])
        assert run(unit, kind) is True
        # before the commit: its data parts wake readers before its
        # master part lands, and what they run must print after these
        assert client.calls == [("emit", RANK, "one"), ("emit", RANK, "two"), LANDED]
        assert unit.held.printed == []
        unit, client = make(on_error, ValueError("boom"))
        unit.held.printed.append("one")
        try:
            run(unit, kind)
        except TaskError:
            pass
        # a unit that raised prints nothing, under every policy
        assert ("emit", RANK, "one") not in client.calls and unit.held.printed == []

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
            assert client.calls == ["decr_work"]
            assert (info.value.failure.kind, info.value.failure.rank) == (kind, RANK)
        assert not unit.held.deferred and not unit.failures

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
            assert client.calls == ["decr_work"]
        assert not unit.failures

    @pytest.mark.parametrize("kind", KINDS)
    def test_continue_records_and_poisons(self, kind):
        unit, client = make("continue", ValueError("boom"))
        assert run(unit, kind) is False
        # a failed unit lands nothing: not its writes, not its decrements
        assert client.calls == ["decr_work(poison)"]
        assert not unit.held.writes and not unit.held.deferred
        (failure,) = unit.failures
        assert (failure.kind, failure.rank, failure.payload) == (kind, RANK, "leaf")
        assert failure.error == "ValueError: boom" and "boom" in failure.traceback

    @pytest.mark.parametrize("kind", KINDS)
    def test_fail_fast_accounts_then_raises(self, kind):
        unit, client = make("fail_fast", ValueError("boom"))
        with pytest.raises(TaskError, match="boom"):
            run(unit, kind)
        assert client.calls == ["decr_work"]
        assert not unit.failures and not unit.held.writes and not unit.held.deferred

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
            unit.held.spawns.append(("WORK", "leafA", 0, -1, SERVER))
            unit.held.rules.append(RULE)
            unit.held.printed.append("late")
            assert unit.run("task", "leaf", guard=Expired()) is False
            assert client.calls == [] and not unit.held.deferred and not unit.failures
            assert unit.held.spawns == [] and unit.held.rules == [] and unit.held.writes == []
            assert unit.held.printed == []

    @pytest.mark.parametrize(
        "kind, ok, failed",
        [
            ("task", ["task_start", "refcount_flush", "task_done"], ["task_start", "task_fail"]),
            ("rule", ["rule_fire", "refcount_flush", "rule_fired"], ["rule_fire"]),
            ("ctask", ["ctask", "refcount_flush", "ctask_done"], ["ctask", "ctask_done"]),
            ("program", ["refcount_flush", "program"], ["program"]),
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
        # the decrements land in the unit's commit, so their flush comes
        # before the unit's span, and is attributed to the unit
        assert [e[0] for e in events] == ok
        assert events[-2][1:3] == (1, unit_id)
        assert events[-1][1:] == {
            "task": (4, unit_id, 0),
            "rule": (7, "name", 0),
            "ctask": (unit_id, 0, 0),
            "program": (unit_id, 0, 0),
        }[kind]
        events = stream(ValueError("boom"))
        # a failed unit lands no decrement: no refcount_flush follows
        assert [e[0] for e in events] == failed
        if kind != "rule":
            assert events[-1][1:] == {
                "task": (4, unit_id, "ValueError"),
                "ctask": (unit_id, "ValueError", 0),
                "program": (unit_id, "ValueError", 0),
            }[kind]


# ---------------------------------------------------- why a unit's effects wait

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
        attempt 1
        turbine::log_output "attempt 1"
        error "first attempt fails after its decrement"
    }
    attempt 2
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
    turbine::rule [ list $c ] { turbine::log_output closed } LOCAL
    turbine::rule [ list ] [ list slow $c ] WORK
}
proc slow { c } {
    turbine::write_refcount_decr $c 1
    if { [ first_attempt ] } {
        nap 0.6
    }
    turbine::log_output "slow done"
}
"""

STORE_RETRY = """
proc swift:main {} {
    set x [ turbine::allocate integer ]
    turbine::rule [ list $x ] [ list shown $x ] LOCAL
    turbine::rule [ list ] [ list flaky $x ] CONTROL
}
proc shown { x } {
    turbine::log_output "x=[ turbine::retrieve $x ]"
}
proc flaky { x } {
    if { ! [ info exists ::tried ] } {
        set ::tried 1
        turbine::store_integer $x 1
        error "first attempt fails after its store"
    }
    turbine::store_integer $x 2
}
"""


# A rule on a TD that does not exist, on the first attempt only.
MISSING_RULE_RETRY = """
proc swift:main {} {
    turbine::rule [ list ] flaky CONTROL
}
proc flaky {} {
    if { ! [ info exists ::tried ] } {
        set ::tried 1
        turbine::rule [ list 999999 ] { turbine::log_output "never" } LOCAL
    }
    turbine::log_output "attempt"
}
"""

# A rule on a TD the unit stored, then one on a TD that does not exist.
HALF_RULES = """
proc swift:main {} {
    turbine::rule [ list ] half CONTROL
}
proc half {} {
    set t [ turbine::allocate integer ]
    turbine::store_integer $t 1
    turbine::rule [ list $t ] { turbine::log_output "first rule fired" } LOCAL
    turbine::rule [ list 999999 ] { turbine::log_output "second rule fired" } LOCAL
}
"""

SPLIT_AFTER_STORE = """
proc swift:main {} {
    set x [ turbine::allocate integer ]
    turbine::store_integer $x 7
    half 0 199 1 $x
    nap 0.3
}
proc half { lo hi step x } {
    if { [ turbine::split_range half $lo $hi $step $x ] } return
    turbine::log_output "[ turbine::retrieve $x ] $lo"
}
"""


class TestWhyWritesWait:
    """Applied where the Tcl calls them, a failed attempt's writes and
    decrements would outlive it: its decrement would close the container
    early and the retry's drive its write refcount negative, and its
    store would fire the rules on the TD and make the retry's store
    ``stored twice``."""

    def test_retried_control_task_closes_its_container_once(self):
        attempts = []

        def setup(interp, ctx, client):
            interp.register("attempt", lambda it, args: attempts.append(args[0]) or "")

        res = run_turbine_program(
            CTASK_RETRY, RuntimeConfig(size=3, on_error="retry", audit=True), setup=setup
        )
        # The container closes after the retry, not after the failed
        # attempt, whose line is dropped with the rest of it.
        assert attempts == ["1", "2"]
        assert res.stdout_lines == ["attempt 2", "closed"]
        assert res.ok and res.audit.ok, res.audit.render()
        assert res.metrics["counters"]["adlb.lease.requeued"] == 1

    def test_abandoned_task_whose_late_attempt_finishes_closes_it_once(self):
        tried = []  # shared by the workers: the first attempt naps

        def first_attempt(it, args):
            tried.append(1)
            return "1" if len(tried) == 1 else "0"

        def setup(interp, ctx, client):
            interp.register("nap", lambda it, args: time.sleep(float(args[0])) or "")
            interp.register("first_attempt", first_attempt)

        res = run_turbine_program(
            SLOW_TASK,
            RuntimeConfig(size=4, on_error="retry", task_timeout=0.2, audit=True),
            setup=setup,
        )
        # Both attempts ran to their end; only the retry's decrement and
        # line landed.
        assert len(tried) == 2
        assert sorted(res.stdout_lines) == ["closed", "slow done"]
        assert res.ok and res.audit.ok, res.audit.render()
        counters = res.metrics["counters"]
        assert counters["worker.watchdog.abandoned"] == 1
        assert counters["adlb.lease.requeued"] == 1

    # size 3: engine, worker, server; size 4 with two servers: the same
    # one engine (the ::tried flag is its interpreter's) and a server more
    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_retried_store_lands_once(self, servers):
        config = RuntimeConfig(size=2 + servers, n_servers=servers, on_error="retry", audit=True)
        res = run_turbine_program(STORE_RETRY, config)
        assert res.stdout_lines == ["x=2"]
        assert res.ok and res.audit.ok, res.audit.render()

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_failed_store_never_fires_its_rule(self, servers):
        config = RuntimeConfig(size=2 + servers, n_servers=servers, on_error="continue")
        res = run_turbine_program(STORE_RETRY, config)
        assert res.stdout_lines == [] and not res.ok
        assert [f.kind for f in res.failures] == ["ctask"]
        assert "first attempt fails after its store" in res.failures[0].error

    def test_split_halves_find_what_their_unit_created(self):
        # split_range's halves are held like any spawn: they leave in the
        # unit's commit, after its writes.
        def setup(interp, ctx, client):
            interp.register("nap", lambda it, args: time.sleep(float(args[0])) or "")

        config = RuntimeConfig(size=5, n_engines=2)
        res = run_turbine_program(SPLIT_AFTER_STORE, config, setup=setup)
        assert sorted(res.stdout_lines) == ["7 0", "7 100", "7 150", "7 50"]
        assert res.ok

    @pytest.mark.parametrize("servers", [1, 2])
    def test_fail_fast_surfaces_the_original_error(self, servers):
        config = RuntimeConfig(size=2 + servers, n_servers=servers, on_error="fail_fast")
        with pytest.raises(TaskError, match="first attempt fails after its store") as info:
            run_turbine_program(STORE_RETRY, config)
        assert "twice" not in info.value.failure.error


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


class TestAUnitsCommitIsAllOrNothing:
    """A unit's subscribes travel in its commit, ahead of the increment
    that counts its rules and spawns, and its rules are registered only
    once that commit landed: a rule on a TD that does not exist fails
    the unit before it has counted anything or fired any rule, at one
    server or two (999999 lives on the second server)."""

    @staticmethod
    def config(servers, on_error):
        size = 2 + servers  # one engine (the ::tried flag is its own), one worker
        return RuntimeConfig(
            size=size, n_servers=servers, on_error=on_error, recv_timeout=3.0, deadline=6.0
        )

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_retried_unit_whose_rule_failed_leaks_no_count(self, servers):
        # The first attempt's increment was sent before its subscribe
        # failed, and the run never ended.
        res = run_turbine_program(MISSING_RULE_RETRY, self.config(servers, "retry"))
        assert res.stdout_lines == ["attempt", "attempt"]
        assert res.ok and res.metrics["counters"]["adlb.lease.requeued"] == 1

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_failed_units_first_rule_never_fires(self, servers):
        res = run_turbine_program(HALF_RULES, self.config(servers, "continue"))
        assert "first rule fired" not in res.stdout_lines
        assert [f.kind for f in res.failures] == ["ctask"]
        assert "999999" in res.failures[0].error


# A LOCAL rule that stores one TD and decrements another's write count.
STORE_AND_DECREMENT = """
proc swift:main {} {
    set c [ turbine::allocate_container 1 ]
    set x [ turbine::allocate integer ]
    turbine::rule [ list ] [ list fire $x $c ] LOCAL
}
proc fire { x c } {
    mark
    turbine::store_integer $x 1
    turbine::write_refcount_decr $c 1
}
"""

# A leaf task whose store the server rejects, beside one that naps.
WORKER_STORES_TWICE = """
proc swift:main {} {
    set x [ turbine::allocate integer ]
    turbine::store_integer $x 1
    turbine::rule [ list ] [ list twice $x ] WORK
    turbine::rule [ list ] slow WORK
}
proc twice { x } {
    turbine::store_integer $x 2
}
proc slow {} {
    nap 0.3
    turbine::log_output "slow done"
}
"""


class TestAFinishedUnitIsOneCommit:
    """A finished unit's writes, decrements and counter unit leave in
    one step, as one OP_COMMIT per server; the decrements and the -1
    were a second commit."""

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_local_rule_that_stores_and_decrements_sends_one_commit(self, servers):
        sent: list = []  # the engine's messages since the rule began

        def setup(interp, ctx, client):
            if client.rank != 0:  # rank 0 is the engine
                return
            send = client.comm.send

            def recording(msg, dest, tag=0):
                sent.append((msg, dest))
                send(msg, dest, tag)

            client.comm.send = recording
            interp.register("mark", lambda it, args: sent.clear() or "")

        config = RuntimeConfig(size=2 + servers, n_servers=servers, audit=True)
        res = run_turbine_program(STORE_AND_DECREMENT, config, setup=setup)
        assert res.ok and res.audit.ok, res.audit.render()
        commits = [(msg, dest) for msg, dest in sent if isinstance(msg, dict) and msg["op"] == C.OP_COMMIT]
        # x and c each on their home server, the counter move on the master
        homes = {dest for _, dest in commits}
        assert len(commits) == len(homes) <= servers
        ops = [op["op"] for msg, _ in commits for op in msg["ops"]]
        assert sorted(ops) == sorted([C.OP_STORE, C.OP_REFCOUNT, C.OP_WORK])

    def test_a_workers_rejected_commit_gives_its_unit_back_once(self):
        # The leaf's -1 ends its commit and would ride its worker's next
        # GET; owed before the commit landed, it rode the GET on top of
        # the failed unit's poisoned -1 and drove the counter negative.
        def setup(interp, ctx, client):
            interp.register("nap", lambda it, args: time.sleep(float(args[0])) or "")

        config = RuntimeConfig(size=4, on_error="continue", audit=True)
        res = run_turbine_program(WORKER_STORES_TWICE, config, setup=setup)
        assert res.stdout_lines == ["slow done"] and res.audit.ok, res.audit.render()
        (failure,) = res.failures
        assert failure.kind == "task" and "stored twice" in failure.error


# ------------------------------------------------ what a unit prints is held

# A python() leaf that prints, then a fused parseint of what it returned.
PRINT_THEN_RAISE = """
string s = python("import print_probe; x = print_probe.leaf(); print('printed', print_probe.runs)", "x");
int n = parseint(s);
trace(n);
"""

# An r() leaf that prints and fails; after a python() leaf, one that prints.
R_PRINT_THEN_STOP = """
string a = r("cat('hello 1'); stop('boom')", "1");
string p = python("", "'2'");
string b = r(strcat("cat('hello', ", p, ")"), "2");
trace(b);
"""

# Both engine and worker units that puts.
PUTS = """
proc swift:main {} {
    puts "from puts"
    turbine::rule [ list ] { puts "from a worker" } WORK
}
"""

# A leaf's output feeds two trace rules (used twice, nothing fuses).
LEAF_THEN_TRACES = """
string s = python("print('leaf printed')", "'x'");
trace(s, 1);
trace(s, 2);
"""


@pytest.fixture()
def print_probe(monkeypatch):
    """The module :data:`PRINT_THEN_RAISE`'s leaf calls: it counts its
    runs and returns ``answers`` in turn (``"oops"``, which parseint
    rejects, then ``"7"`` by default)."""
    mod = types.ModuleType("print_probe")
    mod.runs = 0
    mod.answers = ["oops", "7"]

    def leaf():
        mod.runs += 1
        return mod.answers[min(mod.runs, len(mod.answers)) - 1]

    mod.leaf = leaf
    monkeypatch.setitem(sys.modules, "print_probe", mod)
    return mod


class TestPrintedLinesAreHeld:
    """A unit's printed lines — ``printf`` / ``trace``, an embedded
    language's prints, Tcl ``puts`` — are held with its other effects
    and become output just before its commit: a unit that raised or was
    abandoned prints nothing, and a retried one prints once."""

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_leaf_whose_fused_op_raises_prints_nothing(self, print_probe, servers):
        print_probe.answers = ["oops"]
        res = swift_run(PRINT_THEN_RAISE, workers=1, servers=servers, on_error="continue")
        assert print_probe.runs == 1
        assert res.stdout_lines == []
        (failure,) = res.failures
        assert failure.kind == "task"

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_retried_leaf_prints_once(self, print_probe, servers):
        res = swift_run(PRINT_THEN_RAISE, workers=1, servers=servers, on_error="retry")
        assert print_probe.runs == 2
        assert res.stdout_lines == ["printed 2", "trace: 7"] and res.ok

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_failed_r_leafs_line_is_neither_printed_nor_carried_on(self, servers):
        # One worker: the failing leaf runs before the one that waits on p.
        res = swift_run(R_PRINT_THEN_STOP, workers=1, servers=servers, on_error="continue")
        assert res.stdout_lines == ["hello 2", "trace: 2"]
        (failure,) = res.failures
        assert "boom" in failure.error

    @pytest.mark.parametrize("servers", [1, 2])
    def test_puts_in_a_unit_is_output(self, servers):
        config = RuntimeConfig(size=2 + servers, n_servers=servers)
        res = run_turbine_program(PUTS, config)
        assert sorted(res.stdout_lines) == ["from a worker", "from puts"]

    @pytest.mark.parametrize("servers", [1, 2])
    def test_a_leafs_line_comes_before_what_its_output_fires(self, servers):
        res = swift_run(LEAF_THEN_TRACES, workers=2, servers=servers)
        assert res.stdout_lines[0] == "leaf printed"
        assert sorted(res.stdout_lines[1:]) == ["trace: x,1", "trace: x,2"]


class MarkClient:
    """What the held builtins ask of a client: ids and a server."""

    rank = RANK

    def __init__(self):
        self.ids = itertools.count(1)

    def allocate_id(self):
        return next(self.ids)

    def bound_for(self, target):
        return 0


def held_state(held: Held) -> tuple:
    deferred = {td: list(deltas) for td, deltas in held.deferred.items()}
    return (
        list(held.writes),
        list(held.spawns),
        list(held.rules),
        deferred,
        list(held.printed),
        held.scratch.snapshot(),
    )


class TestADropCutsAllOfHeld:
    """A guarded chunk's ``catch`` branch: ``turbine::drop`` takes every
    table of the unit's Held, and its scratch store, back to where
    ``turbine::spawned`` marked it, and keeps what the unit held before
    the mark — the chunk may run in place inside that unit."""

    BEFORE = (
        "set c [ turbine::allocate_container 3 ]\n"
        "set x [ turbine::allocate integer ]\n"
        "turbine::store_integer $x 5\n"
        "turbine::container_insert $c 0 $x 1\n"
        "turbine::rule [ list $x ] { turbine::log_output x } LOCAL\n"
        "turbine::spawn WORK { kept }\n"
        "turbine::write_refcount_decr $c 1\n"
        "turbine::log_output before\n"
    )
    AFTER = (
        "set y [ turbine::allocate integer ]\n"
        "turbine::container_insert $c 1 $y 1\n"
        "turbine::rule [ list $y ] { turbine::log_output y } LOCAL\n"
        "turbine::spawn WORK { dropped }\n"
        "turbine::write_refcount_decr $c 1\n"
        "turbine::read_refcount_decr $x 1\n"
        "turbine::log_output after\n"
    )

    def test_drop_returns_held_and_scratch_to_the_mark(self):
        held = Held()
        tables = (held.writes, held.spawns, held.rules, held.deferred, held.printed)
        interp = Interp()
        register_turbine(interp, MarkClient(), None, held)
        interp.eval(self.BEFORE)
        marked = held_state(held)
        interp.eval("set spawned [ turbine::spawned ]")
        interp.eval(self.AFTER)
        assert held_state(held) != marked
        assert interp.eval("turbine::exists $c 1") == "1"
        interp.eval("turbine::drop $spawned")
        assert held_state(held) == marked
        # ... in place: the builtins hold these very tables
        now = (held.writes, held.spawns, held.rules, held.deferred, held.printed)
        assert all(a is b for a, b in zip(tables, now))
        # what the fallback re-does is not a second insert
        assert interp.eval("turbine::exists $c 1") == "0"
        interp.eval(self.AFTER)
        assert held.printed == ["before", "after"]

    def test_a_mark_is_a_list_of_ints_and_nothing_else_is(self):
        held = Held(rules=False)
        interp = Interp()
        register_turbine(interp, MarkClient(), None, held)
        interp.eval(self.BEFORE.replace("turbine::rule", "# turbine::rule"))
        assert interp.eval("turbine::spawned") == "4 1 0 1 1 0 -1"
        for bad in ("turbine::drop {1 2 3}", "turbine::drop {1 2 3 4 5}", "turbine::drop {a b c d}"):
            with pytest.raises(TclError, match="usage: turbine::drop"):
                interp.eval(bad)
