"""The ADLB server core and its opt-in recovery collaborators.

These drive a :class:`Server` synchronously through ``dispatch`` (no
rank threads): what a plain server builds and refuses, how the one
``(client, channel)`` dedup table behaves, and — end to end — that the
canonical fan-out costs exactly the ops it did before the split.
"""

from __future__ import annotations

import time

import pytest

from repro import swift_run
from repro.adlb import constants as C
from repro.adlb.checkpoint import Checkpointer
from repro.adlb.client import AdlbClient, AdlbError
from repro.adlb.datastore import DataStoreError
from repro.adlb.dedup import PARKED, DedupTable
from repro.adlb.drain import Drain
from repro.adlb.journal import Journals, RuleJournal
from repro.adlb.layout import Layout, ServerMap
from repro.adlb.leases import RETRY_BACKOFF, Leases
from repro.adlb.replication import Replica, Replication
from repro.adlb.server import Server
from repro.adlb.workqueue import Task
from repro.faults import EngineLost, FaultPlan, FaultState, TaskError
from repro.mpi.comm import World
from repro.turbine.builtins import SPLIT_OVER

# engine 0, workers 1-2, then the server rank(s)
ENGINE, WORKER = 0, 1


def make_server(n_servers: int = 1, clock=time.monotonic, **kwargs):
    layout = Layout(size=3 + n_servers, n_servers=n_servers, n_engines=1)
    world = World(layout.size, recv_timeout=None, clock=clock)
    return Server(world.comm(layout.master_server), layout, **kwargs), world


def replies(world: World, rank: int, tag: int) -> list:
    comm, out = world.comm(rank), []
    while (got := comm.recv_poll(tag=tag, timeout=0)) is not None:
        out.append(got[0])
    return out


def commit(*ops) -> dict:
    return {"op": C.OP_COMMIT, "ops": list(ops)}


def work(amount: int, **poison) -> dict:
    return {"op": C.OP_WORK, "amount": amount, **poison}


def put(tasks: list) -> dict:
    # (a client routes a TASKS op by its ``server``; the server ignores it)
    return commit({"op": C.OP_TASKS, "tasks": tasks})


TASK_FAIL = {"op": C.OP_TASK_FAIL, "kind": "task", "error": "boom"}
PUT = put([(C.WORK, "leaf", 0, -1)])
GET = {"op": C.OP_GET, "types": [C.WORK]}
RULE = {"id": 1, "inputs": [7], "action": "x", "type": "LOCAL"}
RULE.update(target=-1, priority=0, name="r")
JOURNAL = {"op": C.OP_JOURNAL, "rank": ENGINE, "entries": [("create", RULE)]}


class TestRecoveryOffBuildsNothing:
    """Every server leases, drains and routes through a shard map; the
    opt-in features (replication, journaling, checkpoints) build
    nothing while they are off."""

    def test_plain_server_leases_drains_and_has_a_map(self):
        server, world = make_server()
        assert isinstance(server.leases, Leases) and isinstance(server.drain, Drain)
        assert isinstance(server.map, ServerMap) and server.map.master == server.rank
        for name in ("repl", "journals", "ckpt"):
            assert getattr(server, name) is None, name
        opt_in_types = (Replication, Replica, Journals, RuleJournal, Checkpointer)
        for name, value in vars(server).items():
            held = value.values() if isinstance(value, dict) else [value]
            assert not any(isinstance(v, opt_in_types) for v in held), name
        # ...and it can say so: state() carries the core's fields and the
        # lease slice, no opt-in collaborator's, and its hang-report line
        # elides every zero (queue depth, parked gets, work_count, dedup
        # slots, leases).
        state = server.state()
        assert (state["queued_tasks"], state["parked_gets"]) == (0, 0)
        assert (state["work_count"], state["poisoned"]) == (0, False)
        assert state["dedup_slots"] == {"rpc": 0, "async": 0}
        assert (state["leases"], state["delayed_tasks"], state["quarantined"]) == ({}, 0, 0)
        assert "journal_pending" not in state
        assert not any(key.startswith("repl") for key in state)
        lines = world.metrics.state_lines()
        assert lines == {server.rank: "server is_master=True attached_clients=3"}

    def test_each_feature_builds_only_its_own_collaborator(self, tmp_path):
        assert make_server(journal=True)[0].journals is not None
        ckpt = make_server(checkpoint_path=str(tmp_path / "c.ckpt"))[0]
        assert ckpt.ckpt is not None and ckpt.journals is None
        # (whether a layout can replicate is RuntimeConfig.resolve()'s
        # rule; the server builds what it is told to)
        smap = ServerMap(Layout(size=5, n_servers=2, n_engines=1))
        two = make_server(n_servers=2, replicate=True, server_map=smap)[0]
        assert two.repl is not None and two.map is smap
        assert two.journals is None and two.ckpt is None

    def test_engine_lost_with_journaling_on_does_not_blame_journaling(self):
        # The one engine dies holding a journaled rule: adoption fails
        # for want of a survivor, not because journaling was off.
        server, _ = make_server(journal=True)
        server.dispatch(JOURNAL, ENGINE, C.TAG_ONEWAY)
        with pytest.raises(EngineLost, match="no surviving engine") as info:
            server.leases.rank_dead(ENGINE, "lease expired")
        assert "disabled" not in str(info.value)
        assert "journal=True" not in str(info.value)

    def test_a_done_control_tasks_unit_is_not_repaired_again(self):
        # A finished control task's -1 leaves in its commit, before its
        # ctask_done is journaled: when the engine dies, its adopter
        # repairs the one pending rule only, and the lease is not
        # requeued (that would re-run the task's effects).
        layout = Layout(size=4, n_servers=1, n_engines=2)  # engines 0, 1
        world = World(layout.size, recv_timeout=None)
        server = Server(world.comm(layout.master_server), layout, journal=True)
        server.dispatch({"op": C.OP_GET_ASYNC, "types": [C.CONTROL]}, ENGINE, C.TAG_ONEWAY)
        server.dispatch(put([(C.CONTROL, "ctask", 0, -1)]), ENGINE, C.TAG_ONEWAY)
        assert replies(world, ENGINE, C.TAG_ASYNC) == [("ctask", C.CONTROL, "ctask")]
        entries = [("create", RULE), ("guard", 0), ("ctask_done",)]
        server.dispatch(dict(JOURNAL, entries=entries), ENGINE, C.TAG_ONEWAY)
        server.leases.rank_dead(ENGINE, "killed")
        ((kind, dead, rules, repair),) = replies(world, ENGINE + 1, C.TAG_ASYNC)
        assert (kind, dead, len(rules), repair) == ("adopt", ENGINE, 1, 1)
        assert server.leases.stats.requeued == 0 and server.queue.size == 0

    def test_ops_of_features_that_are_off_are_unknown_ops(self):
        server, world = make_server()
        for msg in (
            {"op": C.SOP_REPLICATE, "entries": [], "seq": 0},
            {"op": C.SOP_CKPT_REQ, "gen": 1},
        ):
            with pytest.raises(RuntimeError, match="unknown server op"):
                server.dispatch(msg, ENGINE, C.TAG_SERVER)
        journal = {"op": C.OP_JOURNAL, "rank": ENGINE, "entries": []}
        server.dispatch(journal, ENGINE, C.TAG_REQUEST)
        assert replies(world, ENGINE, C.TAG_RESPONSE) == [
            ("error", "unknown ADLB op 'JOURNAL'")
        ]
        with pytest.raises(DataStoreError, match="unknown ADLB op 'JOURNAL'"):
            server.dispatch(journal, ENGINE, C.TAG_ONEWAY)
        assert server.journals is None and server.repl is None

    def test_task_fail_without_leases_gives_up_at_once(self):
        # A report the server holds no lease for has nothing to retry.
        server, _ = make_server(on_error="continue")
        server.dispatch(commit(work(2)), ENGINE, C.TAG_ONEWAY)
        server.dispatch(TASK_FAIL, WORKER, C.TAG_ONEWAY)
        (failure,) = server.failures
        assert (failure.rank, failure.error, failure.attempts) == (WORKER, "boom", 1)
        assert server.work_count == 1 and server.poisoned
        with pytest.raises(TaskError, match="boom"):
            make_server()[0].dispatch(TASK_FAIL, WORKER, C.TAG_ONEWAY)

    def test_task_fail_with_leases_requeues_with_backoff(self):
        server, world = make_server(max_retries=1)
        server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        server.dispatch(GET, WORKER, C.TAG_REQUEST)
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("task", C.WORK, "leaf")]
        server.dispatch(TASK_FAIL, WORKER, C.TAG_ONEWAY)
        assert server.leases.stats.requeued == 1 and not server.failures
        assert server.state()["delayed_tasks"] == 1

    def test_zero_retries_gives_a_leased_unit_up_on_its_first_failure(self):
        server, world = make_server(max_retries=0)
        server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        server.dispatch(GET, WORKER, C.TAG_REQUEST)
        with pytest.raises(TaskError, match="boom") as info:
            server.dispatch(TASK_FAIL, WORKER, C.TAG_ONEWAY)
        failure = info.value.failure
        assert (failure.rank, failure.attempts, failure.payload) == (WORKER, 1, "leaf")
        assert server.leases.stats.requeued == 0 and not server.leases.table


class TestOneClock:
    """Every protocol timer of a server reads its ``Comm``'s clock and
    nothing else.  Each test moves a :class:`~tests.conftest.ManualClock`
    by hand — no thread, no sleep — and checks the timer on both sides
    of its bound, so it fails if the timer reads the wall clock."""

    def test_lease_expiry_requeues_the_unit(self, clock):
        server, world = make_server(
            lease_timeout=5.0,
            clock=clock,
            faults=FaultState(FaultPlan()),  # only an injected kill is silent
        )
        server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        server.dispatch(GET, WORKER, C.TAG_REQUEST)
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("task", C.WORK, "leaf")]
        clock.advance(4.9)
        server.leases.tick()
        assert server.leases.stats.expired == 0 and WORKER in server.leases.table
        clock.advance(0.2)
        server.leases.tick()
        assert server.leases.stats.expired == 1 and server.dead_ranks == {WORKER}
        assert server.leases.stats.requeued == 1 and not server.leases.table
        assert [t.payload for _, _, t in server.leases.delayed] == ["leaf"]

    def test_an_overdue_lease_is_swept_under_a_fault_plan_only(self, clock):
        # Without a plan no rank dies silently: a lease past its deadline
        # is a long leaf, and sweeping it ran the leaf twice and let both
        # commits decrement the termination counter.
        for faults, swept in ((None, False), (FaultState(FaultPlan()), True)):
            server, _ = make_server(lease_timeout=0.3, clock=clock, faults=faults)
            server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
            server.dispatch(GET, WORKER, C.TAG_REQUEST)
            clock.advance(60.0)
            server.leases.tick()
            assert (WORKER in server.leases.table) is not swept
            assert server.leases.stats.expired == int(swept)
            assert server.dead_ranks == ({WORKER} if swept else set())

    def test_backoff_releases_not_before_and_then_after_retry_backoff(self, clock):
        server, world = make_server(clock=clock)
        server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        server.dispatch(GET, WORKER, C.TAG_REQUEST)
        server.dispatch(TASK_FAIL, WORKER, C.TAG_ONEWAY)
        server.dispatch(GET, WORKER, C.TAG_REQUEST)  # parks: the unit is delayed
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("task", C.WORK, "leaf")]
        clock.advance(RETRY_BACKOFF - 0.001)
        server.leases.tick()
        assert replies(world, WORKER, C.TAG_RESPONSE) == []
        clock.advance(0.002)
        server.leases.tick()
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("task", C.WORK, "leaf")]
        assert server.leases.table[WORKER].task.attempts == 1

    def test_journal_staleness_has_the_rules_adopted(self, clock):
        layout = Layout(size=5, n_servers=1, n_engines=2)  # engines 0 and 1
        world = World(layout.size, recv_timeout=None, clock=clock)
        server = Server(
            world.comm(layout.master_server),
            layout,
            lease_timeout=2.0,
            journal=True,
            faults=FaultState(FaultPlan()),  # engines beat only under a plan
        )
        server.dispatch(JOURNAL, ENGINE, C.TAG_ONEWAY)
        clock.advance(1.9)
        server.journals.tick()
        assert replies(world, 1, C.TAG_ASYNC) == [] and not server.dead_ranks
        beat = {"op": C.OP_JOURNAL, "rank": ENGINE, "entries": []}
        server.dispatch(beat, ENGINE, C.TAG_ONEWAY)  # heard: the budget restarts
        clock.advance(1.9)
        server.journals.tick()
        assert replies(world, 1, C.TAG_ASYNC) == [] and not server.dead_ranks
        clock.advance(0.2)
        server.journals.tick()
        assert server.dead_ranks == {ENGINE}
        (adopt,) = replies(world, 1, C.TAG_ASYNC)
        assert adopt[:2] == ("adopt", ENGINE) and adopt[3] == 1
        assert [r["action"] for r in adopt[2]] == ["x"]

    def test_checkpoint_interval_starts_phase_one_and_ten_seconds_abandon_it(
        self, clock, tmp_path
    ):
        path = str(tmp_path / "c.ckpt")
        server, world = make_server(
            checkpoint_path=path, checkpoint_interval=2.0, clock=clock
        )
        server.dispatch(commit(work(1)), ENGINE, C.TAG_ONEWAY)
        clock.advance(1.9)
        server.ckpt.tick()
        assert replies(world, ENGINE, C.TAG_ASYNC) == []
        clock.advance(0.2)
        server.ckpt.tick()
        assert replies(world, ENGINE, C.TAG_ASYNC) == [("ckpt", 1)]
        clock.advance(9.9)  # the engine never answers
        server.ckpt.tick()
        assert server.ckpt.stats.abandoned == 0
        clock.advance(0.2)
        server.ckpt.tick()
        assert server.ckpt.stats.abandoned == 1
        server.ckpt.tick()  # the interval has long passed: the next round
        assert replies(world, ENGINE, C.TAG_ASYNC) == [("ckpt", 2)]

    def test_poisoned_drain_waits_out_its_quiescence_window(self, clock):
        server, world = make_server(on_error="continue", clock=clock)
        server.dispatch(commit(work(2)), ENGINE, C.TAG_ONEWAY)
        server.dispatch(TASK_FAIL, WORKER, C.TAG_ONEWAY)  # poisons; 1 unit stranded
        park = {"op": C.OP_GET_ASYNC, "types": [C.CONTROL]}
        server.dispatch(park, ENGINE, C.TAG_ONEWAY)
        for worker in (WORKER, WORKER + 1):
            server.dispatch(GET, worker, C.TAG_REQUEST)
        assert server.poisoned and server.drain.quiescent()
        server.drain.tick()  # quiescence first observed: the window opens
        clock.advance(0.09)
        server.drain.tick()
        assert not server.shutting_down
        clock.advance(0.02)
        server.drain.tick()
        assert server.shutting_down
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("shutdown",)]

    def test_done_waits_a_bounded_second_for_the_last_journal_flush(self, clock):
        # What Journals.sweep's receive loop was for: the engine's last
        # "done" may still be in flight when every client is released.
        def released(**kwargs):
            server, _ = make_server(journal=True, clock=clock, **kwargs)
            server.dispatch(JOURNAL, ENGINE, C.TAG_ONEWAY)
            server.shutting_down = True
            server._shutdown_acked = set(server.attached_clients)
            return server

        server = released()
        assert not server._done()  # a live engine's mirror holds a rule
        flush = dict(JOURNAL, entries=[("done", RULE["id"])])
        server.dispatch(flush, ENGINE, C.TAG_ONEWAY)
        assert server._done() and server.state()["journal_pending"] == {ENGINE: 0}
        # ...and if it never comes, the leak is left for the audit to flag
        server = released()
        assert not server._done()
        clock.advance(0.9)
        assert not server._done()
        clock.advance(0.2)
        assert server._done() and server.state()["journal_pending"] == {ENGINE: 1}
        # a dead engine's mirror is nobody's flush to wait for
        server = released()
        server.dead_ranks.add(ENGINE)
        assert server._done()

    @pytest.mark.parametrize("lease_timeout", [0.5, 1.0, 5.0])
    def test_silent_ward_is_declared_dead_well_inside_its_clients_leases(
        self, clock, lease_timeout
    ):
        # A client blocked on a dead server took its lease *before* that
        # server's last beat, so the ward bound must sit strictly inside
        # the lease: at min(lease_timeout, 5.0) the live worker was
        # swept first (0.46 s against 0.51 s after the last beat, at 0.5).
        layout = Layout(size=5, n_servers=2, n_engines=1)
        world = World(layout.size, recv_timeout=None, clock=clock)
        smap = ServerMap(layout)
        mine, ward = (
            Server(
                world.comm(r),
                layout,
                lease_timeout=lease_timeout,
                server_map=smap,
                replicate=True,
            )
            for r in layout.servers
        )
        worker = layout.workers[-1]  # 2: attached to `mine`, blocked on `ward`
        mine.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        mine.dispatch(GET, worker, C.TAG_REQUEST)
        assert worker in mine.leases.table

        def turn():  # one loop turn of `mine`, 10 ms later, as Server.run orders it
            clock.advance(0.01)
            while mine.pump(timeout=0):
                pass
            mine._idle_tick()

        for _ in range(5):  # the ward beats five more times, then goes silent
            ward.repl.flush(heartbeat=True)
            turn()
        for _ in range(int(2 * lease_timeout / 0.01)):
            if ward.rank in mine.repl.dead_servers:
                break
            turn()
        assert ward.rank in mine.repl.dead_servers
        assert worker not in mine.dead_ranks and mine.leases.stats.expired == 0
        assert mine.leases.table[worker].deadline - clock() >= lease_timeout / 4

    def test_pump_is_the_one_door(self):
        server, world = make_server()
        assert not server.pump(timeout=0)
        world.comm(ENGINE).send(PUT, server.rank, C.TAG_ONEWAY)
        world.comm(WORKER).send(GET, server.rank, C.TAG_REQUEST)
        assert server.pump(timeout=0) and server.queue.size == 1
        assert server.pump(timeout=0) and not server.pump(timeout=0)
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("task", C.WORK, "leaf")]


class TestTwoMessagesALeaf:
    """A chunk's spawns are one k-task TASKS op, and a worker's finished
    unit rides on its next GET as ``done`` — driven by hand, no thread."""

    def test_a_k_task_put_matches_parked_gets_in_list_order(self):
        server, world = make_server(n_servers=2, replicate=True)
        for worker in (WORKER + 1, WORKER):
            server.dispatch(GET, worker, C.TAG_REQUEST)  # both park
        tasks = [(C.WORK, "leaf-%d" % i, 0, -1) for i in range(4)]
        server.dispatch(put(tasks), ENGINE, C.TAG_ONEWAY)
        assert replies(world, WORKER + 1, C.TAG_RESPONSE) == [("task", C.WORK, "leaf-0")]
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("task", C.WORK, "leaf-1")]
        assert sorted(t.payload for t in server.queue.all_tasks()) == ["leaf-2", "leaf-3"]

        def logged():  # the op-log batches the buddy got since last asked
            sent = replies(world, server.repl.buddy, C.TAG_SERVER)
            batches = [m for m in sent if m["op"] == C.SOP_REPLICATE]
            return [[(e[0], e[1].payload) for e in b["entries"]] for b in batches]

        # the op-log holds each task exactly as k puts of one would, in
        # one batch: the bundle was one dispatch
        assert logged() == [
            [("grant", "leaf-0"), ("grant", "leaf-1"), ("task+", "leaf-2"), ("task+", "leaf-3")]
        ]
        # with nothing parked, k tasks are k task+ entries
        more = [(C.WORK, "leaf-%d" % i, 0, -1) for i in range(4, 7)]
        server.dispatch(put(more), ENGINE, C.TAG_ONEWAY)
        assert logged() == [[("task+", "leaf-%d" % i) for i in range(4, 7)]]

    def test_the_done_that_zeroes_the_counter_is_answered_shutdown(self):
        server, world = make_server()
        server.dispatch(commit(work(1)), ENGINE, C.TAG_ONEWAY)
        server.dispatch(GET, WORKER + 1, C.TAG_REQUEST)  # parks
        server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        assert replies(world, WORKER + 1, C.TAG_RESPONSE) == [("task", C.WORK, "leaf")]
        # the unit's lease closes, then its count goes back: the last one
        server.dispatch(dict(GET, done=1), WORKER + 1, C.TAG_REQUEST)
        assert not server.leases.table and server.work_count == 0
        assert server.shutting_down
        assert replies(world, WORKER + 1, C.TAG_RESPONSE) == [("shutdown",)]

    def test_only_a_plain_workers_get_carries_done(self):
        server, world = make_server()
        layout, anchor = server.layout, server.rank

        def answer(rank, *payloads):  # what the server would reply
            for payload in payloads:
                world.comm(anchor).send(payload, rank, C.TAG_RESPONSE)

        plain = AdlbClient(world.comm(WORKER + 1), layout)
        assert plain.carries_done
        plain.decr_work()  # owed, not sent
        answer(WORKER + 1, ("task", C.WORK, "leaf"))
        assert plain.get() == (C.WORK, "leaf")
        assert replies(world, anchor, C.TAG_ONEWAY) == []
        assert replies(world, anchor, C.TAG_REQUEST) == [dict(GET, done=1)]
        # a poisoned decrement arms the drain: it always travels alone
        plain.decr_work(poison=True)
        assert replies(world, anchor, C.TAG_ONEWAY) == [commit(work(-1, poison=True))]
        # an engine's next request is not a GET
        engine = AdlbClient(world.comm(ENGINE), layout)
        assert not engine.carries_done
        engine.decr_work()
        assert replies(world, anchor, C.TAG_ONEWAY) == [commit(work(-1))]
        # a re-sent parked GET is processed again: a done on it would
        # count twice, so a reliable client sends its decrement itself
        reliable = AdlbClient(world.comm(WORKER), layout, reliable=True)
        assert not reliable.carries_done
        answer(WORKER, ("ok", [], 1), ("task", C.WORK, "leaf", 2))
        reliable.decr_work()
        assert reliable.get() == (C.WORK, "leaf")
        assert replies(world, anchor, C.TAG_REQUEST) == [
            dict(commit(work(-1)), seq=1),
            dict(GET, seq=2),
        ]


    def test_a_plain_workers_minus_one_is_owed_only_once_its_commit_landed(self):
        server, world = make_server()
        anchor, rank = server.rank, WORKER + 1
        plain = AdlbClient(world.comm(rank), server.layout)
        store = {"op": C.OP_STORE, "id": 6, "value": 1}
        for reply, done in ((("error", "TD <6> does not exist"), {}), (("ok", []), {"done": 1})):
            world.comm(anchor).send(reply, rank, C.TAG_RESPONSE)
            try:
                plain.commit([store, work(-1)])
            except AdlbError:
                assert reply[0] == "error"
            world.comm(anchor).send(("task", C.WORK, "leaf"), rank, C.TAG_RESPONSE)
            assert plain.get() == (C.WORK, "leaf")
            # the store goes alone; its -1 rides the GET, unless the
            # store was rejected (the unit failed: its policy accounts it)
            assert replies(world, anchor, C.TAG_REQUEST) == [commit(store), dict(GET, **done)]


class TestOneCommitPerServer:
    """A unit's op list leaves a real client as one OP_COMMIT per
    server, in the order that keeps its increment behind everything a
    server can reject and ahead of every task it counts."""

    @staticmethod
    def client(monkeypatch):
        layout = Layout(size=5, n_servers=2, n_engines=1)  # servers 3 (master), 4
        world = World(layout.size, recv_timeout=None)
        client = AdlbClient(world.comm(ENGINE), layout)
        sent: list = []
        monkeypatch.setattr(client.comm, "send", lambda *msg: sent.append(msg))

        def answer(server, *payloads):  # what the servers would reply
            for payload in payloads:
                world.comm(server).send(payload, ENGINE, C.TAG_RESPONSE)

        return client, layout.servers, sent, answer

    def test_the_masters_commit_goes_last_and_other_servers_tasks_after_it(
        self, monkeypatch
    ):
        client, (master, other), sent, answer = self.client(monkeypatch)
        store = {"op": C.OP_STORE, "id": 6, "value": 1}  # TD 6 lives on the master
        ref = {"op": C.OP_STORE, "id": 7, "value": "x"}  # TD 7 on the other server
        subs = [{"op": C.OP_SUBSCRIBE, "id": td, "rank": ENGINE} for td in (7, 8)]
        here, there = (
            {"op": C.OP_TASKS, "server": s, "tasks": [(C.CONTROL, "half", 0, -1)]}
            for s in (master, other)
        )
        answer(other, ("ok", [7]))
        answer(master, ("ok", []))
        assert client.commit([store, ref, *subs, work(3), here, there]) == [7]
        assert sent == [
            (commit(ref, subs[0]), other, C.TAG_REQUEST),
            (commit(store, subs[1], work(3), here), master, C.TAG_REQUEST),
            (commit(there), other, C.TAG_ONEWAY),
        ]

    def test_a_rejected_commit_stops_the_increment(self, monkeypatch):
        client, (master, other), sent, answer = self.client(monkeypatch)
        missing = {"op": C.OP_SUBSCRIBE, "id": 999999, "rank": ENGINE}
        answer(other, ("error", "no such TD <999999>"))
        with pytest.raises(AdlbError, match="999999"):
            client.commit([missing, work(1)])
        assert sent == [(commit(missing), other, C.TAG_REQUEST)]

    def test_a_commit_with_no_data_op_is_a_oneway(self, monkeypatch):
        client, (master, _), sent, _ = self.client(monkeypatch)
        client.put("leaf")  # engine 0's own server is the master
        client.incr_work(2)
        tasks = {"op": C.OP_TASKS, "server": master, "tasks": [(C.WORK, "leaf", 0, -1)]}
        assert sent == [
            (commit(tasks), master, C.TAG_ONEWAY),
            (commit(work(2)), master, C.TAG_ONEWAY),
        ]


class TestDedupTable:
    def test_offer_and_merge_keep_the_higher_seq_per_client_and_channel(self):
        ours, theirs = DedupTable(), DedupTable()
        ours.slots[1, "rpc"] = (9, "ours-9")
        ours.slots[1, "async"] = (4, "ours-4")
        ours.slots[2, "rpc"] = (2, "ours-2")
        theirs.slots[1, "rpc"] = (7, "theirs-7")  # older: dropped
        theirs.slots[1, "async"] = (4, "theirs-4")  # tie: the heir's is newer
        theirs.slots[2, "rpc"] = (3, "theirs-3")  # newer: adopted
        theirs.slots[2, "async"] = (1, "theirs-1")  # unseen: adopted
        ours.merge(theirs)
        assert ours.slots == {
            (1, "rpc"): (9, "ours-9"),
            (1, "async"): (4, "ours-4"),
            (2, "rpc"): (3, "theirs-3"),
            (2, "async"): (1, "theirs-1"),
        }
        # op-log replay: a later entry with the same seq wins
        ours.offer(1, "async", 4, "replayed", ties=True)
        assert ours.slots[1, "async"] == (4, "replayed")
        assert ours.counts() == {"rpc": 2, "async": 2}

    def test_a_workers_get_and_its_commit_share_the_rpc_slot(self):
        # A worker has one request outstanding: its GET, whose reply is
        # the grant, and then the RPCs of the unit's commit.
        server, world = make_server(reliable=True)
        get = {"op": C.OP_GET, "types": [C.WORK], "seq": 1}
        server.dispatch(get, WORKER, C.TAG_REQUEST)  # nothing queued: parks
        assert server.dedup.slots == {(WORKER, "rpc"): (1, (C.TAG_RESPONSE, PARKED))}
        # a re-sent park re-parks (once), it is not answered or dropped
        server.dispatch(get, WORKER, C.TAG_REQUEST)
        assert [p.rank for p in server.parked] == [WORKER]
        assert server.repl_stats.dedup_hits == 1
        # work arrives: the grant is cached as the GET's reply, and a
        # duplicate GET is answered with it
        server.dispatch(commit(work(2)), ENGINE, C.TAG_ONEWAY)
        server.dispatch(PUT, ENGINE, C.TAG_ONEWAY)
        grant = ("task", C.WORK, "leaf", 1)
        assert server.dedup.slots[WORKER, "rpc"] == (1, (C.TAG_RESPONSE, grant))
        server.dispatch(get, WORKER, C.TAG_REQUEST)
        assert replies(world, WORKER, C.TAG_RESPONSE) == [grant, grant]
        assert server.stats.tasks_matched == 1 and not server.parked
        # the commit's RPC supersedes it: a late copy of the GET is dropped
        decr = dict(commit(work(-1)), seq=2)
        server.dispatch(decr, WORKER, C.TAG_REQUEST)
        server.dispatch(get, WORKER, C.TAG_REQUEST)
        assert replies(world, WORKER, C.TAG_RESPONSE) == [("ok", [], 2)]
        assert server.dedup.slots[WORKER, "rpc"][0] == 2 and server.work_count == 1
        assert server.state()["dedup_slots"] == {"rpc": 1, "async": 0}

    def test_rpc_reply_does_not_evict_outstanding_async_park(self):
        server, world = make_server(reliable=True)
        park = {"op": C.OP_GET_ASYNC, "types": [C.CONTROL], "seq": 5}
        server.dispatch(park, ENGINE, C.TAG_REQUEST)
        create = {"op": C.OP_CREATE, "id": 1, "type": C.T_INTEGER}
        create = {"op": C.OP_COMMIT, "ops": [create], "seq": 6}
        server.dispatch(create, ENGINE, C.TAG_REQUEST)
        server.dispatch(park, ENGINE, C.TAG_REQUEST)  # resend timer fired
        assert replies(world, ENGINE, C.TAG_RESPONSE) == [
            ("parked", 5),
            ("ok", [], 6),
            ("parked", 5),
        ]
        assert [p.rank for p in server.parked] == [ENGINE]
        get = {"op": C.OP_GET, "types": [C.WORK], "seq": 1}
        server.dispatch(get, WORKER, C.TAG_REQUEST)
        # what chaos/invariants.py bounds by the client count
        assert server.state()["dedup_slots"] == {"rpc": 2, "async": 1}

    def test_promotion_merges_the_wards_slots_replicate_on(self):
        server, _ = make_server(n_servers=2, replicate=True, reliable=True)
        ward = server.layout.servers[1]
        task = Task(type=C.WORK, payload="leaf", uid=7)
        grant = (C.TAG_RESPONSE, ("task", C.WORK, "leaf", 3))
        entries = [
            ("task+", task),
            ("grant", task, WORKER + 1, 3, grant),
            ("dedup", WORKER, 7, (C.TAG_RESPONSE, ("ok", None, 7))),
        ]
        batch = {"op": C.SOP_REPLICATE, "entries": entries, "seq": 3}
        server.dispatch(batch, ward, C.TAG_SERVER)
        mine = (C.TAG_RESPONSE, ("ok", None, 9))
        server.dedup.slots[WORKER, "rpc"] = (9, mine)  # newer than the ward's 7
        server.dedup.slots[WORKER + 1, "rpc"] = (2, (C.TAG_RESPONSE, PARKED))
        server.repl.server_dead(ward, "test")
        assert server.repl.stats.promotions == 1
        assert server.dedup.slots == {
            (WORKER, "rpc"): (9, mine),
            (WORKER + 1, "rpc"): (3, grant),
        }


FANOUT = (
    "foreach i in [0:%d] {\n"
    '    string s = python(strcat("x=", fromint(i)), "x");\n'
    "    trace(s);\n"
    "}\n"
)

COUNTERS = (
    "adlb.data_ops",
    "adlb.tasks_matched",
    "adlb.lease.granted",
    "engine.rules_created",
    "engine.notifications",
    "engine.control_tasks_run",
)
# What one leaf of the canonical python fan-out costs (constant in N,
# no per-run remainder).  A protocol-shrinking PR is *meant* to fail
# this and re-pin it; a refactor must not move it.
#
# Re-pinned on purpose by the STC IR (ISSUE 18): every input of the leaf
# is a closed value of the spawning control task, so it ships by value
# and `trace(s)` runs as the leaf's continuation — no TD, no rule.  What
# is left is one CONTROL task (the iteration) and one WORK task (the
# leaf): two matches, two leases.  No fusion case is left out.
#
# Re-pinned on purpose by loops of leaves (ISSUE 24), 0/2/2/0/0/1 ->
# 0/1/1/0/0/0: the loop proc evaluates the body itself and spawns the
# WORK task, so an iteration is no unit of work any more.  What a range
# of more than SPLIT_OVER iterations adds is per *run*, not per leaf:
# one CONTROL task (a match, a lease) per half it is split into.
PER_LEAF = dict(zip(COUNTERS, (0, 1, 1, 0, 0, 0)))
# -O0 runs no pass and is the differential oracle: it must stay the
# all-TD shape pinned before the IR existed.
PER_LEAF_O0 = dict(zip(COUNTERS, (24, 2, 2, 4, 3, 1)))
# Messages (``mpi.sends``) of the unsplit fan-out at 2w/1s/1e.  Per leaf
# the worker's GET and its grant, nothing else: the chunk's spawns are
# one n-task TASKS op in its unit's one commit, and each leaf's counter
# unit rides on its worker's next GET.  Per run: the engine's park, the
# program's increment, that one commit (the n tasks and WORK n - 1: the
# leaves counted, the program's unit back), the engine's shutdown, and
# each worker's last GET and its shutdown.
# Re-pinned on purpose by "two messages a leaf", 5n + 8 -> 2n + 10: the
# engine's incr_work and put and the worker's decr_work were three
# one-ways per leaf.  Re-pinned again when a unit's increment and spawns
# began to ride its commit, 2n + 10 -> 2n + 9: the chunk's incr_work
# and put are one message.  Re-pinned again when a unit became one
# commit, 2n + 9 -> 2n + 8: the chunk's WORK +n and the closing -1 of
# the program it runs in are one op.
SENDS_PER_LEAF, SENDS_PER_RUN = 2, 8

# One hop of the benchmark's dependent chain.  Per hop at the default
# level: 2 allocates (the reader TD of a[i], the member a[i+1]), the
# container_reference into the reader TD, the leaf rule's subscribe,
# the insert, and the task's retrieve + store = 7 data ops; 1 rule (the
# leaf); strcat runs at the top of the leaf's task body.  Reading a[i]
# is a server copy: the container's server issues a COPY of the member
# to the member's server, which stores its value into the reader TD
# when it closes (on one server both are applied in place and count
# no data op).
# The remainder is swift:main: the container, a[0], trace(a[N])'s
# reader TD, reference, subscribe and retrieve, the loop proc's
# write_refcount_incr and the program's decrement.
# Notifications: 1 per hop and 1 per run (trace(a[N])'s rule).  A unit
# subscribes a reader TD before the copy that fills it, so each of these
# rules is woken by its reader TD's close notice even when the member
# had already closed (hop 0's a[0]; a later hop whose previous leaf
# stored before the engine ran the hop's body).
CHAIN = (
    "string a[];\n"
    'a[0] = "1";\n'
    "foreach i in [0:%d] {\n"
    '    a[i+1] = python(strcat("x=", a[i], "*3+1*", fromint(i)), "x%%1000003");\n'
    "}\n"
    "trace(a[%d]);\n"
)
NOTIFICATIONS = "engine.notifications"
PER_HOP = dict(zip(COUNTERS, (7, 2, 2, 1, 1, 1)))
PER_CHAIN_RUN = dict(zip(COUNTERS, (10, 0, 0, 1, 1, 0)))
# Messages (``mpi.sends``) of the chain at 2w/1s/1e, less its
# notifications (one message each, pinned above).  The
# chain is no loop of leaves: its loop proc spawns one body control task
# per hop, and those n spawns leave with the loop proc's return as one
# incr_work(n) and one n-task put.  Re-pinned on purpose when every
# unit's spawns began leaving that way, 39n + 48 -> 37n + 50: they were
# an incr_work and a put each.  Re-pinned again when a unit's rules
# began to be held like its spawns, 37n + 50 -> 36n + 48: the rules and
# spawns of a unit share its one incr_work, so a body control task's
# two rules send one increment, not two, and swift:main's two rules and
# the n spawns one, not three.  Re-pinned again when a unit's writes
# began to leave as one commit per server, 36n + 48 -> 28n + 34: a body
# control task's five writes (3 creates, the insert, the container
# reference) were five RPCs, ten messages, and are one commit; so are
# swift:main's eight (4 creates, a store, an insert, the loop proc's
# write_refcount_incr, a container reference), which were sixteen.
# Re-pinned again when a unit's subscribes, increment and spawns began
# to ride its commit, 28n + 34 -> 22n + 26: per hop, the body control
# task's commit RPC, its incr_work and its two subscribe RPCs (seven
# messages) are one commit RPC, and deref_store's incr_work and
# subscribe RPC (three) another; per run, swift:main's commit, its
# incr_work, its put and its two subscribe RPCs (eight) are one commit
# RPC, one more rule's incr_work and subscribe RPC are one RPC, and a
# unit's closing decrement rides its refcount commit.  Re-pinned again
# when a unit became one commit, 22n + 26 -> 19n + 22: a finished
# unit's decrements and its -1 no longer follow its held work as a
# second commit.  Per hop, the body control task's, deref_store's and
# copy_td's closing -1 (a one-way each); per run, swift:main's
# decrement commit (an RPC, two messages) and the closing -1s of the
# deref_store and copy_td rules that read a[N] for trace.  Re-pinned
# again when a subscript read became a server copy, 19n + 22 ->
# 11n + 14: per hop, the deref_store rule's RETRIEVE and commit RPCs
# and the copy_td rule's RETRIEVE and store commit RPCs (eight
# messages) are gone; per run, the same eight of trace(a[N])'s read.
# What is left per hop: the body control task's grant, its commit RPC
# and the engine's re-park; the leaf rule's TASKS one-way; the leaf's
# grant, its RETRIEVE and commit RPCs and its worker's next GET.  Per
# run: the engine's first park, the program's increment, its id block
# RPC and commit RPC, trace(a[N])'s RETRIEVE RPC and closing -1, the
# engine's shutdown, and each worker's first GET and shutdown reply.
CHAIN_SENDS_PER_HOP, CHAIN_SENDS_PER_RUN = 11, 14


class TestProtocolShape:
    @staticmethod
    def counts(res) -> dict:
        return {k: res.metrics["counters"][k] for k in COUNTERS}

    @pytest.mark.parametrize("n", [6, 15])
    def test_fanout_costs_exactly_the_pinned_ops_per_leaf(self, n):
        res = swift_run(FANOUT % (n - 1), workers=2, servers=1, engines=1)
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(n))
        assert self.counts(res) == {k: v * n for k, v in PER_LEAF.items()}

    @pytest.mark.parametrize("n", [6, 15, 64])
    def test_fanout_sends_exactly_the_pinned_messages(self, n):
        assert n <= SPLIT_OVER  # one chunk, no split
        res = swift_run(FANOUT % (n - 1), workers=2, servers=1, engines=1)
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(n))
        sends = res.metrics["counters"]["mpi.sends"]
        assert sends == SENDS_PER_LEAF * n + SENDS_PER_RUN

    def test_a_long_fanout_adds_one_control_task_per_half(self):
        # 200 > SPLIT_OVER = 64: 200 -> 2 x 100 -> 4 x 50, which run
        assert SPLIT_OVER == 64
        n, halves = 200, 2 + 4
        res = swift_run(FANOUT % (n - 1), workers=2, servers=1, engines=1)
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(n))
        split = dict(zip(COUNTERS, (0, halves, halves, 0, 0, halves)))
        assert self.counts(res) == {k: PER_LEAF[k] * n + split[k] for k in COUNTERS}

    @pytest.mark.parametrize("n", [6, 15])
    def test_o0_fanout_keeps_the_all_td_shape(self, n):
        res = swift_run(FANOUT % (n - 1), workers=2, servers=1, engines=1, opt=0)
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(n))
        assert self.counts(res) == {k: v * n for k, v in PER_LEAF_O0.items()}

    @pytest.mark.parametrize("n", [6, 15])
    def test_chain_hop_costs_exactly_the_pinned_ops(self, n):
        res = swift_run(CHAIN % (n - 1, n), workers=2, servers=1, engines=1)
        x = 1
        for i in range(n):
            x = (x * 3 + i) % 1000003
        assert res.stdout_lines == ["trace: %d" % x]
        assert self.counts(res) == {k: PER_HOP[k] * n + PER_CHAIN_RUN[k] for k in COUNTERS}

    @pytest.mark.parametrize("n", [6, 15])
    def test_chain_sends_exactly_the_pinned_messages(self, n):
        res = swift_run(CHAIN % (n - 1, n), workers=2, servers=1, engines=1)
        counters = res.metrics["counters"]
        sends = counters["mpi.sends"] - counters[NOTIFICATIONS]
        assert sends == CHAIN_SENDS_PER_HOP * n + CHAIN_SENDS_PER_RUN
