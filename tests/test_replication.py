"""Server fault tolerance: replication, failover, checkpoint/restart.

Like :mod:`tests.test_faults`, every plan here is seeded from the
``FAULT_SEED`` environment variable (the CI matrix runs 0/1/2), so the
assertions must hold for *any* seed.  The CI job filters these tests
with ``-k replicate_on`` / ``-k replicate_off``, which is why those
substrings appear in the test names.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro import DeadlineExceeded, FaultPlan, ServerLost, swift_run
from repro.adlb import constants as C
from repro.adlb.checkpoint import CheckpointError, read_checkpoint, restore_plan, write_checkpoint
from repro.adlb.layout import Layout, ServerMap
from repro.adlb.dedup import PARKED
from repro.adlb.leases import _Lease
from repro.adlb.replication import Replica
from repro.adlb.server import Server
from repro.adlb.workqueue import Task
from repro.mpi.comm import DeadlockError, World

SEED = int(os.environ.get("FAULT_SEED", "0"))

# 2 ms leaves: all ten are queued at once (loops of leaves, ISSUE 24), and
# instant ones can be drained by one server's worker before the other
# server has seen the messages its kill point counts.
FANOUT = """
foreach i in [0:9] {
    string s = python(strcat("import time; time.sleep(0.002); x=", fromint(i)), "x");
    trace(s);
}
"""
FANOUT_EXPECTED = sorted("trace: %d" % i for i in range(10))


def counters(res) -> dict:
    return res.trace.metrics["counters"]


# With workers=2, servers=2, engines=1 the world has size 5; servers
# occupy the top ranks [3, 4] and rank 3 is the master (termination
# counter + TD id blocks).
MASTER, OTHER = 3, 4


class TestServerDeath:
    def test_server_kill_recovery_replicate_on(self):
        # A non-master server dies mid-run; its buddy promotes the
        # replica shard and the run completes with the right answer.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(OTHER, after_tasks=5),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["fault.kills"] == 1
        assert c["adlb.repl.server_deaths"] == 1
        assert c["adlb.repl.promotions"] == 1
        # Only the survivor reports server stats.
        assert len(res.server_stats) == 1

    def test_server_kill_by_value_fanout_replicate_on(self):
        # The default level gives this fan-out no TD: what the dead
        # server's shard holds is queued and leased *tasks*, whose
        # payloads carry their closed inputs through the requeue.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            audit=True,
            faults=FaultPlan(seed=SEED).kill_rank(OTHER, after_tasks=5),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        c = counters(res)
        assert c["adlb.data_ops"] == 0 and c["engine.rules_created"] == 0
        assert c["adlb.repl.promotions"] == 1
        assert res.audit.ok, res.audit.render()

    def test_master_kill_recovery_replicate_on(self):
        # The master dies: besides the shard, the heir must reconstruct
        # the termination counter and the TD id-block cursor, or the
        # run would never detect quiescence (or hand out stale ids).
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).kill_rank(MASTER, after_tasks=8),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.ok
        assert counters(res)["adlb.repl.promotions"] == 1

    def test_silent_server_kill_recovery_replicate_on(self):
        # A silent kill sends no dead-rank notification: the buddy must
        # notice the missing replication heartbeat on its own.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            lease_timeout=0.5,
            faults=FaultPlan(seed=SEED).kill_rank(
                OTHER, after_tasks=5, silent=True
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        c = counters(res)
        assert c["adlb.repl.server_deaths"] == 1
        assert c["adlb.repl.promotions"] == 1

    @pytest.mark.parametrize("dead", ["master", "other"])
    def test_monitor_reads_across_server_death_replicate_on(self, dead):
        # --monitor reads the counter table and the gauges of whichever
        # servers are alive: a dead server's matches still count, its
        # gauges leave the sample, and the heir (adopted clients, the
        # termination counter if the master died) is read like any other.
        # Four clients: engines 0-1, workers 2-3; servers 4 (master), 5.
        n = 200
        res = swift_run(
            "foreach i in [0:%d] {\n"
            '    string s = python(strcat("x=", fromint(i)), "x");\n'
            "    trace(s);\n"
            "}\n" % (n - 1),
            workers=2,
            servers=2,
            engines=2,
            monitor=True,
            monitor_interval=0.01,
            faults=FaultPlan(seed=SEED).kill_rank(
                4 if dead == "master" else 5, after_tasks=30
            ),
        )
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(n))
        assert res.metrics["counters"]["adlb.repl.promotions"] == 1
        final = res.timeline[-1]
        # One leaf per iteration and a control task per half the range
        # was split into (2 + 4 of them: 200 -> 100 -> 50); requeues add
        # to it.  It was >= 2 * n while every iteration was a control
        # task of its own (re-pinned by ISSUE 24).
        assert final.tasks >= n + 6
        assert final.tasks == res.metrics["counters"]["adlb.tasks_matched"]
        assert (final.clients, final.outstanding) == (4, 0)
        assert sorted(final.ranks) == [5 if dead == "master" else 4]
        tasks = [s.tasks for s in res.timeline]
        assert tasks == sorted(tasks)

    def test_scavenged_messages_are_counted_as_received(self):
        # drain_dead adopts what a dead rank never received; every such
        # message is a recv of the scavenger, counted and stamped like
        # any other (mpi.sends == mpi.recvs must survive a server death).
        from repro.obs import Recorder

        rec = Recorder(level=1)
        world = World(3, recorder=rec)
        sender, scavenger = world.comm(0), world.comm(2)
        for k in range(4):
            sender.send({"k": k}, dest=1, tag=C.TAG_SERVER)
        adopted = scavenger.drain_dead(1)
        assert [m["k"] for m, _ in adopted] == [0, 1, 2, 3]
        assert world.stats[2].recvs == 4 == world.stats[0].sends
        recvs = [
            e
            for e in rec.freeze().events
            if (e.category, e.name, e.rank) == ("mpi", "recv", 2)
        ]
        assert [e.payload["source"] for e in recvs] == [0] * 4
        # the scavenger inherited the senders' causal history
        assert scavenger.ring.clock > sender.ring.clock

    def test_server_kill_replicate_off_raises_server_lost(self):
        # Replication explicitly off: the death is unrecoverable, and
        # it must surface as a prompt diagnostic naming the dead rank,
        # not as a hang or an opaque timeout.
        t0 = time.perf_counter()
        with pytest.raises(ServerLost, match="server rank %d lost" % OTHER):
            swift_run(
                FANOUT,
                workers=2,
                servers=2,
                replicate=False,
                faults=FaultPlan(seed=SEED).kill_rank(OTHER, after_tasks=5),
            )
        assert time.perf_counter() - t0 < 10.0

    def test_single_server_kill_replicate_off_raises_server_lost(self):
        # A lone server has no buddy, so replication cannot be on; its
        # death still produces the diagnostic rather than a hang.
        with pytest.raises(ServerLost, match="replication is disabled"):
            swift_run(
                FANOUT,
                workers=3,
                servers=1,
                faults=FaultPlan(seed=SEED).kill_rank(4, after_tasks=5),
            )

    def test_replicate_on_needs_two_servers(self):
        with pytest.raises(ValueError, match="n_servers >= 2"):
            swift_run(FANOUT, workers=3, servers=1, replicate=True)


class TestMessageFaults:
    """Satellite: the client<->server RPC path under drops and delays.

    The key invariant is *no duplicate work*: a re-sent request that
    already landed must hit the server's dedup slot, never enqueue a
    second copy of a task or double-apply a mutation — so every run
    executes exactly 10 leaf tasks and prints exactly 10 lines.
    """

    def test_request_drops_resend_replicate_off(self):
        # Single server (replication off); dropped client->server
        # requests are re-sent after the resend interval.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=1,
            trace=True,
            faults=FaultPlan(seed=SEED).drop_messages(
                tag=C.TAG_REQUEST, times=3
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10
        c = counters(res)
        assert c["fault.dropped_msgs"] == 3
        assert c["adlb.rpc.resends"] >= 3

    def test_response_drops_dedup_replicate_off(self):
        # Dropped server->client replies: the client re-sends, and the
        # server recognizes the duplicate sequence number and re-sends
        # the cached reply instead of reprocessing the operation.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=1,
            trace=True,
            faults=FaultPlan(seed=SEED).drop_messages(
                tag=C.TAG_RESPONSE, times=3
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10
        c = counters(res)
        assert c["adlb.rpc.resends"] >= 3
        assert c["adlb.repl.dedup_hits"] >= 1

    def test_request_drops_resend_replicate_on(self):
        # Same invariant with two replicating servers: re-sends and
        # replication must not double-queue work.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).drop_messages(
                tag=C.TAG_REQUEST, times=3
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10

    def test_probabilistic_delay_jitter_replicate_on(self):
        # Seeded random message delays reorder traffic without losing
        # it; the run must stay exactly-once from the outside.
        res = swift_run(
            FANOUT,
            workers=2,
            servers=2,
            trace=True,
            faults=FaultPlan(seed=SEED).delay_messages(
                probability=0.2, delay=0.002, times=None
            ),
        )
        assert sorted(res.stdout_lines) == FANOUT_EXPECTED
        assert res.tasks_run == 10


class TestCheckpointRestart:
    def _program(self, tmp_path) -> str:
        # Each leaf task writes its own marker file, so completion is
        # observable across two separate runs (stdout dies with run 1).
        return (
            "foreach i in [0:9] {\n"
            '    string code = strcat("import time; time.sleep(0.12); '
            "open('%s/out_\", fromint(i), \"','w').write('\", fromint(i), "
            '"\'); x=", fromint(i));\n'
            '    string s = python(code, "x");\n'
            "    trace(s);\n"
            "}\n"
        ) % tmp_path

    def test_restore_resumes_killed_world(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        program = self._program(tmp_path)
        with pytest.raises(DeadlineExceeded):
            swift_run(
                program,
                workers=1,
                servers=1,
                checkpoint_path=ckpt,
                checkpoint_interval=0.05,
                deadline=0.7,
            )
        assert os.path.exists(ckpt)
        done_before = {
            f for f in os.listdir(tmp_path) if f.startswith("out_")
        }
        assert len(done_before) < 10  # the run really was cut short
        res = swift_run(program, workers=1, servers=1, restore=ckpt)
        assert res.ok
        for i in range(10):
            path = tmp_path / ("out_%d" % i)
            assert path.read_text() == str(i)

    def test_a_pending_copy_survives_a_checkpoint(self, tmp_path):
        # A restored shard still owes the copies it held: a COPY waiting
        # on its source and a reference waiting on its member.
        layout = Layout(size=4, n_servers=1, n_engines=1)
        server = Server(World(4, recv_timeout=None).comm(3), layout)
        src, dst, c, member, reader = range(1, 6)
        ops = [{"op": C.OP_CREATE, "id": td, "type": C.T_INTEGER} for td in (src, dst, member)]
        ops += [
            {"op": C.OP_CREATE, "id": reader, "type": C.T_INTEGER},
            {"op": C.OP_CREATE, "id": c, "type": C.T_CONTAINER, "write_refcount": 2},
            {"op": C.OP_COPY, "id": src, "dst": dst},
            {"op": C.OP_CONTAINER_REF, "id": c, "subscript": "3", "dst": reader},
            {"op": C.OP_SUBSCRIBE, "id": dst, "rank": 0},
        ]
        server.dispatch({"op": C.OP_COMMIT, "ops": ops}, 0, C.TAG_ONEWAY)
        ckpt = str(tmp_path / "copy.ckpt")
        shard = {"store": server.store.snapshot(), "tasks": [], "next_id": 6}
        shape = {"version": 2, "size": 4, "n_servers": 1, "n_engines": 1}
        write_checkpoint(ckpt, dict(shape, servers={3: shard}, engines={}))
        plan = restore_plan(read_checkpoint(ckpt), layout)
        comm = World(4, recv_timeout=None).comm(3)
        restored = Server(comm, layout, restore_shard=plan["server_shards"][3])
        assert restored.state()["pending_copies"] == 2
        assert restored.store.lookup(dst).subscribers == []  # rules re-subscribe
        later = [
            {"op": C.OP_STORE, "id": src, "value": 5},
            {"op": C.OP_STORE, "id": c, "value": member, "subscript": "3"},
            {"op": C.OP_STORE, "id": member, "value": 9},
        ]
        restored.dispatch({"op": C.OP_COMMIT, "ops": later}, 0, C.TAG_ONEWAY)
        assert (restored.store.retrieve(dst), restored.store.retrieve(reader)) == (5, 9)
        assert restored.state()["pending_copies"] == 0

    def test_restore_checkpoint_validated(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        program = self._program(tmp_path)
        with pytest.raises(DeadlineExceeded):
            swift_run(
                program,
                workers=1,
                servers=1,
                checkpoint_path=ckpt,
                checkpoint_interval=0.05,
                deadline=0.7,
            )
        image = read_checkpoint(ckpt)
        assert image["version"] == 2
        # Restoring into a different world shape is refused up front.
        with pytest.raises(CheckpointError, match="identically-shaped"):
            swift_run(program, workers=3, servers=1, restore=ckpt)

    def test_an_image_of_the_old_format_is_refused(self, tmp_path):
        # v1 images name the deleted deref_store / copy_td rule procs
        # and carry no pending copies
        ckpt = str(tmp_path / "old.ckpt")
        write_checkpoint(ckpt, {"version": 1, "servers": {}, "engines": {}})
        with pytest.raises(CheckpointError, match="is not a v2 repro checkpoint"):
            read_checkpoint(ckpt)

    def test_restore_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            swift_run(
                FANOUT,
                workers=2,
                servers=1,
                restore=str(tmp_path / "nope.ckpt"),
            )


class TestHangDiagnostics:
    def test_server_diagnostic_reports_leases_and_repl_lag(self, clock):
        # A hang report must say what the owning server holds, not just
        # queue depths: every fact below is in state(), and in the line
        # the hang report and the black box render from it.
        layout = Layout(size=5, n_servers=2, n_engines=1)
        world = World(5, recv_timeout=None, clock=clock)
        server = Server(
            world.comm(MASTER),
            layout,
            journal=True,
            server_map=ServerMap(layout),
            replicate=True,
        )
        server.dispatch(commit(work(4)), 0, C.TAG_ONEWAY)
        for payload in ("queued-a", "queued-b"):
            server.dispatch(put_msg(payload), 0, C.TAG_ONEWAY)
        park = {"op": C.OP_GET_ASYNC, "types": [C.CONTROL]}
        server.dispatch(park, 0, C.TAG_ONEWAY)
        server.leases.table[1] = _Lease(
            task=Task(payload="leaf-task-payload", type=C.WORK, uid=77),
            client=1,
            deadline=clock() + 30.0,
        )
        server.leases.requeue(Task(payload="backing-off", type=C.WORK), 1)
        server.leases.quarantine(Task(payload="poison", type=C.WORK), 2, "died", 3)
        rule = {"id": 1, "inputs": [7], "action": "x", "type": "LOCAL"}
        rule.update(target=-1, priority=0, name="r")
        entries = [("create", rule), ("guard", 1), ("ctask_done",)]
        journal = {"op": C.OP_JOURNAL, "rank": 0, "entries": entries}
        server.dispatch(journal, 0, C.TAG_ONEWAY)
        server.repl.seq, server.repl.acked = 7, 4
        server.repl.dead_servers.add(9)
        clock.advance(1.5)

        state = server.state()
        assert (state["queued_tasks"], state["parked_gets"]) == (2, 1)
        assert state["delayed_tasks"] == 1 and state["quarantined"] == 1
        assert state["leases"] == {1: "77: leaf-task-payload (28.5s left)"}
        assert (state["repl_lag"], state["repl_sent"], state["repl_acked"]) == (3, 7, 4)
        assert (state["buddy"], state["dead_servers"]) == (OTHER, [9])
        assert state["journal_pending"] == {0: 1}
        assert (state["journal_guard"], state["journal_ctask_done"]) == ([0], [0])
        # (the quarantined unit gave its counter unit back, poisoned)
        assert (state["work_count"], state["poisoned"]) == (3, True)
        # One registration, one render: hang reports (DeadlockError) and
        # the black box pick the same line up from the run's table.
        assert world.metrics.sources[MASTER] == server.state
        line = world.metrics.state_lines()[MASTER]
        assert line.startswith("server is_master=True work_started=True work_count=3")
        for fact in (
            "poisoned=True",
            "queued_tasks=2",
            "parked_gets=1",
            "delayed_tasks=1",
            "leases={1: '77: leaf-task-payload (28.5s left)'}",
            "quarantined=1",
            "journal_pending={0: 1}",
            "journal_guard=[0]",
            "journal_ctask_done=[0]",
            "repl_lag=3 repl_sent=7 repl_acked=4 buddy=%d dead_servers=[9]" % OTHER,
        ):
            assert fact in line, fact
        with pytest.raises(DeadlockError) as info:
            world.comm(1).recv(source=MASTER, timeout=0.01)
        assert "\n  rank %d: %s" % (MASTER, line) in str(info.value)

    def test_a_broken_state_does_not_mask_the_hang(self):
        world = World(2, recv_timeout=None)
        world.metrics.sources[0] = lambda: 1 // 0
        world.metrics.sources[1] = lambda: {"role": "worker", "rank": 1}
        assert world.metrics.state_lines() == {
            0: "<diagnostic failed: integer division or modulo by zero>",
            1: "worker",
        }


def replicated_servers(n=3, clock=time.monotonic, workers=2, **options):
    """``n`` replicated servers on one world, driven by hand (ranks:
    engine 0, the workers from 1, then the servers; each server's buddy
    is the next in ring order)."""
    layout = Layout(size=n + 1 + workers, n_servers=n, n_engines=1)
    world = World(layout.size, recv_timeout=None, clock=clock)
    options.update(server_map=ServerMap(layout), replicate=True)
    return world, [Server(world.comm(r), layout, **options) for r in layout.servers]


def deliver(world, server):
    """Dispatch what sits in ``server``'s mailbox."""
    for payload, status in world.comm(server.rank).drain_dead(server.rank):
        server.dispatch(payload, status.source, status.tag)


class TestShutdownHandshake:
    """A server's last op-log entry is "bye"; its buddy does not leave
    (and does not promote it) while that is unsettled."""

    def test_bye_settles_the_ward(self):
        world, (ward, buddy, _other) = replicated_servers()
        assert ward.repl.buddy == buddy.rank
        assert not buddy.repl.wards_settled()
        buddy.shutting_down = True
        buddy._shutdown_acked = set(buddy.attached_clients)
        assert not buddy._done()  # its ward has not spoken yet
        ward._op_shutdown()
        deliver(world, buddy)
        assert buddy.repl.departed == {ward.rank}
        assert buddy.repl.wards_settled() and buddy._done()

    def test_departed_ward_is_never_promoted(self, clock):
        world, (ward, buddy, _other) = replicated_servers(clock=clock)
        ward._op_shutdown()
        deliver(world, buddy)
        clock.advance(3600.0)
        buddy.repl.tick()
        assert buddy.repl.stats.promotions == 0
        assert ward.rank in buddy.map.alive

    def test_silent_ward_is_promoted_then_settled(self, clock):
        world, (ward, buddy) = replicated_servers(2, clock=clock)
        assert not buddy.repl.wards_settled()
        buddy.repl.tick()  # never heard from: its 5 s of silence start now
        for beats in (1, 2):  # its own beat: 0.25 s after the last flush
            clock.advance(0.24)
            buddy.repl.tick()
            assert buddy.repl.stats.heartbeats == beats - 1
            clock.advance(0.02)
            buddy.repl.tick()
            assert buddy.repl.stats.heartbeats == beats
        clock.advance(4.4)
        ward.repl.flush(heartbeat=True)  # heard after 4.92 s: the budget restarts
        deliver(world, buddy)
        clock.advance(4.9)
        buddy.repl.tick()
        assert buddy.repl.stats.promotions == 0 and not buddy.repl.wards_settled()
        clock.advance(0.2)
        buddy.repl.tick()
        assert buddy.repl.stats.promotions == 1
        assert buddy.repl.wards_settled()  # a dead ward is not waited for

    def test_bye_is_repeated_to_a_new_buddy(self):
        world, (ward, buddy, heir) = replicated_servers()
        ward._op_shutdown()  # this bye goes to a buddy that then dies
        ward.repl.server_dead(buddy.rank, "killed")
        assert ward.repl.buddy == heir.rank
        heir.repl.server_dead(buddy.rank, "killed")
        assert not heir.repl.wards_settled()
        deliver(world, heir)
        assert ward.rank in heir.repl.departed and heir.repl.wards_settled()


ENGINE, WORKER = 0, 1
GET = {"op": C.OP_GET, "types": [C.WORK]}
TASK_FAIL = {"op": C.OP_TASK_FAIL, "kind": "task", "error": "boom"}
STEAL_REQ = {"op": C.SOP_STEAL_REQ, "types": [C.CONTROL, C.WORK]}


def commit(*ops):
    return {"op": C.OP_COMMIT, "ops": list(ops)}


def work(amount):
    return {"op": C.OP_WORK, "amount": amount}


def tasks_op(payload, type=C.WORK, target=-1):
    # (a client routes a TASKS op by its ``server``; the server ignores it)
    return {"op": C.OP_TASKS, "tasks": [(type, payload, 0, target)]}


def put_msg(payload, type=C.WORK, target=-1):
    return commit(tasks_op(payload, type, target))


PUT = put_msg("leaf")


class TestReplicaFollowsOwner:
    """After every dispatch the buddy's shadow equals the owner's image
    (``Replication.image``) — the units queued or backing off, who holds
    which lease, dedup slots, counter, ids, dead ranks, journal mirrors,
    the store — so whenever the owner dies its heir runs each unit once.
    (The oracle of ROADMAP item 3's schedule search: reverting the
    op-log line a test names fails that test and the random walk.)"""

    def pair(self, **options):
        world, (owner, buddy) = replicated_servers(2, **options)
        self.world, self.owner, self.buddy = world, owner, buddy
        return owner, buddy

    def settle(self):
        """Deliver the owner's op-log to the buddy (and what comes back:
        acks, a thief's own op-log); then the shadow the buddy fed entry
        by entry must equal a shadow built from the owner's whole image."""
        owner, buddy = self.owner, self.buddy
        if owner.repl.buf:  # logged outside a dispatch (a tick)
            owner.repl.flush()
        for _ in range(2):
            deliver(self.world, buddy)
            deliver(self.world, owner)
        shadow, image = buddy.repl.replicas[owner.rank], Replica(owner.repl.image())
        assert shadow.tasks == image.tasks
        assert shadow.leases == image.leases
        # (a parked GET's slot is the owner's alone: the client re-sends it)
        slots = {k: v for k, v in image.dedup.slots.items() if v[1][1] is not PARKED}
        assert {k: v for k, v in shadow.dedup.slots.items() if k in slots} == slots
        assert set(shadow.dedup.slots) <= set(image.dedup.slots)
        assert (shadow.work, shadow.next_id) == (image.work, image.next_id)
        assert shadow.dead_ranks == image.dead_ranks
        mirrors = [
            {e: (j.rules, j.guard, j.ctask_done) for e, j in r.journals.items()}
            for r in (shadow, image)
        ]
        assert mirrors[0] == mirrors[1]
        assert shadow.store.snapshot() == image.store.snapshot()

    def step(self, msg, source, tag):
        """One dispatch at the owner, then :meth:`settle`."""
        owner = self.owner
        owner.dispatch(msg, source, tag)
        self.settle()
        held = owner.queue.all_tasks() + [t for _, _, t in owner.leases.delayed]
        leased = {c: lease.task.uid for c, lease in owner.leases.table.items()}
        return held, leased

    def promoted(self):
        """The owner dies; what its heir then holds, as payloads."""
        buddy = self.buddy
        buddy.repl.server_dead(self.owner.rank, "killed")
        held = buddy.queue.all_tasks() + [t for _, _, t in buddy.leases.delayed]
        leased = {c: lease.task.payload for c, lease in buddy.leases.table.items()}
        return sorted(t.payload for t in held), leased

    def test_put_get_and_dead_rank_sweep(self):
        owner, _ = self.pair()
        held, leased = self.step(PUT, ENGINE, C.TAG_ONEWAY)
        assert len(held) == 1 and not leased
        held, leased = self.step(GET, WORKER, C.TAG_REQUEST)
        assert not held and list(leased) == [WORKER]
        dead = {"op": C.SOP_RANK_DEAD, "rank": WORKER, "reason": "killed"}
        held, leased = self.step(dead, WORKER, C.TAG_SERVER)
        assert len(held) == 1 and not leased and owner.leases.delayed
        assert self.promoted() == (["leaf"], {})

    def test_failed_attempt_with_a_retry_left_closes_the_lease(self):
        # Leases.op_task_fail goes through take(): ("done", client) is
        # logged, or the heir would hold the lease *and* the requeued copy.
        self.pair()
        self.step(PUT, ENGINE, C.TAG_ONEWAY)
        self.step(GET, WORKER, C.TAG_REQUEST)
        held, leased = self.step(TASK_FAIL, WORKER, C.TAG_ONEWAY)
        assert len(held) == 1 and held[0].attempts == 1 and not leased
        assert self.promoted() == (["leaf"], {})

    def test_stolen_tasks_leave_the_victims_replica(self):
        # Server._op_steal_req logs ("task-", uid) per stolen task, or a
        # victim that dies after the steal has them run twice.
        owner, buddy = self.pair()
        for i in range(4):
            self.step(put_msg("leaf-%d" % i), ENGINE, C.TAG_ONEWAY)
        # (the thief is the buddy: delivery also lands its SOP_STEAL_RESP)
        held, _ = self.step(STEAL_REQ, buddy.rank, C.TAG_SERVER)
        assert len(held) == 2 and owner.stats.tasks_stolen_out == 2
        assert buddy.stats.tasks_stolen_in == 2
        assert self.promoted() == (["leaf-%d" % i for i in range(4)], {})

    def test_a_pending_copy_is_in_the_shadow(self):
        # A COPY and a container reference the owner holds are op-log
        # entries: the shadow holds them too, drops them as they fire,
        # and a promoted heir still owes them.
        owner, buddy = self.pair()
        src, dst, c, member, reader = 2, 4, 6, 8, 10  # every one the owner's
        homes = {owner.layout.home_server(td) for td in (src, dst, c, member, reader)}
        assert homes == {owner.rank}
        creates = [
            {"op": C.OP_CREATE, "id": td, "type": C.T_INTEGER} for td in (src, dst, member, reader)
        ]
        container = {"op": C.OP_CREATE, "id": c, "type": C.T_CONTAINER, "write_refcount": 2}
        copy = {"op": C.OP_COPY, "id": src, "dst": dst}
        ref = {"op": C.OP_CONTAINER_REF, "id": c, "subscript": "3", "dst": reader}
        self.step(commit(*creates, container, copy, ref), ENGINE, C.TAG_ONEWAY)
        shadow = buddy.repl.replicas[owner.rank].store
        assert shadow.lookup(src).copies == [dst] and shadow.pending_copies == 2
        insert = {"op": C.OP_STORE, "id": c, "value": member, "subscript": "3"}
        self.step(commit(insert, {"op": C.OP_STORE, "id": src, "value": 5}), ENGINE, C.TAG_ONEWAY)
        assert shadow.retrieve(dst) == 5 and shadow.lookup(member).copies == [reader]
        assert shadow.pending_copies == owner.store.pending_copies == 1
        buddy.repl.server_dead(owner.rank, "killed")
        assert buddy.store.pending_copies == 1
        buddy.dispatch(commit({"op": C.OP_STORE, "id": member, "value": 9}), ENGINE, C.TAG_ONEWAY)
        assert buddy.store.retrieve(reader) == 9 and buddy.store.pending_copies == 0

    def test_random_walk_keeps_shadow_equal_to_image(self, clock):
        # Not only the transitions someone thought to check: a seeded
        # walk over everything that logs.  (Either PR 22 one-liner
        # reverted — ("task-", uid) in Server._op_steal_req, take() in
        # Leases.op_task_fail — fails it within 200 steps of seed 0.)
        rng = random.Random(SEED)
        owner, buddy = self.pair(
            clock=clock, workers=6, journal=True, reliable=True, on_error="continue"
        )
        workers, seqs = list(owner.layout.workers), dict.fromkeys(range(7), 0)
        open_tds, closed_tds, rules = [], [], []
        ids = iter(range(1, 10**6))

        def request(msg, source):
            seqs[source] += 1
            self.step(dict(msg, seq=seqs[source]), source, C.TAG_REQUEST)

        def spawn():
            kind = rng.choice([C.WORK, C.WORK, C.CONTROL])
            target = rng.choice([-1, -1, rng.choice(workers)]) if kind == C.WORK else -1
            return tasks_op("unit-%d" % next(ids), kind, target)

        def put():  # alone, or after the increment that counts it
            request(commit(*rng.choice([[], [work(1)]]), spawn()), ENGINE)

        def get():
            request(GET, rng.choice(workers))

        def park():
            request({"op": C.OP_GET_ASYNC, "types": [C.CONTROL]}, ENGINE)

        def fail():
            holders = [w for w in workers if w in owner.leases.table]
            if holders:
                self.step(TASK_FAIL, rng.choice(holders), C.TAG_ONEWAY)

        def steal():
            self.step(STEAL_REQ, buddy.rank, C.TAG_SERVER)

        def die():
            if len(workers) > 2:
                dead = workers.pop(rng.randrange(len(workers)))
                msg = {"op": C.SOP_RANK_DEAD, "rank": dead, "reason": "killed"}
                self.step(msg, dead, C.TAG_SERVER)

        def tick():  # backoff requeues come due
            clock.advance(rng.choice([0.01, 0.1, 0.5]))
            owner.leases.tick()
            self.settle()

        def data():
            op = rng.choice(["create", "subscribe", "store", "free"])
            if op == "create" or not open_tds and not closed_tds:
                open_tds.append(next(ids))
                msg = {"op": C.OP_CREATE, "id": open_tds[-1], "type": C.T_INTEGER}
            elif op == "subscribe" and open_tds:
                msg = {"op": C.OP_SUBSCRIBE, "id": rng.choice(open_tds)}
            elif op == "store" and open_tds:
                closed_tds.append(open_tds.pop(rng.randrange(len(open_tds))))
                msg = {"op": C.OP_STORE, "id": closed_tds[-1], "value": 7}
            elif closed_tds:
                td = closed_tds.pop(rng.randrange(len(closed_tds)))
                msg = {"op": C.OP_REFCOUNT, "id": td, "read_delta": -1}
            else:
                return
            # alone, or as a unit's whole commit: its counter move and spawn
            tail = rng.choice([[], [], [work(rng.choice([1, -1])), spawn()]])
            request(commit(msg, *tail), ENGINE)

        def journal():
            kind = rng.choice(["create", "close", "done", "guard", "ctask_done"])
            if kind == "create" or not rules:
                rules.append(next(ids))
                rule = {"id": rules[-1], "inputs": rng.sample(range(50), 2)}
                rule.update(action="x", type="LOCAL", target=-1, priority=0, name="r")
                entry = ("create", rule)
            elif kind == "close":
                entry = ("close", rng.randrange(50))
            elif kind == "done":
                entry = ("done", rules.pop(rng.randrange(len(rules))))
            elif kind == "guard":
                entry = ("guard", rng.randrange(2))
            else:
                entry = ("ctask_done",)
            msg = {"op": C.OP_JOURNAL, "rank": ENGINE, "entries": [entry]}
            self.step(msg, ENGINE, C.TAG_ONEWAY)

        self.step(commit(work(10**6)), ENGINE, C.TAG_ONEWAY)
        request({"op": C.OP_ID_BLOCK}, ENGINE)
        moves = [put] * 4 + [get] * 4 + [park, fail, fail, steal, die, tick, tick]
        moves += [data] * 3 + [journal] * 2
        for _ in range(400):
            rng.choice(moves)()
        assert owner.stats.tasks_stolen_out and owner.leases.stats.requeued
        assert owner.leases.stats.dead_ranks and buddy.repl.stats.entries_applied > 400

