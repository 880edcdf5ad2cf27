"""The thread-backed MPI substrate."""

from __future__ import annotations

import threading

import pytest

from repro import mpi
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    AbortError,
    DeadlockError,
    World,
    run_world,
)
from repro.mpi import comm as comm_module
from repro.mpi.launcher import RankFailure
from repro.obs import Recorder


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
            elif comm.rank == 1:
                data, st = comm.recv(source=0, tag=11)
                assert data == {"a": 7}
                assert st.source == 0 and st.tag == 11

        run_world(2, main)

    def test_tag_matching_out_of_order(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=1)
                comm.send("second", 1, tag=2)
            else:
                # receive tag 2 before tag 1
                b, _ = comm.recv(source=0, tag=2)
                a, _ = comm.recv(source=0, tag=1)
                assert (a, b) == ("first", "second")

        run_world(2, main)

    def test_fifo_per_source_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.send(i, 1, tag=3)
            else:
                for i in range(50):
                    v, _ = comm.recv(source=0, tag=3)
                    assert v == i

        run_world(2, main)

    def test_any_source(self):
        def main(comm):
            if comm.rank == 0:
                seen = set()
                for _ in range(comm.size - 1):
                    v, st = comm.recv(source=ANY_SOURCE, tag=5)
                    assert v == st.source
                    seen.add(st.source)
                assert seen == {1, 2, 3}
            else:
                comm.send(comm.rank, 0, tag=5)

        run_world(4, main)

    def test_recv_poll_timeout_returns_none(self):
        def main(comm):
            assert comm.recv_poll(timeout=0.05) is None

        run_world(1, main)

    def test_bad_destination(self):
        def main(comm):
            with pytest.raises(ValueError):
                comm.send("x", 99)

        run_world(1, main)


class TestCollectives:
    def test_barrier(self):
        order = []
        lock = threading.Lock()

        def main(comm):
            with lock:
                order.append(("pre", comm.rank))
            mpi.barrier(comm)
            with lock:
                order.append(("post", comm.rank))

        run_world(4, main)
        pres = [i for i, (phase, _) in enumerate(order) if phase == "pre"]
        posts = [i for i, (phase, _) in enumerate(order) if phase == "post"]
        assert max(pres) < min(posts)

    def test_bcast(self):
        def main(comm):
            value = mpi.bcast(comm, "payload" if comm.rank == 0 else None, root=0)
            assert value == "payload"

        run_world(4, main)

    def test_gather_scatter(self):
        def main(comm):
            got = mpi.gather(comm, comm.rank * 2, root=0)
            if comm.rank == 0:
                assert got == [0, 2, 4, 6]
                out = mpi.scatter(comm, [i * 10 for i in range(4)], root=0)
            else:
                assert got is None
                out = mpi.scatter(comm, None, root=0)
            assert out == comm.rank * 10

        run_world(4, main)

    def test_allgather_allreduce(self):
        def main(comm):
            assert mpi.allgather(comm, comm.rank) == list(range(comm.size))
            assert mpi.allreduce(comm, 1) == comm.size
            assert mpi.allreduce(comm, comm.rank, op=max) == comm.size - 1

        run_world(5, main)


class TestFailures:
    def test_rank_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("rank one exploded")
            # other ranks block; abort should wake them
            comm.recv(source=0, tag=77)

        with pytest.raises(RankFailure, match="rank one exploded"):
            run_world(3, main, recv_timeout=30.0)

    def test_deadlock_detection(self):
        def main(comm):
            comm.recv(source=0, tag=1, timeout=0.2)

        with pytest.raises(RankFailure) as exc_info:
            run_world(1, main)
        assert isinstance(exc_info.value.failures[0][1], DeadlockError)

    def test_abort_wakes_barrier(self):
        def main(comm):
            if comm.rank == 0:
                raise ValueError("fail fast")
            mpi.barrier(comm)

        with pytest.raises(RankFailure, match="fail fast"):
            run_world(3, main)


class TestSurface:
    """What a rank may ask of the world is ``Comm``'s public names and
    nothing else (DESIGN.md): a second transport implements these."""

    def test_comm_public_names_are_pinned(self):
        comm = World(2).comm(0)
        public = {name for name in dir(comm) if not name.startswith("_")}
        assert public == set(
            "rank size send recv recv_poll drain_dead now metrics ring tracer".split()
        )
        assert not hasattr(World(2), "_barrier")
        assert not hasattr(World(2), "diagnostics")

    def test_now_is_the_worlds_clock(self):
        ticks = iter([5.0, 7.5])
        world = World(2, clock=lambda: next(ticks))
        assert (world.comm(0).now(), world.comm(1).now()) == (5.0, 7.5)
        assert world.comm(0).metrics is world.metrics


class TestStats:
    def test_message_accounting(self):
        # (sizes are a level-1 count: this world's recorder traces)
        world = World(2, recorder=Recorder(level=1))

        def sender():
            world.comm(0).send(b"x" * 100, 1)

        def receiver():
            world.comm(1).recv(source=0)

        t1, t2 = threading.Thread(target=sender), threading.Thread(target=receiver)
        t1.start(); t2.start(); t1.join(); t2.join()
        assert world.stats[0].sends == 1
        assert world.stats[0].bytes_sent >= 100
        assert world.stats[1].recvs == 1

    def test_an_untraced_send_weighs_nothing(self, monkeypatch):
        def weigh(obj):
            raise AssertionError("an untraced send walked its payload")

        monkeypatch.setattr(comm_module, "_approx_size", weigh)
        for recorder in (None, Recorder(level=0)):
            world = World(2, recorder=recorder)
            world.comm(0).send({"payload": ["x" * 100]}, 1)
            assert world.comm(1).recv(source=0)[0] == {"payload": ["x" * 100]}
            assert (world.stats[0].sends, world.stats[0].bytes_sent) == (1, None)
            assert "mpi.bytes_sent" not in world.metrics.snapshot()["counters"]
        # the level-0 header has no size
        ((_, _, _, kind, dest, tag, size, _),) = recorder.ring(0).ordered()
        assert (kind, dest, tag, size) == ("send", 1, 0, None)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(0)

    def test_results_returned_in_rank_order(self):
        results = run_world(4, lambda comm: comm.rank ** 2)
        assert results == [0, 1, 4, 9]
