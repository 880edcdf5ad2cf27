"""ADLB servers + clients over the MPI substrate, end to end."""

from __future__ import annotations

import threading

import pytest

from repro.adlb import AdlbClient, AdlbError, Layout, Server
from repro.adlb import constants as C
from repro.adlb.constants import CONTROL, WORK
from repro.mpi import run_world


def run_adlb(size, n_servers, n_engines, engine_fn, worker_fn):
    """Run an ADLB world; engine_fn/worker_fn receive an AdlbClient."""
    layout = Layout(size, n_servers, n_engines)
    results = {}
    lock = threading.Lock()

    def main(comm):
        if layout.is_server(comm.rank):
            stats = Server(comm, layout).run()
            with lock:
                results[comm.rank] = stats
            return
        client = AdlbClient(comm, layout)
        fn = engine_fn if layout.is_engine(comm.rank) else worker_fn
        with lock:
            results[comm.rank] = None
        out = fn(client)
        with lock:
            results[comm.rank] = out

    run_world(size, main)
    return layout, results


def standard_engine(tasks):
    """Engine that submits a bag of tasks then idles until shutdown."""

    def engine(client):
        client.incr_work()
        for t in tasks:
            client.incr_work()
            client.put(t, type=WORK)
        client.decr_work()
        client.park_async((CONTROL,))
        while True:
            if client.recv_async()[0] == "shutdown":
                return "engine-done"

    return engine


def collecting_worker(collected, lock):
    def worker(client):
        mine = []
        while True:
            bundle = client.get((WORK,))
            if bundle is None:
                with lock:
                    collected.extend(mine)
                return len(mine)
            for _, payload in bundle:
                mine.append(payload)
                client.decr_work()

    return worker


class TestTaskDistribution:
    def test_all_tasks_delivered_once(self):
        collected = []
        lock = threading.Lock()
        _, results = run_adlb(
            6, 1, 1,
            standard_engine(list(range(40))),
            collecting_worker(collected, lock),
        )
        assert sorted(collected) == list(range(40))

    def test_multi_server_delivery(self):
        collected = []
        lock = threading.Lock()
        layout, results = run_adlb(
            8, 2, 1,
            standard_engine(list(range(60))),
            collecting_worker(collected, lock),
        )
        assert sorted(collected) == list(range(60))

    def test_steal_balances_across_servers(self):
        # One engine attached to one server submits everything; with
        # two servers the other server's workers only eat via stealing.
        collected = []
        lock = threading.Lock()
        layout, results = run_adlb(
            8, 2, 1,
            standard_engine(list(range(80))),
            collecting_worker(collected, lock),
        )
        assert sorted(collected) == list(range(80))
        worker_counts = [results[r] for r in layout.workers]
        # every worker should have gotten something (steal works)
        assert all(c > 0 for c in worker_counts), worker_counts

    def test_zero_tasks_terminates(self):
        collected = []
        lock = threading.Lock()
        run_adlb(4, 1, 1, standard_engine([]), collecting_worker(collected, lock))
        assert collected == []

    def test_priorities_respected_single_worker(self):
        got = []

        def engine(client):
            client.incr_work()
            for i, prio in enumerate([0, 5, 1]):
                client.incr_work()
                client.put(("p", prio, i), type=WORK, priority=prio)
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass

        def worker(client):
            while True:
                bundle = client.get((WORK,))
                if bundle is None:
                    return
                for _, payload in bundle:
                    got.append(payload)
                    client.decr_work()

        run_adlb(3, 1, 1, engine, worker)
        assert [g[1] for g in got] == [5, 1, 0]

    def test_targeted_task_goes_to_target(self):
        layout = Layout(5, 1, 1)
        target_rank = layout.workers[-1]
        who = {}

        def engine(client):
            client.incr_work()
            for _ in range(6):
                client.incr_work()
                client.put("targeted", type=WORK, target=target_rank)
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass

        def worker(client):
            n = 0
            while True:
                bundle = client.get((WORK,))
                if bundle is None:
                    who[client.rank] = n
                    return
                for _ in bundle:
                    n += 1
                    client.decr_work()

        run_adlb(5, 1, 1, engine, worker)
        assert who[target_rank] == 6
        assert all(v == 0 for r, v in who.items() if r != target_rank)


class TestDataOps:
    def _data_engine(self, fn):
        def engine(client):
            client.incr_work()
            fn(client)
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass

        return engine

    def _idle_worker(self, client):
        while client.get((WORK,)) is not None:
            client.decr_work()
        return None

    def test_create_store_retrieve_roundtrip(self):
        seen = {}

        def work(client):
            td = client.create("integer")
            client.store(td, 123)
            seen["value"] = client.retrieve(td)
            seen["type"] = client.read({"op": C.OP_TYPEOF, "id": td})
            seen["exists"] = client.read({"op": C.OP_EXISTS, "id": td})

        run_adlb(3, 1, 1, self._data_engine(work), self._idle_worker)
        assert seen == {"value": 123, "type": "integer", "exists": True}

    def test_ids_unique_across_clients(self):
        ids = []
        lock = threading.Lock()

        def work(client):
            mine = [client.allocate_id() for _ in range(300)]
            with lock:
                ids.extend(mine)

        # two engines both allocating
        run_adlb(4, 1, 2, self._data_engine(work), self._idle_worker)
        assert len(ids) == 600
        assert len(set(ids)) == 600

    def test_multi_server_data_routing(self):
        seen = {}

        def work(client):
            tds = [client.create("string") for _ in range(10)]
            for i, td in enumerate(tds):
                client.store(td, "v%d" % i)
            seen["values"] = [client.retrieve(td) for td in tds]
            homes = {client.layout.home_server(td) for td in tds}
            seen["homes"] = homes

        run_adlb(6, 2, 1, self._data_engine(work), self._idle_worker)
        assert seen["values"] == ["v%d" % i for i in range(10)]
        assert len(seen["homes"]) == 2  # both servers hold data

    def test_store_error_surfaces_to_client(self):
        seen = {}

        def work(client):
            td = client.create("integer")
            client.store(td, 1)
            try:
                client.store(td, 2)
            except AdlbError as e:
                seen["error"] = str(e)

        run_adlb(3, 1, 1, self._data_engine(work), self._idle_worker)
        assert "twice" in seen["error"]

    def test_container_ops(self):
        seen = {}

        def work(client):
            c = client.create("container", write_refcount=3)
            client.store(c, 11, subscript="a")
            client.store(c, 22, subscript="b")
            seen["subs"] = sorted(client.read({"op": C.OP_ENUMERATE, "id": c}))
            seen["a"] = client.retrieve(c, subscript="a")
            client.commit([{"op": C.OP_REFCOUNT, "id": c, "write_delta": -1}])

        run_adlb(3, 1, 1, self._data_engine(work), self._idle_worker)
        assert seen == {"subs": ["a", "b"], "a": 11}

    def test_subscribe_notification_flow(self):
        seen = {}

        def engine(client):
            client.incr_work()
            td = client.create("integer")
            closed_now = client.subscribe(td)
            assert closed_now is False
            # the pending continuation (a "rule") holds a work unit, as
            # a registered rule does — otherwise shutdown could race the
            # notification handler's RPCs
            client.incr_work()
            # ship a task that stores the td
            client.incr_work()
            client.put(("store", td), type=WORK)
            client.decr_work()
            client.park_async((CONTROL,))
            while True:
                msg = client.recv_async()
                if msg[0] == "notify":
                    seen["notified_id"] = msg[1]
                    seen["value"] = client.retrieve(td)
                    client.decr_work()  # the rule unit
                elif msg[0] == "shutdown":
                    return

        def worker(client):
            while True:
                bundle = client.get((WORK,))
                if bundle is None:
                    return
                for _, (op, td) in bundle:
                    client.store(td, 777)
                    client.decr_work()

        run_adlb(3, 1, 1, engine, worker)
        assert seen["value"] == 777

    def test_container_reference_store_through(self):
        # The reference reads member k into dst: the member's value, once
        # the member is inserted and closed, not the member's id.
        seen = {}

        def work(client):
            c = client.create("container", write_refcount=2)
            m, dst = client.create("integer"), client.create("integer")
            client.commit([{"op": C.OP_CONTAINER_REF, "id": c, "subscript": "k", "dst": dst}])
            client.store(c, m, subscript="k")
            seen["open"] = client.read({"op": C.OP_EXISTS, "id": dst})
            client.store(m, 55)
            seen["dst_value"] = client.retrieve(dst)

        run_adlb(3, 1, 1, self._data_engine(work), self._idle_worker)
        assert seen == {"open": False, "dst_value": 55}

    def test_a_commit_creates_a_reference_td_before_its_container_reference(self):
        # The member is there and closed, so the container's server
        # issues its COPY and the member's server stores into dst at
        # once; dst, created in the same write set, lives on the other
        # server and must exist by then.
        seen = {}

        def work(client):
            c, dst, m = (client.allocate_id() for _ in range(3))
            homes = [client.layout.home_server(td) for td in (c, m, dst)]
            assert homes[0] == homes[1] != homes[2]
            insert = {"op": C.OP_STORE, "id": c, "value": m, "subscript": "k", "decr_write": 0}
            client.commit(
                [
                    {"op": C.OP_CREATE, "id": c, "type": "container"},
                    {"op": C.OP_CREATE, "id": m, "type": "integer"},
                    {"op": C.OP_STORE, "id": m, "value": 55},
                    insert,
                    {"op": C.OP_CREATE, "id": dst, "type": "integer"},
                    {"op": C.OP_CONTAINER_REF, "id": c, "subscript": "k", "dst": dst},
                ]
            )
            seen["dst_value"] = client.retrieve(dst)

        run_adlb(4, 2, 1, self._data_engine(work), self._idle_worker)
        assert seen["dst_value"] == 55

    def test_a_read_crosses_three_homes(self):
        # container, member and reader TD on three servers: the
        # container's server sends the COPY to the member's, which holds
        # it until the member closes and then stores into dst's.
        seen = {}

        def work(client):
            c, m, dst = (client.allocate_id() for _ in range(3))
            assert len({client.layout.home_server(td) for td in (c, m, dst)}) == 3
            client.commit(
                [
                    {"op": C.OP_CREATE, "id": c, "type": "container", "write_refcount": 2},
                    {"op": C.OP_CREATE, "id": m, "type": "string"},
                    {"op": C.OP_CREATE, "id": dst, "type": "string"},
                    {"op": C.OP_CONTAINER_REF, "id": c, "subscript": "3", "dst": dst},
                    {"op": C.OP_STORE, "id": c, "value": m, "subscript": "3"},
                ]
            )
            client.store(m, "late")
            seen["dst_value"] = client.retrieve(dst)

        run_adlb(5, 3, 1, self._data_engine(work), self._idle_worker)
        assert seen["dst_value"] == "late"

    def test_a_commit_creates_a_member_before_the_insert_that_publishes_it(self):
        # The insert closes c, and whoever waits on c may look m up and
        # subscribe to it at once: m, on the other server, must exist
        # before c's commit is sent.
        seen = {}

        def work(client):
            c, m = client.allocate_id(), client.allocate_id()
            home = client.layout.home_server
            assert home(c) != home(m)
            sent = []
            rpc = client._rpc

            def spy(server, msg):
                sent.append((server, [op["op"] for op in msg["ops"]]))
                return rpc(server, msg)

            client._rpc = spy
            client.commit(
                [
                    {"op": C.OP_CREATE, "id": c, "type": "container"},
                    {"op": C.OP_CREATE, "id": m, "type": "integer"},
                    {"op": C.OP_STORE, "id": c, "value": m, "subscript": "k", "decr_write": 1},
                ]
            )
            client._rpc = rpc
            seen["sent"] = sent == [(home(m), [C.OP_CREATE]), (home(c), [C.OP_CREATE, C.OP_STORE])]
            seen["member"] = client.read({"op": C.OP_TYPEOF, "id": client.retrieve(c, "k")})

        run_adlb(4, 2, 1, self._data_engine(work), self._idle_worker)
        assert seen == {"sent": True, "member": "integer"}


class TestLayout:
    def test_roles_partition_ranks(self):
        layout = Layout(10, 2, 3)
        all_ranks = set(layout.engines) | set(layout.workers) | set(layout.servers)
        assert all_ranks == set(range(10))
        assert layout.n_workers == 5
        assert layout.master_server == 8

    def test_role_names(self):
        layout = Layout(4, 1, 1)
        assert layout.role(0) == "engine"
        assert layout.role(1) == "worker"
        assert layout.role(3) == "server"

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            Layout(2, 1, 1)  # no workers
        with pytest.raises(ValueError):
            Layout(4, 0, 1)  # no servers
        with pytest.raises(ValueError):
            Layout(4, 1, 0)  # no engines

    def test_home_server_distribution(self):
        layout = Layout(8, 3, 1)
        homes = {layout.home_server(i) for i in range(30)}
        assert homes == set(layout.servers)
