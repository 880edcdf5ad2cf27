"""Stress and invariant tests under real concurrency."""

from __future__ import annotations

import threading

import pytest

from repro import swift_run
from repro.adlb import AdlbClient, Layout, Server
from repro.adlb.constants import CONTROL, WORK
from repro.mpi import run_world


@pytest.mark.parametrize("servers", [1, 3])
def test_many_tasks_none_lost(servers):
    """600 tasks across 12 ranks: delivered exactly once, all servers."""
    n_tasks = 600
    size = 12
    layout = Layout(size, servers, 1)
    collected: list[int] = []
    lock = threading.Lock()

    def main(comm):
        if layout.is_server(comm.rank):
            Server(comm, layout).run()
            return
        client = AdlbClient(comm, layout)
        if layout.is_engine(comm.rank):
            client.incr_work()
            for i in range(n_tasks):
                client.incr_work()
                client.put(i, type=WORK, priority=i % 7)
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass
            return
        mine = []
        while True:
            bundle = client.get((WORK,))
            if bundle is None:
                with lock:
                    collected.extend(mine)
                return
            for _, payload in bundle:
                mine.append(payload)
                client.decr_work()

    run_world(size, main)
    assert sorted(collected) == list(range(n_tasks))


def test_concurrent_data_ops_many_clients():
    """Multiple engines hammer the data store concurrently; every TD
    round-trips and ids never collide."""
    size = 8
    layout = Layout(size, 2, 4)
    results: dict[int, list] = {}
    lock = threading.Lock()

    def main(comm):
        if layout.is_server(comm.rank):
            Server(comm, layout).run()
            return
        client = AdlbClient(comm, layout)
        if layout.is_engine(comm.rank):
            client.incr_work()
            mine = []
            for k in range(60):
                td = client.create("integer")
                client.store(td, comm.rank * 1000 + k)
                mine.append((td, client.retrieve(td)))
            with lock:
                results[comm.rank] = mine
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass
            return
        while client.get((WORK,)) is not None:
            client.decr_work()

    run_world(size, main)
    all_ids = [td for mine in results.values() for td, _ in mine]
    assert len(all_ids) == len(set(all_ids)) == 240
    for rank, mine in results.items():
        assert [v for _, v in mine] == [rank * 1000 + k for k in range(60)]


def test_wide_fanout_program():
    """A 200-iteration Swift loop with arithmetic rules per iteration."""
    out = swift_run(
        "int a[];\n"
        "foreach i in [0:199] { a[i] = i * 2 + 1; }\n"
        'printf("%i %i", size(a), sum_integer(a));',
        workers=5,
        servers=2,
        engines=2,
    )
    assert out.stdout_lines == ["200 40000"]


def test_deep_dependency_chain():
    """A 40-deep sequential dataflow chain completes (no stack issues)."""
    lines = ["int v0 = parseint(\"1\");"]
    for i in range(1, 41):
        lines.append("int v%d = v%d + 1;" % (i, i - 1))
    lines.append('printf("%i", v40);')
    out = swift_run("\n".join(lines), workers=2)
    assert out.stdout_lines == ["41"]


def test_shared_input_many_consumers():
    """One future feeding 50 rules: a single subscription fans out."""
    out = swift_run(
        "int x = parseint(\"7\");\n"
        "int a[];\n"
        "foreach i in [0:49] { a[i] = x + i; }\n"
        'printf("%i", sum_integer(a));',
        workers=3,
    )
    assert out.stdout_lines == [str(sum(7 + i for i in range(50)))]


def test_rule_with_duplicate_inputs():
    """x used twice in one expression: dedup in rule subscription."""
    out = swift_run(
        "int x = parseint(\"6\");\n"
        'printf("%i", x * x);',
        workers=2,
    )
    assert out.stdout_lines == ["36"]


def test_interleaved_python_r_tasks_share_workers():
    out = swift_run(
        "int a[];\n"
        "foreach i in [0:19] {\n"
        "  if (i % 2 == 0) {\n"
        '    a[i] = parseint(python(strcat("v = ", fromint(i)), "v"));\n'
        "  } else {\n"
        '    a[i] = parseint(r(strcat("v <- ", fromint(i)), "v"));\n'
        "  }\n"
        "}\n"
        'printf("%i", sum_integer(a));',
        workers=4,
    )
    assert out.stdout_lines == ["190"]
