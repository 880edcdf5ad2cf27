"""Isolated per-layer probes: unit costs measured through public entry
points, one layer at a time, with nothing else running.

Every probe returns one number: the lower quartile of ``BATCHES``
batches of at least ``MIN_BATCH_S`` each, divided by the operations in
a batch.  Batch sizes start at a fixed count and only grow when a
batch is too short to time, so a layer that gets faster is still timed
over at least 50 ms.
"""

from __future__ import annotations

from typing import Callable

from repro import compile_swift
from repro.adlb import AdlbClient, Layout, Server
from repro.adlb.constants import CONTROL, WORK
from repro.blob.convert import blob_from_string, blob_to_string
from repro.interlang import EmbeddedPython, EmbeddedR
from repro.mpi import run_world
from repro.tcl import Interp
from repro.turbine import RuntimeConfig, run_turbine_program

from estimator import Pace, Stopwatch, lower_quartile
from workloads import CRUNCH_ITERS, WORKLOADS, Operands, crunch_template

BATCHES = 9
MIN_BATCH_S = 0.05


def timed_batches(run: Callable[[int], None], ops: int) -> float:
    """Seconds per operation; ``run(k)`` performs ``k`` operations."""
    while True:  # sizing pass doubles as the warm-up
        with Stopwatch() as watch:
            run(ops)
        if watch.busy >= MIN_BATCH_S:
            break
        ops *= 2
    samples = []
    for _ in range(BATCHES):
        with Stopwatch() as watch:
            run(ops)
        samples.append(watch.busy / ops)
    return lower_quartile(samples)


# ------------------------------------------------------------------ mpi


def mpi_pingpong_us() -> float:
    """One send/recv round trip between two ranks."""
    out = {}

    def main(comm):
        if comm.rank == 1:
            while comm.recv(source=0)[0] is not None:
                comm.send(0, 0)
            return

        def run(k):
            for _ in range(k):
                comm.send(0, 1)
                comm.recv(source=1)

        out["s"] = timed_batches(run, 3000)
        comm.send(None, 1)

    run_world(2, main)
    return out["s"] * 1e6


def mpi_stream_us_per_msg() -> float:
    """Three senders streaming into one receiver (the fan-out shape)."""
    out = {}
    senders = (1, 2, 3)

    def main(comm):
        if comm.rank != 0:
            while True:
                count = comm.recv(source=0)[0]
                if count is None:
                    return
                for _ in range(count):
                    comm.send(0, 0, tag=1)

        def run(k):
            for s in senders:
                comm.send(k // len(senders), s)
            for _ in range(k // len(senders) * len(senders)):
                comm.recv(tag=1)

        out["s"] = timed_batches(run, 15000)
        for s in senders:
            comm.send(None, s)

    run_world(4, main)
    return out["s"] * 1e6


# ----------------------------------------------------------------- adlb


def _adlb_world(engine_body: Callable[[AdlbClient], None]) -> None:
    """One server, one idle worker, and an engine rank running
    ``engine_body`` under the usual termination-counter protocol."""
    layout = Layout(3, 1, 1)

    def main(comm):
        if layout.is_server(comm.rank):
            Server(comm, layout).run()
            return
        client = AdlbClient(comm, layout)
        if layout.is_engine(comm.rank):
            client.incr_work()
            engine_body(client)
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass
            return
        while client.get((WORK,)) is not None:
            client.decr_work()

    run_world(3, main)


def adlb_data_rpc_us() -> float:
    """One data-store RPC (mean of create, store, retrieve)."""
    out = {}

    def body(client):
        def run(k):
            for i in range(k // 3):
                td = client.create("integer")
                client.store(td, i)
                client.retrieve(td)

        out["s"] = timed_batches(run, 1800)

    _adlb_world(body)
    return out["s"] * 1e6


def adlb_put_get_us() -> float:
    """One task through the work queue: put, then get it back."""
    out = {}

    def body(client):
        def run(k):
            for i in range(k):
                client.put(i, type="PROBE")
                client.get(("PROBE",))

        out["s"] = timed_batches(run, 1000)

    _adlb_world(body)
    return out["s"] * 1e6


# -------------------------------------------------------------- turbine

_RULES_PROGRAM = """
proc swift:main {} {
    set td [ turbine::allocate integer ]
    for { set i 0 } { $i < %d } { incr i } {
        turbine::rule [ list $td ] [ list probe:fired ] LOCAL
    }
    turbine::store_integer $td 1
}
proc probe:fired {} {}
"""


def turbine_rule_us() -> float:
    """Create one rule on an open TD and fire it, no leaf work.

    Timed from outside ``run_turbine_program``, so the cost of an
    empty run (launch, termination, teardown) is subtracted."""
    config = RuntimeConfig.of(workers=1, servers=1, engines=1)
    rules = 2000

    def launches(program):
        def run(k):
            for _ in range(k):
                run_turbine_program(program, config)

        return run

    loaded = timed_batches(launches(_RULES_PROGRAM % rules), 1)
    empty = timed_batches(launches(_RULES_PROGRAM % 0), 12)
    return (loaded - empty) / rules * 1e6


# ------------------------------------------------------------------ tcl

# bench_hotpath's proc-dispatch kernel: 17 proc calls per ``chain``.
_PROC_PRELUDE = """
proc ping {x} { return $x }
proc pong {a b} { return $b }
proc chain {x} {
    set v [ping [pong [ping $x] [ping [ping [pong $x [ping $x]]]]]]
    set v [ping [pong [ping $v] [ping [ping [pong $v [ping $v]]]]]]
    return [ping [ping $v]]
}
proc drive {n} {
    set out {}
    for {set i 0} {$i < $n} {incr i} { set out [chain $i] }
    return $out
}
"""
_PROC_CALLS_PER_CHAIN = 17


def tcl_kernel_ms(ops: Operands) -> float:
    """One ``crunch`` leaf body (the tcl_compute kernel) in a bare Interp."""
    leaves = WORKLOADS["tcl_compute"].size
    interp = Interp()
    interp.eval(
        "proc crunch {x n} { %s; return $o }"
        % crunch_template(ops, "$x", "$n", "o", leaves)
    )

    def run(k):
        for i in range(k):
            interp.eval("crunch %d %d" % (i, CRUNCH_ITERS))

    return timed_batches(run, 3) * 1e3


def tcl_proc_call_us() -> float:
    interp = Interp()
    interp.eval(_PROC_PRELUDE)

    def run(k):
        interp.eval("drive %d" % k)

    return timed_batches(run, 4000) / _PROC_CALLS_PER_CHAIN * 1e6


# ----------------------------------------------------------------- core


def core_compile_ms(source: str) -> float:
    def run(k):
        for _ in range(k):
            compile_swift(source)

    return timed_batches(run, 200) * 1e3


def core_compile_big_ms() -> float:
    """A generated 400-statement program (straight-line dataflow)."""
    lines = ["int v0 = 1;"]
    for i in range(1, 400):
        lines.append("int v%d = v%d + %d;" % (i, i - 1, i))
    source = "\n".join(lines)

    def run(k):
        for _ in range(k):
            compile_swift(source)

    return timed_batches(run, 4) * 1e3


# ----------------------------------------------------- interlang / blob


def interlang_python_eval_us() -> float:
    py = EmbeddedPython()

    def run(k):
        for i in range(k):
            py.eval("x=%d+7" % i, "x")

    return timed_batches(run, 5000) * 1e6


def interlang_r_eval_us() -> float:
    r = EmbeddedR()

    def run(k):
        for i in range(k):
            r.eval("x <- %d + 7" % i, "x")

    return timed_batches(run, 2000) * 1e6


def blob_roundtrip_us() -> float:
    """64 KiB string -> blob -> string."""
    text = "b" * (64 * 1024)

    def run(k):
        for _ in range(k):
            blob_to_string(blob_from_string(text))

    return timed_batches(run, 4500) * 1e6


def run_all(source: str, ops: Operands, pace: Pace) -> dict[str, float]:
    """Every probe, keyed by per-layer metric name, in nominal time:
    each is divided by the machine's slow-down while it ran."""
    all_probes = {
        "mpi.pingpong_us": mpi_pingpong_us,
        "mpi.stream_us_per_msg": mpi_stream_us_per_msg,
        "adlb.data_rpc_us": adlb_data_rpc_us,
        "adlb.put_get_us": adlb_put_get_us,
        "turbine.rule_us": turbine_rule_us,
        "tcl.kernel_ms": lambda: tcl_kernel_ms(ops),
        "tcl.proc_call_us": tcl_proc_call_us,
        "core.compile_ms": lambda: core_compile_ms(source),
        "core.compile_big_ms": core_compile_big_ms,
        "interlang.python_eval_us": interlang_python_eval_us,
        "interlang.r_eval_us": interlang_r_eval_us,
        "blob.roundtrip_us": blob_roundtrip_us,
    }
    pace.slowdown()
    return {name: probe() / pace.slowdown() for name, probe in all_probes.items()}
