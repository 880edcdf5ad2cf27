"""HOTPATH — the compile-and-cache execution fast path.

Measures the bytecode VM (``Interp()``, the product) against the plain
interpreted walk (``Interp(compile_enabled=False)``, the
differential-test oracle):

* **Tcl layer** — the same proc-dispatch and expr-loop workloads on
  both.
* **Runtime layer** — a Tcl-compute Turbine program run end-to-end
  on the VM versus with every rank's ``Interp`` the interpreted walk.

The floors are asserted here and nowhere snapshotted; what a *feature*
costs on or off is ``benchmarks/overhead.py``'s question, not this
file's.

Note on methodology: timings use best-of-rounds on a private
interpreter per round; deep *binary* Tcl recursion (fib-style) is
deliberately excluded because its wall time swings ±50% with the
initial Python stack depth (CPython frame-stack chunk boundaries),
which drowns the effect being measured.
"""

from __future__ import annotations

import functools
import time
from unittest import mock

from repro import swift_run
from repro.tcl.interp import Interp

# Proc-dispatch-heavy: 16 proc calls per loop iteration, exercising
# argument binding, trailing returns, and [cmd] substitution.
PROC_PRELUDE = """
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
PROC_CALL = "drive 50"

# Loop/expr-heavy: inlined loop bodies and lowered literal exprs.
EXPR_PRELUDE = """
proc sumsq {n} {
    set total 0
    for {set i 0} {$i < $n} {incr i} {
        set total [expr {$total + $i * $i}]
    }
    return $total
}
"""
EXPR_CALL = "sumsq 400"

# Dataflow fan-out (no sleeps) whose traced run must expose the VM
# counters; per-task Tcl work is tiny, so it is messaging-bound.
E2E_PROGRAM = """
int n = 17;
int m = n * 3 + 2;
foreach i in [0:199] {
    int a = i * n + m;
    if (a %% 7 == 0) { printf("hit %%i", i); }
}
""".replace("%%", "%")

# End-to-end Tcl-execution benchmark: a hand-written Turbine program
# (the `repro runtcl` flow) whose WORK tasks each run a proc-dispatch
# chain inside a compiled loop — the shape of a Tcl-scripted
# computation distributed by the runtime, where the execution backend
# actually carries the load.  24 tasks over 2 workers.
TASK_COMPUTE_PROGRAM = """
proc swift:main {} {
    for { set i 0 } { $i < 24 } { incr i } {
        turbine::spawn WORK [ list crunch $i ]
    }
}
proc ping { x } { return $x }
proc pong { a b } { return $b }
proc chain { x } {
    set v [ping [pong [ping $x] [ping [ping [pong $x [ping $x]]]]]]
    return [ping [ping $v]]
}
proc crunch { i } {
    set t 0
    for { set j 0 } { $j < 250 } { incr j } {
        set t [ expr { $t + [ chain $j ] } ]
    }
    turbine::log_output "c$i=$t"
}
"""
TASK_COMPUTE_EXPECTED = sorted(
    "c%d=%d" % (i, sum(range(250))) for i in range(24)
)


def _time_tcl(prelude: str, call: str, compile_enabled: bool, iters: int) -> float:
    interp = Interp(compile_enabled=compile_enabled)
    interp.echo = False
    interp.eval(prelude)
    interp.eval(call)  # warm parse/compile caches
    t0 = time.perf_counter()
    for _ in range(iters):
        interp.eval(call)
    return time.perf_counter() - t0


def measure_tcl(prelude: str, call: str, iters: int = 60, rounds: int = 3) -> dict:
    """Best-of-rounds vm vs interpreted timing; ``speedup`` is
    interpreted / vm."""
    vm = min(_time_tcl(prelude, call, True, iters) for _ in range(rounds))
    interpreted = min(_time_tcl(prelude, call, False, iters) for _ in range(rounds))
    return {"vm_s": vm, "interpreted_s": interpreted, "speedup": interpreted / vm}


def measure_end_to_end(rounds: int = 3, workers: int = 2) -> dict:
    """Full-stack run of the task-compute Turbine program on the VM
    (default) and on the interpreted walk (the runtime's ``Interp``
    patched to ``compile_enabled=False``)."""
    from repro.turbine import RuntimeConfig, run_turbine_program, runtime

    def run() -> float:
        cfg = RuntimeConfig.of(workers=workers)
        t0 = time.perf_counter()
        res = run_turbine_program(TASK_COMPUTE_PROGRAM, cfg)
        elapsed = time.perf_counter() - t0
        assert sorted(res.stdout_lines) == TASK_COMPUTE_EXPECTED
        return elapsed

    vm = min(run() for _ in range(rounds))
    with mock.patch.object(runtime, "Interp", functools.partial(Interp, compile_enabled=False)):
        off = min(run() for _ in range(rounds))
    return {"vm_s": vm, "interpreted_s": off, "speedup": off / vm}


def test_proc_dispatch_speedup():
    """The headline criterion: the VM runs proc-heavy Tcl >= 4x faster
    than interpretation."""
    result = measure_tcl(PROC_PRELUDE, PROC_CALL)
    assert result["speedup"] >= 4.0, (
        "VM proc dispatch only %.2fx faster than interpreted "
        "(vm %.4fs, interpreted %.4fs)"
        % (result["speedup"], result["vm_s"], result["interpreted_s"])
    )


def test_expr_loop_speedup():
    """Inlined loop bodies + lowered exprs beat the interpreted walk."""
    result = measure_tcl(EXPR_PRELUDE, EXPR_CALL)
    assert result["speedup"] >= 1.2, (
        "VM expr loop only %.2fx faster than interpreted"
        % result["speedup"]
    )


def test_end_to_end_vm_speedup():
    """The VM must beat the interpreted walk >= 2x end-to-end on the
    task-compute program (where worker tasks execute real Tcl)."""
    result = measure_end_to_end(rounds=2)
    assert result["speedup"] >= 2.0, (
        "VM end-to-end only %.2fx vs interpreted "
        "(vm %.4fs, interpreted %.4fs)"
        % (result["speedup"], result["vm_s"], result["interpreted_s"])
    )


def test_cache_metrics_exposed():
    """A traced run exposes the code-cache/VM counters."""
    # opt=0: a code-cache *hit* needs a script evaluated twice, and at
    # the default level every control-task payload here is distinct
    res = swift_run(E2E_PROGRAM, workers=2, trace=True, opt=0)
    counters = res.trace.metrics["counters"]
    assert counters.get("tcl.vm.code_hits", 0) > 0
    assert counters.get("tcl.vm.code_misses", 0) > 0
    assert counters.get("tcl.vm.frames", 0) > 0
    assert counters.get("tcl.vm.cache_hits", 0) > 0
