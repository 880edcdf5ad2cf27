"""OBS — overhead of the repro.obs event spine.

Three claims guarded here:

1. **Cheap when untraced** (the tier-1 guard): with ``trace=False``
   every level-1 call site reduces to a ``tracer is None`` test, so an
   untraced run of the quickstart program must stay within noise of
   the seed timing recorded in ``conftest.QUICKSTART_SEED_S``.
2. **Bounded cost when traced**: level 1 is one more tuple per event
   into the same rings; a traced run of the same program must not blow
   up the wall time (generous 10x bound — it is far lower in practice).
3. **Bounded level-0 cost**: the always-on recorder
   (``flightrec=True``, the default) makes one ``emit`` call per
   message send and recv, ~20 per leaf task of the fan-out; on that
   dispatch-bound run, sized to last over a second, a recorder-on run
   must stay within ``RECORDER_BUDGET_X`` of a recorder-off run
   end-to-end (median of interleaved pairs, pinned to one CPU).
"""

from __future__ import annotations

import os
import time

from conftest import assert_within_seed_noise, series

from repro import swift_run

# Trimmed quickstart: same shape (dataflow foreach + embedded Python
# leaf tasks), no subprocess spawn so rounds stay fast and stable.
QUICKSTART = """
(int o) square(int x) {
    o = x * x;
}
int squares[];
foreach i in [0:9] {
    squares[i] = square(i);
}
printf("sum of squares 0..9 = %i", sum_integer(squares));
string py = python("import math; v = math.factorial(10)", "v");
printf("python says 10! = %s", py);
"""


def run_quickstart(**options):
    res = swift_run(QUICKSTART, workers=4, **options)
    assert "sum of squares 0..9 = 285" in res.stdout
    assert "3628800" in res.stdout
    return res


def measure_obs_overhead(rounds: int = 5) -> dict:
    """Best-of-rounds traced-off vs traced-on wall time (plus event
    count), recorded into BENCH_hotpath.json by ``record.py``."""

    def best(**options):
        times, res = [], None
        for _ in range(rounds):
            t0 = time.perf_counter()
            res = run_quickstart(**options)
            times.append(time.perf_counter() - t0)
        return min(times), res

    off, _ = best()
    on, traced = best(trace=True)
    return {
        "traced_off_s": off,
        "traced_on_s": on,
        "overhead_ratio": on / off,
        "events": len(traced.trace),
    }


# Guard workload for the recorder budget: the dispatch-bound fan-out of
# benchmarks/e2e (zero-compute python() leaves at 2 workers / 1 server /
# 1 engine), sized to run for over a second.  Every leaf is ~10
# messages (67 before STC shipped closed inputs by value: the leaf count
# was 1000 then, and went up with the throughput so the run still lasts
# over a second), each stamped on both ends, so this is the shape on
# which the recorder's cost is largest relative to the run; a
# compute-bound or a few-millisecond run cannot resolve it.
RECORDER_LEAVES = 5000
# ROADMAP's target is 1.05x.  It was set on ~60 ms CPU-bound runs, where
# the stamps are invisible; on this run the median of paired ratios
# measures 1.08-1.14x (quartiles ~1.04-1.20) at this commit and at its
# parent alike — a stamp costs ~1 us in situ, four times its
# micro-benchmark — so 1.05x is an open item, not a guard.  The guard
# is the level a doubling of the stamp cost would cross.
RECORDER_BUDGET_X = 1.25
RECORDER_WORK = """
foreach i in [0:%d] {
    string s = python(strcat("x=", fromint(i)), "x");
    trace(s);
}
""" % (RECORDER_LEAVES - 1)


def run_recorder_work(**options):
    res = swift_run(RECORDER_WORK, workers=2, **options)
    assert len(res.stdout_lines) == RECORDER_LEAVES
    return res


def measure_flightrec_overhead(rounds: int = 9) -> dict:
    """Recorder-off vs recorder-on (the default) end-to-end wall time.

    Interleaved (off, on) pairs with a median-of-ratios estimator: the
    wall clock drifts between blocks (heap growth, neighbor load, GC
    cadence), so comparing two best-of blocks measured minutes apart is
    unsound — pairing puts both sides of each ratio next to each other,
    and the median sheds the scheduler outliers.  The process is pinned
    to one CPU meanwhile: the rank threads share one GIL, and a second
    core only lets the scheduler pick between two regimes with
    identical work.  Recorded into BENCH_hotpath.json by ``record.py``.
    """

    def once(**options):
        t0 = time.perf_counter()
        run_recorder_work(**options)
        return time.perf_counter() - t0

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        once(flightrec=False)
        once()  # warm both paths before measuring
        offs, ons = [], []
        for _ in range(rounds):
            offs.append(once(flightrec=False))
            ons.append(once())
    finally:
        os.sched_setaffinity(0, affinity)
    ratios = sorted(on / off for off, on in zip(offs, ons))
    return {
        "leaves": RECORDER_LEAVES,
        "flightrec_off_s": min(offs),
        "flightrec_on_s": min(ons),
        "overhead_ratio": ratios[len(ratios) // 2],
    }


def test_flightrec_overhead_guard():
    """The guard: recorder-on (the default) end-to-end wall time must
    stay within RECORDER_BUDGET_X of recorder-off on a dispatch-bound
    run of over a second, median of interleaved pairs."""
    m = measure_flightrec_overhead(rounds=9)
    assert m["overhead_ratio"] <= RECORDER_BUDGET_X, (
        "level-0 recorder overhead %.3fx exceeds the %.2fx budget (%r)"
        % (m["overhead_ratio"], RECORDER_BUDGET_X, m)
    )


def test_traced_off_within_seed_noise(benchmark):
    """Tier-1 guard: the no-op fast path must not regress the seed."""
    benchmark.pedantic(run_quickstart, rounds=5, iterations=1, warmup_rounds=1)
    series(benchmark, traced=False)
    assert_within_seed_noise(benchmark.stats.stats.mean)


def test_traced_on_bounded_overhead(benchmark):
    res = benchmark.pedantic(
        lambda: run_quickstart(trace=True),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    series(benchmark, traced=True, events=len(res.trace))
    assert len(res.trace) > 0
    assert_within_seed_noise(benchmark.stats.stats.mean, seed_s=0.16 * 10)
