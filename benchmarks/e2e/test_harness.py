"""Self-tests of the benchmark harness.  Run explicitly:

    python3 -m pytest benchmarks/e2e/test_harness.py -q

(tier-1 ``testpaths`` is ``tests/``; this file is not part of it.)
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

import pytest

import run  # noqa: F401  (puts src/ on sys.path before the harness imports repro)
import estimator
import harness
import probes
from estimator import Pace, Stopwatch, lower_quartile, nominal_seconds, summary
from workloads import WORKLOADS, Operands

SPEC = run.load_spec()
TINY = 6  # leaf tasks per timed rep in the smoke runs
TINY_PEAK = 9  # ... and in their peak rep


def tiny(name: str):
    """The workload scaled down to smoke-test size."""
    return dataclasses.replace(WORKLOADS[name], size=TINY, peak_size=TINY_PEAK)


@pytest.fixture(autouse=True)
def one_cpu():
    """Every timing goes through ``Stopwatch``, which needs the pin."""
    before = os.sched_getaffinity(0)
    harness.pin_to_one_cpu()
    yield
    os.sched_setaffinity(0, before)


@pytest.fixture
def fast_probes(monkeypatch):
    monkeypatch.setattr(probes, "MIN_BATCH_S", 0.002)
    monkeypatch.setattr(probes, "BATCHES", 3)


@pytest.fixture(autouse=True)
def short_calibration(monkeypatch):
    monkeypatch.setattr(estimator, "CAL_HANDOFFS", 100)


# -------------------------------------------------------------- estimator


def test_nominal_seconds_repeat_on_a_machine_whose_speed_drifts():
    """Whole runs sit in slow periods of the shared VM; dividing each
    rep by the slow-down its two calibrations saw must take that out,
    where the lower quartile of raw wall time moves with the machine."""
    rng = random.Random(7)

    def one_run():
        drift = rng.uniform(1.0, 2.0)  # this run's share of the machine
        speeds = [drift * (1 + rng.uniform(-0.1, 0.1)) for _ in range(11)]
        slowdowns = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
        walls = [2.0 * s * (1 + rng.uniform(-0.03, 0.03)) for s in slowdowns]
        walls[rng.randrange(10)] *= 1.5  # a burst the calibrations missed
        return nominal_seconds(walls, slowdowns), lower_quartile(walls)

    runs = [one_run() for _ in range(40)]

    def spread(xs):
        q = statistics.quantiles(xs, n=4)
        return (q[2] - q[0]) / statistics.median(xs)

    assert spread([nominal for nominal, _ in runs]) < 0.03
    assert spread([raw for _, raw in runs]) > 0.2
    assert all(abs(nominal - 2.0) < 0.1 for nominal, _ in runs)


def test_pace_is_the_mean_of_the_calibrations_at_both_ends(monkeypatch):
    cals = iter([0.2, 0.4, 0.3])
    monkeypatch.setattr(estimator, "calibrate", lambda: next(cals))
    monkeypatch.setattr(estimator, "NOMINAL_CAL_S", 0.1)
    pace = Pace()
    assert pace.slowdown() == pytest.approx(3.0)
    assert pace.slowdown() == pytest.approx(3.5)


def test_calibrate_times_the_reference_work():
    assert estimator.calibrate() > 0


def test_stopwatch_counts_work_and_idle_but_never_more_than_wall():
    with Stopwatch() as spin:
        sum(range(300_000))
    with Stopwatch() as sleep:
        time.sleep(0.2)
    assert 0 < spin.busy <= spin.wall
    assert spin.busy >= 0.9 * spin.cpu  # (the two clocks differ by microseconds)
    assert sleep.cpu < 0.05  # asleep, not working ...
    assert 0.1 < sleep.busy <= sleep.wall  # ... but the idle CPU counts


def test_summary_is_linear_percentile():
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s == {"q25": 2.0, "median": 3.0, "iqr": 2.0, "min": 1.0, "n": 5}
    assert lower_quartile([1.0, 2.0]) == 1.25


# -------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name):
    session = harness.set_up(tiny(name), seed=3)
    for leaves in (TINY, TINY_PEAK, 1):
        rep = session.run(leaves)
        assert rep.failed == 0 and rep.leaves == leaves
        assert not rep.raised and 0 < rep.busy <= rep.wall


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_serial_baseline_agrees_with_reference(name):
    w, ops = WORKLOADS[name], Operands.from_seed(11)
    assert sorted(w.serial_outputs(TINY, ops)) == sorted(w.expected(TINY, ops))


def test_seed_changes_operands_not_program_length():
    w = WORKLOADS["fanout_py"]
    a, b = Operands.from_seed(1), Operands.from_seed(2)
    assert a != b and a == Operands.from_seed(1)
    assert w.expected(TINY, a) != w.expected(TINY, b)
    assert len(w.source(TINY, a)) == len(w.source(TINY, b))


@pytest.mark.parametrize("n", [1, TINY, 200, 1200])
def test_seed_orders_the_leaves(n):
    """Every leaf gets one payload, in an order that follows the seed."""
    orders = [
        [Operands.from_seed(seed).payload(i, n) for i in range(n)] for seed in (1, 2)
    ]
    assert all(sorted(order) == list(range(n)) for order in orders)
    assert n == 1 or orders[0] != orders[1]


def test_failed_leaves_counts_missing_and_wrong_lines():
    fan, chain = WORKLOADS["fanout_py"], WORKLOADS["chain_py"]
    want = ["trace: 1", "trace: 2", "trace: 2"]
    assert fan.failed_leaves(3, want, ["trace: 2", "trace: 1", "trace: 2"]) == 0
    assert fan.failed_leaves(3, want, ["trace: 2", "trace: 1"]) == 1
    assert fan.failed_leaves(3, want, ["trace: 2", "trace: 1", "trace: 9"]) == 1
    assert fan.failed_leaves(3, want, []) == 3
    assert chain.failed_leaves(5, ["trace: 7"], ["trace: 7"]) == 0
    assert chain.failed_leaves(5, ["trace: 7"], ["trace: 8"]) == 5


def test_rep_that_raises_is_all_failed():
    session = harness.set_up(tiny("fanout_py"), seed=0)
    rep = session.run(on_error="no-such-policy")
    assert rep.raised and rep.failed == TINY
    counts = harness._accounting([rep, session.run()])
    assert counts["attempted"] == 2 * TINY and counts["failed"] == TINY
    assert counts["failed_reps"] == 1 and not counts["wrong_output"]


# ------------------------------------------------------------ guard rails


def test_pins_to_one_cpu():
    os.sched_setaffinity(0, range(os.cpu_count()))
    cpu = harness.pin_to_one_cpu()
    assert os.sched_getaffinity(0) == {cpu}


def test_refuses_to_time_without_affinity(monkeypatch):
    def denied(pid, cpus):
        raise PermissionError("sched_setaffinity not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", denied)
    with pytest.raises(estimator.HarnessError, match="refusing to time"):
        harness.pin_to_one_cpu()


def test_refuses_to_time_without_the_idle_counter(monkeypatch):
    monkeypatch.setattr(estimator.os, "sched_getaffinity", lambda pid: {4096})
    with pytest.raises(estimator.HarnessError, match="cannot time"):
        Stopwatch().__enter__()


def test_recovery_guard_both_directions():
    plain, recovery = WORKLOADS["fanout_py"], WORKLOADS["fanout_recovery"]
    off = dict.fromkeys(harness.RECOVERY_METRICS, 0)
    on = dict.fromkeys(harness.RECOVERY_METRICS, 3.0)
    assert harness.recovery_guard(plain, off) == []
    assert harness.recovery_guard(recovery, on) == []
    assert len(harness.recovery_guard(plain, on)) == len(harness.RECOVERY_METRICS)
    assert len(harness.recovery_guard(recovery, off)) == len(harness.RECOVERY_ACTIVE)


def test_dropped_events_leave_counts_unresolved(monkeypatch):
    monkeypatch.setattr(harness, "TRACE_CAPACITY", 50)
    session = harness.set_up(tiny("fanout_py"), seed=0)
    m = harness._traced_metrics(
        session.run(
            keep_result=True, trace=True, trace_capacity=harness.TRACE_CAPACITY
        ),
        TINY,
        1.0,
    )
    assert m["obs.dropped_events"] > 0
    assert all(v is None for k, v in m.items() if k != "obs.dropped_events")


# ----------------------------------------------- probes and metric names


def test_every_probe_returns_a_positive_cost(fast_probes):
    w, ops = WORKLOADS["tcl_compute"], Operands.from_seed(0)
    costs = probes.run_all(w.source(TINY, ops), ops, Pace())
    assert all(v > 0 for v in costs.values()), costs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_json_lists_what_the_harness_reports(name, fast_probes):
    session = harness.set_up(tiny(name), seed=0)
    pace = Pace()
    e2e = harness.measure_end_to_end(session, pace, seconds=0.0)
    layers = harness.measure_per_layer(session, pace, seconds=0.0)
    assert e2e["failed"] == layers["failed"] == 0
    assert not e2e["wrong_output"] and not layers["wrong_output"]
    assert set(e2e["metrics"]) | {"setup_s"} == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["metrics"]["obs.dropped_events"] == 0
    assert layers["problems"] == e2e["problems"] == []
    if WORKLOADS[name].kind != "chain":  # (a chain queues one hop at a time)
        assert layers["metrics"]["adlb.max_queue"] >= TINY_PEAK - 2
    exact = {k: layers["metrics"][k] for k in harness.EXACT_METRICS}
    again = harness.measure_per_layer(session, pace, seconds=0.0)["metrics"]
    if not WORKLOADS[name].recovery:
        assert exact == {k: again[k] for k in harness.EXACT_METRICS}


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    # The issue fixes the bounds: a pairing that cannot meet one gets
    # more reps or seconds, never a wider bound.
    assert {m["name"]: m["bound"] for m in SPEC["end_to_end"]} == {
        "tasks_per_s": 0.10,
        "startup_ms": 0.10,
        "setup_s": 0.15,
        "peak_rss_mb": 0.05,
    }
    assert set(harness.EXACT_METRICS + harness.RECOVERY_METRICS) <= set(names)


# -------------------------------------------------------------- the command


def test_command_prints_one_result_object_last():
    cmd = [sys.executable] + SPEC["command"][1:]
    cmd += ["--workload", "tcl_compute", "--seed", "5", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS["tcl_compute"].size
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
