"""End-to-end throughput benchmark of the whole stack, with a per-layer ledger.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]
    python3 benchmarks/e2e/run.py --selfcheck

Prints every metric by name with its unit, checks every rep's output
against a seeded serial reference, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.  README.md in this directory explains the protocol.

This process only orchestrates: each workload is timed in a fresh
child process pinned to one CPU, and ``setup_s`` is the median over
several such children started from cold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

try:
    import harness
except ModuleNotFoundError as e:  # not a full checkout: nothing to measure
    sys.exit("benchmarks/e2e needs the repo's src/ beside it: %s" % e)
from estimator import NOMINAL_CAL_S, HarnessError, Pace, calibrate, cpu_idle_seconds
from workloads import WORKLOADS

# Cold starts per untraced run; setup_s is their median.
SETUP_SAMPLES = 7
UNRESOLVED = -1.0  # JSON stand-in for a count the trace could not resolve


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ child


def settled_calibration() -> float:
    """One end of a set-up sample: there is a single sample per process,
    so each end is the median of three calibrations."""
    return statistics.median(calibrate() for _ in range(3))


def child_main(args) -> None:
    """One pinned process: set up, then (unless ``--phase setup``) measure."""
    cpu = harness.pin_to_one_cpu()
    session = harness.set_up(WORKLOADS[args.workload], args.seed)
    # Busy seconds (estimator.Stopwatch) since the parent spawned this
    # process: all its CPU time so far plus the CPU's idle time.
    wall = time.perf_counter() - args.t0
    busy = min(wall, time.process_time() + cpu_idle_seconds(cpu) - args.idle0)
    slowdown = (args.cal0 + settled_calibration()) / (2 * NOMINAL_CAL_S)
    out = {"setup_s": busy / slowdown}
    pace = Pace()
    if args.phase == "measure":
        out.update(harness.measure_end_to_end(session, pace, args.seconds))
    elif args.phase == "trace":
        out.update(harness.measure_per_layer(session, pace, args.seconds))
    print(json.dumps(out))


def spawn(phase: str, workload: str, seed: int, seconds: float) -> dict:
    """Run one child to completion and return what it reported.

    ``--t0`` and ``--idle0`` are this process's clock and its CPU's
    idle time just before the spawn (``perf_counter`` is
    CLOCK_MONOTONIC, shared by both processes, and the child inherits
    the pin), so the child's ``setup_s`` includes interpreter start-up
    and imports.  ``--cal0`` is the calibration before the set-up; the
    child takes the one after it.
    """
    (cpu,) = os.sched_getaffinity(0)
    cmd = [sys.executable, str(Path(__file__).resolve())]
    cmd += ["--phase", phase, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", repr(seconds), "--cal0", repr(settled_calibration())]
    cmd += ["--idle0", repr(cpu_idle_seconds(cpu)), "--t0", repr(time.perf_counter())]
    # What made peak RSS differ by up to 4 % between runs of the same
    # code: per-thread malloc arenas handed out in arrival order (one
    # arena: 0.4 %), and set/dict order following the hash seed.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_ARENA_MAX="1")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if proc.returncode:
        raise HarnessError(
            "%s child of %s exited with code %d" % (phase, workload, proc.returncode)
        )
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------- parent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object plus the
    ``diagnostics`` and ``problems`` the report prints."""
    setups = []
    if not trace:
        setups = [
            spawn("setup", name, seed, seconds)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
    child = spawn("trace" if trace else "measure", name, seed, seconds)
    setups.append(child["setup_s"])
    metrics = child["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    child["diagnostics"]["setup_s"] = setups
    child["correct"] = not child["wrong_output"] and not child["problems"]
    return child


def report(name: str, seed: int, run: dict, spec_metrics: list[dict]) -> dict:
    """Print the human-readable listing; return the final JSON object."""
    w = WORKLOADS[name]
    print(
        "workload %s  seed %d  cpus 1  layout %dw/%ds/%de  %d leaves/rep"
        " (%d in the peak rep)"
        % (name, seed, w.workers, w.servers, w.engines, w.size, w.peak_size)
    )
    print(
        "  times are nominal: seconds of the reference machine (estimator."
        "NOMINAL_CAL_S);\n  this host ran at slowdown_x times that; *_wall_q25"
        " are this host's own seconds"
    )
    for key, diag in run["diagnostics"].items():
        print("  %-16s %s" % (key, json.dumps(diag)))
    final = {}
    for spec in spec_metrics:
        value = run["metrics"][spec["name"]]
        bound = " (bound %g %%)" % (100 * spec["bound"]) if "bound" in spec else ""
        shown = "unresolved" if value is None else "%.6g" % value
        print("  %-36s %12s %-6s%s" % (spec["name"], shown, spec["unit"], bound))
        final[spec["name"]] = {
            "value": UNRESOLVED if value is None else value,
            "unit": spec["unit"],
        }
    print(
        "  leaf tasks attempted %d, failed %d (%d reps with failures)"
        % (run["attempted"], run["failed"], run["failed_reps"])
    )
    for problem in run["problems"]:
        print("  PROBLEM: %s" % problem)
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": final,
    }


def selfcheck(seed: int, seconds: float, spec: dict) -> int:
    """The whole suite twice, back to back: every end-to-end metric
    must agree within its bound, every exact count bit for bit."""
    passes = [
        {
            name: (
                run_workload(name, seed, seconds, trace=False),
                run_workload(name, seed, seconds, trace=True),
            )
            for name in WORKLOADS
        }
        for _ in range(2)
    ]
    bad = 0
    print("%-16s %-22s %12s %12s %8s %6s" % ("workload", "metric", "pass 1", "pass 2", "diff %", "bound"))
    for name, w in WORKLOADS.items():
        (e2e_a, layer_a), (e2e_b, layer_b) = passes[0][name], passes[1][name]
        for run in (e2e_a, layer_a, e2e_b, layer_b):
            if not run["correct"]:
                bad += 1
                print("%-16s INCORRECT: failed %d, %s" % (name, run["failed"], run["problems"]))
        for m in spec["end_to_end"]:
            a, b = e2e_a["metrics"][m["name"]], e2e_b["metrics"][m["name"]]
            diff = abs(b - a) / a
            over = diff > m["bound"]
            bad += over
            print(
                "%-16s %-22s %12.6g %12.6g %8.2f %5g%%%s"
                % (name, m["name"], a, b, 100 * diff, 100 * m["bound"], "  EXCEEDED" if over else "")
            )
        shown = harness.EXACT_METRICS + ("mpi.msgs_per_task", "mpi.bytes_per_task")
        for metric in shown:
            a, b = layer_a["metrics"][metric], layer_b["metrics"][metric]
            exact = metric in harness.EXACT_METRICS and not w.recovery
            differs = exact and (a is None or a != b)
            bad += differs
            print(
                "%-16s %-34s %12r %12r %s%s"
                % (name, metric, a, b, "exact" if exact else "", "  DIFFERS" if differs else "")
            )
    print("selfcheck: %s" % ("FAILED (%d)" % bad if bad else "ok"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--phase", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--idle0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--cal0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.phase:
            child_main(args)
            return 0
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        harness.pin_to_one_cpu()  # children inherit it, and check again
        if args.selfcheck:
            return selfcheck(args.seed, seconds, spec)
        spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
        for name in [args.workload] if args.workload else list(WORKLOADS):
            run = run_workload(name, args.seed, seconds, bool(args.trace))
            print(json.dumps(report(name, args.seed, run, spec_metrics)))
        return 0
    except HarnessError as e:
        print("benchmarks/e2e: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
