"""What each switchable feature costs end to end: on/off, paired.

    python3 benchmarks/overhead.py [FEATURE ...]

One table, ``FEATURES``: feature -> (workload, leaves, overrides that
turn it off, overrides that turn it on).  Each row is measured through
the *unmodified* ``benchmarks/e2e`` harness — ``Session.run(**overrides)``
on the workload where the feature does its work, one pinned CPU, busy
time divided by the calibrations on either side of the rep
(``estimator.Pace``), every rep's output checked against the seeded
reference — as alternating (off, on) / (on, off) pairs, and reported as
the median and quartiles of the paired ratio.  A 10-leaf program that
runs for 30 ms cannot resolve any of these; the fan-out at 2 workers /
1 server / 1 engine is where per-message and per-task costs are largest
relative to the run, and the 2/2/2 layout is the only one where
replication and journaling run at all.

One number is a guard: the always-on level-0 recorder must stay within
``RECORDER_BUDGET_X`` of a recorder-off run on a dispatch-bound fan-out
sized so a rep lasts over a second (ROADMAP's target is 1.05x, open
item 5(c); 1.25x is the level a doubling of the stamp cost would
cross).  Everything else is printed, not asserted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import harness  # noqa: E402
from estimator import Pace, summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RECORDER_BUDGET_X = 1.25
SEED = 700
PAIRS = 10  # alternating (off, on) / (on, off)
# ~4 500 leaves/s on the reference machine: over a second a rep.
RECORDER_LEAVES = 6000
TRACED = {"trace": True, "trace_capacity": harness.TRACE_CAPACITY}
# leaves=None: the workload's peak size (1200 / 600 leaves).
FEATURES: dict[str, tuple[str, int | None, dict, dict]] = {
    "flightrec": ("fanout_py", RECORDER_LEAVES, {"flightrec": False}, {}),
    "trace": ("fanout_py", None, {}, TRACED),
    "replicate": ("fanout_recovery", None, {"replicate": False}, {}),
    "journal": ("fanout_recovery", None, {"journal": False}, {}),
    "audit": ("fanout_recovery", None, {}, {"audit": True}),
    "monitor": ("fanout_recovery", None, {}, {"monitor": True}),
}
HEADER = "feature    workload         leaves  off ms/leaf  on/off median [q25, q75]  failed"
ROW = (
    "{feature:<10} {workload:<16} {leaves:>6} {off_ms_per_leaf:>12.4f}  "
    "{ratio:.2f}x [{q25:.2f}, {q75:.2f}] of {pairs:<4} {failed_leaves:>6}"
)


def measure(feature: str, pace: Pace) -> dict:
    """``PAIRS`` alternating off/on pairs of one feature's row."""
    name, leaves, off, on = FEATURES[feature]
    workload = WORKLOADS[name]
    if leaves is not None:
        workload = dataclasses.replace(workload, peak_size=leaves)
    session = harness.Session(workload, SEED)
    n = workload.peak_size

    def nominal_rep(overrides: dict) -> tuple[float, int]:
        """Nominal seconds and failed leaves of one rep."""
        rep = session.run(n, **overrides)
        return rep.busy / pace.slowdown(), rep.failed

    failed = nominal_rep(off)[1] + nominal_rep(on)[1]  # warm both sides
    ratios, off_s = [], []
    for i in range(PAIRS):
        pace.slowdown()  # the pair starts at a fresh calibration
        sides = [(off, "off"), (on, "on")]
        took = {}
        for overrides, side in sides if i % 2 == 0 else reversed(sides):
            took[side], bad = nominal_rep(overrides)
            failed += bad
        ratios.append(took["on"] / took["off"])
        off_s.append(took["off"])
    ratio = summary(ratios)
    return {
        "feature": feature,
        "workload": name,
        "leaves": n,
        "off_ms_per_leaf": 1e3 * summary(off_s)["median"] / n,
        "ratio": ratio["median"],
        "q25": ratio["q25"],
        "q75": ratio["q25"] + ratio["iqr"],
        "pairs": PAIRS,
        "failed_leaves": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("features", nargs="*", metavar="FEATURE", help="default: all")
    args = parser.parse_args(argv)
    unknown = [f for f in args.features if f not in FEATURES]
    if unknown:
        parser.error("unknown %s; features: %s" % (unknown, ", ".join(FEATURES)))
    harness.pin_to_one_cpu()
    pace = Pace()
    print(HEADER)
    rows = []
    for feature in args.features or FEATURES:
        rows.append(measure(feature, pace))
        print(ROW.format(**rows[-1]), flush=True)
    print(json.dumps({"seed": SEED, "rows": rows}))
    problems = [
        "%s: %d failed leaves" % (r["feature"], r["failed_leaves"])
        for r in rows
        if r["failed_leaves"]
    ]
    for r in rows:
        if r["feature"] == "flightrec" and r["ratio"] > RECORDER_BUDGET_X:
            problems.append(
                "level-0 recorder costs %.3fx, over the %.2fx budget"
                % (r["ratio"], RECORDER_BUDGET_X)
            )
    for problem in problems:
        print("PROBLEM: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
