"""Record the hot-path benchmark numbers into BENCH_hotpath.json.

Run from the repo root::

    PYTHONPATH=src python benchmarks/record.py

Reuses the ``measure_*`` functions from :mod:`bench_hotpath` so the
committed snapshot and the pytest assertions measure the same thing.
"""

from __future__ import annotations

import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_faults import (  # noqa: E402
    measure_audit_overhead,
    measure_faults_overhead,
    measure_journal_overhead,
)
from bench_obs_overhead import (  # noqa: E402
    measure_flightrec_overhead,
    measure_obs_overhead,
)
from bench_replication import measure_replication_overhead  # noqa: E402
from bench_hotpath import (  # noqa: E402
    EXPR_CALL,
    EXPR_PRELUDE,
    PROC_CALL,
    PROC_PRELUDE,
    measure_dataflow,
    measure_end_to_end,
    measure_tcl,
)

OUT = Path(__file__).parent.parent / "BENCH_hotpath.json"


def main() -> None:
    results = {
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "tcl_proc_dispatch": measure_tcl(PROC_PRELUDE, PROC_CALL),
        "tcl_expr_loop": measure_tcl(EXPR_PRELUDE, EXPR_CALL),
        "end_to_end": measure_end_to_end(rounds=5),
        "dataflow_fanout": measure_dataflow(rounds=5),
        "bench_faults_overhead": measure_faults_overhead(rounds=5),
        "bench_journal_overhead": measure_journal_overhead(rounds=5),
        "bench_audit_overhead": measure_audit_overhead(rounds=5),
        "bench_replication_overhead": measure_replication_overhead(rounds=5),
        "bench_obs_overhead": measure_obs_overhead(rounds=5),
        "bench_flightrec_overhead": measure_flightrec_overhead(rounds=7),
    }
    OUT.write_text(json.dumps(results, indent=2) + "\n")
    for name in ("tcl_proc_dispatch", "tcl_expr_loop", "end_to_end"):
        print("%-18s %.2fx" % (name, results[name]["speedup"]))
    print(
        "%-18s %.2fx" % (
            "dataflow_fanout", results["dataflow_fanout"]["speedup"]
        )
    )
    print(
        "%-18s %.2fx" % (
            "faults_overhead",
            results["bench_faults_overhead"]["overhead_ratio"],
        )
    )
    print(
        "%-18s %.2fx" % (
            "journal_overhead",
            results["bench_journal_overhead"]["overhead_ratio"],
        )
    )
    print(
        "%-18s %.2fx" % (
            "audit_overhead",
            results["bench_audit_overhead"]["overhead_ratio"],
        )
    )
    print(
        "%-18s %.2fx" % (
            "repl_overhead",
            results["bench_replication_overhead"]["overhead_ratio"],
        )
    )
    print(
        "%-18s %.2fx" % (
            "obs_overhead",
            results["bench_obs_overhead"]["overhead_ratio"],
        )
    )
    print(
        "%-18s %.2fx" % (
            "flightrec_overhead",
            results["bench_flightrec_overhead"]["overhead_ratio"],
        )
    )
    print("wrote", OUT)


if __name__ == "__main__":
    main()
