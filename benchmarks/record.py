"""Record the hot-path benchmark numbers into BENCH_hotpath.json.

Run from the repo root::

    PYTHONPATH=src python benchmarks/record.py [ROW ...]

With no arguments every row is measured afresh; naming rows (e.g.
``bench_obs_overhead bench_flightrec_overhead``) re-measures only
those and keeps the rest of the committed snapshot.  Reuses the
``measure_*`` functions of the ``bench_*`` modules so the snapshot and
the pytest assertions measure the same thing.
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
    measure_end_to_end,
    measure_tcl,
)

OUT = Path(__file__).parent.parent / "BENCH_hotpath.json"


ROWS = {
    "tcl_proc_dispatch": lambda: measure_tcl(PROC_PRELUDE, PROC_CALL),
    "tcl_expr_loop": lambda: measure_tcl(EXPR_PRELUDE, EXPR_CALL),
    "end_to_end": lambda: measure_end_to_end(rounds=5),
    "bench_faults_overhead": lambda: measure_faults_overhead(rounds=5),
    "bench_journal_overhead": lambda: measure_journal_overhead(rounds=5),
    "bench_audit_overhead": lambda: measure_audit_overhead(rounds=5),
    "bench_replication_overhead": lambda: measure_replication_overhead(rounds=5),
    "bench_obs_overhead": lambda: measure_obs_overhead(rounds=5),
    "bench_flightrec_overhead": lambda: measure_flightrec_overhead(rounds=7),
}


def main(names: list[str]) -> None:
    unknown = [n for n in names if n not in ROWS]
    if unknown:
        sys.exit("unknown row(s) %s; rows: %s" % (unknown, ", ".join(ROWS)))
    results = json.loads(OUT.read_text()) if names else {}
    results["recorded"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    results["python"] = platform.python_version()
    for name in names or ROWS:
        row = results[name] = ROWS[name]()
        ratio = row.get("speedup", row.get("overhead_ratio"))
        print("%-28s %.2fx" % (name, ratio))
    OUT.write_text(json.dumps(results, indent=2) + "\n")
    print("wrote", OUT)


if __name__ == "__main__":
    main(sys.argv[1:])
