"""Every EXPERIMENTS.md claim, measured and checked: one table.

    python3 benchmarks/experiments.py [ID ...]

``EXPERIMENTS`` maps a claim id (the ``## ID —`` headings of
EXPERIMENTS.md, the rows of DESIGN.md §4) to the function that measures
it — it returns a dict of named numbers, its docstring is the set-up
line, its asserts are the output checks — and to the shape the section
claims, as data: number -> (op, bound), each bound written from the
claim, not from what HEAD prints.  Per id it prints the "Measured" block
the document quotes verbatim and a verdict: ``holds``, ``FAILS``, or
``known-fail: <owner>`` when every failing check is in ``KNOWN_FAILING``;
last, one JSON object.  Exit 1 on an unexpected ``FAILS`` and on a
``KNOWN_FAILING`` check that now holds, so that list cannot rot.

Timing is the e2e harness's: one pinned CPU, per-call costs by
``probes.timed_batches``, whole runs as the median busy time of a few
``estimator.Stopwatch`` blocks.  Absolute values are this machine's.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import harness  # noqa: E402
import probes  # noqa: E402
from estimator import Stopwatch  # noqa: E402
from repro import SwiftRuntime, compile_swift, swift_run  # noqa: E402
from repro.adlb.baselines import run_adlb_dynamic, run_static_round_robin  # noqa: E402
from repro.blob import blob_from_floats, blob_to_floats, floats_from_string, floats_to_string  # noqa: E402
from repro.interlang import EmbeddedPython, EmbeddedR, python_exec_baseline, register_standard_packages  # noqa: E402
from repro.packaging import MetadataFS, StaticPackage, load_loose_modules  # noqa: E402
from repro.simcluster import ClusterParams, constant, simulate  # noqa: E402
from repro.swig import NativeLibrary, install_package, register_library  # noqa: E402
from repro.tcl import Interp  # noqa: E402

# (id, checked number) -> who owns making it hold
KNOWN_FAILING = {("FIG2", "real_spread"): "ROADMAP item 2"}


def median_seconds(run: Callable[[], object], rounds: int = 3, clock: str = "busy") -> float:
    """Median over ``rounds`` calls; ``clock="wall"`` for work done in
    child processes, which busy time does not see."""
    samples = []
    for _ in range(rounds):
        with Stopwatch() as watch:
            run()
        samples.append(getattr(watch, clock))
    return float(np.median(samples))


def per_call_us(call: Callable[[], object], ops: int) -> float:
    def run(k):
        for _ in range(k):
            call()

    return probes.timed_batches(run, ops) * 1e6


FIG1_LEAF = """
(int o) %(name)s(int v) "python" "1.0" [
    "set code [ string map [ list VAL <<v>> ] {import time; a = time.perf_counter(); time.sleep(0.03); x = %(expr)s; print('%(name)s', %(key)s, a, time.perf_counter())} ]
     set <<o>> [ python::eval $code {x} ]"
];"""
FIG1_PROGRAM = (
    FIG1_LEAF % {"name": "f", "expr": "VAL * VAL", "key": "x"}
    + FIG1_LEAF % {"name": "g", "expr": "VAL % 2", "key": "VAL"}
    + '\nforeach i in [0:7] {\n    int t = f(i);\n    if (g(t) == 0) { printf("g(%i) == 0", t); }\n}\n'
)


def fig1() -> dict:
    """8 pipelines × 2 stages of 30 ms embedded-Python tasks, median of
    3 runs; each leaf prints its own start and end"""

    def run(workers, **kw):
        res = swift_run(FIG1_PROGRAM, workers=workers, **kw)
        hits = [line for line in res.stdout_lines if line.startswith("g(")]
        assert sorted(hits) == sorted("g(%d) == 0" % (i * i) for i in range(0, 8, 2))
        return res

    elapsed = {w: median_seconds(lambda: run(w)) for w in (1, 2, 4, 8)}
    res = run(4, trace=True)
    spans = sorted((e.t, e.end) for e in res.trace.spans("task"))
    assert len(spans) == 16
    stamps = {}  # (leaf, t) -> [start, end], t = f's output = g's input
    for line in res.stdout_lines:
        if line[:2] in ("f ", "g "):
            leaf, t, *stamps[leaf, int(t)] = line.split()
    return {
        "by workers": {w: {"elapsed_s": s, "speedup": elapsed[1] / s} for w, s in elapsed.items()},
        "speedup_at_4_workers": elapsed[1] / elapsed[4],
        "overlapping_pairs_of_16_task_spans": sum(
            a[1] > b[0] for i, a in enumerate(spans) for b in spans[i + 1 :]
        ),
        "g_started_after_own_f_ended_of_8": sum(
            float(stamps["g", i * i][0]) >= float(stamps["f", i * i][1]) for i in range(8)
        ),
    }


FIG2_LEAVES = 480
FIG2_PROGRAM = 'foreach i in [0:%d] { trace(python("x = 1", "x")); }' % (FIG2_LEAVES - 1)
FIG2_LAYOUTS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))  # (servers, engines) of 10 ranks
FIG2_ROUNDS = 7


def fig2_des() -> dict:
    tps = {}
    for fraction in (0.5, 0.9, 0.99):
        control = max(2, round(1024 * (1 - fraction)))
        params = ClusterParams(1024 - control, max(1, control // 2), max(1, control - control // 2))
        tps[fraction] = simulate(params, constant(params.n_workers * 4, 1e-3)).tasks_per_sec
    return {
        "DES, 1024 ranks, by worker fraction": {f: {"tasks_per_s": t} for f, t in tps.items()},
        "des_99_over_50": tps[0.99] / tps[0.5],
    }


def fig2() -> dict:
    """real runtime: 10 ranks, 480 python leaf tasks, the layouts run in
    turn for 7 rounds; each rate is taken against the first layout's,
    (1, 1), in its own round, and a layout's ratio is the median over
    rounds; the claim is throughput flat in the control fraction,
    real_spread = largest |ratio − 1|, ratio_iqr = the layout's
    interquartile range over rounds; DES: 1 ms tasks"""
    busy: dict[tuple, list[float]] = {layout: [] for layout in FIG2_LAYOUTS}
    for _ in range(FIG2_ROUNDS):  # interleaved: a drift of the host hits every layout alike
        for servers, engines in FIG2_LAYOUTS:
            layout = dict(workers=10 - servers - engines, servers=servers, engines=engines)
            with Stopwatch() as watch:
                assert swift_run(FIG2_PROGRAM, **layout).tasks_run == FIG2_LEAVES
            busy[servers, engines].append(watch.busy)
    base = np.array(busy[FIG2_LAYOUTS[0]])
    real = {}
    for (servers, engines), seconds in busy.items():
        ratios = base / np.array(seconds)  # rate over the base layout's, round by round
        q25, q75 = np.percentile(ratios, [25, 75])
        real["%d, %d" % (servers, engines)] = {
            "tasks_per_s": FIG2_LEAVES / float(np.median(seconds)),
            "ratio": float(np.median(ratios)),
            "ratio_iqr": float(q75 - q25),
        }
    return {
        "real runtime by servers, engines": real,
        "real_spread": max(abs(row["ratio"] - 1) for row in real.values()),
        **fig2_des(),
    }


CODE, EXPR = "v = sum(i * i for i in range(50))", "v"
FIG3_LEAF_PROGRAM = """
(float o) nfma(float a, float b, float c) "kern" "1.0" [ "set <<o>> [ kern::fma <<a>> <<b>> <<c>> ]" ];
float results[];
foreach i in [0:31] { results[i] = nfma(tofloat(i), 2.0, 1.0); }
printf("%s", fromfloat(sum_float(results)));
"""
KERN = NativeLibrary("kern")
KERN.function("double fma(double a, double b, double c);")(lambda a, b, c: a * b + c)
KERN.function("double arr_sum(double* x, int n);")(lambda x, n: float(np.sum(x[:n])))
FIG3_BOUNDARIES = {  # boundary -> (Tcl call, its result, calls in the first batch)
    "pure Tcl proc": ("tcl_fma 2.0 3.0 4.0", "10.0", 4000),
    "SWIG-bound native (scalars)": ("kern::fma 2.0 3.0 4.0", "10.0", 4000),
    "SWIG-bound native + blob arg": ("kern::arr_sum $::blob 4", "10.0", 4000),
    "embedded Python": ("python::eval {v = 2.0 * 3.0 + 4.0} {v}", "10.0", 3000),
    "embedded R": ("r::eval {v <- 2 * 3 + 4} {v}", "10", 2000),
}


@functools.cache
def fork_exec_us() -> float:
    """The rejected strategy: launch ``python -c`` per task."""
    assert python_exec_baseline(CODE, EXPR) == "40425"
    return median_seconds(lambda: python_exec_baseline(CODE, EXPR), rounds=7, clock="wall") * 1e6


def fig3() -> dict:
    """one interpreter, every boundary called from Tcl; the Swift
    program's 32 native leaves must sum to 1024.0"""
    interp = Interp()
    register_standard_packages(interp)
    register_library(interp, KERN)
    interp.eval("proc tcl_fma { a b c } { expr { $a * $b + $c } }")
    interp.eval("set ::blob [ blobutils::create_floats 1.0 2.0 3.0 4.0 ]")
    call_us = {}
    for boundary, (call, expected, ops) in FIG3_BOUNDARIES.items():
        assert interp.eval(call) == expected
        call_us[boundary] = per_call_us(lambda: interp.eval(call), ops)
    rt = SwiftRuntime(workers=4, setup=lambda it, ctx, client: install_package(it, KERN))

    def leaf_program():
        assert rt.run(FIG3_LEAF_PROGRAM).stdout_lines == ["1024.0"]

    return {
        "one call by boundary": {b: {"call_us": us} for b, us in call_us.items()},
        "native_over_tcl_proc": call_us["SWIG-bound native (scalars)"] / call_us["pure Tcl proc"],
        "fork_exec_us": fork_exec_us(),
        "fork_exec_over_dearest_boundary": fork_exec_us() / max(call_us.values()),
        "swift_program_of_32_native_leaves_ms": median_seconds(leaf_program) * 1e3,
    }


def embed() -> dict:
    """per task; embedded costs are the benchmark's `interlang.*_eval_us`
    probes, fork/exec is `python -c`; all three must compute 40425"""
    assert EmbeddedPython().eval(CODE, EXPR) == "40425"
    assert EmbeddedPython(mode="reinit").eval(CODE, EXPR) == "40425"
    assert EmbeddedR().eval("v <- sum((0:49)^2)", "v") == "40425"
    python_us = probes.interlang_python_eval_us()
    return {
        "embedded_python_us": python_us,
        "embedded_r_us": probes.interlang_r_eval_us(),
        "fork_exec_us": fork_exec_us(),
        "fork_exec_over_embedded_python": fork_exec_us() / python_us,
    }


def scale(max_exp: int = 14) -> dict:
    """DES only (its costs are assumed, not calibrated: ROADMAP item
    4(c)), 6 tasks of 1 ms per worker"""

    def des(*roles, **kw):
        params = ClusterParams(*roles, **kw)
        return simulate(params, constant(params.n_workers * 6, 1e-3))

    scaled, single = {}, {}
    for exp in range(6, max_exp + 1, 2):
        servers, engines = max(1, 2**exp // 64), max(1, 2**exp // 128)
        res = des(2**exp - servers - engines, servers, engines)
        scaled[2**exp] = {"tasks_per_s": res.tasks_per_sec, "worker_utilization": res.worker_utilization}
    for exp in range(8, min(max_exp, 12) + 1, 2):
        res = des(2**exp - 9, 1, 8, server_op_time=5e-6)
        single[2**exp] = {"tasks_per_s": res.tasks_per_sec, "server_utilization": max(res.server_utilization)}
    # few engines: puts concentrate on 2 of the 8 servers
    on, off = (des(502, 8, 2, steal=s).tasks_per_sec for s in (True, False))
    tps, one = ([row["tasks_per_s"] for row in rows.values()] for rows in (scaled, single))
    return {
        "one server per 64 ranks, one engine per 128, by ranks": scaled,
        "min_gain_per_4x_ranks": min(b / a for a, b in zip(tps, tps[1:])),
        "one server, 8 engines, by ranks": single,
        "one_server_gain_over_range": max(one) / min(one),
        "512 ranks, 2 of 8 servers fed, by stealing": {"on": {"tasks_per_s": on}, "off": {"tasks_per_s": off}},
        "steal_gain": on / off,
    }


def lb() -> dict:
    """4 workers, 48 sleep tasks (uniform: 4 ms each; heavy tail: 6 × 30
    ms among 1 ms), imbalance = max / mean − 1 of per-worker busy time,
    median of 5 runs"""
    heavy = np.full(48, 0.001)
    heavy[np.random.RandomState(42).choice(48, 6, replace=False)] = 0.030
    rows = {}
    for workload, durations in (("uniform", np.full(48, 0.004)), ("heavy tail", heavy)):
        rows[workload] = {
            name: float(np.median([
                schedule(4, lambda i: time.sleep(durations[int(i)]), 48).imbalance for _ in range(5)
            ]))
            for name, schedule in (("static", run_static_round_robin), ("dynamic", run_adlb_dynamic))
        }
    return {
        "imbalance by workload": rows,
        "heavy_tail_static_minus_dynamic": rows["heavy tail"]["static"] - rows["heavy tail"]["dynamic"],
        "uniform_worst": max(rows["uniform"].values()),
    }


PY_PREAMBLE = "import math, json, functools\nTABLE = {i: math.sin(i / 100.0) for i in range(2000)}\n"
PY_PREAMBLE += "def lookup(i):\n    return TABLE[i % 2000]\n"
R_PREAMBLE = "tbl <- sin(seq_len(2000) / 100); look <- function(i) tbl[i]"
MEMO_TASK = "k = 911\nif k not in cache:\n    cache[k] = sum(i * i for i in range(k))\nv = cache[k]"


def state() -> dict:
    """the preamble builds a 2 000-entry table; the memoizing task keeps
    a cache in retained state and must return the right sum"""
    task_us = {}
    for mode, ops in (("retain", 3000), ("reinit", 200)):
        py = EmbeddedPython(mode=mode, preamble=PY_PREAMBLE)
        r = EmbeddedR(mode=mode, preamble=R_PREAMBLE)
        task_us[mode] = {
            "python_task_us": per_call_us(lambda: py.eval("v = lookup(1234)", "v"), ops),
            "r_task_us": per_call_us(lambda: r.eval("v <- look(1234)", "v"), ops),
        }
    memo = EmbeddedPython()
    memo.eval("cache = {}", "")
    assert memo.eval(MEMO_TASK, "v") == str(sum(i * i for i in range(911)))
    return {
        "by state policy": task_us,
        "python_reinit_over_retain": task_us["reinit"]["python_task_us"] / task_us["retain"]["python_task_us"],
        "memoizing_task_us": per_call_us(lambda: memo.eval(MEMO_TASK, "v"), 3000),
    }


def blob() -> dict:
    """doubles → blob → doubles vs doubles → text → doubles (not timed at
    a million doubles: over a second); the 64 KiB string → blob → string
    trip is the benchmark's `blob.roundtrip_us` probe"""
    rows = {}
    for n, string_ops in ((100, 300), (10_000, 4), (1_000_000, None)):
        values = np.random.RandomState(0).uniform(-1e3, 1e3, n)
        assert blob_to_floats(blob_from_floats(values)).size == n
        rows[n] = {"blob_us": per_call_us(lambda: blob_to_floats(blob_from_floats(values)), 20_000)}
        if string_ops:
            assert floats_from_string(floats_to_string(values)).size == n
            rows[n]["string_marshal_us"] = per_call_us(
                lambda: floats_from_string(floats_to_string(values)), string_ops
            )
    blob_us = [row["blob_us"] for row in rows.values()]
    return {
        "by doubles": rows,
        "blob_dearest_over_cheapest_size": max(blob_us) / min(blob_us),
        "string_marshal_growth_100_to_10k": rows[10_000]["string_marshal_us"] / rows[100]["string_marshal_us"],
        "string_64KiB_blob_roundtrip_us": probes.blob_roundtrip_us(),
    }


def pkg() -> dict:
    """metadata operations to load M modules, loose files vs one bundle;
    stall = the 1 ms-per-operation model's time summed over 8 192 ranks"""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for count in (10, 100, 400):
            package, bundle, loose = StaticPackage("app"), "%s/app%d.pkg" % (tmp, count), []
            for i in range(count):
                src = "package provide mod%d 1.0\nproc mod%d::f {} { return %d }\n" % (i, i, i)
                package.add("mod%d" % i, "tcl", src)
                loose.append("%s/mod%d_%d.tcl" % (tmp, count, i))
                Path(loose[-1]).write_text(src)
            package.save(bundle)
            loaders = {
                "loose": lambda fs: load_loose_modules(fs, loose),
                "static": lambda fs: StaticPackage.load(bundle, fs=fs),
            }
            rows[count] = {}
            for kind, load in loaders.items():
                fs = MetadataFS(metadata_latency=1e-3)
                assert len(load(fs)) == count
                rows[count][kind + "_ops"] = fs.stats.opens
                rows[count][kind + "_stall_s"] = fs.stats.simulated_time * 8192
    return {
        "by modules": rows,
        "min_loose_ops_per_module": min(row["loose_ops"] / count for count, row in rows.items()),
        "max_static_ops": max(row["static_ops"] for row in rows.values()),
    }


STC_RUNS = {  # program -> (source, its sorted output)
    "20-iteration array fill": (
        'int base = 7;\nint a[];\nforeach i in [0:19] { a[i] = base + i; }\nprintf("%i", sum_integer(a));',
        ["330"],
    ),
    "40-leaf python fan-out": (
        'foreach i in [0:39] { string s = python(strcat("x=", fromint(i)), "x"); trace(s); }',
        sorted("trace: %d" % i for i in range(40)),
    ),
}
TURBINE_OPS = (
    "turbine::allocate", "turbine::rule", "turbine::op ", "turbine::store", "turbine::spawn ",
)


def stc() -> dict:
    """static_ops = allocate / store / rule / shim / spawn sites in the
    emitted text (-O2 must emit -O1's); runs at 2 workers, same output at
    both levels"""
    m, saved = {}, {"static_ops": [], "rules": []}
    for name, (src, expected) in STC_RUNS.items():
        texts = [compile_swift(src, opt=opt).tcl_text for opt in (0, 1, 2)]
        # -O2 is -O1: same text below the header line that names the level
        assert texts[2].split("\n", 1)[1] == texts[1].split("\n", 1)[1]
        m[name + " by level"] = rows = {}
        for opt in (0, 1):
            res = swift_run(src, workers=2, opt=opt)
            assert sorted(res.stdout_lines) == expected
            c = res.metrics["counters"]
            rows["-O%d" % opt] = {
                "static_ops": sum(texts[opt].count(op) for op in TURBINE_OPS),
                "rules": c["engine.rules_created"],
                "data_ops": c["adlb.data_ops"],
                "messages": c["mpi.sends"],
            }
        for column, gains in saved.items():
            gains.append(rows["-O0"][column] - rows["-O1"][column])
    return dict(m, **{"min_%s_saved_at_O1" % column: min(gains) for column, gains in saved.items()})


class Experiment(NamedTuple):
    title: str
    measure: Callable[[], dict]  # its docstring is the block's set-up line
    shape: dict[str, tuple[str, float]]  # measured number -> (op, bound)


OPS = {"≥": operator.ge, "≤": operator.le}
EXPERIMENTS: dict[str, Experiment] = {
    "FIG1": Experiment("parallel dataflow pipelines", fig1, {
        "speedup_at_4_workers": ("≥", 2.5), "overlapping_pairs_of_16_task_spans": ("≥", 1),
        "g_started_after_own_f_ended_of_8": ("≥", 8)}),
    "FIG2": Experiment("runtime architecture / 99%+ workers", fig2, {
        "real_spread": ("≤", 0.2), "des_99_over_50": ("≥", 1)}),
    "FIG3": Experiment("SWIG native-call pipeline", fig3, {
        "native_over_tcl_proc": ("≤", 2), "fork_exec_over_dearest_boundary": ("≥", 100)}),
    "SCALE": Experiment("large-scale throughput", scale, {
        "min_gain_per_4x_ranks": ("≥", 3), "one_server_gain_over_range": ("≤", 1.1), "steal_gain": ("≥", 1.5)}),
    "LB": Experiment("load balancing of varying-runtime tasks", lb, {
        "heavy_tail_static_minus_dynamic": ("≥", 0), "uniform_worst": ("≤", 0.05)}),
    "EMBED": Experiment("embedded interpreters vs fork/exec", embed, {
        "fork_exec_over_embedded_python": ("≥", 100)}),
    "STATE": Experiment("retain vs reinitialize", state, {"python_reinit_over_retain": ("≥", 3)}),
    "BLOB": Experiment("bulk binary data", blob, {
        "blob_dearest_over_cheapest_size": ("≤", 2), "string_marshal_growth_100_to_10k": ("≥", 50)}),
    "PKG": Experiment("static packages", pkg, {
        "min_loose_ops_per_module": ("≥", 1), "max_static_ops": ("≤", 1)}),
    "STC": Experiment("compiler cost and optimization", stc, {
        "min_static_ops_saved_at_O1": ("≥", 1), "min_rules_saved_at_O1": ("≥", 1)}),
}


def fmt(x) -> str:
    if not isinstance(x, float):
        return str(x)
    return "%.0f" % x if abs(x) >= 100 else "%#.3g" % x


def render(exp_id: str, m: dict) -> tuple[str, str, list[str]]:
    """The id's "Measured" block, its verdict, and what about it must
    fail the command."""
    exp = EXPERIMENTS[exp_id]
    parts = ["**Measured** (%s):" % " ".join(exp.measure.__doc__.split())]
    for key, value in m.items():
        if not isinstance(value, dict):  # a scalar; a series is a dict of row dicts
            bullet = "- %s: %s" % (key, fmt(value))
            if parts[-1].startswith("- "):  # consecutive scalars are one list
                parts[-1] += "\n" + bullet
            else:
                parts.append(bullet)
            continue
        columns = list(dict.fromkeys(c for row in value.values() for c in row))
        rows = [[key] + columns, ["---"] * (len(columns) + 1)]
        rows += [[i] + [fmt(row.get(c, "—")) for c in columns] for i, row in value.items()]
        parts.append("\n".join("| %s |" % " | ".join(map(str, row)) for row in rows))
    clauses, failing, known, problems = [], [], [], []
    for key, (op, bound) in exp.shape.items():
        holds, owner = OPS[op](m[key], bound), KNOWN_FAILING.get((exp_id, key))
        if not holds:
            (known if owner else failing).append(owner or key)
        elif owner:
            problems.append("%s.%s holds now: remove it from KNOWN_FAILING (%s)" % (exp_id, key, owner))
        state = "holds" if holds else "known-fail: " + owner if owner else "FAILS"
        clauses.append("%s %s %s (%s: %s)" % (key, op, bound, fmt(m[key]), state))
    parts.append("**Shape:** " + "; ".join(clauses) + ".")
    problems += ["%s.%s does not hold" % (exp_id, key) for key in failing]
    verdict = "FAILS" if failing else "known-fail: " + ", ".join(known) if known else "holds"
    return "\n\n".join(parts), verdict, problems


def main(argv: list[str] | None = None, measure=lambda exp_id: EXPERIMENTS[exp_id].measure()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", metavar="ID", help="default: all of " + ", ".join(EXPERIMENTS))
    ids = parser.parse_args(argv).ids
    if set(ids) - set(EXPERIMENTS):
        parser.error("unknown id in %s" % ids)
    harness.pin_to_one_cpu()
    verdicts, measured, problems = {}, {}, []
    for exp_id in ids or EXPERIMENTS:
        print("## %s — %s\n" % (exp_id, EXPERIMENTS[exp_id].title))
        try:
            measured[exp_id] = measure(exp_id)
        except AssertionError as e:  # an output check inside the measure function
            verdicts[exp_id], new = "FAILS (output check)", ["%s: wrong output: %r" % (exp_id, e)]
        else:
            block, verdicts[exp_id], new = render(exp_id, measured[exp_id])
            print(block + "\n")
        problems += new
        print("verdict %s: %s\n" % (exp_id, verdicts[exp_id]), flush=True)
    print(json.dumps({"verdicts": verdicts, "measured": measured}))
    for problem in problems:
        print("PROBLEM: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
