"""Command-line interface: the ``stc`` + ``turbine`` analog.

Usage::

    python -m repro compile program.swift [-O2] [-o program.tic]
    python -m repro run program.swift [--workers N] [--servers N]
        [--engines N] [-O2] [--arg name=value ...] [--trace] [--monitor]
    python -m repro runtcl program.tic [--workers N]
    python -m repro profile program.swift [--chrome trace.json]
    python -m repro trace program.swift [-o trace.json]
    python -m repro analyze program.swift [--dot run.dot] [--json out.json]
    python -m repro analyze saved.trace.json
    python -m repro chaos [--trials N] [--intensity light|medium|brutal]
        [--workloads NAME ...] [--out DIR]
    python -m repro postmortem blackbox-engine-lost-1234-1.json [--last N]
    python -m repro submit program.swift --scheduler slurm --nodes 512

``compile`` writes the generated Turbine Tcl (a ``.tic`` file, as real
STC calls them); ``run`` compiles and executes on the thread-backed
runtime (``--monitor`` adds a live one-line progress readout); ``runtcl``
executes an already-compiled program; ``profile`` runs with the
:mod:`repro.obs` tracer enabled and prints the per-category/per-worker
breakdown; ``trace`` runs traced and writes a Chrome ``trace_event``
JSON (load in chrome://tracing or Perfetto); ``analyze`` reconstructs
the run DAG from provenance events and prints the critical path with
per-hop stall attribution (accepts either a Swift source to run traced
or a ``.trace.json`` saved earlier); ``chaos`` runs the randomized
fault-injection campaign of :mod:`repro.chaos` (every ``run``-style
command also accepts ``--audit`` for run-invariant checking and
``--fault-plan`` to replay a chaos repro artifact); ``postmortem``
merges the per-rank flight-recorder rings of a ``blackbox-*.json``
failure artifact into one causally-ordered cross-rank timeline (every
``run``-style command dumps one on failure unless ``--no-flightrec``);
``submit`` renders the batch submission script for a real machine.
"""

from __future__ import annotations

import argparse
import sys

from .api import SwiftRuntime
from .core import SwiftError, compile_swift
from .launch import JobSpec, render
from .turbine import RuntimeConfig, run_turbine_program


def _add_runtime_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--servers", type=int, default=1)
    p.add_argument("--engines", type=int, default=1)
    p.add_argument(
        "--arg",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="program argument readable via argv()",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="run traced and print the profile report on stderr",
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="print a live one-line progress/utilization readout",
    )
    p.add_argument(
        "--monitor-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="seconds between monitor samples (with --monitor)",
    )
    p.add_argument(
        "--interp-mode",
        choices=["retain", "reinit"],
        default="retain",
        help="embedded interpreter state policy (paper III-C)",
    )
    p.add_argument(
        "--on-error",
        choices=["retry", "fail_fast", "continue"],
        default="retry",
        help="task-failure policy: retry (default), fail_fast, or continue",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-executions allowed per failed task (with --on-error retry)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit; the run shuts down in an orderly way on expiry",
    )
    p.add_argument(
        "--replicate",
        dest="replicate",
        action="store_true",
        default=None,
        help="replicate server state to a buddy server (survives server "
        "death; needs --servers >= 2)",
    )
    p.add_argument(
        "--no-replicate",
        dest="replicate",
        action="store_false",
        help="disable server replication even when it would default on",
    )
    p.add_argument(
        "--journal",
        dest="journal",
        action="store_true",
        default=None,
        help="journal engine rule tables to their anchor server (survives "
        "engine death; needs --engines >= 2)",
    )
    p.add_argument(
        "--no-journal",
        dest="journal",
        action="store_false",
        help="disable rule-table journaling even when it would default on",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task watchdog: a task running longer than this is "
        "abandoned (TaskTimeout) and retried elsewhere",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write periodic consistent checkpoints to PATH",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between checkpoints (with --checkpoint)",
    )
    p.add_argument(
        "--restore",
        default=None,
        metavar="PATH",
        help="resume from a checkpoint instead of running the program "
        "entry point (world shape must match the checkpointed run)",
    )
    p.add_argument(
        "--audit",
        action="store_true",
        help="check run invariants at shutdown (termination-counter "
        "conservation, no leaked leases/journals/refcounts) and report "
        "violations",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject faults from a FaultPlan JSON (a chaos repro "
        "artifact or a bare plan image) — replays a chaos trial",
    )
    p.add_argument(
        "--no-flightrec",
        dest="flightrec",
        action="store_false",
        default=True,
        help="disable the always-on flight recorder (no black-box "
        "artifact on failure)",
    )
    p.add_argument(
        "--blackbox-dir",
        default=".",
        metavar="DIR",
        help="where to dump blackbox-*.json on failure (default: "
        "current directory; needs the flight recorder on)",
    )


def _runtime_config(
    ns: argparse.Namespace, echo: bool, trace: bool
) -> RuntimeConfig:
    """One funnel from parsed CLI flags to a RuntimeConfig."""

    def _monitor_line(line: str) -> None:
        print(line, file=sys.stderr)

    faults = None
    if getattr(ns, "fault_plan", None):
        from .chaos.runner import load_fault_plan

        faults = load_fault_plan(ns.fault_plan)
    return RuntimeConfig.of(
        workers=ns.workers,
        servers=ns.servers,
        engines=ns.engines,
        echo=echo,
        trace=trace,
        monitor=ns.monitor,
        monitor_interval=ns.monitor_interval,
        monitor_out=_monitor_line if ns.monitor else None,
        interp_mode=ns.interp_mode,
        on_error=ns.on_error,
        max_retries=ns.max_retries,
        deadline=ns.deadline,
        replicate=ns.replicate,
        journal=ns.journal,
        task_timeout=ns.task_timeout,
        checkpoint_path=ns.checkpoint,
        checkpoint_interval=ns.checkpoint_interval,
        restore=ns.restore,
        audit=ns.audit,
        faults=faults,
        flightrec=ns.flightrec,
        blackbox_dir=ns.blackbox_dir if ns.flightrec else None,
        args=_parse_args_list(ns.arg),
    )


def _report_run_failure(e) -> int:
    """Print a failed run's diagnostic plus, when the flight recorder
    dumped a black box, the `repro postmortem` pointer."""
    print("run failed: %s" % e, file=sys.stderr)
    path = getattr(e, "blackbox_path", None)
    if path:
        print(
            "black box written to %s (inspect with `repro postmortem %s`)"
            % (path, path),
            file=sys.stderr,
        )
    return 3


def _report_failures(result) -> int:
    """Exit status for a completed run: with ``--on-error continue``
    the run drains past permanent failures, but they must still be
    reported and reflected in the exit code."""
    if result.ok:
        return 0
    if result.failures:
        print(
            "run completed with %d permanent failure(s):" % len(result.failures),
            file=sys.stderr,
        )
        for f in result.failures:
            print(
                "  rank %d %s (%d attempt(s)): %s"
                % (f.rank, f.kind, f.attempts, f.error),
                file=sys.stderr,
            )
    if result.quarantined:
        print(
            "run completed with %d quarantined task(s):" % len(result.quarantined),
            file=sys.stderr,
        )
        for q in result.quarantined:
            chain = ", ".join("rank %d (%s)" % (r, why) for r, why in q.chain)
            print(
                "  %s %s (%d attempt(s)) killed: %s"
                % (q.kind, q.payload, q.attempts, chain),
                file=sys.stderr,
            )
    return 3


def _report_audit(result) -> int:
    """Exit status contribution of ``--audit``: a run that completes
    but violates a run invariant must fail loudly."""
    if result.audit is None or result.audit.ok:
        return 0
    print(result.audit.render(), file=sys.stderr)
    return 5


def _parse_args_list(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit("--arg expects NAME=VALUE, got %r" % pair)
        key, _, value = pair.partition("=")
        out[key] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swift/T-style interlanguage parallel scripting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile Swift to Turbine Tcl")
    p_compile.add_argument("source")
    p_compile.add_argument("-o", "--output", default=None)
    for level in (0, 1, 2):
        p_compile.add_argument(
            "-O%d" % level,
            dest="opt",
            action="store_const",
            const=level,
        )
    p_compile.set_defaults(opt=1)

    p_run = sub.add_parser("run", help="compile and run a Swift program")
    p_run.add_argument("source")
    for level in (0, 1, 2):
        p_run.add_argument(
            "-O%d" % level, dest="opt", action="store_const", const=level
        )
    p_run.set_defaults(opt=1)
    _add_runtime_flags(p_run)

    p_runtcl = sub.add_parser("runtcl", help="run a compiled .tic program")
    p_runtcl.add_argument("program")
    _add_runtime_flags(p_runtcl)

    p_profile = sub.add_parser(
        "profile", help="run a Swift program traced and print a profile"
    )
    p_profile.add_argument("source")
    for level in (0, 1, 2):
        p_profile.add_argument(
            "-O%d" % level, dest="opt", action="store_const", const=level
        )
    p_profile.set_defaults(opt=1)
    _add_runtime_flags(p_profile)
    p_profile.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help="also write a Chrome trace_event JSON to PATH",
    )

    p_trace = sub.add_parser(
        "trace", help="run a Swift program traced and write Chrome JSON"
    )
    p_trace.add_argument("source")
    for level in (0, 1, 2):
        p_trace.add_argument(
            "-O%d" % level, dest="opt", action="store_const", const=level
        )
    p_trace.set_defaults(opt=1)
    _add_runtime_flags(p_trace)
    p_trace.add_argument(
        "-o",
        "--output",
        default=None,
        help="trace JSON path (default: SOURCE with .trace.json suffix)",
    )

    p_analyze = sub.add_parser(
        "analyze",
        help="critical-path / stall analysis of a traced run "
        "(Swift source, or a saved .trace.json)",
    )
    p_analyze.add_argument(
        "source",
        help="Swift program to run traced, or a Chrome trace JSON "
        "written by `repro trace` (detected by .json suffix)",
    )
    for level in (0, 1, 2):
        p_analyze.add_argument(
            "-O%d" % level, dest="opt", action="store_const", const=level
        )
    p_analyze.set_defaults(opt=1)
    _add_runtime_flags(p_analyze)
    p_analyze.add_argument(
        "--dot",
        metavar="PATH",
        default=None,
        help="also write the run DAG as Graphviz DOT (critical path in red)",
    )
    p_analyze.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the analysis as JSON",
    )

    p_disasm = sub.add_parser(
        "disasm",
        help="disassemble a Tcl script's bytecode (and top-level procs)",
    )
    p_disasm.add_argument("source", help="a .tcl/.tic file to disassemble")

    p_chaos = sub.add_parser(
        "chaos",
        help="randomized fault-injection campaign over real workloads "
        "with run-invariant auditing and minimal-repro shrinking",
    )
    p_chaos.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="NAME",
        help="workloads to torture (default: every loadable workload)",
    )
    p_chaos.add_argument(
        "--trials",
        type=int,
        default=10,
        help="seeded trials per workload (default 10)",
    )
    p_chaos.add_argument(
        "--intensity",
        choices=["light", "medium", "brutal"],
        default="medium",
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; trial k uses seed+k (default 0)",
    )
    p_chaos.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-trial hang deadline (default 60)",
    )
    p_chaos.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write shrunk repro artifacts and report.json here",
    )
    p_chaos.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="skip ddmin shrinking of violating plans",
    )
    p_chaos.add_argument(
        "--shrink-budget",
        type=int,
        default=24,
        help="max re-runs spent shrinking one violating plan",
    )
    p_chaos.add_argument(
        "--list",
        action="store_true",
        help="list registered workloads and exit",
    )

    p_post = sub.add_parser(
        "postmortem",
        help="cross-rank failure forensics over a blackbox-*.json "
        "flight-recorder artifact",
    )
    p_post.add_argument(
        "blackbox", help="a blackbox-*.json written on a failed run"
    )
    p_post.add_argument(
        "--last",
        type=int,
        default=12,
        metavar="N",
        help="events per rank in the merged timeline (default 12)",
    )

    p_submit = sub.add_parser(
        "submit", help="render a batch submission script"
    )
    p_submit.add_argument("source")
    p_submit.add_argument(
        "--scheduler", choices=["pbs", "slurm", "cobalt"], required=True
    )
    p_submit.add_argument("--nodes", type=int, default=1)
    p_submit.add_argument("--ppn", type=int, default=16)
    p_submit.add_argument("--walltime", type=int, default=3600)
    p_submit.add_argument("--queue", default="default")
    p_submit.add_argument("--name", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _dispatch(ns)
    except SwiftError as e:
        print("swift: error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("repro: %s" % e, file=sys.stderr)
        return 1


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "compile":
        with open(ns.source, "r", encoding="utf-8") as f:
            source = f.read()
        compiled = compile_swift(source, opt=ns.opt)
        output = ns.output or _default_output(ns.source)
        with open(output, "w", encoding="utf-8") as f:
            f.write(compiled.tcl_text)
        print(
            "compiled %s -> %s (%d procs, %d lines, -O%d)"
            % (ns.source, output, compiled.n_procs, compiled.n_lines, ns.opt)
        )
        return 0

    if ns.command in ("run", "profile", "trace"):
        with open(ns.source, "r", encoding="utf-8") as f:
            source = f.read()
        traced = ns.command != "run" or ns.trace
        rt = SwiftRuntime(
            opt=ns.opt,
            config=_runtime_config(ns, echo=ns.command == "run", trace=traced),
        )
        from .faults import DeadlineExceeded, EngineLost, TaskError
        from .mpi.launcher import RankFailure

        try:
            result = rt.run(source)
        except (RankFailure, TaskError, DeadlineExceeded, EngineLost) as e:
            return _report_run_failure(e)
        if ns.command == "run":
            if traced:
                print(result.profile.render(), file=sys.stderr)
            return _report_failures(result) or _report_audit(result)
        if ns.command == "profile":
            print(result.profile.render())
            if ns.chrome:
                result.trace.save_chrome(ns.chrome)
                print("\nchrome trace written to %s" % ns.chrome)
            return 0
        # trace
        out = ns.output or (ns.source.rsplit(".", 1)[0] + ".trace.json")
        result.trace.save_chrome(out)
        print(
            "trace written to %s (%d events, %d dropped); load in "
            "chrome://tracing or https://ui.perfetto.dev"
            % (out, len(result.trace), result.trace.dropped)
        )
        return 0

    if ns.command == "analyze":
        from .obs import Analysis, Trace

        if ns.source.endswith(".json"):
            trace = Trace.from_chrome(ns.source)
        else:
            with open(ns.source, "r", encoding="utf-8") as f:
                source = f.read()
            rt = SwiftRuntime(
                opt=ns.opt,
                config=_runtime_config(ns, echo=False, trace=True),
            )
            from .faults import DeadlineExceeded, EngineLost, TaskError
            from .mpi.launcher import RankFailure

            try:
                result = rt.run(source)
            except (RankFailure, TaskError, DeadlineExceeded, EngineLost) as e:
                return _report_run_failure(e)
            trace = result.trace
        analysis = Analysis.from_trace(trace)
        print(analysis.render())
        if ns.dot:
            with open(ns.dot, "w", encoding="utf-8") as f:
                f.write(analysis.to_dot() + "\n")
            print("dot graph written to %s" % ns.dot, file=sys.stderr)
        if ns.json:
            import json as _json

            with open(ns.json, "w", encoding="utf-8") as f:
                _json.dump(analysis.to_json(), f, indent=1)
            print("analysis JSON written to %s" % ns.json, file=sys.stderr)
        if analysis.dropped:
            # The report above covers only the surviving window (its
            # first line says so): not a result to act on.
            return 6
        return 0 if analysis.critical_path else 4

    if ns.command == "runtcl":
        with open(ns.program, "r", encoding="utf-8") as f:
            program = f.read()
        config = _runtime_config(ns, echo=True, trace=ns.trace)
        from .faults import DeadlineExceeded, EngineLost, TaskError
        from .mpi.launcher import RankFailure

        try:
            result = run_turbine_program(program, config)
        except (RankFailure, TaskError, DeadlineExceeded, EngineLost) as e:
            return _report_run_failure(e)
        if ns.trace:
            print(result.profile.render(), file=sys.stderr)
        return _report_failures(result) or _report_audit(result)

    if ns.command == "disasm":
        with open(ns.source, "r", encoding="utf-8") as f:
            script = f.read()
        return _disasm(script, ns.source)

    if ns.command == "chaos":
        from .chaos import load_workloads, run_chaos

        if ns.list:
            for wl in load_workloads():
                print(
                    "%-24s workers=%d servers=%d engines=%d"
                    % (wl.name, wl.workers, wl.servers, wl.engines)
                )
            return 0
        report = run_chaos(
            workload_names=ns.workloads,
            trials=ns.trials,
            intensity=ns.intensity,
            seed=ns.seed,
            deadline=ns.deadline,
            out_dir=ns.out,
            shrink=ns.shrink,
            shrink_budget=ns.shrink_budget,
            log=lambda line: print(line, file=sys.stderr),
        )
        print(report.render())
        return 0 if report.ok else 5

    if ns.command == "postmortem":
        from .obs.postmortem import load_blackbox, render_postmortem

        try:
            box = load_blackbox(ns.blackbox)
        except ValueError as e:
            print("postmortem: %s" % e, file=sys.stderr)
            return 2
        print(render_postmortem(box, last=ns.last))
        return 0

    if ns.command == "submit":
        spec = JobSpec(
            name=ns.name or ns.source.rsplit("/", 1)[-1].split(".")[0],
            nodes=ns.nodes,
            procs_per_node=ns.ppn,
            walltime_s=ns.walltime,
            queue=ns.queue,
            program=_default_output(ns.source),
        )
        print(render(spec, ns.scheduler), end="")
        return 0

    raise AssertionError("unhandled command %r" % ns.command)


def _disasm(script: str, name: str) -> int:
    """Print the bytecode for a Tcl script and its top-level procs."""
    from .tcl.compile import compile_script_code
    from .tcl.interp import Interp
    from .tcl.parser import parse_script
    from .tcl.vm import proc_code

    interp = Interp()
    code = compile_script_code(interp, script, name=name)
    print(code.dis())
    # Disassemble bodies of top-level literal `proc` definitions: run
    # just those commands so TclProc objects exist, then compile each.
    define = interp.lookup_command("proc")
    for cmd in parse_script(script):
        words = [w.literal for w in cmd.words]
        if (
            len(words) == 4
            and words[0] == "proc"
            and all(w is not None for w in words)
        ):
            define(interp, words[1:])
            proc = interp.lookup_command(words[1])
            pcode = proc_code(interp, proc)
            print()
            if pcode is None:
                print("proc %s: body not bytecode-compilable" % words[1])
            else:
                print(pcode.dis())
    return 0


def _default_output(source_path: str) -> str:
    base = source_path.rsplit(".", 1)[0]
    return base + ".tic"


if __name__ == "__main__":
    raise SystemExit(main())
