"""Command-line interface: the ``stc`` + ``turbine`` analog.

``python -m repro COMMAND --help`` is the reference for every command
and flag, and README.md shows each in use; neither is restated here.
``run``, ``runtcl``, ``profile``, ``trace`` and ``analyze`` execute a
program on the thread-backed runtime: five rows of one table
(``_RUN_STYLES``) over one run path (``_run_program``).  Their shared
runtime flags are not written in this file — ``_add_runtime_flags``
derives them from the :class:`repro.RuntimeConfig` declaration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

from .api import SwiftRuntime
from .core import SwiftError, compile_swift
from .faults import BlackboxCarrier
from .launch import JobSpec, render
from .obs import Analysis, Trace, load_blackbox, render_postmortem
from .turbine import RunResult, RuntimeConfig, run_turbine_program

# with_options keyword -> field, of every RuntimeConfig field with a CLI flag
_FLAGGED = {
    f.metadata.get("dest", f.name): f
    for f in fields(RuntimeConfig)
    if f.metadata.get("flag")
}


def _add_runtime_flags(p: argparse.ArgumentParser) -> None:
    """Derive the runtime flags from the RuntimeConfig declaration:
    spelling, help, metavar and choices from the field's metadata, the
    default from the dataclass, the argument kind from the annotation."""
    defaults = RuntimeConfig()
    for dest, f in _FLAGGED.items():
        m = f.metadata
        default = getattr(defaults, dest)
        kind, _, rest = f.type.partition(" | ")
        if kind == "bool" and rest == "None":
            # --x / --no-x; unset it stays None, for resolve() to decide
            kw = {"action": argparse.BooleanOptionalAction}
        elif kind == "bool":
            kw = {"action": "store_false" if default else "store_true"}
        else:
            kw = {
                "type": {"int": int, "float": float}.get(kind, str),
                "metavar": m.get("metavar"),
                "choices": m.get("choices"),
            }
            if kind == "dict":  # repeatable; _runtime_config builds the dict
                default, kw["action"] = [], "append"
        p.add_argument(m["flag"], dest=dest, default=default, help=m["help"], **kw)


def _runtime_config(ns: argparse.Namespace, report: bool) -> RuntimeConfig:
    """One funnel from parsed CLI flags to a RuntimeConfig: each
    derived flag's value as parsed, except the four whose option is
    not what was typed.  ``report`` is the run style's column."""
    options = {dest: getattr(ns, dest) for dest in _FLAGGED}
    options["args"] = _parse_args_list(ns.args)
    if ns.faults:
        from .chaos.runner import load_fault_plan

        options["faults"] = load_fault_plan(ns.faults)
    if ns.monitor:
        options["monitor"] = lambda line: print(line, file=sys.stderr)
    # CLI-only default: a failed run leaves its black box where it was
    # launched.  Without the flight recorder there is none to write.
    options["blackbox_dir"] = (ns.blackbox_dir or ".") if ns.flightrec else None
    options.update(echo=not report, trace=report or ns.trace)
    return RuntimeConfig().with_options(**options)


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


def _parse_args_list(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit("--arg expects NAME=VALUE, got %r" % pair)
        key, _, value = pair.partition("=")
        out[key] = value
    return out


def _finish_run(ns: argparse.Namespace, result: RunResult) -> int:
    if ns.trace:
        print(result.profile.render(), file=sys.stderr)
    status = _report_failures(result)
    if not status and result.audit is not None and not result.audit.ok:
        # --audit: a completed run that violates an invariant fails loudly
        print(result.audit.render(), file=sys.stderr)
        status = 5
    return status


def _finish_profile(ns: argparse.Namespace, result: RunResult) -> int:
    print(result.profile.render())
    if ns.chrome:
        result.trace.save_chrome(ns.chrome)
        print("\nchrome trace written to %s" % ns.chrome)
    return 0


def _finish_trace(ns: argparse.Namespace, result: RunResult) -> int:
    out = ns.output or (ns.program.rsplit(".", 1)[0] + ".trace.json")
    result.trace.save_chrome(out)
    print(
        "trace written to %s (%d events, %d dropped); load in "
        "chrome://tracing or https://ui.perfetto.dev"
        % (out, len(result.trace), result.trace.dropped)
    )
    return 0


def _analyze(ns: argparse.Namespace, trace: Trace) -> int:
    analysis = Analysis.from_trace(trace)
    print(analysis.render())
    if ns.dot:
        with open(ns.dot, "w", encoding="utf-8") as f:
            f.write(analysis.to_dot() + "\n")
        print("dot graph written to %s" % ns.dot, file=sys.stderr)
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as f:
            json.dump(analysis.to_json(), f, indent=1)
        print("analysis JSON written to %s" % ns.json, file=sys.stderr)
    if analysis.dropped:
        # The report above covers only the surviving window (its
        # first line says so): not a result to act on.
        return 6
    return 0 if analysis.critical_path else 4


class _RunStyle(NamedTuple):
    """One run-style subcommand: a row of the table that
    :func:`build_parser` and :func:`_run_program` read."""

    help: str
    # what is printed or written once the run is over; returns the status
    finish: Callable[[argparse.Namespace, RunResult], int]
    swift: bool = True  # PROGRAM is Swift source (else compiled Turbine Tcl)
    # stdout carries the command's report on an always-traced run (else the
    # program's output as it is produced, and --trace decides)
    report: bool = True
    flags: dict = {}  # the command's own PATH flags: spelling(s) -> help


_RUN_STYLES = {
    "run": _RunStyle("compile and run a Swift program", _finish_run, report=False),
    "runtcl": _RunStyle(
        "run a compiled .tic program", _finish_run, swift=False, report=False
    ),
    "profile": _RunStyle(
        "run a Swift program traced and print a profile",
        _finish_profile,
        flags={"--chrome": "also write a Chrome trace_event JSON to PATH"},
    ),
    "trace": _RunStyle(
        "run a Swift program traced and write Chrome JSON",
        _finish_trace,
        flags={"-o --output": "default: PROGRAM with .trace.json suffix"},
    ),
    "analyze": _RunStyle(
        "critical-path / stall analysis of a traced run: PROGRAM is Swift to run "
        "traced or, by its .json suffix, a trace saved by `repro trace`",
        lambda ns, result: _analyze(ns, result.trace),
        flags={
            "--dot": "also write the run DAG as Graphviz DOT (critical path in red)",
            "--json": "also write the analysis as JSON",
        },
    ),
}


def _run_program(ns: argparse.Namespace) -> int:
    """The run path of every run-style subcommand."""
    style = _RUN_STYLES[ns.command]
    with open(ns.program, "r", encoding="utf-8") as f:
        text = f.read()
    config = _runtime_config(ns, style.report)
    try:
        if style.swift:
            result = SwiftRuntime(opt=ns.opt, config=config).run(text)
        else:
            result = run_turbine_program(text, config)
    except BlackboxCarrier as e:
        print("run failed: %s" % e, file=sys.stderr)
        if e.blackbox_path:
            print(
                "black box written to %s (inspect with `repro postmortem %s`)"
                % (e.blackbox_path, e.blackbox_path),
                file=sys.stderr,
            )
        return 3
    return style.finish(ns, result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swift/T-style interlanguage parallel scripting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    opt_flags = argparse.ArgumentParser(add_help=False)
    for level in (0, 1, 2):
        opt_flags.add_argument(
            "-O%d" % level, dest="opt", action="store_const", const=level, default=1
        )
    runtime_flags = argparse.ArgumentParser(add_help=False)
    _add_runtime_flags(runtime_flags)

    p_compile = sub.add_parser(
        "compile", parents=[opt_flags], help="compile Swift to Turbine Tcl"
    )
    p_compile.add_argument("source")
    p_compile.add_argument("-o", "--output", default=None)

    for name, style in _RUN_STYLES.items():
        parents = [opt_flags, runtime_flags] if style.swift else [runtime_flags]
        p_run = sub.add_parser(name, parents=parents, help=style.help)
        p_run.add_argument("program")
        for spellings, flag_help in style.flags.items():
            p_run.add_argument(*spellings.split(), metavar="PATH", help=flag_help)

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

    if ns.command == "analyze" and ns.program.endswith(".json"):
        return _analyze(ns, Trace.from_chrome(ns.program))

    if ns.command in _RUN_STYLES:
        return _run_program(ns)

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
    cmds = parse_script(script)
    print(compile_script_code(cmds, script, name=name).dis())
    # Disassemble bodies of top-level literal `proc` definitions: run
    # just those commands so TclProc objects exist, then compile each.
    define = interp.lookup_command("proc")
    for cmd in cmds:
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

