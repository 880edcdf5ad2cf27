"""The command-line interface (stc/turbine analog)."""

from __future__ import annotations

import json
import os
from dataclasses import fields

import pytest

from repro import (
    DeadlineExceeded,
    EngineLost,
    RankFailure,
    RuntimeConfig,
    ServerLost,
    TaskError,
)
from repro.cli import _runtime_config, build_parser, main
from repro.faults import BlackboxCarrier


@pytest.fixture()
def demo_swift(tmp_path):
    path = tmp_path / "demo.swift"
    path.write_text(
        "int n = argv_int(\"n\", 3);\n"
        "int a[];\n"
        "foreach i in [0:n] { a[i] = i; }\n"
        'printf("total=%i", sum_integer(a));\n'
    )
    return str(path)


class TestCompile:
    def test_compile_writes_tic(self, demo_swift, capsys):
        assert main(["compile", demo_swift]) == 0
        tic = demo_swift.replace(".swift", ".tic")
        assert os.path.exists(tic)
        text = open(tic).read()
        assert "proc swift:main" in text
        assert "compiled" in capsys.readouterr().out

    def test_compile_custom_output_and_opt(self, demo_swift, tmp_path, capsys):
        out = str(tmp_path / "custom.tcl")
        assert main(["compile", demo_swift, "-O2", "-o", out]) == 0
        assert "-O2" in capsys.readouterr().out
        assert os.path.exists(out)

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.swift"
        bad.write_text("int x = ;")
        assert main(["compile", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "/no/such/file.swift"]) == 1


class TestRun:
    def test_run_default_args(self, demo_swift, capsys):
        assert main(["run", demo_swift, "--workers", "2"]) == 0
        assert "total=6" in capsys.readouterr().out

    def test_run_with_args(self, demo_swift, capsys):
        assert main(["run", demo_swift, "--arg", "n=5"]) == 0
        assert "total=15" in capsys.readouterr().out

    def test_run_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # chdir: a failed CLI run dumps blackbox-*.json into the
        # current directory by default.
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "fail.swift"
        src.write_text('assert(1 > 2, "always fails");')
        assert main(["run", str(src)]) == 3
        err = capsys.readouterr().err
        assert "run failed" in err
        assert "repro postmortem" in err

    def test_bad_arg_format(self, demo_swift):
        with pytest.raises(SystemExit):
            main(["run", demo_swift, "--arg", "oops"])

    def test_runtcl_roundtrip(self, demo_swift, capsys):
        assert main(["compile", demo_swift]) == 0
        capsys.readouterr()
        tic = demo_swift.replace(".swift", ".tic")
        assert main(["runtcl", tic, "--arg", "n=4"]) == 0
        assert "total=10" in capsys.readouterr().out


class TestProfile:
    def test_profile_prints_breakdown(self, demo_swift, capsys):
        assert main(["profile", demo_swift, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-category time" in out
        assert "counters:" in out
        assert "adlb.tasks_matched" in out

    def test_profile_writes_chrome_json(self, demo_swift, tmp_path, capsys):
        import json

        chrome = str(tmp_path / "out.trace.json")
        assert main(["profile", demo_swift, "--chrome", chrome]) == 0
        doc = json.loads(open(chrome).read())
        assert doc["traceEvents"], "no events exported"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases >= {"M", "X"}

    def test_trace_writes_default_path(self, demo_swift, capsys):
        import json

        assert main(["trace", demo_swift]) == 0
        out_path = demo_swift.replace(".swift", ".trace.json")
        assert os.path.exists(out_path)
        doc = json.loads(open(out_path).read())
        assert doc["traceEvents"]
        assert "trace written to" in capsys.readouterr().out

    def test_run_trace_flag_reports(self, demo_swift, capsys):
        assert main(["run", demo_swift, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "total=6" in captured.out
        assert "per-category time" in captured.err


class TestSubmit:
    def test_submit_slurm(self, demo_swift, capsys):
        assert main(
            ["submit", demo_swift, "--scheduler", "slurm", "--nodes", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "#SBATCH --nodes=64" in out
        assert "demo.tic" in out

    def test_submit_cobalt(self, demo_swift, capsys):
        assert main(
            [
                "submit", demo_swift, "--scheduler", "cobalt",
                "--nodes", "1024", "--ppn", "16", "--walltime", "1800",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "#COBALT -n 1024" in out
        assert "#COBALT -t 30" in out


class TestArgv:
    def test_argv_missing_without_default_fails(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # failed runs dump blackbox-*.json to cwd
        src = tmp_path / "needs.swift"
        src.write_text('printf("%s", argv("required"));')
        assert main(["run", str(src)]) == 3

    def test_argv_string(self, tmp_path, capsys):
        src = tmp_path / "greet.swift"
        src.write_text('printf("hi %s", argv("who"));')
        assert main(["run", str(src), "--arg", "who=world"]) == 0
        assert "hi world" in capsys.readouterr().out


# ------------------------------------------------- one configuration pipeline

# Today's flags, written out: the pin that proves deriving them from the
# RuntimeConfig declaration changed nothing a user can type.
RUNTIME_FLAGS = {
    "--workers", "--servers", "--engines", "--arg", "--trace", "--monitor",
    "--monitor-interval", "--interp-mode", "--on-error", "--max-retries",
    "--deadline", "--replicate", "--no-replicate", "--journal", "--no-journal",
    "--task-timeout", "--checkpoint", "--checkpoint-interval", "--restore",
    "--audit", "--fault-plan", "--no-flightrec", "--blackbox-dir",
}  # fmt: skip
OPT_FLAGS = {"-O0", "-O1", "-O2"}
RUN_STYLE_FLAGS = {
    "run": RUNTIME_FLAGS | OPT_FLAGS,
    "runtcl": RUNTIME_FLAGS,
    "profile": RUNTIME_FLAGS | OPT_FLAGS | {"--chrome"},
    "trace": RUNTIME_FLAGS | OPT_FLAGS | {"-o", "--output"},
    "analyze": RUNTIME_FLAGS | OPT_FLAGS | {"--dot", "--json"},
}


def subparser(command: str):
    (action,) = build_parser()._subparsers._group_actions
    return action.choices[command]


def flagged_fields():
    return [f for f in fields(RuntimeConfig) if f.metadata.get("flag")]


class TestDerivedFlags:
    @pytest.mark.parametrize("command", sorted(RUN_STYLE_FLAGS))
    def test_accepted_flags_are_todays(self, command):
        accepted = set()
        for action in subparser(command)._actions:
            accepted.update(action.option_strings)
        assert accepted - {"-h", "--help"} == RUN_STYLE_FLAGS[command]
        # and the declarations' help strings survive argparse's % formatting
        assert "--workers N" in subparser(command).format_help()

    @pytest.mark.parametrize("command", sorted(RUN_STYLE_FLAGS))
    def test_parsed_defaults_are_the_dataclass_defaults(self, command):
        ns = build_parser().parse_args([command, "p.swift"])
        defaults = RuntimeConfig()
        for f in flagged_fields():
            dest = f.metadata.get("dest", f.name)
            want = [] if f.name == "args" else getattr(defaults, dest)
            assert getattr(ns, dest) == want, f.name
        assert ns.workers == 2 and getattr(ns, "opt", 1) == 1
        # The one default that is the CLI's own (_runtime_config): a
        # failed run leaves its black box where it was launched —
        # --blackbox-dir parses to the dataclass's None like the rest.
        assert _runtime_config(ns, report=False).blackbox_dir == "."
        ns.flightrec = False
        assert _runtime_config(ns, report=False).blackbox_dir is None

    def test_every_flag_lands_on_its_field(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seed": 4}')
        argv = (
            "run p.swift --workers 3 --servers 2 --engines 2 --arg a=1 --arg b=2"
            " --trace --monitor --monitor-interval 0.5 --interp-mode reinit"
            " --on-error continue --max-retries 5 --deadline 9 --no-replicate"
            " --journal --task-timeout 7 --checkpoint c --checkpoint-interval 3"
            " --restore r --audit --no-flightrec --blackbox-dir d --fault-plan "
        )
        ns = build_parser().parse_args(argv.split() + [str(plan)])
        cfg = _runtime_config(ns, report=False)
        assert (cfg.workers, cfg.n_servers, cfg.n_engines) == (3, 2, 2)
        assert cfg.args == {"a": "1", "b": "2"} and cfg.faults.seed == 4
        assert cfg.trace and cfg.echo and callable(cfg.monitor) and cfg.audit
        assert (cfg.monitor_interval, cfg.interp_mode) == (0.5, "reinit")
        assert (cfg.on_error, cfg.max_retries, cfg.deadline) == ("continue", 5, 9.0)
        assert (cfg.replicate, cfg.journal, cfg.task_timeout) == (False, True, 7.0)
        assert (cfg.checkpoint_path, cfg.checkpoint_interval) == ("c", 3.0)
        assert (cfg.restore, cfg.flightrec, cfg.blackbox_dir) == ("r", False, None)
        # a report-style command owns stdout and is traced without --trace
        report = _runtime_config(build_parser().parse_args(["trace", "p"]), True)
        assert report.trace and not report.echo and report.monitor is False

    def test_flags_are_declared_on_the_dataclass_only(self):
        # No field gained or lost a flag, and each flag is spelled once.
        spelled = sorted(f.metadata["flag"] for f in flagged_fields())
        negations = {"--no-replicate", "--no-journal"}  # BooleanOptionalAction
        assert set(spelled) == RUNTIME_FLAGS - negations
        assert len(spelled) == len(set(spelled)) == 21
        assert len(fields(RuntimeConfig)) == 28


class TestRunFailures:
    FANOUT = (
        "foreach i in [0:19] {\n"
        '    string s = python(strcat("x=", fromint(i)), "x");\n'
        "    trace(s);\n"
        "}\n"
    )

    def test_server_lost_is_a_reported_failure_not_a_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every exception that ends a run shares one base, and the one
        # `except` of _run_program catches it: ServerLost used to
        # escape the hand-written tuples as a raw traceback.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fan.swift").write_text(self.FANOUT)
        kill = {"rank": 5, "after_tasks": 3, "silent": False}
        (tmp_path / "plan.json").write_text(json.dumps({"seed": 0, "kills": [kill]}))
        argv = "run fan.swift --workers 2 --servers 2 --engines 2 --no-replicate"
        assert main(argv.split() + ["--fault-plan", "plan.json"]) == 3
        err = capsys.readouterr().err
        assert "run failed: ADLB server rank 5 lost" in err
        assert "repro postmortem" in err and "Traceback" not in err

    def test_every_run_failure_class_has_the_one_base(self):
        for cls in (TaskError, DeadlineExceeded, ServerLost, EngineLost, RankFailure):
            assert issubclass(cls, BlackboxCarrier), cls
        assert RankFailure([]).blackbox is None  # the base's attribute, not a copy
        assert "blackbox" not in vars(RankFailure)


# ------------------------------------------------------------------- README


def readme() -> str:
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        return f.read()


def option_table() -> str:
    """README's option table, generated from the field declarations."""
    rows = ["| option | CLI flag | default | what it does |", "|---|---|---|---|"]
    for f in fields(RuntimeConfig):
        m = f.metadata
        name = m.get("dest", f.name)
        flag = m.get("flag") or ""
        if f.type == "bool | None":
            flag += " / --no-" + flag[2:]
        if flag and (m.get("metavar") or m.get("choices")):
            flag += " " + (m.get("metavar") or "{%s}" % ",".join(m["choices"]))
        default = getattr(RuntimeConfig(), name)
        rows.append(
            "| `%s` | %s | `%r` | %s |"
            % (name, flag and "`%s`" % flag, default, m["help"].replace("|", "\\|"))
        )
    return "\n".join(rows)


class TestReadme:
    def test_option_table_is_the_generated_one(self):
        text = readme()
        begin, end = "<!-- options:begin -->\n", "\n<!-- options:end -->"
        table = text[text.index(begin) + len(begin) : text.index(end)]
        assert table == option_table(), (
            "README's option table is stale; paste this between the "
            "options:begin / options:end markers:\n" + option_table()
        )

    def test_every_command_line_shown_parses(self):
        # Each `python -m repro ...` / `$ repro ...` line of README's
        # code blocks is accepted by the derived parser.
        lines = readme().replace("\\\n", " ").splitlines()
        shown = [
            line.split(" # ")[0].split("repro ", 1)[1]
            for line in lines
            if line.startswith(("python -m repro ", "$ repro "))
        ]
        assert len(shown) >= 15
        for argv in shown:
            try:
                build_parser().parse_args(argv.split())
            except SystemExit:
                pytest.fail("README shows a command the CLI rejects: repro " + argv)
