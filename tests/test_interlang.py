"""Embedded Python/R leaf interpreters, shell, and their Tcl bindings."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.interlang import (
    EmbeddedPython,
    EmbeddedR,
    PythonTaskError,
    RTaskError,
    ShellTaskError,
    python_exec_baseline,
    register_python,
    register_r,
    register_shell,
    run_command,
    run_line,
)
from repro.tcl import Interp, TclError


class TestEmbeddedPython:
    def test_eval_code_and_expr(self):
        emb = EmbeddedPython()
        assert emb.eval("x = 6 * 7", "x") == "42"

    def test_expr_only(self):
        emb = EmbeddedPython()
        assert emb.eval("", "1 + 1") == "2"

    def test_retain_keeps_state(self):
        emb = EmbeddedPython(mode="retain")
        emb.eval("counter = 10", "")
        assert emb.eval("counter += 1", "counter") == "11"
        assert emb.init_count == 1

    def test_reinit_clears_state(self):
        emb = EmbeddedPython(mode="reinit")
        emb.eval("leak = 1", "")
        with pytest.raises(PythonTaskError, match="NameError"):
            emb.eval("", "leak")
        assert emb.init_count >= 3  # initial + one per task

    def test_preamble_runs_on_init(self):
        emb = EmbeddedPython(mode="reinit", preamble="import math")
        assert emb.eval("", "math.floor(2.5)") == "2"

    def test_explicit_reset(self):
        emb = EmbeddedPython()
        emb.eval("x = 1", "")
        emb.reset()
        with pytest.raises(PythonTaskError):
            emb.eval("", "x")

    def test_result_conversion(self):
        emb = EmbeddedPython()
        assert emb.eval("", "None") == ""
        assert emb.eval("", "True") == "1"
        assert emb.eval("", "[1, 2, 3]") == "1 2 3"
        assert emb.eval("", "2.5") == "2.5"

    def test_print_captured(self):
        emb = EmbeddedPython()
        emb.eval("print('from task')", "")
        assert emb.stdout == ["from task"]

    def test_concurrent_prints_stay_with_their_rank(self, capsys):
        """Worker ranks are threads: capturing a task's output must not
        swap the process-wide ``sys.stdout`` (it used to, so concurrent
        printing leaves cross-attributed lines, leaked one to the
        terminal and could leave ``sys.stdout`` a dead buffer)."""
        before = sys.stdout
        ranks = [EmbeddedPython() for _ in range(3)]

        def serve(r):
            for i in range(3000):
                ranks[r].eval("print('rank %d line %d')" % (r, i), "")

        threads = [threading.Thread(target=serve, args=(r,)) for r in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
            after, sys.stdout = sys.stdout, before
        assert not any(t.is_alive() for t in threads)
        assert after is before
        for r, emb in enumerate(ranks):
            assert emb.stdout == ["rank %d line %d" % (r, i) for i in range(3000)]
        assert capsys.readouterr().out == ""

    def test_failed_task_output_dropped(self):
        emb = EmbeddedPython()
        with pytest.raises(PythonTaskError):
            emb.eval("print('lost'); 1 / 0", "")
        emb.eval("print('kept')", "")
        assert emb.stdout == ["kept"]

    def test_print_to_explicit_file_not_captured(self, capsys):
        emb = EmbeddedPython()
        emb.eval("import sys; print('aside', file=sys.stderr)", "")
        assert emb.stdout == []
        assert capsys.readouterr().err == "aside\n"

    def test_exception_wrapped(self):
        emb = EmbeddedPython()
        with pytest.raises(PythonTaskError, match="ZeroDivisionError"):
            emb.eval("", "1 / 0")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            EmbeddedPython(mode="whatever")

    def test_host_get_set(self):
        emb = EmbeddedPython()
        emb.set("injected", 99)
        assert emb.eval("", "injected + 1") == "100"
        assert emb.get("injected") == 99


class TestEmbeddedR:
    def test_eval(self):
        emb = EmbeddedR()
        assert emb.eval("y <- sum(1:10)", "y") == "55"

    def test_retain_vs_reinit(self):
        retain = EmbeddedR(mode="retain")
        retain.eval("cache <- 5", "")
        assert retain.eval("", "cache") == "5"
        reinit = EmbeddedR(mode="reinit")
        reinit.eval("cache <- 5", "")
        with pytest.raises(RTaskError):
            reinit.eval("", "cache")

    def test_preamble(self):
        emb = EmbeddedR(preamble="helper <- function(x) x * 3")
        assert emb.eval("", "helper(7)") == "21"

    def test_error_wrapped(self):
        emb = EmbeddedR()
        with pytest.raises(RTaskError):
            emb.eval("stop('nope')", "")

    def test_cat_output_collected(self):
        emb = EmbeddedR()
        emb.eval("cat('hi')", "")
        assert emb.stdout == ["hi"]


class TestShell:
    def test_run_command(self):
        assert run_command(["echo", "hello"]) == "hello"

    def test_run_line_with_quoting(self):
        assert run_line('echo "two words"') == "two words"

    def test_missing_command_raises(self):
        with pytest.raises(ShellTaskError, match="not found"):
            run_command(["definitely_not_a_command_xyz"])

    def test_nonzero_exit_raises(self):
        with pytest.raises(ShellTaskError, match="failed"):
            run_command([sys.executable, "-c", "import sys; sys.exit(3)"])

    def test_python_exec_baseline(self):
        assert python_exec_baseline("x = 2 + 2", "x") == "4"


class TestTclBindings:
    @pytest.fixture()
    def tcl(self):
        it = Interp()
        it.echo = False
        register_python(it)
        register_r(it)
        register_shell(it)
        return it

    def test_python_eval_command(self, tcl):
        assert tcl.eval('python::eval {x = 21 * 2} {x}') == "42"

    def test_python_error_becomes_tcl_error(self, tcl):
        with pytest.raises(TclError, match="python task failed"):
            tcl.eval('python::eval {} {undefined_name}')

    def test_python_persist_survives(self, tcl):
        tcl.eval('python::persist {state = 7} {}')
        assert tcl.eval('python::persist {} {state}') == "7"

    def test_python_reset_command(self, tcl):
        tcl.eval('python::eval {z = 1} {}')
        tcl.eval('python::reset')
        with pytest.raises(TclError):
            tcl.eval('python::eval {} {z}')

    def test_python_stats(self, tcl):
        tcl.eval('python::eval {} {1}')
        assert "tasks" in tcl.eval("python::stats")

    def test_r_eval_command(self, tcl):
        assert tcl.eval('r::eval {v <- c(1,2,3)} {sum(v)}') == "6"

    def test_r_error_becomes_tcl_error(self, tcl):
        with pytest.raises(TclError, match="R task failed"):
            tcl.eval('r::eval {stop("x")} {}')

    def test_shell_exec(self, tcl):
        assert tcl.eval("shell::exec echo ok") == "ok"

    def test_shell_error(self, tcl):
        with pytest.raises(TclError):
            tcl.eval("shell::exec false")

    def test_packages_provided(self, tcl):
        assert tcl.eval("package require python") == "1.0"
        assert tcl.eval("package require r") == "1.0"
        assert tcl.eval("package require shell") == "1.0"

    def test_reinit_mode_through_bindings(self):
        it = Interp()
        it.echo = False
        register_python(it, mode="reinit")
        it.eval('python::eval {tmp = 5} {}')
        with pytest.raises(TclError):
            it.eval('python::eval {} {tmp}')
