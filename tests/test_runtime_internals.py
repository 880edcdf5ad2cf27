"""Runtime internals: output collection, stats, config, R parse errors."""

from __future__ import annotations

import pytest

from repro import swift_run
from repro.mpi.comm import CommStats, _approx_size
from repro.rlang import RInterp
from repro.rlang.errors import RParseError
from repro.turbine import Output, RuntimeConfig


class TestOutput:
    def test_emit_preserves_order(self):
        out = Output()
        out.emit(0, "first")
        out.emit(1, "second")
        assert out.lines == [(0, "first"), (1, "second")]
        assert out.text() == "first\nsecond"

    def test_trace_collects_runtime_logs(self):
        res = swift_run("trace(1);", workers=2, echo=False)
        assert res.output.lines


class TestRuntimeConfig:
    def test_layout_derivation(self):
        cfg = RuntimeConfig(size=8, n_servers=2, n_engines=2)
        layout = cfg.layout()
        assert layout.n_workers == 4
        assert layout.servers == [6, 7]

    def test_invalid_layout_raises(self):
        with pytest.raises(ValueError):
            RuntimeConfig(size=2, n_servers=1, n_engines=1).layout()


class TestCommStats:
    def test_approx_sizes(self):
        assert _approx_size(b"abcd") == 4
        assert _approx_size("abc") == 3
        assert _approx_size(7) == 8
        assert _approx_size([1, 2]) == 8 + 16
        assert _approx_size({"k": 1}) >= 8

    def test_add_send(self):
        stats = CommStats()
        stats.add_send(b"12345678")
        assert stats.sends == 1
        assert stats.bytes_sent == 8


class TestRlangParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "x <- (1 + ",  # unbalanced paren
            "f <- function(1) 2",  # bad parameter
            "for (1 in 1:3) x",  # bad loop var
            "x <- 'unterminated",  # bad string
            "repeat",  # missing body... parses? repeat needs statement
        ],
    )
    def test_bad_source_raises(self, src):
        R = RInterp()
        with pytest.raises(Exception):
            R.eval_code(src)

    def test_error_message_has_line(self):
        R = RInterp()
        with pytest.raises(RParseError, match="line"):
            R.eval_code("x <- 1\ny <- (")


class TestEngineCoverage:
    def test_environment_introspection_commands(self):
        from repro.turbine import run_turbine_program

        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  turbine::log_output \"w=[ turbine::nworkers ]"
            " e=[ turbine::nengines ] s=[ turbine::nservers ]\"\n"
            "}",
            RuntimeConfig(size=6, n_servers=2, n_engines=1),
        )
        assert res.stdout_lines == ["w=3 e=1 s=2"]
