"""Public API surface and baselines."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro import (
    CompiledProgram,
    FaultPlan,
    RuntimeConfig,
    SwiftRuntime,
    compile_swift,
    swift_run,
)
from repro.adlb.baselines import run_adlb_dynamic, run_static_round_robin


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_compile_returns_program(self):
        compiled = compile_swift('printf("x");')
        assert isinstance(compiled, CompiledProgram)
        assert compiled.entry == "swift:main"
        assert "proc swift:main" in compiled.tcl_text

    def test_swift_run_result_fields(self):
        res = swift_run('printf("a"); printf("b");', workers=2)
        assert sorted(res.stdout_lines) == ["a", "b"]
        assert res.stdout in ("a\nb", "b\na")
        assert res.elapsed > 0
        assert len(res.server_stats) == 1
        assert len(res.engine_stats) == 1
        assert len(res.worker_stats) == 2

    def test_compile_once_run_many(self):
        rt = SwiftRuntime(workers=2)
        compiled = rt.compile('printf("run");')
        out1 = rt.run_compiled(compiled)
        out2 = rt.run_compiled(compiled)
        assert out1.stdout_lines == out2.stdout_lines == ["run"]

    def test_setup_hook_receives_context(self):
        seen = []

        def setup(interp, ctx, client):
            seen.append((ctx.role, client.rank))
            interp.register("myext::id", lambda it, args: args[0])
            interp.packages_provided["myext"] = "1.0"

        res = swift_run(
            '(string o) ident(string s) "myext" "1.0" '
            '[ "set <<o>> [ myext::id <<s>> ]" ];\n'
            'printf("%s", ident("through-native"));\n',
            workers=2,
            setup=setup,
        )
        assert res.stdout_lines == ["through-native"]
        roles = {r for r, _ in seen}
        assert roles == {"engine", "worker"}

    def test_compile_error_raised_before_launch(self):
        with pytest.raises(repro.SwiftError):
            swift_run("int x = ;", workers=2)

    def test_server_stats_surface(self):
        # (a loop of traces runs in the program's unit: no task to count)
        res = swift_run('foreach i in [0:9] { trace(python("", fromint(i))); }', workers=2)
        total_queued = sum(
            s.tasks_queued + s.tasks_matched for s in res.server_stats
        )
        assert total_queued > 0

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in ("RuntimeConfig", "RunResult", "Trace"):
            assert name in repro.__all__


class TestConfigPath:
    """The redesigned RuntimeConfig-centric API."""

    def test_runtime_config_of_role_counts(self):
        cfg = RuntimeConfig.of(workers=5, servers=2, engines=1)
        assert cfg.size == 8
        assert cfg.workers == 5
        assert cfg.n_servers == 2

    def test_with_options_override_and_roles(self):
        cfg = RuntimeConfig.of(workers=2).with_options(
            workers=4, interp_mode="reinit"
        )
        assert cfg.workers == 4 and cfg.size == 6
        assert cfg.interp_mode == "reinit"
        # original untouched
        assert RuntimeConfig.of(workers=2).interp_mode == "retain"

    def test_unknown_option_raises(self):
        with pytest.raises(TypeError, match="recv_timout"):
            RuntimeConfig.of().with_options(recv_timout=3.0)
        # names that were options once are unknown like any other
        # (monitor_out folded into monitor=callable)
        for gone in ("read_cache", "batch_refcounts", "record_spans", "monitor_out"):
            with pytest.raises(TypeError, match=gone):
                RuntimeConfig.of().with_options(**{gone: True})

    def test_swift_run_unknown_kwarg_raises(self):
        # regression: typo'd kwargs must not vanish silently
        with pytest.raises(TypeError, match="interp_mod"):
            swift_run('printf("x");', workers=2, interp_mod="reinit")
        with pytest.raises(TypeError):
            swift_run('printf("x");', ech=True)

    def test_swift_run_accepts_config(self):
        cfg = RuntimeConfig.of(workers=3)
        res = swift_run('printf("via config");', config=cfg)
        assert res.stdout_lines == ["via config"]
        assert len(res.worker_stats) == 3

    def test_swift_run_overrides_on_config(self):
        cfg = RuntimeConfig.of(workers=1)
        res = swift_run('printf("x");', config=cfg, workers=4)
        assert len(res.worker_stats) == 4

    def test_from_config(self):
        rt = SwiftRuntime.from_config(RuntimeConfig.of(workers=3))
        assert rt.workers == 3
        res = rt.run('printf("fc");')
        assert res.stdout_lines == ["fc"]

    def test_runtime_options_flow_through_swift_run(self):
        res = swift_run('printf("x");', workers=2, recv_timeout=60.0)
        assert res.stdout_lines == ["x"]


KILLS = FaultPlan(seed=1).kill_rank(2, after_tasks=1)
DROPS = FaultPlan(seed=1).drop_messages(tag=10, times=1)

# options -> what RuntimeConfig.resolve() turns on:
# (replicate, journal, reliable), or the ValueError it raises
RESOLVED = [
    # the auto-rule: under retry, whatever the layout can recover
    (dict(), (False, False, False)),
    (dict(servers=2), (True, False, True)),
    (dict(engines=2), (False, True, False)),
    (dict(servers=2, engines=2), (True, True, True)),
    (dict(servers=3, engines=3, max_retries=0), (True, True, True)),
    # no recovery is wanted under the other two policies
    (dict(servers=2, engines=2, on_error="fail_fast"), (False, False, False)),
    (dict(servers=2, engines=2, on_error="continue"), (False, False, False)),
    # an explicit choice wins over the auto-rule, either way
    (dict(servers=2, engines=2, replicate=False), (False, True, False)),
    (dict(servers=2, engines=2, journal=False), (True, False, True)),
    (dict(servers=2, on_error="continue", replicate=True), (True, False, True)),
    (dict(engines=2, on_error="fail_fast", journal=True), (False, True, False)),
    # no fault plan, checkpoint or watchdog turns anything on by itself
    (dict(on_error="continue", faults=KILLS), (False, False, False)),
    (dict(on_error="continue", checkpoint_path="c"), (False, False, False)),
    (dict(on_error="continue", restore="c"), (False, False, False)),
    (dict(on_error="fail_fast", task_timeout=1.0), (False, False, False)),
    # reliable RPC: replication, or a plan that can lose a message
    (dict(faults=DROPS), (False, False, True)),
    (dict(faults=KILLS), (False, False, False)),
    (dict(servers=2, replicate=False, faults=DROPS), (False, False, True)),
    # the three configuration errors
    (dict(on_error="ignore"), "on_error must be"),
    (dict(servers=1, replicate=True), "n_servers >= 2"),
    (dict(engines=1, journal=True), "n_engines >= 2"),
    # ...and the numbers no run can honour
    (dict(max_retries=-1), "max_retries must be >= 0"),
    (dict(lease_timeout=0), "lease_timeout must be > 0"),
    (dict(task_timeout=0), "task_timeout must be > 0"),
    (dict(monitor_interval=0), "monitor_interval must be > 0"),
    (dict(monitor_interval=-0.5), "monitor_interval must be > 0"),
    # (these four started the run and failed in it, or never did)
    (dict(deadline=0), "deadline must be > 0"),
    (dict(deadline=-1), "deadline must be > 0"),
    (dict(recv_timeout=0), "recv_timeout must be > 0"),
    (dict(checkpoint_interval=-1), "checkpoint_interval must be > 0"),
    (dict(trace_capacity=0), "trace_capacity must be >= 1"),
]


class TestResolve:
    """RuntimeConfig.resolve(): the one home of what a run turns on."""

    @pytest.mark.parametrize("options, expected", RESOLVED)
    def test_resolved_features(self, options, expected):
        cfg = RuntimeConfig.of(**options)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                cfg.resolve()
            return
        done = cfg.resolve()
        got = (done.replicate, done.journal, done.reliable)
        assert got == expected
        assert all(isinstance(flag, bool) for flag in got)
        # a read-only derived value, the same before and after resolving;
        # every server leases, so there is no switch for it
        assert cfg.reliable == expected[2]
        with pytest.raises(AttributeError):
            done.reliable = False
        assert not hasattr(done, "leases")

    def test_resolve_is_idempotent_and_leaves_the_original_unset(self):
        cfg = RuntimeConfig.of(servers=2, engines=2)
        once = cfg.resolve()
        assert once.resolve() == once
        assert (cfg.replicate, cfg.journal) == (None, None)
        assert len(RuntimeConfig.__dataclass_fields__) == 26

    def test_the_run_is_what_resolve_said(self):
        res = swift_run('printf("x");', workers=2, servers=2, engines=2)
        counters = res.metrics["counters"]
        assert counters["adlb.repl.batches_sent"] > 0
        assert counters["engine.journal.flushes"] > 0
        off = swift_run(
            'printf("x");', workers=2, servers=2, engines=2, on_error="continue"
        )
        assert "adlb.repl.batches_sent" not in off.metrics["counters"]


class TestSession:
    def test_session_runs_and_reuses_cache(self):
        with SwiftRuntime(workers=2) as rt:
            out1 = rt.run('printf("s");')
            assert rt._cache is not None and len(rt._cache) == 1
            out2 = rt.run('printf("s");')
            assert len(rt._cache) == 1  # cache hit, not recompiled
        assert out1.stdout_lines == out2.stdout_lines == ["s"]
        assert rt._cache is None  # cleared on exit

    def test_session_traced_merges_runs(self):
        with SwiftRuntime(workers=2, trace=True) as rt:
            rt.run('printf("a");')
            rt.run('printf("b");')
        assert len(rt.trace.spans("run")) == 2

    def test_per_run_override_inside_session(self):
        with SwiftRuntime(workers=1) as rt:
            res = rt.run('printf("x");', workers=3)
        assert len(res.worker_stats) == 3


class TestBaselines:
    def test_static_round_robin_runs_all(self):
        hits = []
        run_static_round_robin(3, lambda i: hits.append(i), 12)
        assert sorted(hits) == list(range(12))

    def test_adlb_dynamic_runs_all(self):
        hits = []
        run_adlb_dynamic(3, lambda i: hits.append(i), 12)
        assert sorted(hits) == list(range(12))

    def test_dynamic_balances_heavy_tail_better(self):
        durations = np.full(24, 0.001)
        # long tasks all land on worker 0 under static i % 3 assignment
        durations[[0, 3, 6]] = 0.02
        def task(i):
            time.sleep(durations[int(i)])

        static = run_static_round_robin(3, task, 24)
        dynamic = run_adlb_dynamic(3, task, 24)
        # static puts all three long tasks on worker 0 (i % 3 == 0)
        assert dynamic.imbalance < static.imbalance

    def test_imbalance_zero_for_empty(self):
        res = run_static_round_robin(2, lambda i: None, 0)
        assert res.imbalance >= 0.0
