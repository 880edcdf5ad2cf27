"""The chaos harness: schedule generation, run-invariant auditing,
trial classification, ddmin shrinking, and repro-artifact replay."""

from __future__ import annotations

import json
import os

import pytest

from repro import FaultPlan, RuntimeConfig, swift_run
from repro.adlb.layout import Layout
from repro.chaos import (
    INTENSITIES,
    audit_run,
    compare_outputs,
    generate_plan,
    load_fault_plan,
    shrink_plan,
)
from repro.chaos.runner import Workload, golden_run, run_trial, trial_config

SEED = int(os.environ.get("FAULT_SEED", "0"))
# generate_plan(...).to_dict() for seeds 0-9 x light / medium / brutal
PLANS = "chaos_plans_4w2s2e.json"

# 2 ms leaves: all ten are queued at once (loops of leaves, ISSUE 24), and
# instant ones can be drained before a plan's victim gets its second.
FANOUT = """
foreach i in [0:9] {
    string s = python(strcat("import time; time.sleep(0.002); x=", fromint(i)), "x");
    trace(s);
}
"""


def config(workers=4, servers=2, engines=2) -> RuntimeConfig:
    return RuntimeConfig.of(
        workers=workers, servers=servers, engines=engines, max_retries=3
    )


# ---------------------------------------------------------------- schedule


class TestSchedule:
    def test_deterministic_per_seed_and_intensity(self):
        cfg = config()
        a = generate_plan(cfg, seed=SEED + 7, intensity="medium")
        b = generate_plan(cfg, seed=SEED + 7, intensity="medium")
        assert a.to_dict() == b.to_dict()
        c = generate_plan(cfg, seed=SEED + 7, intensity="brutal")
        assert c.to_dict() != a.to_dict()

    def test_seeds_explore_distinct_plans(self):
        cfg = config()
        plans = {
            json.dumps(generate_plan(cfg, seed=s, intensity="medium").to_dict())
            for s in range(20)
        }
        assert len(plans) > 10

    def test_plans_of_the_ci_seeds_are_the_parents(self):
        # Snapshot taken at the commit before the envelope started
        # reading RuntimeConfig.resolve() instead of the layout: CI's
        # chaos seeds must keep sampling the same plans.
        with open(os.path.join(os.path.dirname(__file__), PLANS)) as f:
            parent = json.load(f)
        cfg = trial_config(Workload(name="4w/2s/2e", program=""), 60.0)
        for key, plan in parent.items():
            intensity, seed = key.split("/")
            assert generate_plan(cfg, int(seed), intensity).to_dict() == plan, key
        assert len(parent) == 30

    def test_envelope_follows_the_resolved_config(self):
        # What may be killed is what the run can survive losing — the
        # resolved recovery features, not the rank counts.
        off = config().with_options(replicate=False, journal=False)
        lay = off.layout()
        for s in range(40):
            plan = generate_plan(off, seed=s, intensity="brutal")
            assert {k.rank for k in plan.kills} <= set(lay.workers)
            assert not plan.poison_rules

    def test_survivability_envelope(self):
        cfg = config(workers=4, servers=2, engines=2)
        lay = cfg.layout()
        for s in range(60):
            plan = generate_plan(cfg, seed=s, intensity="brutal")
            killed = {k.rank for k in plan.kills}
            assert len(killed & set(lay.workers)) < len(lay.workers)
            assert len(killed & set(lay.engines)) < lay.n_engines
            assert len(killed & set(lay.servers)) < lay.n_servers
            for rule in plan.msg_rules:
                if rule.kind == "drop":
                    # Only the reliable-RPC tags are recoverable.
                    assert rule.tag in (10, 11)
                    assert rule.times is not None
            raise_rules = [r for r in plan.task_rules if r.kind == "raise"]
            for rule in raise_rules:
                # Engine LOCAL rule bodies are not retryable, so every
                # injected transient must be pinned to a worker rank.
                assert rule.rank in lay.workers
                assert rule.times == 1
            # Even if every injection lands on retries of one task the
            # attempt allowance (1 + max_retries) absorbs them.
            assert len(raise_rules) <= 3
            if plan.poison_rules:
                # Poison may kill an engine (LOCAL rule fires count as
                # units); combined with an engine kill that could leave
                # no adopter, so the generator never emits both.
                assert not killed & set(lay.engines)

    def test_solo_roles_are_never_killed(self):
        cfg = config(workers=1, servers=1, engines=1)
        for s in range(40):
            plan = generate_plan(cfg, seed=s, intensity="brutal")
            assert not plan.kills
            assert not plan.poison_rules  # needs >= 2 engines

    def test_unknown_intensity_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            generate_plan(config(), seed=0, intensity="apocalyptic")

    def test_intensity_registry_levels(self):
        assert set(INTENSITIES) == {"light", "medium", "brutal"}


# --------------------------------------------------------------- invariants


def server_row(rank=5, **kw) -> dict:
    row = {
        "role": "server",
        "rank": rank,
        "is_master": True,
        "work_started": True,
        "work_count": 0,
        "poisoned": False,
        "queued_tasks": 0,
        "delayed_tasks": 0,
        "parked_gets": 0,
        "leases": {},
        "journal_pending": {},
        "dedup_slots": {},
        "dead_ranks": [],
        "attached_clients": 3,
        "failures": 0,
        "quarantined": 0,
    }
    row.update(kw)
    return row


def client_row(role, rank, **kw) -> dict:
    row = {
        "role": role,
        "rank": rank,
        "pending_refcounts": 0,
        "pending_writes": 0,
        "failures": 0,
    }
    if role == "engine":
        row.update(pending_rules=0, unflushed_journal=0)
    row.update(kw)
    return row


class TestInvariants:
    # Rows model workers=2 servers=1 engines=1: ranks 0=engine,
    # 1-2=workers, 3=server/master.
    def rows(self, **server_kw):
        return [
            client_row("engine", 0),
            client_row("worker", 1),
            client_row("worker", 2),
            server_row(rank=3, **server_kw),
        ]

    def lay(self):
        return Layout(4, 1, 1)

    def test_clean_rows_pass(self):
        audit = audit_run(self.rows(), layout=self.lay())
        assert audit.ok
        assert audit.missing_ranks == []
        assert "0 violation(s)" in audit.render()

    def test_counter_leak_flagged_and_drain_exempts(self):
        audit = audit_run(self.rows(work_count=2), layout=self.lay())
        assert any("not conserved" in v for v in audit.violations)
        # A poisoned drain legitimately strands blocked units...
        failures = [object()]
        rows = self.rows(work_count=2, poisoned=True)
        rows[0]["failures"] = 1
        audit = audit_run(rows, layout=self.lay(), failures=failures)
        assert audit.ok
        # ...but a negative counter is always an accounting bug.
        audit = audit_run(self.rows(work_count=-1), layout=self.lay())
        assert any("negative" in v for v in audit.violations)

    def test_leaked_lease_flagged(self):
        audit = audit_run(
            self.rows(leases={1: "W1.4"}), layout=self.lay()
        )
        assert any("leaked lease" in v for v in audit.violations)

    def test_queued_work_at_shutdown_flagged(self):
        audit = audit_run(self.rows(queued_tasks=2), layout=self.lay())
        assert any("still queued" in v for v in audit.violations)

    def test_journal_mirror_leaks(self):
        # Live engine's mirror pending at quiescence: leak.
        audit = audit_run(
            self.rows(journal_pending={0: 1}), layout=self.lay()
        )
        assert any("live engine 0" in v for v in audit.violations)
        # Dead engine's mirror: adoption should have popped it.
        rows = [
            client_row("worker", 1),
            client_row("worker", 2),
            server_row(rank=3, journal_pending={0: 3}, dead_ranks=[0]),
        ]
        audit = audit_run(rows, layout=self.lay())
        assert any("adoption never popped" in v for v in audit.violations)
        assert audit.missing_ranks == [0]

    def test_unflushed_client_state_flagged(self):
        rows = self.rows()
        rows[0]["pending_refcounts"] = 2
        rows[0]["unflushed_journal"] = 1
        rows[1]["pending_writes"] = 3
        audit = audit_run(rows, layout=self.lay())
        assert any("unflushed refcount" in v for v in audit.violations)
        assert any("unflushed journal" in v for v in audit.violations)
        assert "worker rank 1 exited with 3 unflushed write(s)" in audit.violations

    def test_dedup_slots_bounded_by_clients(self):
        audit = audit_run(
            self.rows(dedup_slots={"rpc": 9}), layout=self.lay()
        )
        assert any("dedup slots" in v for v in audit.violations)
        audit = audit_run(
            self.rows(dedup_slots={"rpc": 3}), layout=self.lay()
        )
        assert audit.ok

    def test_accounting_cross_check(self):
        # The run surfaced a failure no rank recorded.
        audit = audit_run(
            self.rows(), layout=self.lay(), failures=[object()]
        )
        assert any("accounting mismatch" in v for v in audit.violations)

    def test_role_mismatch_flagged(self):
        rows = self.rows()
        rows[0]["role"] = "worker"  # rank 0 is an engine in the layout
        audit = audit_run(rows, layout=self.lay())
        assert any("reported role" in v for v in audit.violations)


class TestCompareOutputs:
    def test_identical_modulo_order(self):
        assert compare_outputs(["a", "b"], ["b", "a"]) == []

    def test_missing_and_extra_lines(self):
        got = compare_outputs(["a", "b", "b"], ["a", "b", "c"])
        assert any("missing line: 'b'" in v for v in got)
        assert any("extra line: 'c'" in v for v in got)

    def test_ordered_mode_flags_reordering(self):
        got = compare_outputs(["a", "b"], ["b", "a"], ordered=True)
        assert got == ["output line order diverged from golden run"]


# ------------------------------------------------------------- audit e2e


class TestAuditEndToEnd:
    def test_clean_run_audits_ok(self):
        res = swift_run(
            FANOUT, workers=2, servers=2, engines=2, audit=True
        )
        assert res.audit is not None and res.audit.ok
        assert len(res.audit.rows) == 6  # every rank reported
        assert res.audit.missing_ranks == []

    def test_audit_off_by_default(self):
        res = swift_run(FANOUT, workers=2)
        assert res.audit is None

    def test_audit_with_worker_kill(self):
        plan = FaultPlan(seed=SEED).kill_rank(2, after_tasks=1)
        res = swift_run(
            FANOUT,
            workers=3,
            servers=2,
            engines=2,
            audit=True,
            faults=plan,
        )
        assert res.ok
        assert res.audit is not None and res.audit.ok
        assert res.audit.missing_ranks == [2]  # the killed worker

    def test_regression_final_rule_journal_flush_race(self):
        # Found by the chaos audit: the engine's last "done" journal
        # entry is flushed *after* the decr_work that zeroes the
        # termination counter, and parked clients are acked without a
        # round trip — so servers could exit with the final OP_JOURNAL
        # still in their mailbox, leaving the dead rule mirrored (the
        # Journals.settled clause of Server._done is the fix).  The
        # fault plan's kill never fires (rank 3 is a worker that sees
        # no 2nd task after the fanout drains); its presence just arms
        # journaling+leases.
        plan = FaultPlan(seed=11).kill_rank(3, after_tasks=1)
        for _ in range(3):
            res = swift_run(
                "foreach i in [0:9] {\n"
                '    string o = python(strcat("x = ", fromint(i), " * 3"), "x");\n'
                '    printf("t %s", o);\n'
                "}\n",
                workers=3,
                servers=2,
                engines=2,
                audit=True,
                faults=plan,
                on_error="retry",
                max_retries=3,
                lease_timeout=1.0,
            )
            assert res.audit is not None
            assert res.audit.ok, res.audit.render()


# ------------------------------------------------------------------ trials


class TestTrials:
    WL = Workload(
        name="fanout", program=FANOUT, workers=3, servers=2, engines=2
    )

    def test_golden_then_clean_trial(self):
        golden = golden_run(self.WL)
        trial = run_trial(
            self.WL, FaultPlan(seed=SEED), golden, seed=SEED, deadline=60.0
        )
        assert trial.outcome == "clean", trial
        assert trial.violations == []

    def test_tolerated_trial_with_injections(self):
        golden = golden_run(self.WL)
        plan = (
            FaultPlan(seed=SEED)
            .fail_task("python", times=1)
            .kill_rank(2, after_tasks=1)
        )
        trial = run_trial(self.WL, plan, golden, seed=SEED, deadline=60.0)
        assert trial.outcome == "tolerated", trial
        assert "output identical" in trial.detail

    def test_hang_caught_by_deadline(self):
        golden = golden_run(self.WL)
        # Dropping async notifications wedges the dataflow by design;
        # the armed deadline must classify it, not hang the suite.
        plan = FaultPlan(seed=SEED).drop_messages(tag=13, times=100)
        trial = run_trial(self.WL, plan, golden, seed=SEED, deadline=1.5)
        assert trial.outcome == "hang", trial


# ---------------------------------------------------------------- shrinking


class TestShrink:
    def plan(self) -> FaultPlan:
        return (
            FaultPlan(seed=3)
            .kill_rank(2, after_tasks=1)
            .kill_rank(4, after_tasks=2, silent=True)
            .fail_task("python", times=1)
            .slow_task("python", delay=0.01, times=2)
            .drop_messages(tag=10, times=2)
            .delay_messages(delay=0.005, times=3)
        )

    def test_shrinks_to_single_culprit(self):
        runs = []

        def still_fails(candidate: FaultPlan) -> bool:
            runs.append(candidate.rule_count())
            # The "bug" reproduces iff the silent kill is present.
            return any(k.rank == 4 and k.silent for k in candidate.kills)

        shrunk, spent = shrink_plan(self.plan(), still_fails)
        assert shrunk.rule_count() == 1
        assert shrunk.kills[0].rank == 4 and shrunk.kills[0].silent
        assert spent == len(runs) <= 32

    def test_shrink_respects_run_budget(self):
        def never_smaller(candidate: FaultPlan) -> bool:
            return candidate.rule_count() == 6  # only the full plan fails

        shrunk, spent = shrink_plan(self.plan(), never_smaller, max_runs=9)
        assert spent <= 9
        assert shrunk.rule_count() == 6

    def test_two_rule_interaction_kept_together(self):
        def still_fails(candidate: FaultPlan) -> bool:
            # Needs the pair: a kill AND the drop rule.
            return bool(candidate.kills) and any(
                r.kind == "drop" for r in candidate.msg_rules
            )

        shrunk, _ = shrink_plan(self.plan(), still_fails)
        assert shrunk.rule_count() == 2


# ------------------------------------------------------------ repro replay


class TestReproArtifacts:
    def test_load_bare_plan_and_artifact(self, tmp_path):
        plan = FaultPlan(seed=9).fail_task("python", times=1)
        bare = tmp_path / "plan.json"
        bare.write_text(json.dumps(plan.to_dict()))
        assert load_fault_plan(bare).to_dict() == plan.to_dict()
        artifact = tmp_path / "repro.json"
        artifact.write_text(
            json.dumps({"workload": "w", "plan": plan.to_dict()})
        )
        assert load_fault_plan(artifact).to_dict() == plan.to_dict()

    def test_cli_replays_fault_plan_with_audit(self, tmp_path):
        from repro.cli import main

        plan = FaultPlan(seed=SEED).fail_task("python", times=1)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        src = tmp_path / "t.swift"
        src.write_text(FANOUT)
        status = main(
            [
                "run",
                str(src),
                "--workers",
                "2",
                "--audit",
                "--fault-plan",
                str(plan_path),
            ]
        )
        assert status == 0

    def test_cli_chaos_list(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fixpoint_labels" in out


# ----------------------------------------------------------------- campaign


class TestCampaign:
    def test_small_campaign_over_fixpoint(self, tmp_path):
        from repro.chaos import run_chaos

        report = run_chaos(
            workload_names=["fixpoint_labels"],
            trials=2,
            intensity="light",
            seed=SEED,
            deadline=60.0,
            out_dir=tmp_path,
        )
        assert report.ok, report.render()
        assert len(report.trials) == 2
        assert all(
            t.outcome in ("clean", "tolerated") for t in report.trials
        )
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["trials_per_workload"] == 2
        assert sum(summary["counts"].values()) == 2
