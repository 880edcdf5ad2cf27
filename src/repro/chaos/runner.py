"""Chaos trial runner: seeded trials, classification, ddmin shrinking.

One *trial* = one workload run under one generated
:class:`repro.faults.FaultPlan` with auditing on and a deadline armed.
Every trial is classified:

* ``clean`` — completed, audit passed, output bit-identical to the
  fault-free golden run, and no injection actually fired;
* ``tolerated`` — injections fired (or units were quarantined /
  recorded as failures) and the run still ended in a classified state:
  full recovery means bit-identical output, a poisoned/quarantined
  drain means the loss is accounted on ``RunResult``;
* ``hang`` — the armed deadline expired and shut the run down
  (``DeadlineExceeded``): caught, classified, reported;
* ``violation`` — an invariant audit failure, an output divergence on
  a run that claimed success, or an unclassified crash.

Violating plans are delta-debugged (:func:`shrink_plan`, classic ddmin
over the flattened rule list) to a minimal rule set that still
reproduces the same outcome, and shipped as a replayable JSON repro
artifact (``repro run --fault-plan repro.json`` replays it).

The workload registry wraps the real ``examples/`` programs — the same
code paths users run — plus the iterative-fixpoint workload.
"""

from __future__ import annotations

import importlib.util
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..faults import BlackboxCarrier, DeadlineExceeded, FaultPlan
from .invariants import compare_outputs
from .schedule import generate_plan

_EXAMPLES_DIR = Path(__file__).resolve().parents[3] / "examples"

#: retry allowance for every trial; fail-rule budgets stay below it
TRIAL_MAX_RETRIES = 3
#: aggressive lease sweep so silent kills recover in ~a second
TRIAL_LEASE_TIMEOUT = 1.0


@dataclass
class Workload:
    """One registered chaos workload: a program plus its launch shape."""

    name: str
    program: str
    setup: Callable | None = None
    workers: int = 4
    servers: int = 2
    engines: int = 2


@dataclass
class Trial:
    """Outcome of one seeded trial."""

    workload: str
    seed: int
    intensity: str
    outcome: str  # clean | tolerated | hang | violation
    detail: str
    elapsed: float
    plan: dict  # FaultPlan.to_dict() image
    violations: list[str] = field(default_factory=list)
    # Flight-recorder snapshot captured on the failure path (hangs,
    # crashes, drained-with-failures runs); None for clean trials.
    blackbox: dict | None = None


@dataclass
class ChaosReport:
    """Summary of a whole chaos campaign."""

    trials: list[Trial] = field(default_factory=list)
    golden_elapsed: dict[str, float] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.trials:
            out[t.outcome] = out.get(t.outcome, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return not any(t.outcome == "violation" for t in self.trials)

    def render(self) -> str:
        counts = self.counts()
        lines = [
            "chaos: %d trial(s) across %d workload(s): %s"
            % (
                len(self.trials),
                len({t.workload for t in self.trials}),
                ", ".join(
                    "%d %s" % (counts[k], k) for k in sorted(counts)
                )
                or "none",
            )
        ]
        for t in self.trials:
            if t.outcome == "violation":
                lines.append(
                    "  VIOLATION %s seed=%d: %s"
                    % (t.workload, t.seed, t.detail)
                )
                for v in t.violations[:8]:
                    lines.append("    - %s" % v)
        for path in self.artifacts:
            lines.append("  repro artifact: %s" % path)
        return "\n".join(lines)


# ----------------------------------------------------------------- registry


def _load_example(name: str):
    path = _EXAMPLES_DIR / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location("repro_chaos_wl_%s" % name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: The examples registered as chaos workloads.  Each exposes
#: ``workload() -> (program, setup)``: what its own ``main`` runs.
WORKLOADS = (
    "fixpoint_labels",
    "protein_pipeline",
    "materials_sweep",
    "powergrid_contingency",
)


def load_workloads(names: list[str] | None = None) -> list[Workload]:
    """Build the workload registry from the real ``examples/``.

    Workloads whose example cannot load (e.g. NumPy-backed kernels on a
    box without NumPy) are skipped unless explicitly requested by name.
    """
    unknown = sorted(set(names or ()) - set(WORKLOADS))
    if unknown:
        raise ValueError(
            "unknown workload(s) %s; registered: %s"
            % (", ".join(unknown), ", ".join(sorted(WORKLOADS)))
        )
    out: list[Workload] = []
    for name in names or WORKLOADS:
        try:
            program, setup = _load_example(name).workload()
        except ImportError:
            if names:
                raise
            continue
        out.append(Workload(name=name, program=program, setup=setup))
    return out


# ------------------------------------------------------------------- trials


def trial_config(workload: Workload, deadline: float):
    """The configuration every run of ``workload`` gets, less the
    trial's fault plan — which :func:`generate_plan` samples from it."""
    from ..turbine import RuntimeConfig

    return RuntimeConfig.of(
        workers=workload.workers,
        servers=workload.servers,
        engines=workload.engines,
        on_error="retry",
        max_retries=TRIAL_MAX_RETRIES,
        lease_timeout=TRIAL_LEASE_TIMEOUT,
        deadline=deadline,
        recv_timeout=deadline + 60.0,
        audit=True,
    )


def _run(workload: Workload, deadline: float, plan: FaultPlan | None):
    from ..api import SwiftRuntime

    rt = SwiftRuntime(setup=workload.setup, config=trial_config(workload, deadline))
    return rt.run(workload.program, faults=plan)


def golden_run(workload: Workload, deadline: float = 120.0) -> list[str]:
    """The fault-free reference: sorted output lines of a clean run."""
    res = _run(workload, deadline, None)
    if not res.ok:
        raise RuntimeError(
            "golden run of %r failed: %d failure(s), %d quarantined"
            % (workload.name, len(res.failures), len(res.quarantined))
        )
    if res.audit is not None and not res.audit.ok:
        raise RuntimeError(
            "golden run of %r violated invariants:\n%s"
            % (workload.name, res.audit.render())
        )
    return sorted(res.stdout_lines)


def run_trial(
    workload: Workload,
    plan: FaultPlan,
    golden: list[str],
    seed: int = 0,
    intensity: str = "custom",
    deadline: float = 60.0,
) -> Trial:
    """Execute one plan against one workload and classify the outcome."""
    t0 = time.perf_counter()

    def trial(outcome: str, detail: str, violations: list[str], blackbox) -> Trial:
        return Trial(
            workload=workload.name,
            seed=seed,
            intensity=intensity,
            outcome=outcome,
            detail=detail,
            elapsed=time.perf_counter() - t0,
            plan=plan.to_dict(),
            violations=violations,
            blackbox=blackbox,
        )

    try:
        res = _run(workload, deadline, plan)
    except BlackboxCarrier as e:
        if isinstance(e, DeadlineExceeded):
            return trial("hang", "deadline caught a wedged run: %s" % e, [], e.blackbox)
        crash = "%s: %s" % (type(e).__name__, e)
        return trial(
            "violation", "unclassified crash: " + crash, ["crash: " + crash], e.blackbox
        )
    violations: list[str] = []
    if res.audit is not None:
        violations.extend(res.audit.violations)
    fired = 0
    if res.fault_stats is not None:
        s = res.fault_stats
        fired = (
            s.kills
            + s.task_errors
            + s.slow_tasks
            + s.dropped_msgs
            + s.delayed_msgs
        )
    if res.ok:
        # The run claims full recovery: its output must be
        # bit-identical (modulo rank interleaving) to the golden run.
        violations.extend(compare_outputs(golden, res.stdout_lines))
        detail = (
            "recovered, output identical (%d injection(s) fired)" % fired
            if fired
            else "no injections fired"
        )
        outcome = "tolerated" if fired else "clean"
    else:
        # A quarantined/failed unit legitimately withholds its output;
        # the loss must be accounted, which the audit already checked.
        detail = "drained with %d failure(s), %d quarantined" % (
            len(res.failures),
            len(res.quarantined),
        )
        outcome = "tolerated"
    if violations:
        outcome = "violation"
        detail = "%d invariant/output violation(s)" % len(violations)
    return trial(outcome, detail, violations, res.blackbox)


# ----------------------------------------------------------------- shrinking


def _flatten(plan_dict: dict) -> list[tuple[str, dict]]:
    rules: list[tuple[str, dict]] = []
    for key in ("kills", "poison_rules", "task_rules", "msg_rules"):
        for rule in plan_dict.get(key, []):
            rules.append((key, rule))
    return rules


def _rebuild(seed: int, rules: list[tuple[str, dict]]) -> FaultPlan:
    data: dict = {
        "seed": seed,
        "kills": [],
        "poison_rules": [],
        "task_rules": [],
        "msg_rules": [],
    }
    for key, rule in rules:
        data[key].append(rule)
    return FaultPlan.from_dict(data)


def shrink_plan(
    plan: FaultPlan,
    still_fails: Callable[[FaultPlan], bool],
    max_runs: int = 32,
) -> tuple[FaultPlan, int]:
    """ddmin over the plan's flattened rule list.

    Returns the smallest plan (by rule count) for which
    ``still_fails`` holds, plus how many predicate runs were spent.
    Classic delta debugging: try dropping chunks, halve the chunk size
    when nothing can be dropped, stop at granularity one rule.
    """
    seed = plan.seed
    rules = _flatten(plan.to_dict())
    runs = 0
    chunk = max(1, len(rules) // 2)
    while chunk >= 1 and len(rules) > 1 and runs < max_runs:
        shrunk = False
        i = 0
        while i < len(rules) and runs < max_runs:
            candidate = rules[:i] + rules[i + chunk :]
            if not candidate:
                i += chunk
                continue
            runs += 1
            if still_fails(_rebuild(seed, candidate)):
                rules = candidate
                shrunk = True
            else:
                i += chunk
        if not shrunk:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
        else:
            chunk = min(chunk, max(1, len(rules) // 2))
    return _rebuild(seed, rules), runs


# ------------------------------------------------------------------ campaign


def run_chaos(
    workload_names: list[str] | None = None,
    trials: int = 10,
    intensity: str = "medium",
    seed: int = 0,
    deadline: float = 60.0,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    shrink_budget: int = 24,
    log: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run a chaos campaign: ``trials`` seeded trials per workload.

    Trial ``k`` of a workload uses the plan ``generate_plan(config,
    seed + k, intensity)`` over the workload's :func:`trial_config` —
    fully reproducible from (workload, seed, intensity) alone.
    Violating trials are shrunk to a minimal plan and written as
    replayable JSON repro artifacts under ``out_dir``.
    """
    say = log or (lambda line: None)
    workloads = load_workloads(workload_names)
    if not workloads:
        raise RuntimeError("no chaos workloads available")
    report = ChaosReport()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for wl in workloads:
        say("workload %s: golden run..." % wl.name)
        t0 = time.perf_counter()
        golden = golden_run(wl, deadline=max(deadline, 120.0))
        report.golden_elapsed[wl.name] = time.perf_counter() - t0
        config = trial_config(wl, deadline)
        for k in range(trials):
            trial_seed = seed + k
            plan = generate_plan(config, trial_seed, intensity)
            trial = run_trial(
                wl,
                plan,
                golden,
                seed=trial_seed,
                intensity=intensity,
                deadline=deadline,
            )
            report.trials.append(trial)
            say(
                "  trial %d/%d seed=%d: %s (%.1fs, %d rule(s)) — %s"
                % (
                    k + 1,
                    trials,
                    trial_seed,
                    trial.outcome,
                    trial.elapsed,
                    plan.rule_count(),
                    trial.detail,
                )
            )
            box_path = None
            if out_path is not None and trial.blackbox is not None:
                box_path = out_path / (
                    "blackbox-%s-seed%d.json" % (wl.name, trial_seed)
                )
                box_path.write_text(
                    json.dumps(trial.blackbox, indent=1) + "\n"
                )
                report.artifacts.append(str(box_path))
                say("  wrote black box %s (repro postmortem)" % box_path)
            if trial.outcome != "violation":
                continue
            shrunk_plan, runs = plan, 0
            if shrink and plan.rule_count() > 1:
                say("  shrinking %d-rule plan..." % plan.rule_count())

                def still_fails(candidate: FaultPlan) -> bool:
                    t = run_trial(
                        wl,
                        candidate,
                        golden,
                        seed=trial_seed,
                        intensity=intensity,
                        deadline=deadline,
                    )
                    return t.outcome == "violation"

                shrunk_plan, runs = shrink_plan(
                    plan, still_fails, max_runs=shrink_budget
                )
                say(
                    "  shrunk to %d rule(s) in %d re-run(s)"
                    % (shrunk_plan.rule_count(), runs)
                )
            if out_path is not None:
                artifact = {
                    "workload": wl.name,
                    "intensity": intensity,
                    "seed": trial_seed,
                    "outcome": trial.outcome,
                    "detail": trial.detail,
                    "violations": trial.violations,
                    "layout": {
                        "workers": wl.workers,
                        "servers": wl.servers,
                        "engines": wl.engines,
                    },
                    "options": {
                        name: getattr(config, name)
                        for name in (
                            "on_error", "max_retries", "lease_timeout", "deadline"
                        )
                    },
                    "original_plan": plan.to_dict(),
                    "plan": shrunk_plan.to_dict(),
                    "shrink_runs": runs,
                    "blackbox": box_path.name if box_path else None,
                }
                path = out_path / (
                    "repro-%s-seed%d.json" % (wl.name, trial_seed)
                )
                path.write_text(json.dumps(artifact, indent=2) + "\n")
                report.artifacts.append(str(path))
                say("  wrote repro artifact %s" % path)
    if out_path is not None:
        summary = out_path / "report.json"
        summary.write_text(
            json.dumps(
                {
                    "intensity": intensity,
                    "seed": seed,
                    "trials_per_workload": trials,
                    "counts": report.counts(),
                    "golden_elapsed": report.golden_elapsed,
                    "trials": [
                        {
                            "workload": t.workload,
                            "seed": t.seed,
                            "outcome": t.outcome,
                            "detail": t.detail,
                            "elapsed": t.elapsed,
                            "rules": len(_flatten(t.plan)),
                        }
                        for t in report.trials
                    ],
                },
                indent=2,
            )
            + "\n"
        )
    return report


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a plan from JSON: either a bare ``FaultPlan.to_dict()``
    image or a chaos repro artifact (its ``plan`` key)."""
    data = json.loads(Path(path).read_text())
    if "plan" in data and isinstance(data["plan"], dict):
        data = data["plan"]
    return FaultPlan.from_dict(data)
