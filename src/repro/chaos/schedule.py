"""Seeded randomized fault-schedule generation.

:func:`generate_plan` samples a :class:`repro.faults.FaultPlan` for a
given run configuration and intensity.  Unlike the hand-written matrices in
``tests/test_replication.py`` / ``tests/test_engine_failover.py``, the
generator explores fault *timing and combination* — but stays inside a
survivability envelope so a violation means a real bug, not an
impossible configuration:

* **worker kills** always leave at least one worker alive;
* **engine kills** are sampled only when the resolved config
  (``RuntimeConfig.resolve()``) has journaling on, so engine adoption
  is in play, and leave at least one engine;
* **server kills** are sampled only when the resolved config has
  replication on, so buddy promotion is in play, and leave at least
  one server;
* **silent kills** (no dead-rank announcement — recovery must come
  from the lease sweep / journal-staleness detection) are sampled with
  bounded probability;
* **poison rules** kill whichever rank runs a matching unit; budgets
  stay below the retry allowance so the unit is either re-run or
  quarantined, never respawn-looped.  Because a LOCAL rule fire counts
  as a unit, the poisoned rank may be an engine — so poison is never
  combined with a scheduled engine kill (the two together could
  exhaust the engine pool and leave no adopter);
* **message drops** are restricted to the request/response tags, which
  the reliable-RPC layer (auto-enabled by any message rule) re-sends;
  a drop on the async notification channel would wedge the dataflow
  by design and is only ever caught by a deadline, so the generator
  never emits one.  Delays are safe on any tag;
* **fail rules** are pinned to worker ranks — engine LOCAL rule
  bodies are deliberately *not* retryable (a rule is consumed when it
  fires), so an injected transient there would abort the run rather
  than exercise recovery.  Each rule's budget is 1 and at most
  ``max_retries`` rules are emitted, so even if every injection lands
  on retries of the same task the attempt allowance absorbs them.

Determinism: ``generate_plan(config, seed, intensity)`` is a pure
function of its arguments — the chaos runner and a replayed repro
artifact sample the identical plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..adlb import constants as C
from ..faults import FaultPlan

#: tags the reliable-RPC layer can recover a dropped message on
_DROPPABLE_TAGS = (C.TAG_REQUEST, C.TAG_RESPONSE)


@dataclass(frozen=True)
class Intensity:
    """Sampling ranges for one intensity level (inclusive bounds)."""

    name: str
    kills: tuple[int, int]  # total rank kills
    silent_p: float  # probability a kill is silent
    poison_p: float  # probability of one poison rule
    fail_rules: tuple[int, int]
    slow_rules: tuple[int, int]
    drop_rules: tuple[int, int]
    drop_budget: tuple[int, int]  # times per drop rule
    delay_rules: tuple[int, int]
    delay_s: tuple[float, float]


INTENSITIES: dict[str, Intensity] = {
    "light": Intensity(
        name="light",
        kills=(0, 1),
        silent_p=0.0,
        poison_p=0.0,
        fail_rules=(0, 1),
        slow_rules=(0, 1),
        drop_rules=(0, 1),
        drop_budget=(1, 1),
        delay_rules=(0, 1),
        delay_s=(0.001, 0.004),
    ),
    "medium": Intensity(
        name="medium",
        kills=(0, 2),
        silent_p=0.25,
        poison_p=0.25,
        fail_rules=(0, 2),
        slow_rules=(0, 2),
        drop_rules=(0, 2),
        drop_budget=(1, 2),
        delay_rules=(0, 2),
        delay_s=(0.001, 0.008),
    ),
    "brutal": Intensity(
        name="brutal",
        kills=(1, 3),
        silent_p=0.4,
        poison_p=0.5,
        fail_rules=(1, 3),
        slow_rules=(0, 3),
        drop_rules=(1, 3),
        drop_budget=(1, 3),
        delay_rules=(0, 3),
        delay_s=(0.002, 0.012),
    ),
}


def _kill_targets(config: Any, rng: random.Random, count: int) -> list[int]:
    """Sample up to ``count`` distinct kill targets among the roles the
    resolved ``config`` can lose, never exhausting a role: at least one
    worker, one engine, and one server survive."""
    layout = config.layout()
    pools: list[tuple[str, list[int]]] = []
    workers = list(layout.workers)
    if len(workers) > 1:
        pools.append(("worker", workers))
    if config.journal:
        pools.append(("engine", list(layout.engines)))
    if config.replicate:
        pools.append(("server", list(layout.servers)))
    targets: list[int] = []
    budget = {role: len(ranks) - 1 for role, ranks in pools}
    for _ in range(count):
        open_pools = [
            (role, ranks) for role, ranks in pools if budget[role] > 0
        ]
        if not open_pools:
            break
        role, ranks = rng.choice(open_pools)
        candidates = [r for r in ranks if r not in targets]
        if not candidates:
            budget[role] = 0
            continue
        targets.append(rng.choice(candidates))
        budget[role] -= 1
    return targets


def generate_plan(config: Any, seed: int, intensity: str = "medium") -> FaultPlan:
    """Sample one randomized FaultPlan that a run under ``config`` (a
    :class:`repro.RuntimeConfig`, less the plan itself) can survive.

    What may be killed follows the recovery features the resolved
    config has on; fail-rule budgets stay within ``config.max_retries``
    so injected task faults are absorbed by retries instead of aborting
    the run.
    """
    if intensity not in INTENSITIES:
        raise ValueError(
            "unknown intensity %r; choose from %s"
            % (intensity, ", ".join(sorted(INTENSITIES)))
        )
    spec = INTENSITIES[intensity]
    config = config.resolve()
    layout = config.layout()
    # A stable derivation (no hash(): it is salted per process) so the
    # same (seed, intensity) always yields the same plan and rule
    # probabilities draw from a distinct stream per intensity.
    level = sorted(INTENSITIES).index(intensity)
    rng = random.Random(seed * 1000003 + level)
    plan = FaultPlan(seed=seed * 1000003 + level)

    for rank in _kill_targets(config, rng, rng.randint(*spec.kills)):
        silent = rng.random() < spec.silent_p
        if layout.is_server(rank):
            # Server units are dispatched messages; let the run build
            # some state first so promotion has something to recover.
            after = rng.randint(5, 60)
        elif rank in layout.engines:
            # Engine units are rule fires/releases; >= 1 so the journal
            # holds at least the first create when the kill lands.
            after = rng.randint(1, 8)
        else:
            after = rng.randint(0, 4)
        plan.kill_rank(rank, after_tasks=after, silent=silent)

    engine_killed = any(kill.rank in layout.engines for kill in plan.kills)
    if config.journal and not engine_killed and rng.random() < spec.poison_p:
        # Match-anything poison: the first unit(s) executed anywhere
        # kill their host.  Budget 1 keeps it a transient (requeue
        # recovers); adoption must be live and the engine pool untouched
        # by the sampled kills because the poisoned unit may be a LOCAL
        # rule on an engine — poison plus an engine kill could leave no
        # surviving engine to adopt the orphaned rule table.
        plan.poison_task("", times=1, silent=rng.random() < spec.silent_p)

    workers = list(layout.workers)
    # Pinned to workers: engine LOCAL rule bodies are not retryable
    # (the rule is consumed by firing), so a transient injected there
    # aborts the run instead of exercising the lease/retry path.  One
    # budget per rule, at most max_retries rules: even if every
    # injection lands on the same task's successive attempts, the
    # 1 + max_retries attempt allowance absorbs them.
    for _ in range(min(rng.randint(*spec.fail_rules), config.max_retries)):
        plan.fail_task(
            "",
            times=1,
            rank=rng.choice(workers),
            message="chaos: injected transient task fault",
        )
    for _ in range(rng.randint(*spec.slow_rules)):
        plan.slow_task(
            "",
            delay=rng.uniform(0.005, 0.05),
            times=rng.randint(1, 3),
        )

    for _ in range(rng.randint(*spec.drop_rules)):
        plan.drop_messages(
            tag=rng.choice(_DROPPABLE_TAGS),
            times=rng.randint(*spec.drop_budget),
            probability=rng.choice([None, 0.5, 0.8]),
        )
    for _ in range(rng.randint(*spec.delay_rules)):
        plan.delay_messages(
            delay=rng.uniform(*spec.delay_s),
            tag=rng.choice([None, C.TAG_REQUEST, C.TAG_RESPONSE, C.TAG_ASYNC]),
            times=rng.randint(2, 12),
            probability=rng.choice([None, 0.3, 0.6]),
        )
    return plan
