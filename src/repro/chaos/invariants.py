"""Run-invariant auditing: conservation laws over terminal rank state.

When ``RuntimeConfig.audit`` is set, every rank that shuts down cleanly
is asked for its terminal state once (``state()`` on
:class:`repro.adlb.server.Server`, :class:`repro.turbine.engine.Engine`,
and :class:`repro.turbine.worker.Worker`) and the driver checks the
rows against the laws below.  Killed ranks contribute no row — their
absence is itself part of the audit (``missing_ranks``).

The laws, each cheap enough to hold on every run:

* **Termination-counter conservation** — the master's counter returns
  to exactly zero once work started, unless the run was poisoned (a
  permanently failed or quarantined unit makes the blocked remainder
  of the dataflow unaccountable by design).
* **No leaked leases** — the lease table is empty at shutdown: every
  handed-out unit was either completed (lease popped at the client's
  next get) or swept (dead rank / expiry) and requeued.
* **No leaked journal entries** — engines flush their rule-lifecycle
  buffer before blocking, so server-side journal mirrors are empty at
  quiescence (pending mirrors are legal only for a poisoned drain);
  a dead engine's mirror must have been popped by adoption.
* **No unflushed refcount deltas or writes** — every unit of work
  ends in a commit (its held writes and deferred refcount decrements
  land) or a roll-back (they are dropped), so both tables are empty
  whenever a rank exits cleanly.
* **Bounded dedup slots** — reliable-RPC reply caches hold at most one
  entry per attached client per channel.
* **Consistent failure/quarantine accounting** — the run-level
  ``failures`` / ``quarantined`` lists agree with the per-rank counts,
  and a poisoned master implies at least one recorded cause.

:func:`compare_outputs` is the other half used by the chaos runner:
bit-identical program output versus a fault-free golden run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class RunAudit:
    """Verdict of one audited run: rows, derived facts, violations."""

    rows: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    # Ranks of the layout that produced no row (killed or lost).
    missing_ranks: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_role(self, role: str) -> list[dict]:
        return [row for row in self.rows if row["role"] == role]

    def render(self) -> str:
        lines = [
            "run audit: %d rank row(s), %d missing, %d violation(s)"
            % (len(self.rows), len(self.missing_ranks), len(self.violations))
        ]
        for v in self.violations:
            lines.append("  VIOLATION: %s" % v)
        return "\n".join(lines)


def audit_run(
    rows: list[dict],
    layout: Any | None = None,
    failures: Iterable = (),
    quarantined: Iterable = (),
) -> RunAudit:
    """Check the conservation laws over one run's audit rows.

    ``layout`` (a :class:`repro.adlb.layout.Layout`) lets the audit
    name the ranks that went missing and distinguish "engine died and
    was adopted" from "journal mirror leaked"; without it only the
    row-local laws are checked.
    """
    audit = RunAudit(rows=sorted(rows, key=lambda r: r["rank"]))
    bad = audit.violations.append
    failures = list(failures)
    quarantined = list(quarantined)

    present = [row["rank"] for row in audit.rows]
    if len(set(present)) != len(present):
        bad("duplicate audit rows for ranks %r" % (sorted(present),))
    dead: set[int] = set()
    for row in audit.by_role("server"):
        dead.update(row.get("dead_ranks", ()))
    if layout is not None:
        audit.missing_ranks = [
            r for r in range(layout.size) if r not in set(present)
        ]
        for row in audit.rows:
            if layout.role(row["rank"]) != row["role"]:
                bad(
                    "rank %d reported role %r but the layout says %r"
                    % (row["rank"], row["role"], layout.role(row["rank"]))
                )

    # The run was legitimately cut short: a poisoned drain leaves the
    # blocked remainder of the dataflow unresolved by design, so the
    # completion-shaped laws (counter at zero, no pending rules) only
    # bind on unpoisoned runs.
    poisoned = any(row.get("poisoned") for row in audit.by_role("server"))
    drained = poisoned or bool(failures) or bool(quarantined)

    masters = [row for row in audit.by_role("server") if row["is_master"]]
    if len(masters) > 1:
        bad(
            "termination counter split across %d masters (ranks %r)"
            % (len(masters), [m["rank"] for m in masters])
        )
    for row in masters:
        if row["work_started"] and row["work_count"] != 0 and not drained:
            bad(
                "termination counter not conserved: master rank %d "
                "finished with work_count=%d" % (row["rank"], row["work_count"])
            )
        if row["work_count"] < 0:
            bad(
                "termination counter negative on master rank %d: %d"
                % (row["rank"], row["work_count"])
            )

    n_clients = None
    if layout is not None:
        n_clients = layout.size - layout.n_servers
    for row in audit.by_role("server"):
        rank = row["rank"]
        for client, uid in sorted(row.get("leases", {}).items()):
            bad(
                "leaked lease on server rank %d: client %d still holds "
                "unit %s at shutdown" % (rank, client, uid)
            )
        if row.get("queued_tasks"):
            bad(
                "server rank %d shut down with %d task(s) still queued"
                % (rank, row["queued_tasks"])
            )
        if row.get("delayed_tasks"):
            bad(
                "server rank %d shut down with %d backoff-delayed "
                "task(s) pending" % (rank, row["delayed_tasks"])
            )
        for engine, pending in sorted(row.get("journal_pending", {}).items()):
            if not pending:
                continue
            if engine in dead:
                bad(
                    "leaked journal: dead engine %d's mirror on server "
                    "rank %d still holds %d rule(s) — adoption never "
                    "popped it" % (engine, rank, pending)
                )
            elif not drained:
                bad(
                    "leaked journal: live engine %d left %d pending "
                    "rule(s) mirrored on server rank %d at quiescence"
                    % (engine, pending, rank)
                )
        for channel, count in sorted(row.get("dedup_slots", {}).items()):
            limit = n_clients if n_clients is not None else row.get(
                "attached_clients", count
            )
            if count > limit:
                bad(
                    "dedup slots leaked on server rank %d: %d %s entries "
                    "for at most %d clients" % (rank, count, channel, limit)
                )

    for row in audit.by_role("engine") + audit.by_role("worker"):
        for key, what in (("pending_refcounts", "refcount delta"), ("pending_writes", "write")):
            if row.get(key):
                bad(
                    "%s rank %d exited with %d unflushed %s(s)"
                    % (row["role"], row["rank"], row[key], what)
                )
    for row in audit.by_role("engine"):
        if row.get("unflushed_journal"):
            bad(
                "engine rank %d exited with %d unflushed journal "
                "entr(ies)" % (row["rank"], row["unflushed_journal"])
            )
        if row.get("pending_rules") and not drained:
            bad(
                "engine rank %d exited holding %d pending rule(s) on an "
                "unpoisoned run" % (row["rank"], row["pending_rules"])
            )

    # Accounting cross-check: only exact when every rank survived to
    # report (a killed rank's local failure records die with it).
    if layout is not None and not audit.missing_ranks:
        recorded = sum(row.get("failures", 0) for row in audit.rows)
        if recorded != len(failures):
            bad(
                "failure accounting mismatch: ranks recorded %d "
                "failure(s) but the run surfaced %d" % (recorded, len(failures))
            )
        recorded_q = sum(
            row.get("quarantined", 0) for row in audit.by_role("server")
        )
        if recorded_q != len(quarantined):
            bad(
                "quarantine accounting mismatch: servers recorded %d "
                "unit(s) but the run surfaced %d"
                % (recorded_q, len(quarantined))
            )
        if poisoned and not failures and not quarantined:
            bad(
                "master drained a poisoned run but no failure or "
                "quarantine record explains the poison"
            )
    return audit


def compare_outputs(
    golden: list[str], actual: list[str], ordered: bool = False
) -> list[str]:
    """Bit-identical output check against a fault-free golden run.

    Program output order across ranks is scheduling-dependent, so the
    default compares sorted lines; ``ordered=True`` compares verbatim.
    Returns a list of violation strings (empty = identical).
    """
    a = list(golden) if ordered else sorted(golden)
    b = list(actual) if ordered else sorted(actual)
    if a == b:
        return []
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    violations = []
    if len(a) != len(b):
        violations.append(
            "output line count diverged: golden %d vs run %d"
            % (len(a), len(b))
        )
    for line in list((ca - cb).elements())[:5]:
        violations.append("output missing line: %r" % line)
    for line in list((cb - ca).elements())[:5]:
        violations.append("output extra line: %r" % line)
    if not violations:  # same multiset, order-only divergence
        violations.append("output line order diverged from golden run")
    return violations
