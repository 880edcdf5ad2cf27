"""The Turbine rule engine.

An engine rank evaluates the STC-generated Tcl program.  ``rule``
statements register data dependencies on TDs; when all inputs of a rule
are closed, the rule *fires*: LOCAL actions execute in the engine's Tcl
interpreter, WORK/CONTROL actions are shipped through ADLB to workers
or other engines.  Close notifications arrive from the data servers on
the async channel.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..adlb.client import AdlbClient
from ..adlb.constants import CONTROL, OP_SUBSCRIBE, SOP_CKPT_PART, TAG_SERVER, WORK
from ..faults import RankKilled
from .unit import UnitRunner


@dataclass
class Rule:
    id: int
    action: str
    type: str  # LOCAL | WORK | CONTROL
    target: int
    priority: int
    name: str
    remaining: int = 0
    inputs: list = field(default_factory=list)

    def spec(self, inputs: list[int]) -> dict:
        """The rule as plain data, waiting on ``inputs`` (journal
        entries, checkpoints); :meth:`Engine.add_rules` re-registers it."""
        return {
            "inputs": inputs,
            "action": self.action,
            "type": self.type,
            "target": self.target,
            "priority": self.priority,
            "name": self.name,
        }


@dataclass
class EngineStats:
    rules_created: int = 0
    rules_fired_local: int = 0
    tasks_released: int = 0
    notifications: int = 0
    control_tasks_run: int = 0


@dataclass
class JournalStats:
    """Rule-table journaling counters, registered as
    ``engine.journal.*`` when journaling is on."""

    entries: int = 0
    flushes: int = 0
    adoptions: int = 0
    adopted_rules: int = 0


class Engine:
    """Dataflow rule bookkeeping + main event loop for one engine rank.

    Running a fired rule, a control task or the program and accounting
    for it (error policy, fault directives, spans, commit / roll-back)
    is the rank's :class:`~repro.turbine.unit.UnitRunner`, ``unit``.
    """

    def __init__(
        self,
        client: AdlbClient,
        interp,
        on_error: str = "retry",
        faults: Any | None = None,
        journal: bool = False,
        output=None,
    ):
        self.unit = UnitRunner(
            client, interp, on_error, faults, self.subscriptions, self.add_rules, output
        )
        self.client = client
        # This rank's event ring; ``tracer`` is the ring on traced runs.
        self.ring = client.ring
        self.tracer = client.tracer
        self.faults = faults
        self.journal = journal
        # Buffered rule-lifecycle journal entries, streamed to the
        # anchor server at dispatch boundaries (always immediately
        # before a fault kill-point, so the journal is exact at death).
        self._jbuf: list[tuple] = []
        register = client.comm.metrics.register
        self.journal_stats = JournalStats()
        if journal:
            register("engine.journal", self.journal_stats, client.rank)
        self._seq = itertools.count(1)
        self.ready: deque[Rule] = deque()
        # td id -> rules blocked on it
        self.blocked: dict[int, list[Rule]] = {}
        # TDs known closed (subscription already answered)
        self.closed: set[int] = set()
        # TDs with an outstanding subscription
        self.subscribed: set[int] = set()
        self.stats = register("engine", EngineStats(), client.rank)
        client.comm.metrics.sources[client.rank] = self.state

    # ------------------------------------------------------------------ rules

    def subscriptions(self, specs: list[dict]) -> list[dict]:
        """A SUBSCRIBE op per distinct input of :meth:`Rule.spec` dicts
        ``specs`` that this engine has neither seen closed nor subscribed."""
        tds = dict.fromkeys(td for spec in specs for td in spec["inputs"])
        new = [td for td in tds if td not in self.closed and td not in self.subscribed]
        return [{"op": OP_SUBSCRIBE, "id": td, "rank": self.client.rank} for td in new]

    def add_rules(self, specs: list[dict], closed: list[int]) -> None:
        """Register ``specs`` once the commit that carried their
        :meth:`subscriptions` and counted them has landed; ``closed`` is
        what those subscribes found closed."""
        self.closed.update(closed)
        for spec in specs:
            rule = Rule(
                next(self._seq),
                spec["action"],
                spec["type"],
                spec["target"],
                spec["priority"],
                spec["name"],
                inputs=spec["inputs"],
            )
            inputs = set(spec["inputs"])
            self.stats.rules_created += 1
            if self.ring is not None:
                lineage = None
                if self.tracer is not None:
                    # Lineage: which TDs this rule waits on, and which unit
                    # of work registered it (the spawn edge of the run DAG).
                    lineage = {
                        "type": rule.type,
                        "name": rule.name,
                        "inputs": sorted(inputs),
                        "by": self.client.prov_unit,
                    }
                self.ring.emit("rule_create", rule.id, len(inputs), payload=lineage)
            pending: list[int] = []
            for td in inputs:
                if td in self.closed:
                    continue
                self.subscribed.add(td)
                self.blocked.setdefault(td, []).append(rule)
                rule.remaining += 1
                pending.append(td)
            if rule.remaining == 0:
                self.ready.append(rule)
            if self.journal:
                self._jot(("create", dict(rule.spec(pending), id=rule.id)))

    def take_rules(self, specs: list[dict], ops: list[dict] | tuple = ()) -> None:
        """Take on a restored or adopted rule table: one commit of its
        subscriptions, its increment and then ``ops``."""
        ops = [*self.subscriptions(specs), *self.client.work(len(specs)), *ops]
        self.add_rules(specs, self.client.commit(ops))

    # ---------------------------------------------------------------- journal

    def _jot(self, entry: tuple) -> None:
        """Buffer one journal entry (flushed at dispatch boundaries)."""
        self._jbuf.append(entry)
        self.journal_stats.entries += 1

    def journal_flush(self) -> None:
        """Stream buffered journal entries to the anchor server.

        Called immediately before every fault kill-point so the
        journal is exact at the instant of death (kills only fire at
        ``faults.on_task`` hooks — the fail-stop invariant), and at
        coarse loop boundaries otherwise.
        """
        if not self._jbuf:
            return
        buf = self._jbuf
        self._jbuf = []
        if self.ring is not None:
            self.ring.emit("journal_flush", len(buf))
        self.client.journal(buf)
        self.journal_stats.flushes += 1

    def checkpoint_rules(self) -> list[dict]:
        """Snapshot the rule table for a checkpoint.

        Blocked rules record only their still-unresolved inputs; on
        restore, ``take_rules`` re-subscribes and anything closed in the
        restored store resolves immediately."""
        by_id: dict[int, tuple[Rule, list[int]]] = {}
        for td, rules in self.blocked.items():
            for rule in rules:
                by_id.setdefault(rule.id, (rule, []))[1].append(td)
        out = [rule.spec(tds) for rule, tds in by_id.values()]
        return out + [rule.spec([]) for rule in self.ready]

    def _ckpt_reply(self, gen: int) -> None:
        client = self.client
        client.comm.send(
            {
                "op": SOP_CKPT_PART,
                "kind": "engine",
                "gen": gen,
                "rules": self.checkpoint_rules(),
            },
            client.map.master,
            TAG_SERVER,
        )

    def on_close(self, td: int) -> None:
        self.stats.notifications += 1
        if self.tracer is not None:
            self.tracer.emit("notify", td)
        self.closed.add(td)
        self.subscribed.discard(td)
        if self.journal:
            self._jot(("close", td))
        for rule in self.blocked.pop(td, []):
            rule.remaining -= 1
            if rule.remaining == 0:
                self.ready.append(rule)

    def pending_rule_count(self) -> int:
        """Rules registered but not yet fired/released."""
        waiting = list(self.blocked.values())  # a copy: state() may be asking
        blocked = {r.id for rules in waiting for r in rules}
        return len(blocked) + len(self.ready)

    def state(self) -> dict:
        """What this engine holds right now (DESIGN.md, "Live state"):
        its unfired rules and the TDs they wait on, for a hang report;
        what must be zero at quiescence, for the audit.  Another thread
        may call it: plain reads, ``len()`` and C-level copies only."""
        return {
            "role": "engine",
            "rank": self.client.rank,
            "pending_rules": self.pending_rule_count(),
            "blocked_on": sorted(self.blocked)[:8],  # a line, not a dump
            "unflushed_journal": len(self._jbuf),
            "pending_refcounts": len(self.unit.held.deferred),
            "pending_writes": len(self.unit.held.writes),
            "rules_created": self.stats.rules_created,
            "adoptions": self.journal_stats.adoptions,
            "failures": len(self.unit.failures),
        }

    def drain(self) -> None:
        """Fire every ready rule (firing may enqueue more)."""
        faults = self.faults
        while self.ready:
            rule = self.ready.popleft()
            if faults is not None and self.journal:
                # Kill-point ahead: flush so the journal is exact at
                # the instant of death (kills only fire at on_task
                # hooks — the fail-stop invariant).
                self.journal_flush()
            if rule.type == "LOCAL":
                self.stats.rules_fired_local += 1
                # (a failed fire is settled by the runner: the rule is
                # done either way, and the engine stays up)
                self.unit.run("rule", rule.action, rule.id, rule.name)
            else:
                # A release is a rule fire for kill accounting (so
                # seeded engine kills land at deterministic dataflow
                # boundaries), but poison/fail/slow rules apply where
                # the payload executes, not here.
                if faults is not None:
                    directive = faults.on_task(
                        self.client.rank, rule.action, kill_only=True
                    )
                    if directive is not None and directive[0] == "kill":
                        raise RankKilled(self.client.rank, directive[1])
                # The rule's accounting unit transfers to the task; the
                # executing rank decrements after running it.  A WORK
                # task names its inputs: its grant carries the closed ones.
                self.stats.tasks_released += 1
                if self.ring is not None:
                    self.ring.emit("rule_release", rule.id, rule.type, rule.name)
                prov = "R%d.%d" % (self.client.rank, rule.id) if self.tracer is not None else None
                inputs = rule.inputs if rule.type == WORK else ()
                self.client.put(rule.action, rule.type, rule.priority, rule.target, prov, inputs)
            if self.journal:
                self._jot(("done", rule.id))

    def journal_heartbeat(self) -> None:
        """Client-poll hook: flush pending entries or an empty beat.

        Installed as ``client.tick`` so it runs while the engine is
        blocked in ``recv_async``; the anchor refreshes the journal's
        last-heard stamp, which is how a silently-dead *idle* engine
        (holding no lease to sweep) is eventually noticed.
        """
        now = self.client.comm.now()
        last = getattr(self, "_last_beat", 0.0)
        if self._jbuf:
            self.journal_flush()
            self._last_beat = now
        elif now - last >= 0.2:
            self.client.journal([])
            self._last_beat = now

    def _adopt(self, dead: int, rules: list[dict], repair: int) -> None:
        """Adopt a dead engine's journaled rule table.

        One commit re-subscribes to the table's inputs (re-pointing the
        TD close subscriptions at this rank), counts its rules with one
        increment, and then ``repair``s: cancels the units the dead
        engine held (its pending rules, plus its program/restore guard,
        if any; a finished control task gave its own back in its
        commit).  The increment lands first, so the counter never
        touches zero mid-adoption — the dead engine's stale units keep
        it positive until the repair decrement restores the truth.
        """
        self.journal_stats.adoptions += 1
        self.journal_stats.adopted_rules += len(rules)
        if self.ring is not None:
            self.ring.emit("adopt", dead, len(rules), repair)
        self.take_rules(rules, self.client.work(-repair))
        # The adopted rules are journaled as our own creates, so a
        # chained death of this engine is recoverable too.
        self.journal_flush()
        self.drain()

    # ------------------------------------------------------------------ loop

    def serve(
        self,
        initial_script: str | None = None,
        restore: list[dict] | None = None,
    ) -> None:
        """Run the engine event loop until shutdown.

        ``initial_script`` is the program entry point (only the first
        engine rank receives one); other engines only execute CONTROL
        tasks shipped to them.  ``restore`` is this engine's rule table
        from a checkpoint, taken with :meth:`take_rules` while the engine
        holds the one guard unit the restored counter reserved for it,
        released once re-registration is done.
        """
        tracer = self.tracer
        unit = self.unit
        if self.journal and self.faults is not None:
            # Heartbeat: lets the anchor detect a silently-dead idle
            # engine (no lease to sweep) by journal staleness.
            self.client.tick = self.journal_heartbeat
        self.client.park_async((CONTROL,))
        if restore is not None:
            # The restored counter reserved one guard unit for this
            # engine; journal it so an adopter repairs it if we die
            # before releasing it.
            if self.journal:
                self._jot(("guard", 1))
            self.take_rules(restore)
            self.drain()
            self.client.decr_work()  # the restore guard
            if self.journal:
                self._jot(("guard", 0))
        if initial_script is not None:
            self.client.incr_work()
            if self.journal:
                self._jot(("guard", 1))
            # The guard goes back in the program's commit (or, if it
            # raised, per the error policy): jotted before the first
            # rule fire's kill-point, so an adopter does not repair it
            # again.  What dataflow the program set up drains below.
            unit.run("program", initial_script)
            if self.journal:
                self._jot(("guard", 0))
        while True:
            self.drain()
            if self.journal:
                # Coarse boundary: everything since the last kill-point
                # lands before the engine blocks, so the buffer is
                # empty when the next message's kill-check runs.
                self.journal_flush()
            # Time blocked here with no ready rules is a dataflow stall:
            # the engine is waiting on close notifications or control work.
            if tracer is None:
                msg = self.client.recv_async()
            else:
                t0 = time.perf_counter()
                msg = self.client.recv_async()
                tracer.emit("stall", msg[0], t0=t0)
            kind = msg[0]
            if kind == "notify":
                self.on_close(msg[1])
            elif kind == "ctask":
                self.stats.control_tasks_run += 1
                # Leased like worker tasks, so a failed one may have
                # been handed back for retry; either way the engine
                # re-parks and keeps serving its registered rules.
                if unit.run("ctask", msg[2]) and self.journal:
                    # The ctask's effects (rule creates, its counter
                    # unit) are committed and journaled; flag it done so
                    # the anchor will not requeue the lease — requeueing
                    # would re-create every rule.  The flag must land
                    # before the park's lease pop clears it.
                    self._jot(("ctask_done",))
                    self.journal_flush()
                # The next GET is what completes this unit's lease.
                # Parked before the rules the unit readied fire (at the
                # loop's top): the next control task is then asked for
                # before they release any work.
                self.client.park_async((CONTROL,))
            elif kind == "ckpt":
                self._ckpt_reply(msg[1])
            elif kind == "adopt":
                self._adopt(msg[1], msg[2], msg[3])
            elif kind == "shutdown":
                break
            else:
                raise RuntimeError("engine: unexpected async message %r" % (msg,))
