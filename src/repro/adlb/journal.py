"""Engine rule-table journaling and adoption (``journal=True``).

Each engine streams its rule-lifecycle entries to its anchor server
(``OP_JOURNAL``); the anchor keeps one :class:`RuleJournal` mirror per
engine and folds the entries into its replication op-log.  When an
engine dies, :class:`Journals` replays the mirror into the rules the
engine still held and ships them — with the termination-counter repair
— to a surviving engine.
"""

from __future__ import annotations

import copy
from typing import Any

from ..faults import EngineLost
from . import constants as C


class RuleJournal:
    """Server-side mirror of one engine's pending rule table.

    Built from the engine's streamed rule-lifecycle entries; at engine
    death :meth:`pending` yields exactly the rules the dead engine had
    registered but not yet fired/released (checkpoint-rule format, so
    an adopter replays them through ``take_rules``).  ``guard`` is the
    program/restore guard unit the engine holds, ``ctask_done`` marks a
    control task whose effects are journaled but whose lease has not
    been returned yet: its lease must not requeue, and its counter unit
    is not owed (it went back in the task's commit).
    """

    __slots__ = ("rules", "guard", "ctask_done")

    def __init__(self) -> None:
        self.rules: dict[int, dict] = {}  # rule id -> {inputs: set, ...}
        self.guard = 0
        self.ctask_done = False

    def apply(self, entries: list) -> None:
        for entry in entries:
            kind = entry[0]
            if kind == "create":
                rule = dict(entry[1])
                rule["inputs"] = set(rule["inputs"])
                self.rules[rule["id"]] = rule
            elif kind == "close":
                td = entry[1]
                for rule in self.rules.values():
                    rule["inputs"].discard(td)
            elif kind == "done":
                self.rules.pop(entry[1], None)
            elif kind == "guard":
                self.guard = entry[1]
            elif kind == "ctask_done":
                self.ctask_done = True
            elif kind == "ctask_clear":
                self.ctask_done = False
            else:
                raise RuntimeError("unknown journal entry %r" % (kind,))

    def pending(self) -> list[dict]:
        """Pending rules in checkpoint-rule format for adoption replay."""
        return [
            {
                "inputs": sorted(rule["inputs"]),
                "action": rule["action"],
                "type": rule["type"],
                "target": rule["target"],
                "priority": rule["priority"],
                "name": rule["name"],
            }
            for rule in self.rules.values()
        ]


class Journals:
    """The journal mirrors of the engines anchored at one server."""

    def __init__(self, core: Any, stale_after: float) -> None:
        self.core = core
        # engine rank -> its journaled rule table (this server is the
        # engine's anchor; entries ride the op-log to the buddy too).
        self.table: dict[int, RuleJournal] = {}
        # A silent engine is presumed dead after this long — the same
        # budget a slow worker's lease gets.
        self.stale_after = stale_after
        # engine rank -> when it last flushed or beat, by comm.now()
        self.last_heard: dict[int, float] = {}
        self._settle_by: float | None = None  # see settled()
        core.ops[C.OP_JOURNAL] = self.op_journal

    def op_journal(self, msg: dict, source: int) -> None:
        """Engine rule-lifecycle journal (empty = pure heartbeat)."""
        rank = msg.get("rank", source)
        self.table.setdefault(rank, RuleJournal()).apply(msg["entries"])
        self.last_heard[rank] = self.core.comm.now()
        if msg["entries"]:
            core = self.core
            if core.ring is not None:
                core.ring.emit("journal", len(msg["entries"]), rank)
            core.log(("journal", rank, msg["entries"]))

    def lease_returned(self, client: int) -> None:
        """The client's leased control task is fully accounted by the
        engine now; a later engine death must not take its flag for the
        next lease's and skip requeueing that one."""
        jr = self.table.get(client)
        if jr is not None and jr.ctask_done:
            jr.ctask_done = False
            self.core.log(("journal", client, [("ctask_clear",)]))

    def engine_dead(self, rank: int, reason: str) -> bool:
        """Adopt a dead engine's rules; runs on every server.

        Returns True when the dead engine's journal shows its leased
        control task completed (so the caller must not requeue it).
        Only the engine's anchor server performs the adoption: it
        replays the journal into pending rules and ships them — plus
        the termination-counter repair — to the lowest surviving
        engine on the async channel.
        """
        core = self.core
        if core.map.my_server(rank) != core.rank:
            return False
        jr = self.table.pop(rank, None)
        if jr is None:
            # Never journaled: the fail-stop invariant says it held
            # nothing (first flush precedes the first kill-point).
            return False
        core.log(("journal_clear", rank))
        rules = jr.pending()
        repair = len(rules) + jr.guard
        adopter = next(
            (
                e
                for e in core.layout.engines
                if e != rank and e not in core.dead_ranks
            ),
            None,
        )
        if adopter is None:
            if rules or repair:
                raise EngineLost(
                    rank,
                    reason + "; no surviving engine to adopt",
                    rules_pending=len(rules),
                    journaled=True,
                )
            return jr.ctask_done
        if core.ring is not None:
            core.ring.emit(
                "engine_adopt",
                rank,
                adopter,
                len(rules),
                {"repair": repair} if core.tracer is not None else None,
            )
        core.comm.send(("adopt", rank, rules, repair), adopter, C.TAG_ASYNC)
        return jr.ctask_done

    def tick(self) -> None:
        """Detect a silently-dead engine via journal-heartbeat loss.

        A kill-notified engine death arrives as SOP_RANK_DEAD; a
        *silent* kill models an abrupt crash, so the only signal is
        that the engine's journal flushes/heartbeats stop.  Engines
        beat only on runs with a fault plan: without one there is
        nothing to watch.
        """
        core = self.core
        if core.faults is None:
            return
        now = core.comm.now()
        for rank in list(self.table):
            if rank in core.dead_ranks:
                continue
            silent = now - self.last_heard[rank]
            if silent > self.stale_after:
                reason = "journal heartbeat lost for %.1fs" % silent
                for s in core.other_servers:
                    core.comm.send(
                        {"op": C.SOP_RANK_DEAD, "rank": rank, "reason": reason},
                        s,
                        C.TAG_SERVER,
                    )
                core.leases.rank_dead(rank, reason)

    def settled(self) -> bool:
        """No in-flight journal flush is left to wait for (a clause of
        ``Server._done``, asked once every client has been released).

        An engine's final ``done`` entry is flushed *after* the
        ``decr_work`` that zeroes the termination counter (the jot is
        buffered in ``drain()``; the flush lands at the next loop
        boundary), and parked clients are acked without a round trip —
        so the server could finish its loop while that last
        ``OP_JOURNAL`` oneway is still in its mailbox or on the wire.
        The engine is guaranteed to send it before blocking, so a
        short bounded stay in the loop makes the mirrors exact for the
        terminal audit; a live engine's mirror that *stays* pending past
        the bound is a real leak and is left for the audit to flag.
        """
        core = self.core
        if not any(
            journal.rules
            for engine, journal in self.table.items()
            if engine not in core.dead_ranks
        ):
            return True
        now = core.comm.now()
        if self._settle_by is None:
            self._settle_by = now + 1.0
        return now >= self._settle_by

    # -- replica slice, state --------------------------------------------------

    def image(self) -> dict[int, RuleJournal]:
        return copy.deepcopy(self.table)

    def absorb(self, journals: dict[int, RuleJournal]) -> None:
        """Promotion: journals anchored at the dead server now live
        here.  The replica image merges first; flushes stranded in the
        dead server's mailbox are re-applied by the scavenge, and the
        engine only re-aims new flushes at this heir after it learns of
        the failover — so entry order holds."""
        now = self.core.comm.now()
        for rank, journal in journals.items():
            self.table.setdefault(rank, journal)
            # The engine's budget of silence restarts at its new anchor.
            self.last_heard.setdefault(rank, now)

    def state(self) -> dict:
        """This server's slice of ``Server.state``: rules pending per
        mirror; the mirrors holding a guard / an unreturned done ctask."""
        table = sorted(self.table.copy().items())
        return {
            "journal_pending": {engine: len(j.rules) for engine, j in table},
            "journal_guard": [engine for engine, j in table if j.guard],
            "journal_ctask_done": [engine for engine, j in table if j.ctask_done],
        }
