"""Checkpoint images: atomic write, validation, and restore planning.

A checkpoint is a single pickle produced by the master server's
two-phase snapshot protocol (:class:`Checkpointer`): per-server shard
images (data store + pending tasks) plus per-engine rule tables.
``repro run --restore <ckpt>`` replays one into a fresh world of the
same shape.

Restore semantics are at-least-once: units that were in flight at the
snapshot re-run, and the restored termination counter is reconstructed
as ``total captured tasks + one guard per engine`` — each engine holds
its guard while re-registering rules (one commit for its whole table:
their subscribes and one increment) and releases it when done, so the
counter balances regardless of how many rules re-fire immediately.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from dataclasses import dataclass
from typing import Any

from . import constants as C
from .layout import Layout
from .workqueue import Task


class CheckpointError(RuntimeError):
    pass


def write_checkpoint(path: str, image: dict) -> None:
    """Write atomically (tmp + rename) so a crash mid-write can never
    leave a truncated checkpoint behind."""
    # Subscribers are rank-level rule subscriptions; the rules re-create
    # them at restore, and stale ones would double-notify.  Pending
    # container store-throughs (member_refs) stay: nothing re-creates
    # those.
    for shard in image.get("servers", {}).values():
        for td in shard["store"].values():
            td["subscribers"] = []
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump(image, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def read_checkpoint(path: str) -> dict:
    if not os.path.exists(path):
        raise CheckpointError("checkpoint %r does not exist" % path)
    with open(path, "rb") as f:
        image = pickle.load(f)
    if not isinstance(image, dict) or image.get("version") != 1:
        raise CheckpointError("%r is not a v1 repro checkpoint" % path)
    return image


def restore_plan(image: dict, layout: Layout) -> dict[str, Any]:
    """Turn a checkpoint image into per-rank restore material.

    Returns ``{"server_shards": {rank: shard}, "engine_rules":
    {rank: [rule, ...]}}``.  The new world must have the same shape as
    the checkpointed one — shard ownership and rule placement are
    rank-keyed.
    """
    for key, have in (
        ("size", layout.size),
        ("n_servers", layout.n_servers),
        ("n_engines", len(layout.engines)),
    ):
        want = image[key]
        if want != have:
            raise CheckpointError(
                "checkpoint was taken with %s=%d; this run has %s=%d "
                "(restore requires an identically-shaped world)"
                % (key, want, key, have)
            )
    total_tasks = 0
    server_shards: dict[int, dict] = {}
    for rank, shard in image["servers"].items():
        tasks = [Task(**d) for d in shard["tasks"]]
        total_tasks += len(tasks)
        server_shards[rank] = {
            "store": shard["store"],
            "tasks": tasks,
            "next_id": shard["next_id"],
            "work_count": None,
        }
    master = server_shards.setdefault(
        layout.master_server,
        {"store": {}, "tasks": [], "next_id": None, "work_count": None},
    )
    # Captured tasks plus one guard per engine; see module docstring.
    master["work_count"] = total_tasks + len(layout.engines)
    return {
        "server_shards": server_shards,
        "engine_rules": dict(image.get("engines", {})),
    }


def load_shard(server: Any, shard: dict) -> None:
    """Adopt a checkpoint shard into a fresh server (``repro run --restore``)."""
    server.store.load_snapshot(shard["store"])
    for task in shard.get("tasks", ()):
        server.accept_task(task)
    if shard.get("next_id") is not None:
        server.next_id = shard["next_id"]
    if shard.get("work_count") is not None:
        server.work_count = shard["work_count"]
        server.work_started = True


@dataclass
class CkptStats:
    """Checkpoint counters, registered as ``adlb.ckpt.*``."""

    written: int = 0
    abandoned: int = 0
    units_captured: int = 0


class Checkpointer:
    """Master-driven periodic consistent snapshot (``checkpoint_path``).

    Two phases: engines first snapshot their rule tables (counting
    any put they already issued), then every server drains its
    mailbox — capturing those in-flight puts — and snapshots its
    shard.  The ordering closes the consistency window: a put an
    engine counted is in some server's mailbox before that server
    drains."""

    def __init__(self, core: Any, path: str, interval: float | None) -> None:
        self.core = core
        self.path = path
        self.interval = interval or 0.5
        self.stats = core.comm.metrics.register(
            "adlb.ckpt", CkptStats(), core.rank
        )
        self._gen = 0
        self._phase: str | None = None
        self._started = 0.0
        self._parts: dict[tuple[str, int], dict] = {}
        self._waiting: set[int] = set()
        self._last = core.comm.now()
        core.ops[C.SOP_CKPT_REQ] = self.op_req
        core.ops[C.SOP_CKPT_PART] = self.op_part

    def tick(self) -> None:
        core = self.core
        if (
            not core.is_master
            or core.shutting_down
            or not core.work_started
            or core.work_count <= 0
        ):
            return
        now = core.comm.now()
        if self._phase is not None:
            if now - self._started > 10.0:
                self.stats.abandoned += 1
                self._phase = None
            return
        if now - self._last < self.interval:
            return
        self._gen += 1
        self._phase = "engines"
        self._started = now
        self._parts = {}
        self._waiting = {
            r for r in core.layout.engines if r not in core.dead_ranks
        }
        if not self._waiting:
            self._engines_done()
            return
        for r in self._waiting:
            core.comm.send(("ckpt", self._gen), r, C.TAG_ASYNC)

    def op_req(self, msg: dict, source: int) -> None:
        # Drain already-deposited messages first so in-flight puts
        # land in the snapshot (the master's request was sent after
        # every engine contributed, so anything an engine counted is
        # already in our mailbox).
        while self.core.pump(timeout=0):
            pass
        part = dict(self._server_part(), op=C.SOP_CKPT_PART, gen=msg["gen"])
        self.core.comm.send(part, source, C.TAG_SERVER)

    def op_part(self, msg: dict, source: int) -> None:
        if msg.get("gen") != self._gen or self._phase is None:
            return  # straggler from an abandoned generation
        self._parts[(msg["kind"], source)] = msg
        self._waiting.discard(source)
        self._advance()

    def rank_dead(self, rank: int) -> None:
        """A checkpoint round must not stall 10s waiting on a corpse."""
        if self._phase is not None and rank in self._waiting:
            self._waiting.discard(rank)
            self._advance()

    def _advance(self) -> None:
        if self._waiting:
            return
        if self._phase == "engines":
            self._engines_done()
        else:
            self._write()

    def _engines_done(self) -> None:
        core = self.core
        self._phase = "servers"
        while core.pump(timeout=0):  # as in op_req: in-flight puts land first
            pass
        self._parts[("server", core.rank)] = self._server_part()
        others = core.other_servers
        self._waiting = set(others)
        if not others:
            self._write()
            return
        for s in others:
            core.comm.send(
                {"op": C.SOP_CKPT_REQ, "gen": self._gen}, s, C.TAG_SERVER
            )

    def _server_part(self) -> dict:
        core = self.core
        tasks = core.queue.all_tasks() + core.leases.unfinished()
        return {
            "kind": "server",
            "rank": core.rank,
            "store": core.store.snapshot(),
            "tasks": [dataclasses.asdict(t) for t in tasks],
            "next_id": core.next_id,
        }

    def _write(self) -> None:
        core = self.core
        servers = {
            rank: {k: part[k] for k in ("store", "tasks", "next_id")}
            for (kind, rank), part in self._parts.items()
            if kind == "server"
        }
        units = sum(len(shard["tasks"]) for shard in servers.values())
        engines = {
            rank: part["rules"]
            for (kind, rank), part in self._parts.items()
            if kind == "engine"
        }
        image = {
            "version": 1,
            "gen": self._gen,
            "size": core.layout.size,
            "n_servers": core.layout.n_servers,
            "n_engines": len(core.layout.engines),
            "work_count": core.work_count,
            "servers": servers,
            "engines": engines,
        }
        write_checkpoint(self.path, image)
        self.stats.written += 1
        self.stats.units_captured = units
        self._last = core.comm.now()
        self._phase = None
        if core.tracer is not None:
            core.tracer.emit("checkpoint", self._gen, units)
