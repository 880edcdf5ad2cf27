"""The server's reliable-RPC dedup table.

A reliable client stamps every request with a sequence number; the
server caches the reply so a re-sent request (resend timer, failover)
is answered from the cache instead of being executed twice.  One
client drives three *channels* that interleave — a parked engine keeps
issuing plain RPCs, and a worker's split GET stays outstanding across
its ``decr_work`` — so the table is keyed by ``(client, channel)``: a
reply on one channel never evicts one another channel still awaits.
"""

from __future__ import annotations

from typing import Any

from . import constants as C

#: cached-reply marker: the request is parked, there is no reply to resend
PARKED = "__parked__"

CHANNELS = ("rpc", "get", "async")

#: ops whose replies need no cross-server dedup replication: replaying
#: them after a failover cannot corrupt state (GETs are dedup'd through
#: the grant path instead).
REPLAY_SAFE_OPS = {
    C.OP_RETRIEVE,
    C.OP_EXISTS,
    C.OP_TYPEOF,
    C.OP_ENUMERATE,
    C.OP_GET,
    C.OP_GET_ASYNC,
}


def channel_of(op: str) -> str:
    """The dedup channel a client request travels on."""
    if op == C.OP_GET_ASYNC:
        return "async"
    return "get" if op == C.OP_GET else "rpc"


class DedupTable:
    """``(client, channel) -> (seq, (tag, payload))``; ``payload`` may
    be :data:`PARKED`."""

    def __init__(self, slots: dict | None = None) -> None:
        self.slots: dict[tuple[int, str], tuple[int, tuple[int, Any]]] = dict(
            slots or {}
        )

    def offer(
        self, client: int, channel: str, seq: int, reply: tuple, ties: bool
    ) -> None:
        """Shadow side (the owner just assigns ``slots``): keep the
        higher sequence; on ``ties`` an equal one replaces the held
        entry (op-log replay: the later entry wins) or not (promotion:
        the heir's own entry is newer than the replica's)."""
        cur = self.slots.get((client, channel))
        if cur is None or seq > cur[0] or (ties and seq == cur[0]):
            self.slots[client, channel] = (seq, reply)

    def merge(self, other: "DedupTable") -> None:
        """Promotion: fold a dead ward's replicated slots into ours."""
        for (client, channel), (seq, reply) in other.slots.items():
            self.offer(client, channel, seq, reply, ties=False)

    def counts(self) -> dict[str, int]:
        """Slots per channel (each bounded by the client count)."""
        out = dict.fromkeys(CHANNELS, 0)
        for _, channel in list(self.slots):  # a copy: another thread may ask
            out[channel] += 1
        return out
