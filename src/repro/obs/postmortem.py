"""Offline forensics over ``blackbox-*.json`` flight-recorder artifacts.

``repro postmortem <blackbox.json>`` answers the question a crashed
distributed run always raises: *what was each rank doing, and what was
the last thing the dead rank heard?*  The black box (the level-0 view
of the event spine, :mod:`repro.obs.spine`, captured on every failure
path) holds one bounded event ring per rank, stamped with Lamport
clocks that were piggybacked on every MPI envelope.  Sorting the
merged rings by ``(lamport, t, rank)`` yields a timeline that never
places a receive before its send, so the tool can walk cross-rank
message edges without any wall-clock trust between threads.

The report has four parts:

* a header (failure reason, roles, blamed ranks);
* the merged causally-ordered timeline, trimmed to the last N events
  per rank;
* the *causal frontier*: for every blamed/quiet rank, its final event
  plus the last send edge into it from every peer, each marked
  ``delivered`` (a matching recv exists in the dead rank's ring) or
  ``in flight`` (sent but never received — the smoking gun for a rank
  that died mid-conversation);
* the captured state line of every rank and the live-rank stacks.

The event vocabulary — what each ``kind`` means and what its ``a`` /
``b`` / ``c`` columns hold — is :data:`repro.obs.spine.KINDS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .spine import ABC, BLACKBOX_FORMAT, KINDS

#: MPI tag numbers -> short names (the TAG_* of repro/adlb/constants.py).
TAG_NAMES = {10: "req", 11: "resp", 12: "oneway", 13: "async", 14: "server"}

#: Default per-rank tail length in the rendered timeline.
DEFAULT_LAST = 12


@dataclass(frozen=True)
class BoxEvent:
    """One decoded ring slot, tagged with its rank."""

    rank: int
    lam: int
    t: float
    kind: str
    a: Any
    b: Any
    c: Any


def load_blackbox(source: str | dict) -> dict:
    """Load and validate a black-box artifact (path or already-parsed dict)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            box = json.load(f)
    else:
        box = source
    fmt = box.get("format") if isinstance(box, dict) else None
    if fmt != BLACKBOX_FORMAT:
        raise ValueError(
            "not a %s artifact (format=%r)" % (BLACKBOX_FORMAT, fmt)
        )
    return box


def merged_timeline(box: dict, last: int | None = None) -> list[BoxEvent]:
    """Merge every rank's ring into one causally-ordered event list.

    ``last`` trims each rank's ring to its final N events before the
    merge (the full rings are already bounded, but reports want the
    tail).  The sort key ``(lam, t, rank)`` is the whole point of the
    Lamport stamping: a recv's clock is always strictly greater than
    the matching send's, so cross-rank edges render in causal order.
    """
    events: list[BoxEvent] = []
    for rank, ring in enumerate(box.get("rings", [])):
        rows = ring.get("events", [])
        if last is not None:
            rows = rows[-last:]
        for lam, t, kind, a, b, c in rows:
            events.append(BoxEvent(rank, lam, t, kind, a, b, c))
    events.sort(key=lambda e: (e.lam, e.t, e.rank))
    return events


def causal_frontier(box: dict) -> dict[int, dict]:
    """Per-rank frontier: last event + last message edges into the rank.

    For each rank the result holds ``last`` (its final :class:`BoxEvent`
    or None for an empty ring) and ``inbound``: for every peer that sent
    to it, the peer's final send edge as a dict with ``src``, ``lam``,
    ``tag``, ``size`` and ``delivered`` (True when the target's ring
    contains a recv acknowledging a clock >= that send's).
    """
    rings = box.get("rings", [])
    per_rank: dict[int, list[BoxEvent]] = {
        r: [BoxEvent(r, *row) for row in ring.get("events", [])]
        for r, ring in enumerate(rings)
    }
    # Highest sender-clock each rank has acknowledged, per source rank.
    seen_from: dict[int, dict[int, int]] = {r: {} for r in per_rank}
    for r, events in per_rank.items():
        for e in events:
            if e.kind == "recv":
                src, clk = e.a, e.c
                if clk > seen_from[r].get(src, -1):
                    seen_from[r][src] = clk
    frontier: dict[int, dict] = {}
    for r, events in per_rank.items():
        inbound: dict[int, dict] = {}
        for src, src_events in per_rank.items():
            if src == r:
                continue
            for e in reversed(src_events):
                if e.kind == "send" and e.a == r:
                    inbound[src] = {
                        "src": src,
                        "lam": e.lam,
                        "tag": e.b,
                        "size": e.c,
                        "delivered": seen_from[r].get(src, -1) >= e.lam,
                    }
                    break
        frontier[r] = {
            "last": events[-1] if events else None,
            "inbound": [inbound[s] for s in sorted(inbound)],
        }
    return frontier


# --------------------------------------------------------------- rendering


def _role(roles, rank: int) -> str:
    if roles and 0 <= rank < len(roles):
        return roles[rank]
    return "?"


def _bytes(size) -> str:
    """A send's size, which only a traced run weighs."""
    return "" if size is None else " %sB" % size


def _fmt_event(e: BoxEvent) -> str:
    if e.kind == "send":
        return "send -> %d %s%s" % (e.a, TAG_NAMES.get(e.b, e.b), _bytes(e.c))
    if e.kind == "recv":
        return "recv <- %d %s (saw c=%s)" % (
            e.a,
            TAG_NAMES.get(e.b, e.b),
            e.c,
        )
    fields = KINDS[e.kind][3] if e.kind in KINDS else ABC
    return " ".join(
        [e.kind]
        + ["%s=%s" % (f, v) for f, v in zip(fields, (e.a, e.b, e.c)) if v is not None]
    )


def render_postmortem(box: dict, last: int = DEFAULT_LAST) -> str:
    """Render the full post-mortem report for one black-box artifact."""
    roles = box.get("roles")
    failed = set(box.get("failed_ranks") or [])
    lines: list[str] = []
    lines.append("post-mortem: %s" % box.get("reason", "?"))
    if box.get("detail"):
        lines.append("  detail: %s" % box["detail"])
    lines.append(
        "  ranks: %d   ring capacity: %d" % (box.get("size", 0), box.get("capacity", 0))
    )
    if roles:
        lines.append(
            "  roles: %s" % " ".join("%d=%s" % (r, n) for r, n in enumerate(roles))
        )
    if failed:
        lines.append(
            "  failed ranks: %s"
            % ", ".join(
                "%d (%s)" % (r, _role(roles, r)) for r in sorted(failed)
            )
        )
    dropped = [
        (r, ring.get("dropped", 0))
        for r, ring in enumerate(box.get("rings", []))
        if ring.get("dropped")
    ]
    if dropped:
        lines.append(
            "  ring wrap: %s"
            % ", ".join("rank %d dropped %d" % rd for rd in dropped)
        )

    lines.append("")
    lines.append("causal timeline (last %d events per rank, merged):" % last)
    lines.append(
        "  %7s %9s %4s %-8s %s" % ("lam", "t(s)", "rank", "role", "event")
    )
    for e in merged_timeline(box, last=last):
        marker = "*" if e.rank in failed else " "
        lines.append(
            " %s%7d %9.4f %4d %-8s %s"
            % (marker, e.lam, e.t, e.rank, _role(roles, e.rank), _fmt_event(e))
        )
    if failed:
        lines.append("  (* = event on a failed rank)")

    frontier = causal_frontier(box)
    lines.append("")
    lines.append("causal frontier:")
    order = sorted(failed) + [r for r in sorted(frontier) if r not in failed]
    for r in order:
        info = frontier.get(r)
        if info is None:
            continue
        tag = " FAILED" if r in failed else ""
        e = info["last"]
        if e is None:
            lines.append("  rank %d (%s)%s: no recorded events" % (r, _role(roles, r), tag))
            continue
        lines.append(
            "  rank %d (%s)%s: last event lam=%d t=%.4f %s"
            % (r, _role(roles, r), tag, e.lam, e.t, _fmt_event(e))
        )
        if r in failed:
            for edge in info["inbound"]:
                status = (
                    "delivered"
                    if edge["delivered"]
                    else "NOT received (in flight when the rank went quiet)"
                )
                lines.append(
                    "    %d -> %d send lam=%d tag=%s%s — %s"
                    % (
                        edge["src"],
                        r,
                        edge["lam"],
                        TAG_NAMES.get(edge["tag"], edge["tag"]),
                        _bytes(edge["size"]),
                        status,
                    )
                )

    diags = box.get("diagnostics") or {}
    if diags:
        lines.append("")
        lines.append("rank state at capture:")
        for r in sorted(diags, key=int):
            lines.append("  rank %s: %s" % (r, diags[r]))

    stacks = box.get("stacks") or {}
    if stacks:
        lines.append("")
        lines.append("stacks of ranks alive at capture:")
        for r in sorted(stacks, key=int):
            lines.append("  rank %s (%s):" % (r, _role(roles, int(r))))
            for sl in stacks[r].splitlines():
                lines.append("    " + sl)
    return "\n".join(lines)
