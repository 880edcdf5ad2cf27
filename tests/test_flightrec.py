"""Level 0 of the event spine: black-box capture and post-mortem forensics.

Covers the always-on recorder end to end: ring mechanics (wrap, Lamport
clocks, the level-0 view), black-box capture on every failure class,
``repro postmortem`` rendering (including the acceptance scenario: a
seeded engine kill with journaling off must yield a causally-ordered
cross-rank timeline naming the dead rank and the last message edges
into it), the recorder-off path, and the observability satellites
(Chrome flow events, monitor samples on short runs, latency
percentiles).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import (
    DeadlineExceeded,
    EngineLost,
    FaultPlan,
    TaskError,
    swift_run,
)
from repro.cli import main as cli_main
from repro.obs import (
    Recorder,
    Trace,
    load_blackbox,
    render_postmortem,
    write_blackbox,
)
from repro.obs.postmortem import causal_frontier, merged_timeline
from repro.obs.spine import BLACKBOX_FORMAT, LEVEL0_CAPACITY

SEED = int(os.environ.get("FAULT_SEED", "0"))

FANOUT = """
foreach i in [0:9] {
    string s = python(strcat("x=", fromint(i)), "x");
    trace(s);
}
"""

# With engines=2 the program runs on engine rank 0 (see
# test_engine_failover for the role layout).
PROGRAM_ENGINE = 0


def engine_kill_failure() -> EngineLost:
    """The acceptance scenario: seeded engine kill, journaling off."""
    with pytest.raises(EngineLost, match="journaling is disabled") as info:
        swift_run(
            FANOUT,
            opt=0,  # the kill point counts LOCAL rule fires: -O1 leaves none
            workers=2,
            servers=1,
            engines=2,
            journal=False,
            faults=FaultPlan(seed=SEED).kill_rank(PROGRAM_ENGINE, after_tasks=3),
        )
    return info.value


class TestRing:
    def test_wrap_keeps_newest_events(self):
        rec = Recorder(capacity=4)
        for k in range(10):
            rec.ring(0).emit("tick", k)
        (ring,) = rec.snapshot(1)
        assert ring["dropped"] == 6
        assert ring["clock"] == 10
        # Oldest-first decode of the surviving tail, Lamport-monotone.
        assert [e[3] for e in ring["events"]] == [6, 7, 8, 9]
        assert [e[0] for e in ring["events"]] == [7, 8, 9, 10]

    def test_recv_clock_merges_past_sender(self):
        rec = Recorder()
        for _ in range(5):
            rec.ring(0).emit("tick")  # rank 0's clock races ahead
        sent = rec.ring(0).emit("send", 1, 11, 64)
        got = rec.ring(1).emit("recv", 0, 11, sent, seen=sent)
        assert got > sent  # a recv is strictly after its send
        assert rec.ring(1).clock == got

    def test_black_box_is_the_level_0_view(self):
        """On a traced run the ring also holds level-1 events; the black
        box keeps the level-0 rows, bounded, in the v1 row shape."""
        rec = Recorder(level=1, capacity=1 << 16)
        ring = rec.ring(0)
        for k in range(LEVEL0_CAPACITY + 40):
            ring.emit("notify", k)  # level 1
            ring.emit("rule_fire", k, payload={"detail": k})
        box = rec.blackbox(1, reason="test")
        assert box["format"] == BLACKBOX_FORMAT
        assert box["capacity"] == LEVEL0_CAPACITY
        rows = box["rings"][0]["events"]
        assert len(rows) == LEVEL0_CAPACITY
        assert {row[2] for row in rows} == {"rule_fire"}
        assert all(len(row) == 6 for row in rows)
        assert rows[-1][3] == LEVEL0_CAPACITY + 39
        assert box["rings"][0]["dropped"] == 0  # nothing wrapped
        json.dumps(box)


class TestBlackboxCapture:
    def test_engine_lost_carries_blackbox(self):
        e = engine_kill_failure()
        box = e.blackbox
        assert box is not None and box["format"] == BLACKBOX_FORMAT
        assert box["reason"] == "EngineLost"
        assert box["failed_ranks"] == [PROGRAM_ENGINE]
        assert box["roles"][PROGRAM_ENGINE] == "engine"
        assert any(r["events"] for r in box["rings"])

    def test_lamport_clocks_monotone_across_kill(self):
        box = engine_kill_failure().blackbox
        for ring in box["rings"]:
            lams = [ev[0] for ev in ring["events"]]
            # Strictly increasing within a rank: every event advanced
            # the clock, even while ranks were being killed.
            assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_merged_timeline_never_puts_recv_before_send(self):
        box = engine_kill_failure().blackbox
        events = merged_timeline(box)
        assert events == sorted(events, key=lambda e: (e.lam, e.t, e.rank))
        # For every recv, a send with the acknowledged clock sorts
        # earlier (same-tag send from the claimed source).
        pos = {id(e): i for i, e in enumerate(events)}
        for e in events:
            if e.kind != "recv" or not e.c:
                continue
            matches = [
                s
                for s in events
                if s.kind == "send" and s.rank == e.a and s.lam == e.c
            ]
            for s in matches:
                assert pos[id(s)] < pos[id(e)]

    def test_task_error_carries_blackbox(self):
        with pytest.raises(TaskError) as info:
            swift_run(
                FANOUT,
                workers=2,
                max_retries=1,
                faults=FaultPlan(seed=SEED).fail_task("python", times=1000),
            )
        box = info.value.blackbox
        assert box is not None and box["reason"] == "TaskError"

    def test_deadline_exceeded_carries_blackbox(self):
        with pytest.raises(DeadlineExceeded) as info:
            swift_run(
                FANOUT,
                workers=2,
                deadline=1.5,
                recv_timeout=30.0,
                faults=FaultPlan(seed=SEED).drop_messages(tag=13, times=100),
            )
        box = info.value.blackbox
        assert box is not None and box["reason"] == "DeadlineExceeded"
        # The deadline path captures stacks of the still-stuck ranks.
        assert isinstance(box["stacks"], dict)

    def test_completed_run_with_failures_keeps_blackbox(self):
        res = swift_run(
            FANOUT,
            workers=2,
            on_error="continue",
            faults=FaultPlan(seed=SEED).fail_task("python", times=2),
        )
        assert not res.ok and res.blackbox is not None
        assert res.blackbox["reason"] == "task-failures"

    def test_blackbox_dir_writes_artifact(self, tmp_path):
        with pytest.raises(EngineLost) as info:
            swift_run(
                FANOUT,
                opt=0,  # same scenario as engine_kill_failure
                workers=2,
                servers=1,
                engines=2,
                journal=False,
                blackbox_dir=str(tmp_path),
                faults=FaultPlan(seed=SEED).kill_rank(
                    PROGRAM_ENGINE, after_tasks=3
                ),
            )
        path = info.value.blackbox_path
        assert path is not None and os.path.exists(path)
        assert os.path.basename(path).startswith("blackbox-enginelost-")
        assert load_blackbox(path)["reason"] == "EngineLost"


class TestRecorderOff:
    def test_failure_without_recorder_has_no_blackbox(self):
        with pytest.raises(EngineLost) as info:
            swift_run(
                FANOUT,
                opt=0,  # same scenario as engine_kill_failure
                workers=2,
                servers=1,
                engines=2,
                journal=False,
                flightrec=False,
                faults=FaultPlan(seed=SEED).kill_rank(
                    PROGRAM_ENGINE, after_tasks=3
                ),
            )
        assert getattr(info.value, "blackbox", None) is None

    def test_success_without_recorder_is_unchanged(self):
        res = swift_run(FANOUT, workers=2, flightrec=False)
        assert sorted(res.stdout_lines) == sorted(
            "trace: %d" % i for i in range(10)
        )
        assert res.blackbox is None and res.blackbox_path is None


class TestPostmortem:
    def test_acceptance_engine_kill_timeline(self):
        """Seeded engine kill + journal off: the post-mortem must name
        the dead rank and the last message edges into it."""
        box = engine_kill_failure().blackbox
        report = render_postmortem(box)
        assert "post-mortem: EngineLost" in report
        assert "failed ranks: 0 (engine)" in report
        assert "causal timeline" in report
        assert "causal frontier:" in report
        assert "rank 0 (engine) FAILED: last event" in report
        # Last message edges into the dead rank, each with a verdict.
        assert "-> 0 send lam=" in report
        assert ("delivered" in report) or ("NOT received" in report)
        # Every rank alive at capture has a state line (the dead engine
        # has none): the other engine, both workers, the server.
        assert "rank state at capture:" in report
        assert sorted(box["diagnostics"]) == ["1", "2", "3", "4"]
        assert box["diagnostics"]["1"].startswith("engine")
        assert "  rank 4: server is_master=True" in report

    def test_tag_names_are_the_adlb_tag_numbers(self):
        from repro.adlb import constants as C
        from repro.obs.postmortem import TAG_NAMES

        assert TAG_NAMES == {
            C.TAG_REQUEST: "req",
            C.TAG_RESPONSE: "resp",
            C.TAG_ONEWAY: "oneway",
            C.TAG_ASYNC: "async",
            C.TAG_SERVER: "server",
        }

    def test_frontier_marks_in_flight_sends(self):
        box = {
            "format": BLACKBOX_FORMAT,
            "reason": "test",
            "size": 2,
            "capacity": 8,
            "rings": [
                # rank 0 sent twice to rank 1; only the first arrived.
                {
                    "events": [
                        [1, 0.0, "send", 1, 11, 10],
                        [2, 0.1, "send", 1, 11, 20],
                    ],
                    "dropped": 0,
                    "clock": 2,
                },
                {
                    "events": [[2, 0.05, "recv", 0, 11, 1]],
                    "dropped": 0,
                    "clock": 2,
                },
            ],
        }
        frontier = causal_frontier(box)
        (edge,) = frontier[1]["inbound"]
        assert edge["lam"] == 2 and not edge["delivered"]

    def test_load_blackbox_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "not-a-box.json"
        p.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="not a repro-blackbox"):
            load_blackbox(str(p))

    def test_cli_postmortem_smoke(self, tmp_path, capsys):
        box = engine_kill_failure().blackbox
        path = write_blackbox(box, str(tmp_path))
        assert cli_main(["postmortem", path, "--last", "5"]) == 0
        out = capsys.readouterr().out
        assert "post-mortem: EngineLost" in out
        assert "causal frontier:" in out

    def test_cli_postmortem_bad_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{}")
        assert cli_main(["postmortem", str(p)]) == 2


class TestObservabilitySatellites:
    def test_chrome_flow_events_pair_send_recv(self, tmp_path):
        res = swift_run(FANOUT, workers=2, trace=True)
        doc = res.trace.to_chrome()
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert starts and finishes
        assert {e["cat"] for e in starts + finishes} == {"mpi.flow"}
        # Every flow id is used exactly once per side: send <-> recv.
        start_ids = [e["id"] for e in starts]
        finish_ids = [e["id"] for e in finishes]
        assert len(start_ids) == len(set(start_ids))
        assert sorted(start_ids) == sorted(finish_ids)
        # Round trip: flow phases are decoration, the event list itself
        # survives from_chrome unchanged.
        path = tmp_path / "t.trace.json"
        res.trace.save_chrome(str(path))
        loaded = Trace.from_chrome(str(path))
        assert len(loaded.events) == len(res.trace.events)

    def test_monitor_samples_short_run(self):
        # The run finishes far inside one monitor interval; the final
        # driver-side sample must still land a timeline row.
        res = swift_run(FANOUT, workers=2, monitor=True)
        assert len(res.timeline) >= 1
        sample = res.timeline[-1]
        assert sample.tasks >= 0 and "[monitor]" in sample.render()

    def test_latency_percentiles_in_profile(self):
        from repro.obs import Profile

        res = swift_run(FANOUT, workers=2, trace=True)
        hists = res.trace.metrics["histograms"]
        assert hists["task.latency_s"]["count"] > 0
        text = Profile.from_trace(res.trace).render()
        assert "latency percentiles:" in text
        assert "p95(s)" in text
