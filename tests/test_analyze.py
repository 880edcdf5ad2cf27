"""Causal dataflow analysis: provenance capture, critical path, and
live monitoring (repro.obs.analyze / repro.obs.monitor)."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.api import swift_run
from repro.faults import FaultPlan
from repro.obs import Analysis, Recorder, Trace

DIAMOND = """
import io;
main {
    string a = python("import time; time.sleep(0.02); x = 10", "x");
    string b = python(strcat("import time; time.sleep(0.03); b = 1 + ", a), "b");
    string c = python(strcat("c = 2 + ", a), "c");
    string d = python(strcat("d = ", b, " + ", c), "d");
    printf("d=%s", d);
}
"""


@pytest.fixture(scope="module")
def diamond_result():
    # opt=0: the lineage tests need every python() released by a rule;
    # at the default level `a` has closed inputs and is spawned by value
    return swift_run(DIAMOND, workers=4, servers=2, engines=2, trace=True, opt=0)


@pytest.fixture(scope="module")
def diamond_analysis(diamond_result):
    return Analysis.from_trace(diamond_result.trace)


class TestProvenanceCapture:
    def test_units_linked_to_rules(self, diamond_analysis):
        a = diamond_analysis
        tasks = [u for u in a.units.values() if u.kind == "task"]
        assert len(tasks) == 4  # the four python() calls
        for u in tasks:
            assert u.uid is not None and u.uid >= 0
            assert u.rule is not None and u.rule.startswith("R")
            assert u.rule in a.rules
            assert u.t_grant is not None and u.t_grant <= u.start

    def test_rule_lineage(self, diamond_analysis):
        a = diamond_analysis
        # Every rule records its registering unit and waited-on TDs;
        # the diamond rules were all registered by the program unit.
        work_rules = [r for r in a.rules.values() if r.type == "WORK"]
        assert len(work_rules) == 4
        for r in work_rules:
            assert r.by == "P0"
            assert r.t_release is not None
        # b and c both wait on a TD written by task a.
        writers = {
            td: max(ws, key=lambda w: w[0])[1] for td, ws in a.writes.items()
        }
        a_task = next(
            u for u in a.units.values() if u.rule == work_rules[0].id
        )
        assert any(w == a_task.id for w in writers.values())

    def test_writes_attributed_to_units(self, diamond_analysis):
        a = diamond_analysis
        unit_ids = set(a.units)
        attributed = [
            unit
            for ws in a.writes.values()
            for _, unit in ws
            if unit is not None
        ]
        assert attributed
        # Every attributed write names a unit the analyzer knows.
        assert set(attributed) <= unit_ids


class TestCriticalPath:
    def test_hops_tile_makespan(self, diamond_analysis):
        a = diamond_analysis
        assert a.critical_path
        path_total = sum(h.total for h in a.critical_path)
        # Acceptance bound is 10%; the tiling construction is exact.
        assert path_total == pytest.approx(a.makespan, rel=0.10)
        for hop in a.critical_path:
            assert sum(hop.segments.values()) == pytest.approx(hop.total)
            assert all(v >= 0 for v in hop.segments.values())

    def test_path_takes_slow_branch(self, diamond_analysis):
        a = diamond_analysis
        # The 0.03s sleep (branch b) dominates the diamond: the longest
        # compute hop on the path must be ~0.03s, not the 0.002s of c.
        computes = sorted(
            h.segments["compute"] for h in a.critical_path
        )
        assert computes[-1] >= 0.025
        # The path starts at the program unit and is causally chained.
        assert a.critical_path[0].kind == "program"
        assert not a.incomplete
        for prev, cur in zip(a.critical_path, a.critical_path[1:]):
            assert cur.pred == prev.unit

    def test_stall_attribution_and_what_if(self, diamond_analysis):
        a = diamond_analysis
        assert a.serial_compute > 0.05  # both sleeps are serial
        assert a.serial_compute <= a.makespan + 1e-9
        assert sum(a.stalls.values()) == pytest.approx(
            sum(h.total for h in a.critical_path)
        )

    def test_utilization_and_concurrency(self, diamond_analysis):
        a = diamond_analysis
        assert a.busy_by_rank
        assert 0 < a.avg_concurrency
        assert a.peak_concurrency >= 2  # b and c overlap
        assert all(b > 0 for b in a.busy_by_rank.values())

    def test_render_and_exports(self, diamond_analysis, tmp_path):
        text = diamond_analysis.render()
        assert "critical path:" in text
        assert "what-if:" in text
        dot = diamond_analysis.to_dot()
        assert dot.startswith("digraph") and "color=red" in dot
        doc = diamond_analysis.to_json()
        json.dumps(doc)  # must be serializable
        assert doc["critical_path"] and doc["makespan"] > 0


class TestZeroTdTrace:
    def test_by_value_fanout_still_tiles(self):
        """At the default level the fan-out has no TD and no rule, and
        — since loops of leaves (ISSUE 24) — no control task per
        iteration: 12 iterations are one chunk, run by the loop proc
        inside the program unit, so the path is program -> leaf on one
        spawn edge (it was program -> ctask -> task)."""
        r = swift_run(
            'foreach i in [0:11] { string s = python(strcat("x=", fromint(i)), "x");'
            " trace(s); }",
            workers=2,
            trace=True,
        )
        assert r.trace.dropped == 0
        assert r.trace.metrics["counters"]["engine.rules_created"] == 0
        a = Analysis.from_trace(r.trace)
        assert not a.incomplete and not a.rules and not a.writes
        assert sum(1 for u in a.units.values() if u.kind == "task") == 12
        assert not any(u.kind == "ctask" for u in a.units.values())
        assert [h.kind for h in a.critical_path] == ["program", "task"]
        assert sum(h.total for h in a.critical_path) == pytest.approx(a.makespan, rel=0.10)
        assert sum(a.stalls.values()) == pytest.approx(
            sum(h.total for h in a.critical_path)
        )


    def test_a_split_fanout_tiles_through_its_chunk(self):
        """A range longer than SPLIT_OVER reaches a leaf through the
        CONTROL task of the half it is in: 100 -> 2 x 50."""
        r = swift_run(
            'foreach i in [0:99] { string s = python(strcat("x=", fromint(i)), "x");'
            " trace(s); }",
            workers=2,
            trace=True,
        )
        a = Analysis.from_trace(r.trace)
        assert not a.incomplete and not a.rules and not a.writes
        kinds = [u.kind for u in a.units.values()]
        assert (kinds.count("ctask"), kinds.count("task")) == (2, 100)
        assert [h.kind for h in a.critical_path] == ["program", "ctask", "task"]
        assert sum(h.total for h in a.critical_path) == pytest.approx(a.makespan, rel=0.10)


class TestCopyLineage:
    def test_a_subscript_chain_runs_leaf_to_leaf(self):
        """A subscript read is a server copy: the reader's TD is written
        for the member's writer, so the path hops from leaf to leaf (not
        back to the control task that registered each leaf's rule)."""
        r = swift_run(
            'string a[];\na[0] = "1";\nforeach i in [0:5] {\n'
            '    a[i+1] = python(strcat("import time; time.sleep(0.02); x=", a[i], "+1"), "x");\n'
            "}\ntrace(a[6]);\n",
            workers=2,
            servers=1,
            engines=1,
            trace=True,
        )
        assert r.stdout_lines == ["trace: 7"]
        a = Analysis.from_trace(r.trace)
        assert not a.incomplete
        tasks = [h for h in a.critical_path if h.kind == "task"]
        assert len(tasks) == 6
        for prev, cur in zip(tasks, tasks[1:]):
            assert cur.pred == prev.unit and cur.via_td is not None
        last = a.critical_path[-1]
        if last.kind == "rule":  # trace(a[6]) can end before the last leaf's span
            assert last.pred == tasks[-1].unit and last.via_td is not None


class TestTraceRoundTrip:
    def test_from_chrome_preserves_analysis(self, diamond_result, tmp_path):
        path = tmp_path / "d.trace.json"
        diamond_result.trace.save_chrome(str(path))
        loaded = Trace.from_chrome(str(path))
        a0 = Analysis.from_trace(diamond_result.trace)
        a1 = Analysis.from_trace(loaded)
        assert set(a1.units) == set(a0.units)
        assert [h.unit for h in a1.critical_path] == [
            h.unit for h in a0.critical_path
        ]
        assert a1.makespan == pytest.approx(a0.makespan, rel=1e-6)
        # Streamed export round-trips meta the analyzer cares about.
        assert loaded.meta.get("roles") == diamond_result.trace.meta.get(
            "roles"
        )


class TestRetryLineage:
    def test_retried_attempt_chains_to_original(self):
        plan = FaultPlan(seed=3).fail_task("task:python", times=1)
        r = swift_run(
            'import io; main { string a = python("x = 41 + 1", "x");'
            ' printf("a=%s", a); }',
            workers=2,
            servers=2,
            engines=1,
            trace=True,
            faults=plan,
            on_error="retry",
            max_retries=3,
        )
        assert r.stdout_lines == ["a=42"]
        a = Analysis.from_trace(r.trace)
        # Both attempts executed under the same uid, in order.
        assert len(a.retries) == 1
        chain = a.retries[0]
        assert len(chain) == 2
        first, second = a.units[chain[0]], a.units[chain[1]]
        assert first.uid == second.uid
        assert not first.ok and second.ok
        assert first.attempts == 0 and second.attempts == 1
        # The walk routes through the retry chain: the retried unit's
        # predecessor is the failed attempt, not the input data.
        hops = {h.unit: h for h in a.critical_path}
        assert hops[second.id].pred == first.id


class TestMonitor:
    def test_timeline_present_on_monitor_run(self):
        r = swift_run(
            DIAMOND,
            workers=4,
            servers=2,
            engines=2,
            monitor=True,
            monitor_interval=0.02,
        )
        assert r.stdout_lines == ["d=23"]
        assert r.timeline
        final = r.timeline[-1]
        assert final.tasks >= 4  # the four python() tasks were granted
        assert final.clients == 6  # 4 workers + 2 engines
        assert final.t > 0
        line = final.render()
        assert line.startswith("[monitor]") and "tasks=" in line

    def test_monitor_out_receives_lines(self):
        lines: list[str] = []
        swift_run(
            'import io; main { printf("hi"); }',
            workers=2,
            servers=1,
            engines=1,
            monitor=lines.append,
            monitor_interval=0.01,
        )
        assert lines and all(line.startswith("[monitor]") for line in lines)

    def test_every_rank_state_may_be_asked_from_another_thread(self):
        # The cross-thread rule of state() (plain reads, len() and
        # C-level copies only), checked: the sampler reads every 1 ms
        # and a second thread asks every registered rank in a loop while
        # rules block and fire, leases turn over and the op-log streams.
        rec = Recorder()
        errors: list[BaseException] = []
        roles: set[str] = set()
        stop = threading.Event()

        def reader() -> None:
            while not stop.wait(0.0005):
                for read in list(rec.metrics.sources.values()):
                    try:
                        roles.add(read()["role"])
                    except Exception as e:  # noqa: BLE001 - the test's subject
                        errors.append(e)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt mid-state(), not every 5 ms
        try:
            r = swift_run(
                "foreach i in [0:199] {\n"
                '    string s = python(strcat("x=", fromint(i)), "x");\n'
                "    trace(s);\n"
                "}\n",
                opt=0,  # the all-TD shape: the engines hold rules in flight
                workers=2,
                servers=2,
                engines=2,
                monitor=True,
                monitor_interval=0.001,
                tracer=rec,
            )
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            thread.join()
        assert not errors, errors[:3]
        assert roles == {"server", "engine", "worker"}
        assert sorted(r.stdout_lines) == sorted("trace: %d" % i for i in range(200))
        assert r.timeline[-1].clients == 4 and r.timeline[-1].outstanding == 0
        assert rec.metrics.sources == {}  # settle() let go of every rank

    def test_no_timeline_without_monitor(self):
        r = swift_run('import io; main { printf("hi"); }', workers=2)
        assert r.timeline == []
