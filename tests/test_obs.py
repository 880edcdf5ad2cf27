"""The repro.obs event spine, its Trace/Profile readers and the metrics."""

from __future__ import annotations

import json
import random
import time

import pytest

from repro import RuntimeConfig, SwiftRuntime, swift_run
from repro.obs import Analysis, Metrics, Profile, Recorder, Trace, TraceEvent
from repro.obs.spine import KINDS, LEVEL0_CAPACITY

PROGRAM = """
foreach i in [0:5] {
    string o = python(strcat("x = ", fromint(i), " * 2"), "x");
    printf("d(%i)=%s", i, o);
}
"""

SEQUENTIAL = 'printf("one line only");'

FANOUT_200 = """
foreach i in [0:199] {
    string s = python(strcat("x=", fromint(i)), "x");
    trace(s);
}
"""


class TestRecorder:
    def test_instant_and_span(self):
        rec = Recorder(level=1)
        rec.ring(0).emit("put", "WORK", False, payload={"k": 1})
        t0 = time.perf_counter()
        time.sleep(0.002)
        rec.ring(1).emit("rule_fired", 7, "r", t0=t0)
        trace = rec.freeze()
        assert len(trace) == 2
        span, inst = sorted(trace.events, key=lambda e: e.rank, reverse=True)
        assert inst.dur == 0.0 and (inst.category, inst.name) == ("adlb", "put")
        # named fields first, then whatever did not fit a/b/c
        assert inst.payload == {"type": "WORK", "targeted": False, "k": 1}
        assert span.dur >= 0.002 and span.rank == 1
        assert (span.category, span.name) == ("rule", "fire")

    def test_spans_nest(self):
        ring = Recorder(level=1).ring(0)
        outer_t0 = time.perf_counter()
        inner_t0 = time.perf_counter()
        time.sleep(0.002)
        ring.emit("rule_fired", 2, "inner", t0=inner_t0)
        ring.emit("rule_fired", 1, "outer", t0=outer_t0)
        rec = Recorder(level=1)
        rec._rings[0] = ring
        inner, outer = sorted(rec.freeze().spans(), key=lambda e: e.dur)
        assert inner.payload["name"] == "inner" and outer.payload["name"] == "outer"
        # the outer span fully contains the inner one
        assert outer.t <= inner.t
        assert outer.end >= inner.end

    def test_ring_drops_oldest_per_rank(self):
        rec = Recorder(level=1, capacity=8)
        for i in range(20):
            rec.ring(0).emit("notify", i)
        rec.ring(1).emit("notify", 99)  # another rank's ring is its own
        trace = rec.freeze()
        assert len(trace) == 9
        assert trace.dropped == 12
        assert trace.ring_counts() == {0: (20, 8), 1: (1, 1)}
        mine = [e.payload["td"] for e in trace.events if e.rank == 0]
        assert mine == list(range(12, 20))  # newest survive, oldest first

    def test_freeze_sorts_by_time(self):
        rec = Recorder(level=1)
        t0 = time.perf_counter()
        rec.ring(0).emit("notify", 1)
        rec.ring(0).emit("rule_fired", 1, "earlier", t0=t0)  # began first
        names = [e.name for e in rec.freeze().events]
        assert names == ["fire", "notify"]

    def test_every_event_advances_the_lamport_clock(self):
        ring = Recorder().ring(0)
        assert [ring.emit("rule_fire", k) for k in range(3)] == [1, 2, 3]
        assert ring.emit("recv", 1, 11, 40, seen=40) == 41  # merged, then +1

    def test_unknown_kind_still_decodes(self):
        rec = Recorder(level=1)
        rec.ring(0).emit("tick", 5)
        (e,) = rec.freeze().events
        assert (e.category, e.name, e.payload["a"]) == ("?", "tick", 5)

    def test_kind_table_is_well_formed(self):
        for kind, (level, category, name, fields) in KINDS.items():
            assert level in (0, 1) and category and name, kind
            assert len(fields) <= 3, kind


def _span(rank, category, name, t, dur):
    return TraceEvent(t=t, dur=dur, rank=rank, category=category, name=name)


class TestTrace:
    def _sample(self) -> Trace:
        return Trace(
            events=[
                TraceEvent(t=0.0, dur=0.0, rank=0, category="adlb", name="put"),
                _span(1, "task", "task", 0.1, 0.5),
                _span(2, "task", "task", 0.1, 0.25),
            ],
            meta={"elapsed": 1.0, "roles": {1: "worker", 2: "worker"}},
        )

    def test_filters_and_totals(self):
        trace = self._sample()
        assert len(trace.spans("task")) == 2
        assert len(trace.instants("adlb")) == 1
        cats = trace.by_category()
        assert cats["task"].spans == 2
        assert cats["task"].total_dur == pytest.approx(0.75)
        assert cats["adlb"].count == 1 and cats["adlb"].total_dur == 0.0

    def test_chrome_schema(self, tmp_path):
        trace = self._sample()
        doc = trace.to_chrome()
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metas} == {
            "rank 0 (rank)",
            "rank 1 (worker)",
            "rank 2 (worker)",
        }
        assert len(spans) == 2 and len(instants) == 1
        for e in spans:
            assert e["dur"] > 0 and isinstance(e["tid"], int)
            assert e["ts"] >= 0  # microseconds since epoch
        path = tmp_path / "t.json"
        trace.save_chrome(str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == len(events)

    def test_profile_aggregation(self):
        prof = Profile.from_trace(self._sample())
        assert prof.wall == pytest.approx(1.0)
        by_rank = {w.rank: w for w in prof.workers}
        assert by_rank[1].utilization == pytest.approx(0.5)
        assert by_rank[2].utilization == pytest.approx(0.25)
        assert prof.efficiency == pytest.approx(0.375)
        text = prof.render()
        assert "per-category time" in text
        assert "worker utilization" in text


class TestMetrics:
    def test_counters_gauges_histograms(self):
        from repro.turbine.worker import WorkerStats

        m = Metrics()
        stats = m.register("worker", WorkerStats(tasks_run=1), rank=1)
        # the table refers to the struct: what its owner counts after
        # registering is what the next reader sees
        stats.tasks_run += 2
        snap = m.snapshot()
        assert snap["counters"]["worker.tasks_run"] == 3
        assert snap["gauges"]["worker.tasks_run[1]"] == 3
        assert m.counter("worker.tasks_run") == 3
        assert m.counter("worker.no_such_field") == 0
        # ...and nothing else: latency histograms are a reading of a
        # trace (Analysis.histograms), not something the table counts
        assert set(snap) == {"counters", "gauges"}
        assert not hasattr(m, "observe")
        # reading changes nothing
        assert m.snapshot() == snap
        stats.tasks_run += 1
        assert m.snapshot()["counters"]["worker.tasks_run"] == 4

    def test_fold_struct_sums_across_ranks(self):
        from repro.turbine.worker import WorkerStats

        m = Metrics()
        m.register("worker", WorkerStats(tasks_run=3, busy_time=0.5), rank=1)
        m.register("worker", WorkerStats(tasks_run=2, busy_time=0.25), rank=2)
        snap = m.snapshot()
        assert snap["counters"]["worker.tasks_run"] == 5
        assert snap["gauges"]["worker.tasks_run[1]"] == 3
        assert snap["gauges"]["worker.tasks_run[2]"] == 2
        # end of run: the sums stay, the structs go; the next run's
        # structs add to the counters and overwrite the per-rank gauges
        m.settle()
        assert m._structs == [] and m.snapshot() == snap
        m.register("worker", WorkerStats(tasks_run=4), rank=1)
        assert m.counter("worker.tasks_run") == 9
        assert m.snapshot()["gauges"]["worker.tasks_run[1]"] == 4
        assert m.snapshot()["gauges"]["worker.tasks_run[2]"] == 2

    def test_snapshot_reads_what_a_plain_fields_walk_reads(self):
        """The field names are read once per class; the value check
        decides what counts, so a None or bool value is no counter."""
        from dataclasses import dataclass, fields

        @dataclass
        class Mixed:
            n: int = 3
            t: float = 0.5
            unset: int | None = None
            flag: bool = True
            label: str = "x"

        m = Metrics()
        structs = [m.register("mixed", Mixed(), rank=4), m.register("mixed", Mixed(n=2))]
        structs[1].unset = 7
        for _ in range(2):  # the second read takes the names from the cache
            counters, gauges = {}, {}
            for struct, rank in zip(structs, (4, None)):
                for f in fields(struct):
                    value = getattr(struct, f.name)
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    counters["mixed." + f.name] = counters.get("mixed." + f.name, 0) + value
                    if rank is not None:
                        gauges["mixed.%s[%d]" % (f.name, rank)] = value
            assert m.snapshot() == {"counters": counters, "gauges": gauges}
        assert counters == {"mixed.n": 5, "mixed.t": 1.0, "mixed.unset": 7}
        assert gauges == {"mixed.n[4]": 3, "mixed.t[4]": 0.5}


class TestTracedRuns:
    def test_untraced_run_has_no_trace(self):
        res = swift_run(SEQUENTIAL, workers=2)
        assert res.trace is None
        with pytest.raises(RuntimeError, match="trace=True"):
            res.profile

    def test_on_off_output_parity(self):
        off = swift_run(SEQUENTIAL, workers=2)
        on = swift_run(SEQUENTIAL, workers=2, trace=True)
        assert on.stdout == off.stdout
        assert on.stdout_lines == off.stdout_lines
        assert on.tasks_run == off.tasks_run

    def test_untraced_run_records_level_0_only(self):
        """An untraced run's rings hold only level-0 kinds, at most 512
        slots per rank, and no payload dicts."""
        rec = Recorder()
        # 600 leaves: a worker's GET takes a bundle, so 200 no longer
        # emit the 512 events that make a ring wrap
        res = swift_run(FANOUT_200.replace("199", "599"), workers=2, tracer=rec)
        assert res.trace is None
        assert len(res.stdout_lines) == 600
        assert sorted(rec._rings) == [0, 1, 2, 3]  # no driver ring either
        for ring in rec._rings.values():
            assert 0 < len(ring.slots) <= LEVEL0_CAPACITY
            assert ring.emitted >= len(ring.slots)
            for _, _, _, kind, _, _, _, payload in ring.slots:
                assert KINDS[kind][0] == 0, kind
                assert payload is None
        assert max(r.emitted for r in rec._rings.values()) > LEVEL0_CAPACITY

    def test_no_recorder_constructed_when_both_levels_off(self, monkeypatch):
        """flightrec=False, trace=False must never even build one."""
        import repro.obs

        def boom(*a, **k):
            raise AssertionError("Recorder constructed on the disabled path")

        monkeypatch.setattr(repro.obs, "Recorder", boom)
        res = swift_run(PROGRAM, workers=2, flightrec=False)
        assert res.trace is None and res.metrics is None
        assert len(res.stdout_lines) == 6

    def test_counters_on_untraced_runs(self):
        """The deterministic counters are on every default run and equal
        the traced run's."""
        # opt=0: at the default level PROGRAM creates no rule and no TD
        off = swift_run(PROGRAM, workers=2, opt=0).metrics["counters"]
        on = swift_run(PROGRAM, workers=2, opt=0, trace=True).metrics["counters"]
        for name in ("engine.rules_created", "adlb.data_ops", "adlb.tasks_matched"):
            assert off[name] == on[name] > 0, name
        assert off["mpi.sends"] == off["mpi.recvs"] > 0
        # the latency histograms are read off a trace: traced runs only
        assert "histograms" not in swift_run(PROGRAM, workers=2).metrics

    def test_messages_are_recorded_once(self):
        res = swift_run(PROGRAM, workers=2, trace=True)
        counters = res.trace.metrics["counters"]
        by_name = {"send": 0, "recv": 0}
        for e in res.trace.events:
            if e.category == "mpi":
                by_name[e.name] += 1
        assert by_name["send"] == counters["mpi.sends"]
        assert by_name["recv"] == counters["mpi.recvs"]
        # ...and the profile's "messages by tag" table is those same
        # sends split five ways (req / resp / oneway / async / server)
        rows = res.profile.render().split("messages by tag:\n")[1].splitlines()[1:6]
        assert [r.split()[0] for r in rows][::4] == ["req", "server"]
        assert sum(int(r.split()[1]) for r in rows) == counters["mpi.sends"]
        assert sum(int(r.split()[2]) for r in rows) == counters["mpi.bytes_sent"]

    def test_lamport_order_never_puts_recv_before_send(self):
        """The black-box property, over the full trace of a
        2-server/2-engine run."""
        res = swift_run(PROGRAM, workers=2, servers=2, engines=2, trace=True)
        assert res.trace.dropped == 0
        events = sorted(res.trace.events, key=lambda e: (e.lam, e.t, e.rank))
        sent_at = {
            (e.rank, e.payload["dest"], e.payload["tag"], e.lam): i
            for i, e in enumerate(events)
            if e.category == "mpi" and e.name == "send"
        }
        recvs = [
            (i, e)
            for i, e in enumerate(events)
            if e.category == "mpi" and e.name == "recv"
        ]
        # (a message still in a mailbox at shutdown has no recv)
        assert 0 < len(recvs) <= len(sent_at)
        for i, e in recvs:
            p = e.payload
            assert sent_at[(p["source"], e.rank, p["tag"], p["seen"])] < i

    def test_traced_run_covers_all_layers(self):
        # opt=0: the "rule" layer only shows if the program has rules
        res = swift_run(PROGRAM, workers=2, trace=True, opt=0)
        cats = res.trace.by_category()
        for cat in ("mpi", "adlb", "rule", "engine", "task", "compile", "run"):
            assert cat in cats, "missing category %r" % cat
        # one task span per leaf task, on worker ranks
        task_spans = res.trace.spans("task")
        assert len(task_spans) == res.tasks_run == 6
        roles = res.trace.meta["roles"]
        assert all(roles[e.rank] == "worker" for e in task_spans)

    def test_metrics_absorb_server_stats(self):
        res = swift_run(PROGRAM, workers=2, trace=True)
        counters = res.trace.metrics["counters"]
        assert counters["adlb.tasks_matched"] == sum(
            s.tasks_matched for s in res.server_stats
        )
        assert counters["worker.tasks_run"] == res.tasks_run
        assert counters["mpi.sends"] == counters["mpi.recvs"] > 0
        assert counters["engine.rules_created"] == sum(
            e.rules_created for e in res.engine_stats
        )

    def test_trace_capacity_is_per_rank(self):
        # the server's ring (~49 events) overflows, the others (< 20) do
        # not: a capacity is what each rank keeps, not a shared budget
        res = swift_run(PROGRAM, workers=2, trace=True, trace_capacity=32)
        counts = res.trace.ring_counts()
        assert all(kept == min(emitted, 32) for emitted, kept in counts.values())
        assert res.trace.dropped == sum(e - k for e, k in counts.values()) > 0

    def test_truncated_trace_is_loud(self, tmp_path, capsys):
        """A trace that lost events says so first, names the capacity
        that would have kept them, and that capacity indeed does."""
        # opt=0: the rank that sets `need` must emit about the same number
        # of events on the re-run.  The server's ring is the busiest; its
        # count moves by a `get_park` or two between runs (whether a
        # worker's GET beats the leaf it waits for), so the re-run gets
        # that much room.
        res = swift_run(FANOUT_200, workers=2, trace=True, trace_capacity=256, opt=0)
        assert res.trace.dropped > 0
        a = Analysis.from_trace(res.trace)
        need = max(res.trace.emitted.values())
        for text in (a.render(), res.profile.render()):
            first = text.splitlines()[0]
            assert first.startswith("WARNING: trace truncated")
            assert "trace_capacity >= %d" % need in first
        assert a.to_json()["dropped"] == res.trace.dropped
        # ... and so does a saved trace: `repro analyze` exits 6 on it.
        from repro.cli import main as cli_main

        path = str(tmp_path / "truncated.trace.json")
        res.trace.save_chrome(path)
        assert cli_main(["analyze", path]) == 6
        assert capsys.readouterr().out.startswith("WARNING: trace truncated")
        again = swift_run(FANOUT_200, workers=2, trace=True, trace_capacity=need + 8, opt=0)
        assert again.trace.dropped == 0
        whole = Analysis.from_trace(again.trace)
        assert not whole.render().startswith("WARNING")
        assert sum(1 for u in whole.units.values() if u.kind == "task") == 200
        assert not whole.incomplete
        assert sum(h.total for h in whole.critical_path) == pytest.approx(
            whole.makespan
        )

    def test_profile_worker_utilization_ranks(self):
        res = swift_run(PROGRAM, workers=3, trace=True)
        prof = res.profile
        worker_ranks = {
            r for r, role in res.trace.meta["roles"].items() if role == "worker"
        }
        assert {w.rank for w in prof.workers} == worker_ranks
        assert sum(w.tasks for w in prof.workers) == res.tasks_run
        assert 0.0 <= prof.efficiency <= 1.0

    def test_targeted_match_counters(self):
        res = swift_run(PROGRAM, workers=2, trace=True)
        total = sum(s.tasks_matched for s in res.server_stats)
        targeted = sum(s.tasks_matched_targeted for s in res.server_stats)
        assert 0 <= targeted <= total


class TestOneReading:
    """A trace is joined in one place, ``Analysis.join``: the latency
    histograms a frozen trace carries and Profile's busy time read it."""

    @pytest.mark.parametrize("servers, engines", [(1, 1), (2, 2)])
    def test_histogram_counts_are_what_the_join_holds(self, servers, engines):
        res = swift_run(
            FANOUT_200, workers=2, servers=servers, engines=engines, trace=True
        )
        trace = res.trace
        assert trace.dropped == 0 and len(res.stdout_lines) == 200
        joined = Analysis.join(trace)
        tasks = [u for u in joined.executed() if u.kind == "task"]
        prov = [e for e in trace.events if e.category == "prov"]
        accepted = {e.payload["uid"] for e in prov if e.name == "task"}
        grants = [e for e in prov if e.name == "grant" and e.payload["uid"] in accepted]
        h = trace.metrics["histograms"]
        assert h["task.latency_s"]["count"] == len(tasks) == 200
        assert h["adlb.dispatch_s"]["count"] == 200
        assert sum(u.t_grant is not None for u in tasks) == 200
        # one grant per accepted unit: the leaves and the range's halves
        assert h["adlb.queue_wait_s"]["count"] == len(grants) == len(accepted) > 200
        assert h == joined.histograms()
        by_rank = {w.rank: w.tasks for w in res.profile.workers}
        assert by_rank == {r: sum(u.rank == r for u in tasks) for r in by_rank}

    def test_exact_percentiles_over_every_sample(self, monkeypatch):
        # 1 000 leaf-task spans of 1..1 000 ms in shuffled order: a
        # reservoir of 512 read 0.505 / 0.949 / 0.988 here
        from repro.obs import spine

        now = [0.0]
        monkeypatch.setattr(spine, "_clock", lambda: now[0])
        rec = Recorder(level=1)
        for i, ms in enumerate(random.Random(7).sample(range(1, 1001), 1000)):
            now[0] = ms / 1000
            rec.ring(1 + i % 2).emit("task_done", 0, "T%d.%d" % (1 + i % 2, i), t0=0.0)
        h = rec.freeze().metrics["histograms"]["task.latency_s"]
        assert (h["count"], h["min"], h["max"]) == (1000, 0.001, 1.0)
        assert (h["p50"], h["p95"], h["p99"]) == (0.5, 0.95, 0.99)
        assert h["mean"] == pytest.approx(0.5005)


class TestSessionTracing:
    def test_session_shares_trace_sink(self):
        cfg = RuntimeConfig.of(workers=2, trace=True)
        with SwiftRuntime.from_config(cfg) as rt:
            r1 = rt.run(SEQUENTIAL)
            n1 = len(r1.trace)
            r2 = rt.run(SEQUENTIAL)
            n2 = len(r2.trace)
        assert n2 > n1  # second snapshot contains both runs
        assert rt.trace is not None and len(rt.trace) >= n2
        # two run spans in the merged session trace
        assert len(rt.trace.spans("run")) == 2
        # ...and one counter table: the second run's ranks registered
        # their structs next to the first's, nothing is counted twice
        c1, c2 = r1.metrics["counters"], r2.metrics["counters"]
        assert c2["mpi.sends"] == c2["mpi.recvs"] > c1["mpi.sends"] > 0
        assert rt.trace.metrics["counters"] == c2
        # a finished run leaves its sums behind, not its structs: the
        # table does not grow with the session
        assert r2.registry._structs == [] and r2.registry.sources == {}

    def test_session_histograms_cover_every_run(self):
        # runs reuse unit ids ("T1.1" again): the join keeps the units a
        # later run displaced, so each grant still pairs with its unit
        with SwiftRuntime(workers=2, trace=True) as rt:
            runs = [rt.run(PROGRAM) for _ in range(2)]
        for res, n in zip(runs + [rt], (6, 12, 12)):
            h = res.trace.metrics["histograms"]
            assert h["task.latency_s"]["count"] == h["adlb.dispatch_s"]["count"] == n
        assert sum(w.tasks for w in Profile.from_trace(rt.trace).workers) == 12

    def test_session_compile_cache(self):
        calls = []
        import repro.api as api_mod

        orig = api_mod.compile_swift

        def counting(source, **kw):
            calls.append(source)
            return orig(source, **kw)

        with SwiftRuntime(workers=2) as rt:
            rt_compile = api_mod.compile_swift
            api_mod.compile_swift = counting
            try:
                rt.run(SEQUENTIAL)
                rt.run(SEQUENTIAL)
            finally:
                api_mod.compile_swift = rt_compile
        assert len(calls) == 1  # second run hit the cache
