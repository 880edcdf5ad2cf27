"""Work-queue matching: priorities, FIFO ties, targeting, stealing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adlb.workqueue import Task, WorkQueue


class TestBasicMatching:
    def test_fifo_within_priority(self):
        q = WorkQueue()
        for i in range(5):
            q.push(Task("WORK", i))
        assert [q.pop(("WORK",), 0).payload for _ in range(5)] == list(range(5))

    def test_priority_order(self):
        q = WorkQueue()
        q.push(Task("WORK", "low", priority=1))
        q.push(Task("WORK", "high", priority=10))
        q.push(Task("WORK", "mid", priority=5))
        got = [q.pop(("WORK",), 0).payload for _ in range(3)]
        assert got == ["high", "mid", "low"]

    def test_empty_pop_returns_none(self):
        q = WorkQueue()
        assert q.pop(("WORK",), 0) is None

    def test_type_separation(self):
        q = WorkQueue()
        q.push(Task("WORK", "w"))
        q.push(Task("CONTROL", "c"))
        assert q.pop(("CONTROL",), 0).payload == "c"
        assert q.pop(("CONTROL",), 0) is None
        assert q.pop(("WORK",), 0).payload == "w"

    def test_multi_type_pop_takes_best_priority(self):
        q = WorkQueue()
        q.push(Task("WORK", "w", priority=1))
        q.push(Task("CONTROL", "c", priority=5))
        assert q.pop(("WORK", "CONTROL"), 0).payload == "c"

    def test_size_tracking(self):
        q = WorkQueue()
        for i in range(4):
            q.push(Task("WORK", i))
        assert q.size == 4
        q.pop(("WORK",), 0)
        assert q.size == 3


class TestTargeting:
    def test_targeted_only_matches_target(self):
        q = WorkQueue()
        q.push(Task("WORK", "for-3", target=3))
        assert q.pop(("WORK",), 0) is None
        assert q.pop(("WORK",), 3).payload == "for-3"

    def test_targeted_beats_untargeted_on_tie(self):
        q = WorkQueue()
        q.push(Task("WORK", "any"))
        q.push(Task("WORK", "mine", target=2))
        # same priority: the earlier push has the lower seq and wins;
        # push order here puts "any" first
        assert q.pop(("WORK",), 2).payload == "any"
        assert q.pop(("WORK",), 2).payload == "mine"

    def test_steal_leaves_targeted_tasks(self):
        q = WorkQueue()
        q.push(Task("WORK", "pinned", target=1))
        q.push(Task("WORK", "free1"))
        q.push(Task("WORK", "free2"))
        stolen = q.steal(["WORK"])  # half of the two it may give
        assert [t.payload for t in stolen] == ["free1"]
        assert q.pop(("WORK",), 1).payload == "pinned"

    def test_steal_respects_max(self):
        # half, and at least one
        q = WorkQueue()
        for i in range(10):
            q.push(Task("WORK", i))
        assert len(q.steal(["WORK"])) == 5 and q.size == 5
        q = WorkQueue()
        q.push(Task("WORK", 0))
        assert len(q.steal(["WORK"])) == 1 and q.size == 0

    def test_steal_takes_half_of_the_asked_types_only(self):
        # a thief whose parked GETs want WORK gets no CONTROL task
        q = WorkQueue()
        for i in range(6):
            q.push(Task("CONTROL", "c%d" % i))
        assert q.steal(["WORK"]) == [] and q.size == 6
        for i in range(5):
            q.push(Task("WORK", "w%d" % i))
        stolen = q.steal(["WORK"])
        assert [t.payload for t in stolen] == ["w0", "w1"]
        assert q.counts_by_type() == {"WORK": 3, "CONTROL": 6}

    def test_counts_by_type(self):
        q = WorkQueue()
        q.push(Task("WORK", 1))
        q.push(Task("WORK", 2, target=5))
        q.push(Task("CONTROL", 3))
        assert q.counts_by_type() == {"WORK": 2, "CONTROL": 1}


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),  # priority
            st.integers(min_value=0, max_value=999),  # payload
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=150, deadline=None)
def test_property_pop_order_is_priority_then_fifo(tasks):
    q = WorkQueue()
    for prio, payload in tasks:
        q.push(Task("WORK", payload, priority=prio))
    popped = []
    while True:
        t = q.pop(("WORK",), 0)
        if t is None:
            break
        popped.append(t)
    assert len(popped) == len(tasks)
    # expected order: stable sort by descending priority (FIFO on ties)
    expected = [tasks[i][1] for i, _ in sorted(
        enumerate(tasks), key=lambda iv: (-iv[1][0], iv[0])
    )]
    assert [t.payload for t in popped] == expected


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
@settings(max_examples=100, deadline=None)
def test_property_no_tasks_lost_or_duplicated_by_steal(n_tasks, n_control):
    q = WorkQueue()
    for i in range(n_tasks):
        q.push(Task("WORK", i))
    for i in range(n_control):
        q.push(Task("CONTROL", -1 - i))
    stolen = q.steal(["WORK"])
    assert len(stolen) == (max(1, n_tasks // 2) if n_tasks else 0)
    rest = []
    while True:
        t = q.pop(("WORK", "CONTROL"), 0)
        if t is None:
            break
        rest.append(t)
    all_payloads = sorted([t.payload for t in stolen] + [t.payload for t in rest])
    assert all_payloads == list(range(-n_control, n_tasks))
