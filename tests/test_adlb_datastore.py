"""The ADLB typed data store: single-assignment, refcounts, subscriptions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adlb.datastore import (
    DataStore,
    DataStoreError,
    DoubleWriteError,
    NotFoundError,
    UnsetError,
)


@pytest.fixture()
def ds():
    return DataStore()


class TestScalars:
    def test_create_store_retrieve(self, ds):
        ds.create(1, "integer")
        ds.store(1, 42)
        assert ds.retrieve(1) == 42

    def test_retrieve_before_set_raises(self, ds):
        ds.create(1, "integer", write_refcount=2)
        with pytest.raises(UnsetError):
            ds.retrieve(1)

    def test_double_write_raises(self, ds):
        ds.create(1, "string", write_refcount=2)
        ds.store(1, "a")
        with pytest.raises(DoubleWriteError):
            ds.store(1, "b")

    def test_duplicate_create_raises(self, ds):
        ds.create(1, "integer")
        with pytest.raises(DataStoreError):
            ds.create(1, "integer")

    def test_unknown_type_raises(self, ds):
        with pytest.raises(DataStoreError):
            ds.create(1, "quaternion")

    def test_lookup_missing_raises(self, ds):
        with pytest.raises(NotFoundError):
            ds.lookup(99)

    def test_exists(self, ds):
        assert not ds.exists(1)
        ds.create(1, "integer", write_refcount=2)
        assert not ds.exists(1)  # created but unset
        ds.store(1, 5, decr_write=1)
        assert ds.exists(1)

    def test_store_closes_at_zero_writers(self, ds):
        td = ds.create(1, "integer")
        ds.store(1, 5)
        assert td.closed

    def test_store_with_remaining_writers_stays_open(self, ds):
        td = ds.create(1, "integer", write_refcount=3)
        ds.store(1, 5, decr_write=1)
        assert not td.closed


class TestSubscriptions:
    def test_subscribe_before_close(self, ds):
        ds.create(1, "integer")
        assert ds.subscribe(1, rank=7) is False
        notes, _ = ds.store(1, 5)
        assert [(n.rank, n.id) for n in notes] == [(7, 1)]

    def test_subscribe_after_close(self, ds):
        ds.create(1, "integer")
        ds.store(1, 5)
        assert ds.subscribe(1, rank=7) is True

    def test_multiple_subscribers_all_notified(self, ds):
        ds.create(1, "integer")
        for r in (3, 4, 5):
            ds.subscribe(1, rank=r)
        notes, _ = ds.store(1, 9)
        assert sorted(n.rank for n in notes) == [3, 4, 5]

    def test_notifications_fire_once(self, ds):
        ds.create(1, "integer", write_refcount=2)
        ds.subscribe(1, rank=3)
        notes, _ = ds.store(1, 9, decr_write=1)
        assert notes == []
        notes, _ = ds.refcount(1, write_delta=-1)
        assert len(notes) == 1

    def test_close_via_refcount(self, ds):
        ds.create(1, "container")
        ds.subscribe(1, rank=2)
        notes, _ = ds.refcount(1, write_delta=-1)
        assert [n.rank for n in notes] == [2]


class TestContainers:
    def test_insert_and_lookup(self, ds):
        ds.create(1, "container", write_refcount=3)
        ds.store(1, 100, subscript="0")
        ds.store(1, 101, subscript="1")
        assert ds.retrieve(1, subscript="0") == 100
        assert sorted(ds.enumerate(1)) == ["0", "1"]

    def test_duplicate_subscript_raises(self, ds):
        ds.create(1, "container", write_refcount=3)
        ds.store(1, 100, subscript="k")
        with pytest.raises(DoubleWriteError):
            ds.store(1, 200, subscript="k")

    def test_missing_subscript_raises(self, ds):
        ds.create(1, "container", write_refcount=2)
        with pytest.raises(UnsetError):
            ds.retrieve(1, subscript="zz")

    def test_scalar_store_on_container_requires_subscript(self, ds):
        ds.create(1, "container")
        with pytest.raises(DataStoreError):
            ds.store(1, 5)

    def test_subscript_on_scalar_raises(self, ds):
        ds.create(1, "integer")
        with pytest.raises(DataStoreError):
            ds.store(1, 5, subscript="0")

    def test_whole_container_retrieve(self, ds):
        ds.create(1, "container", write_refcount=3)
        ds.store(1, 10, subscript="a")
        ds.store(1, 20, subscript="b")
        assert ds.retrieve(1) == {"a": 10, "b": 20}

    # A reference reads member k of container 1 into TD 50: it issues
    # the COPY of the member (TD 99) to the member's home.
    def test_container_reference_existing_member(self, ds):
        ds.create(1, "container", write_refcount=2)
        ds.store(1, 99, subscript="k")
        copy = ds.container_reference(1, "k", dst=50)
        assert copy == {"op": "COPY", "id": 99, "dst": 50}
        assert ds.pending_copies == 0

    def test_container_reference_pending_member(self, ds):
        ds.create(1, "container", write_refcount=2)
        assert ds.container_reference(1, "k", dst=50) is None
        assert ds.pending_copies == 1
        _, issued = ds.store(1, 99, subscript="k")
        assert issued == [{"op": "COPY", "id": 99, "dst": 50}]
        assert ds.pending_copies == 0

    def test_multiple_pending_refs(self, ds):
        ds.create(1, "container", write_refcount=2)
        ds.container_reference(1, "k", 50)
        ds.container_reference(1, "k", 51)
        _, issued = ds.store(1, 1, subscript="k")
        assert sorted(op["dst"] for op in issued) == [50, 51]


class TestCopies:
    """COPY src -> dst: stored into dst when src closes, at src's home."""

    def test_source_already_closed(self, ds):
        ds.create(1, "string")
        ds.store(1, "hop")
        assert ds.copy(1, dst=7) == {"op": "STORE", "id": 7, "value": "hop"}
        assert ds.pending_copies == 0 and ds.lookup(1).copies == []

    def test_source_pending(self, ds):
        ds.create(1, "integer")
        assert ds.copy(1, dst=7) is None
        assert ds.lookup(1).copies == [7] and ds.pending_copies == 1
        ds.subscribe(1, rank=3)
        notes, issued = ds.store(1, 42)
        assert [(n.rank, n.id) for n in notes] == [(3, 1)]
        assert issued == [{"op": "STORE", "id": 7, "value": 42}]
        assert ds.lookup(1).copies == [] and ds.pending_copies == 0

    def test_two_destinations(self, ds):
        ds.create(1, "float", write_refcount=2)
        ds.copy(1, dst=7)
        ds.copy(1, dst=8)
        assert ds.store(1, 2.5) == ([], [])  # set, not closed: nothing yet
        _, issued = ds.refcount(1, write_delta=-1)
        assert issued == [{"op": "STORE", "id": d, "value": 2.5} for d in (7, 8)]
        assert ds.pending_copies == 0

    def test_member_inserted_after_the_reference(self, ds):
        # the container's server issues the COPY at the insert; the
        # member's server then holds it until the member closes
        ds.create(1, "container", write_refcount=2)
        ds.create(5, "integer")
        ds.container_reference(1, "3", dst=9)
        _, issued = ds.store(1, 5, subscript="3")
        assert issued == [{"op": "COPY", "id": 5, "dst": 9}]
        assert ds.copy(issued[0]["id"], issued[0]["dst"]) is None
        assert ds.pending_copies == 1
        assert ds.store(5, 11)[1] == [{"op": "STORE", "id": 9, "value": 11}]
        assert ds.pending_copies == 0

    def test_a_replayed_copy_registers_once(self):
        ds = DataStore(replay_ok=True)
        ds.create(1, "container", write_refcount=2)
        ds.create(2, "integer")
        for _ in range(2):
            ds.copy(2, dst=7)
            ds.container_reference(1, "k", dst=8)
        assert ds.lookup(2).copies == [7] and ds.lookup(1).member_refs == {"k": [8]}
        assert ds.pending_copies == 2

    def test_strict_store_registers_every_copy(self, ds):
        ds.create(2, "integer")
        ds.copy(2, dst=7)
        ds.copy(2, dst=7)  # the second store into 7 fails there, loudly
        assert ds.lookup(2).copies == [7, 7]

    def test_pending_copies_travel_in_a_snapshot(self, ds):
        ds.create(1, "container", write_refcount=2)
        ds.create(2, "integer")
        ds.copy(2, dst=7)
        ds.container_reference(1, "k", dst=8)
        image = ds.snapshot()
        assert image[2]["copies"] == [7] and image[1]["member_refs"] == {"k": [8]}
        again = DataStore()
        again.load_snapshot(image)
        assert again.pending_copies == 2
        assert again.store(2, 4)[1] == [{"op": "STORE", "id": 7, "value": 4}]
        merged = DataStore()
        merged.absorb(again)
        assert merged.pending_copies == 1

    def test_a_freed_source_forgets_its_copies(self, ds):
        ds.create(2, "integer", write_refcount=2)
        ds.copy(2, dst=7)
        ds.refcount(2, read_delta=-1)
        assert ds.pending_copies == 0


class TestRefcounts:
    def test_negative_write_refcount_raises(self, ds):
        ds.create(1, "integer")
        ds.store(1, 5)
        with pytest.raises(DataStoreError):
            ds.refcount(1, write_delta=-1)

    def test_incr_after_close_raises(self, ds):
        ds.create(1, "integer")
        ds.store(1, 5)
        with pytest.raises(DataStoreError):
            ds.refcount(1, write_delta=1)

    def test_read_refcount_gc(self, ds):
        ds.create(1, "integer")
        ds.store(1, 5)
        ds.refcount(1, read_delta=-1)
        with pytest.raises(NotFoundError):
            ds.lookup(1)

    def test_create_with_zero_writers_rejected(self, ds):
        with pytest.raises(DataStoreError):
            ds.create(1, "integer", write_refcount=0)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers()),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_container_mirrors_dict(pairs):
    """A container behaves like a write-once dict over subscripts."""
    ds = DataStore()
    ds.create(1, "container", write_refcount=len(pairs) + 1)
    mirror: dict[str, int] = {}
    for key, value in pairs:
        sub = str(key)
        if sub in mirror:
            with pytest.raises(DoubleWriteError):
                ds.store(1, value, subscript=sub)
        else:
            ds.store(1, value, subscript=sub)
            mirror[sub] = value
    assert ds.retrieve(1) == mirror
    assert sorted(ds.enumerate(1)) == sorted(mirror.keys())


@given(st.integers(min_value=1, max_value=20), st.data())
@settings(max_examples=100, deadline=None)
def test_property_close_exactly_at_zero(writers, data):
    """The TD closes exactly when cumulative decrements reach writers."""
    ds = DataStore()
    td = ds.create(1, "container", write_refcount=writers)
    ds.subscribe(1, rank=0)
    remaining = writers
    while remaining > 0:
        dec = data.draw(st.integers(min_value=1, max_value=remaining))
        notes, _ = ds.refcount(1, write_delta=-dec)
        remaining -= dec
        if remaining == 0:
            assert td.closed and len(notes) == 1
        else:
            assert not td.closed and notes == []
