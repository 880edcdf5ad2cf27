"""Invalidation behavior of the compile-and-cache fast paths.

The Tcl VM memoizes resolved command pointers (and inlines ``expr`` /
``return`` behind guards built on top of them); the ADLB client
memoizes closed TD values.  Every cache here must be *exactly* as
fresh as the uncached path — these tests pin the invalidation rules.
"""

from __future__ import annotations

import threading

import pytest

from repro.adlb import AdlbClient, AdlbError, Layout, Server
from repro.adlb.constants import CONTROL, WORK
from repro.mpi import run_world
from repro.tcl.errors import TclError
from repro.tcl.interp import Interp


# ---------------------------------------------------------------- Tcl layer


@pytest.fixture
def interp():
    it = Interp()
    it.echo = False
    return it


class TestCompiledCallSiteInvalidation:
    def test_proc_redefinition_seen_by_compiled_caller(self, interp):
        interp.eval("proc f {} { return a }")
        interp.eval("proc g {} { return [f] }")
        assert interp.eval("g") == "a"
        interp.eval("proc f {} { return b }")
        assert interp.eval("g") == "b"

    def test_rename_seen_by_compiled_caller(self, interp):
        interp.eval("proc f {} { return old }")
        interp.eval("proc g {} { return [f] }")
        assert interp.eval("g") == "old"
        interp.eval("rename f saved")
        interp.eval("proc f {} { return new }")
        assert interp.eval("g") == "new"
        assert interp.eval("saved") == "old"

    def test_rename_to_empty_deletes_at_call_site(self, interp):
        interp.eval("proc f {} { return x }")
        interp.eval("proc g {} { return [f] }")
        assert interp.eval("g") == "x"
        interp.eval('rename f ""')
        with pytest.raises(TclError, match="invalid command"):
            interp.eval("g")

    def test_reregister_python_command(self, interp):
        interp.register("answer", lambda it, args: "one")
        interp.eval("proc g {} { return [answer] }")
        assert interp.eval("g") == "one"
        interp.register("answer", lambda it, args: "two")
        assert interp.eval("g") == "two"

    def test_redefinition_between_loop_iterations(self, interp):
        # The loop body is compiled once; the epoch check must still
        # pick up a redefinition made by an earlier iteration.
        interp.eval(
            "proc f {} { proc f {} { return second }; return first }"
        )
        out = interp.eval(
            "set out {}\n"
            "for {set i 0} {$i < 2} {incr i} { lappend out [f] }\n"
            "set out"
        )
        assert out == "first second"

    def test_expr_redefinition_disables_ast_fast_path(self, interp):
        # A literal [expr {...}] call site is lowered to stack ops and
        # skips the command dispatch entirely — until expr stops being
        # the builtin.
        interp.eval("proc g {x} { return [expr {$x + 1}] }")
        assert interp.eval("g 4") == "5"
        interp.register("expr", lambda it, args: "hijacked")
        assert interp.eval("g 4") == "hijacked"

    def test_return_redefinition_disables_tail_spec(self, interp):
        # A trailing `return $x` is specialized away (no exception, no
        # dispatch) — until return stops being the builtin.
        interp.eval("proc g {x} { return $x }")
        assert interp.eval("g hi") == "hi"
        interp.register("return", lambda it, args: "custom:" + args[0])
        assert interp.eval("g hi") == "custom:hi"

    def test_compiled_matches_interpreted(self):
        script = (
            "proc fib {n} { if {$n < 2} { return $n };"
            " return [expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}] }\n"
            "set parts {}\n"
            "foreach n {0 1 5 10} { lappend parts [fib $n] }\n"
            "set parts"
        )
        compiled = Interp()
        compiled.echo = False
        interpreted = Interp(compile_enabled=False)
        interpreted.echo = False
        assert compiled.eval(script) == interpreted.eval(script) == "0 1 5 55"


# --------------------------------------------------------------- ADLB layer


def run_client(client_fn, **client_kw):
    """Minimal world (server/engine/worker); runs client_fn on the
    engine rank with an :class:`AdlbClient` built from ``client_kw``."""
    layout = Layout(3, 1, 1)
    out: dict = {}

    def main(comm):
        if layout.is_server(comm.rank):
            Server(comm, layout).run()
            return
        if not layout.is_engine(comm.rank):  # idle worker
            client = AdlbClient(comm, layout)
            while client.get((WORK,)) is not None:
                pass
            return
        client = AdlbClient(comm, layout, **client_kw)
        client.incr_work()
        try:
            out["result"] = client_fn(client)
        finally:
            client.decr_work()
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass

    run_world(3, main)
    return out["result"]


class TestRetrieveCacheInvalidation:
    def test_cache_hit_counted(self):
        def body(client):
            td = client.create("integer")
            client.store(td, 42)
            assert client.retrieve(td) == 42
            assert client.retrieve(td) == 42
            return client.data_stats

        stats = run_client(body, read_cache=True)
        assert stats.hits == 1
        assert stats.misses == 1

    def test_no_stale_value_after_read_refcount_drop(self):
        # The regression this pins: once this client drops its read
        # reference, a cached copy must never be served again.
        def body(client):
            td = client.create("integer", read_refcount=1)
            client.store(td, 7)
            assert client.retrieve(td) == 7  # now cached
            client.refcount(td, read_delta=-1)  # TD freed server-side
            with pytest.raises(AdlbError):
                client.retrieve(td)
            return client.data_stats

        stats = run_client(body, read_cache=True)
        assert stats.evictions == 1

    def test_container_member_entries_evicted_with_container(self):
        def body(client):
            c = client.create("container", read_refcount=1)
            client.store(c, "v0", subscript="0", decr_write=0)
            client.store(c, "v1", subscript="1", decr_write=1)
            assert client.retrieve(c, subscript="0") == "v0"  # cached
            client.refcount(c, read_delta=-1)
            with pytest.raises(AdlbError):
                client.retrieve(c, subscript="0")
            return None

        run_client(body, read_cache=True)

    def test_batched_decrements_apply_at_flush(self):
        def body(client):
            a = client.create("integer", read_refcount=1)
            b = client.create("integer", read_refcount=1)
            client.store(a, 1)
            client.store(b, 2)
            assert client.retrieve(a) == 1
            client.refcount(a, read_delta=-1)
            client.refcount(b, read_delta=-1)
            # Deferred: the server has not applied either decrement, so
            # both TDs are still live — and retrieving `a` re-caches it.
            assert client.exists(b)
            assert client.retrieve(a) == 1
            # The flush's freed-list reply must evict that re-cached
            # entry, or the next retrieve would serve a freed TD.
            client.flush_refcounts()
            assert not client.exists(a)
            assert not client.exists(b)
            with pytest.raises(AdlbError):
                client.retrieve(a)
            return client.data_stats

        stats = run_client(body, read_cache=True, batch_refcounts=True)
        assert stats.refcount_batches == 1
        assert stats.refcount_batched_ops == 2

    def test_write_increments_bypass_batching(self):
        # Positive write deltas must reach the server immediately:
        # generated code adds writer slots before handing them out.
        def body(client):
            c = client.create("container", write_refcount=1)
            client.refcount(c, write_delta=2)  # must apply now
            client.store(c, "x", subscript="0", decr_write=1)
            client.store(c, "y", subscript="1", decr_write=1)
            client.store(c, "z", subscript="2", decr_write=1)  # closes
            return client.retrieve(c)

        members = run_client(body, read_cache=True, batch_refcounts=True)
        assert members == {"0": "x", "1": "y", "2": "z"}

    def test_defaults_off_for_bare_client(self):
        def body(client):
            assert not client.read_cache_enabled
            assert not client.batch_refcounts
            td = client.create("integer")
            client.store(td, 5)
            client.retrieve(td)
            client.retrieve(td)
            return client.data_stats

        stats = run_client(body)
        assert stats.hits == 0
        assert stats.misses == 0
