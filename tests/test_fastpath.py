"""Invalidation behavior of the Tcl VM's compile-and-cache fast path,
and when a unit's refcount changes reach the server.

The Tcl VM memoizes resolved command pointers (and inlines ``expr`` /
``return`` behind guards built on top of them); every cache must be
*exactly* as fresh as the uncached path — these tests pin the
invalidation rules.  The ADLB client caches nothing; refcount
*decrements* are held by the rank's unit runner until the unit commits
(the whole-stack reasons are in ``test_unit.py``).
"""

from __future__ import annotations

import threading

import pytest

from repro.adlb import AdlbClient, Layout, Server
from repro.adlb import constants as C
from repro.adlb.constants import CONTROL, WORK
from repro.mpi import run_world
from repro.tcl.errors import TclError
from repro.tcl.interp import Interp
from repro.turbine.builtins import register_turbine
from repro.turbine.unit import UnitRunner


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


def run_unit(body):
    """Minimal world (server/engine/worker); on the engine rank, runs
    ``body(unit, tcl)`` as the Tcl of one unit, where ``unit`` is a
    :class:`UnitRunner` over a bare :class:`AdlbClient` and ``tcl``
    evaluates ``turbine::`` commands bound to both.  ``body`` returns a
    function; its result, called once the unit has committed, is
    returned."""
    layout = Layout(3, 1, 1)
    out: dict = {}

    def main(comm):
        if layout.is_server(comm.rank):
            Server(comm, layout).run()
            return
        client = AdlbClient(comm, layout)
        if not layout.is_engine(comm.rank):  # idle worker
            while client.get((WORK,)) is not None:
                pass
            return
        interp = Interp()
        unit = UnitRunner(client, interp)
        register_turbine(interp, client, None, unit.held)
        after = []
        interp.register("body", lambda it, args: after.append(body(unit, interp.eval)) or "")
        client.incr_work()  # the unit of work ``body`` stands for
        try:
            assert unit.run("rule", "body")  # a failed body raises TaskError
            out["result"] = after[0]()
        finally:
            client.park_async((CONTROL,))
            while client.recv_async()[0] != "shutdown":
                pass

    run_world(3, main)
    return out["result"]


# (The class name predates the removal of the client's retrieve cache,
# whose cases lived here too; the ids are pinned by the test floor.)
class TestRetrieveCacheInvalidation:
    def test_batched_decrements_apply_at_flush(self):
        def body(unit, tcl):
            client = unit.client
            a = client.create("integer", read_refcount=1)
            b = client.create("integer", read_refcount=1)
            client.store(a, 1)
            client.store(b, 2)
            tcl("turbine::read_refcount_decr %d" % a)
            tcl("turbine::read_refcount_decr %d" % b)
            # Deferred: the server has applied neither decrement, so
            # both TDs are still live and readable.
            assert unit.held.deferred == {a: [-1, 0], b: [-1, 0]}
            exists = lambda td: client.read({"op": C.OP_EXISTS, "id": td})
            assert exists(b) and client.retrieve(a) == 1

            def after():  # the unit committed: one batch, then the counter unit
                assert not unit.held.deferred
                return exists(a), exists(b)

            return after

        assert run_unit(body) == (False, False)

    def test_write_increments_bypass_batching(self):
        # A writer-slot increment is a write, not a decrement to batch:
        # held in program order with the unit's other writes, it lands
        # before the inserts that use the slots.
        def body(unit, tcl):
            client = unit.client
            c = client.create("container", write_refcount=1)
            tcl("turbine::write_refcount_incr %d 2" % c)
            assert not unit.held.deferred and unit.held.writes[0]["write_delta"] == 2
            for i in range(3):  # the third closes it
                tcl("turbine::container_insert %d %d %d" % (c, i, 10 * i))
            return lambda: client.retrieve(c)  # the unit's commit closed it

        assert run_unit(body) == {"0": 0, "1": 10, "2": 20}

    def test_deferred_decrements_dropped_on_roll_back(self):
        def body(unit, tcl):
            client = unit.client
            c = client.create("container", write_refcount=1)
            tcl("turbine::write_refcount_decr %d" % c)
            unit.held.cut()  # the unit will run again
            assert not unit.held.deferred
            # the unit's commit lands nothing; subscribe is True once closed
            return lambda: client.subscribe(c)

        assert run_unit(body) is False
