"""Turbine runtime: hand-written Tcl programs over the full stack."""

from __future__ import annotations

import pytest

from repro import swift_run
from repro.adlb.client import AdlbClient
from repro.faults import TaskError
from repro.mpi import AbortError, DeadlockError
from repro.mpi.launcher import RankFailure
from repro.tcl import Interp
from repro.turbine import RuntimeConfig, run_turbine_program
from repro.turbine.builtins import SPLIT_OVER, range_count, register_turbine
from repro.turbine.unit import Held


def run(program: str, size: int = 4, **kw) -> list[str]:
    res = run_turbine_program(program, RuntimeConfig(size=size, **kw))
    return sorted(res.stdout_lines)


class TestRules:
    def test_rule_with_no_inputs_fires(self):
        out = run(
            "proc swift:main {} {\n"
            "  turbine::rule [ list ] { turbine::log_output go } LOCAL\n"
            "}\n"
        )
        assert out == ["go"]

    def test_rule_waits_for_input(self):
        out = run(
            "proc swift:main {} {\n"
            "  set td [ turbine::allocate integer ]\n"
            "  turbine::rule [ list $td ] [ list report $td ] LOCAL\n"
            "  turbine::store_integer $td 5\n"
            "}\n"
            "proc report { td } {\n"
            "  turbine::log_output \"value [ turbine::retrieve $td ]\"\n"
            "}\n"
        )
        assert out == ["value 5"]

    def test_chained_rules(self):
        out = run(
            "proc swift:main {} {\n"
            "  set a [ turbine::allocate integer ]\n"
            "  set b [ turbine::allocate integer ]\n"
            "  turbine::rule [ list $a ] [ list step $a $b ] LOCAL\n"
            "  turbine::rule [ list $b ] [ list fin $b ] LOCAL\n"
            "  turbine::store_integer $a 1\n"
            "}\n"
            "proc step { a b } {\n"
            "  turbine::store_integer $b [ expr { [ turbine::retrieve $a ] + 1 } ]\n"
            "}\n"
            "proc fin { b } { turbine::log_output \"b=[ turbine::retrieve $b ]\" }\n"
        )
        assert out == ["b=2"]

    def test_work_task_runs_on_worker(self):
        out = run(
            "proc swift:main {} {\n"
            "  turbine::rule [ list ] { turbine::log_output \"role [ turbine::role ]\" } WORK\n"
            "}\n"
        )
        assert out == ["role worker"]

    def test_local_rule_runs_on_engine(self):
        out = run(
            "proc swift:main {} {\n"
            "  turbine::rule [ list ] { turbine::log_output \"role [ turbine::role ]\" } LOCAL\n"
            "}\n"
        )
        assert out == ["role engine"]

    def test_many_parallel_work_tasks(self):
        out = run(
            "proc swift:main {} {\n"
            "  for { set i 0 } { $i < 30 } { incr i } {\n"
            "    turbine::spawn WORK [ list emit $i ]\n"
            "  }\n"
            "}\n"
            "proc emit { i } { turbine::log_output \"t$i\" }\n",
            size=6,
        )
        assert out == sorted("t%d" % i for i in range(30))

    def test_bad_rule_type_rejected(self):
        with pytest.raises(TaskError, match="bad rule type"):
            run(
                "proc swift:main {} { turbine::rule [ list ] { } BOGUS }\n"
            )

    def test_an_option_with_no_value_is_rejected(self):
        # it used to be skipped: the rule ran at priority 0, no error
        with pytest.raises(TaskError, match="option 'priority' has no value"):
            run(
                "proc swift:main {} {\n"
                "  turbine::rule [ list ] { turbine::log_output x } WORK target 1 priority\n"
                "}\n"
            )

    def test_a_rule_on_a_td_that_does_not_exist_fails_its_unit(self):
        # registered when the unit returns, so the error is the unit's
        # there, not the engine rank's
        with pytest.raises(TaskError, match=r"program failed .*TD <987654> not found"):
            run("proc swift:main {} { turbine::rule [ list 987654 ] { } LOCAL }\n")

    def test_rule_unavailable_on_worker(self):
        with pytest.raises(TaskError, match="only available on engine"):
            run(
                "proc swift:main {} {\n"
                "  turbine::spawn WORK { turbine::rule [ list ] { } LOCAL }\n"
                "}\n"
            )


class TestSpawn:
    def test_bad_task_type_rejected(self):
        # no rank ever asks for a WROK task: it used to be queued, counted,
        # and the run hung on it (the deadline only bounds a regression)
        with pytest.raises(TaskError, match="bad task type 'WROK'"):
            run("proc swift:main {} { turbine::spawn WROK [ list puts hi ] }\n", deadline=10.0)

    def test_spawns_leave_when_the_unit_returns_unless_dropped(self):
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  turbine::spawn WORK { turbine::log_output kept }\n"
            "  set spawned [ turbine::spawned ]\n"
            "  turbine::spawn WORK { turbine::log_output dropped }\n"
            "  turbine::drop $spawned\n"
            "  turbine::spawn WORK { turbine::log_output a }\n"
            "  turbine::spawn CONTROL { turbine::log_output b } 1 -1\n"
            "  turbine::log_output main\n"
            "}\n",
            RuntimeConfig(size=4),
        )
        # the program's line comes first: its spawns leave when it returns
        out = res.stdout_lines
        assert out[0] == "main" and sorted(out[1:]) == ["a", "b", "kept"]
        with pytest.raises(TaskError, match="bad task type"):
            run("proc swift:main {} { turbine::spawn WROK { } }\n", deadline=10.0)
        for bad in ("turbine::drop", "turbine::drop all", "turbine::spawned 1"):
            with pytest.raises(TaskError, match="usage: turbine::"):
                run("proc swift:main {} { %s }\n" % bad, deadline=10.0)

    def test_drop_keeps_the_units_writes_rules_and_decrements(self):
        # a guarded chunk runs in place inside the unit that calls it:
        # its catch branch must forget the chunk's spawns, nothing else
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  set c [ turbine::allocate_container 2 ]\n"
            "  set x [ turbine::allocate integer ]\n"
            "  turbine::store_integer $x 5\n"
            "  turbine::rule [ list $c ] { turbine::log_output closed } LOCAL\n"
            "  turbine::write_refcount_decr $c 1\n"
            "  set spawned [ turbine::spawned ]\n"
            "  if { [ catch {\n"
            "    turbine::spawn WORK { turbine::log_output dropped }\n"
            "    error boom\n"
            "  } ] } {\n"
            "    turbine::drop $spawned\n"
            "  }\n"
            "  turbine::spawn WORK [ list turbine::write_refcount_decr $c 1 ]\n"
            "  turbine::log_output x=[ turbine::retrieve $x ]\n"
            "}\n",
            RuntimeConfig(size=4),
        )
        assert res.stdout_lines == ["x=5", "closed"]

    def test_a_failed_units_held_spawns_die_with_it(self):
        # RecursionError passes through `catch`: the first rule fails
        # with leafA held, and only the second rule's leafB is made
        def setup(interp, ctx, client):
            def deep(it, args):
                raise RecursionError("deep")

            interp.register("deep", deep)

        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  turbine::rule [ list ] {\n"
            "    catch { turbine::spawn WORK { turbine::log_output leafA } ; deep }\n"
            "  } LOCAL\n"
            "  turbine::rule [ list ] {\n"
            "    turbine::spawn WORK { turbine::log_output leafB }\n"
            "  } LOCAL\n"
            "}\n",
            RuntimeConfig(size=4, on_error="continue"),
            setup=setup,
        )
        assert res.stdout_lines == ["leafB"]
        assert [f.kind for f in res.failures] == ["rule"]

    @pytest.mark.parametrize("n", [SPLIT_OVER, SPLIT_OVER + 1, 4 * SPLIT_OVER + 3])
    def test_split_range_halves_until_a_chunk_fits(self, n):
        # chunk re-enters itself through CONTROL tasks, captures and all
        res = run_turbine_program(
            "proc swift:main {} { chunk 5 %d 3 tag }\n"
            "proc chunk { lo hi step c } {\n"
            "  if { [ turbine::split_range chunk $lo $hi $step $c ] } return\n"
            "  turbine::log_output \"$c [ turbine::range_count $lo $hi $step ]\"\n"
            "  for { set i $lo } { $i <= $hi } { incr i $step } { turbine::log_output $i }\n"
            "}\n" % (5 + 3 * (n - 1)),
            RuntimeConfig(size=4),
        )
        sizes = [int(x.split()[1]) for x in res.stdout_lines if x.startswith("tag")]
        assert sum(sizes) == n and max(sizes) <= SPLIT_OVER
        assert min(sizes) >= SPLIT_OVER // 2 or len(sizes) == 1
        ran = sorted(int(x) for x in res.stdout_lines if not x.startswith("tag"))
        assert ran == list(range(5, 5 + 3 * n, 3))
        # every split is one CONTROL task per half, nothing else
        assert sum(e.control_tasks_run for e in res.engine_stats) == 2 * (len(sizes) - 1)

    def test_range_count_and_the_steps_that_never_end(self):
        assert range_count(0, 9, 1) == 10 and range_count(0, 9, 4) == 3
        assert range_count(3, 3, 7) == 1 and range_count(5, 4, 1) == 0
        assert range_count(9, 0, -3) == 0  # empty, as it always was
        for lo, hi, step in ((0, 9, 0), (5, 4, 0), (0, 9, -1)):
            with pytest.raises(Exception, match="never ends"):
                range_count(lo, hi, step)
        for cmd in ("turbine::range_count 0 9 0", "turbine::split_range p 0 9 0"):
            with pytest.raises(TaskError, match=r"range \[0:9:0\] never ends"):
                run("proc swift:main {} { %s }\n" % cmd)

    @pytest.mark.parametrize("error", [AbortError, DeadlockError])
    def test_a_transport_failure_is_not_a_tcl_error(self, error):
        # Raised inside a turbine:: command it must reach UnitRunner.run
        # as itself (fatal to the rank), not wrapped into a TclError a
        # unit could fail with, be retried after, or `catch`.
        def boom(interp, args):
            raise error("world aborted")

        for compiled in (True, False):
            interp = Interp(compile_enabled=compiled)
            register_turbine(interp, None, None, Held(rules=False))
            interp.register("turbine::boom", boom)
            interp.eval("proc f {} { turbine::boom }")
            for script in ("turbine::boom", "f", "catch { f } msg", "if { [ catch { f } ] } { }"):
                with pytest.raises(error, match="world aborted"):
                    interp.eval(script)
            # ... and only those: anything else a command raises still is
            interp.register("oops", lambda it, a: 1 / 0)
            assert interp.eval("catch { oops } msg") == "1"
            assert "ZeroDivisionError" in interp.eval("set msg")


class TestDataOps:
    def test_container_insert_enumerate(self):
        out = run(
            "proc swift:main {} {\n"
            "  set c [ turbine::allocate_container 3 ]\n"
            "  set m1 [ turbine::allocate integer ]\n"
            "  set m2 [ turbine::allocate integer ]\n"
            "  turbine::store_integer $m1 10\n"
            "  turbine::store_integer $m2 20\n"
            "  turbine::container_insert $c 0 $m1\n"
            "  turbine::container_insert $c 1 $m2\n"
            "  turbine::rule [ list $c ] [ list dump $c ] LOCAL\n"
            "  turbine::write_refcount_decr $c 1\n"
            "}\n"
            "proc dump { c } {\n"
            "  set subs [ lsort -integer [ turbine::enumerate $c ] ]\n"
            "  turbine::log_output \"subs $subs\"\n"
            "}\n"
        )
        assert out == ["subs 0 1"]

    def test_container_reference_deref(self):
        # the reference reads member k straight into v: no ref TD, no rule
        out = run(
            "proc swift:main {} {\n"
            "  set c [ turbine::allocate_container 2 ]\n"
            "  set v [ turbine::allocate integer ]\n"
            "  turbine::container_reference $c k $v\n"
            "  turbine::rule [ list $v ] [ list out $v ] LOCAL\n"
            "  set m [ turbine::allocate integer ]\n"
            "  turbine::store_integer $m 99\n"
            "  turbine::container_insert $c k $m\n"
            "  turbine::write_refcount_decr $c 1\n"
            "}\n"
            "proc out { v } { turbine::log_output [ turbine::retrieve $v ] }\n"
        )
        assert out == ["99"]

    def test_blob_through_datastore(self):
        out = run(
            "proc swift:main {} {\n"
            "  set b [ turbine::allocate blob ]\n"
            "  turbine::rule [ list ] [ list produce $b ] WORK\n"
            "  turbine::rule [ list $b ] [ list consume $b ] WORK\n"
            "}\n"
            "proc produce { b } {\n"
            "  turbine::store_blob $b [ blobutils::from_string payload ]\n"
            "}\n"
            "proc consume { b } {\n"
            "  set h [ turbine::retrieve $b ]\n"
            "  turbine::log_output [ blobutils::to_string $h ]\n"
            "}\n"
        )
        assert out == ["payload"]

    def test_copy_value_preserves_type(self):
        out = run(
            "proc swift:main {} {\n"
            "  set a [ turbine::allocate float ]\n"
            "  set b [ turbine::allocate float ]\n"
            "  turbine::store_float $a 2.5\n"
            "  turbine::copy_td $b $a\n"
            "  turbine::rule [ list $b ] [ list out $b ] LOCAL\n"
            "}\n"
            "proc out { b } { turbine::log_output [ turbine::retrieve $b ] }\n"
        )
        assert out == ["2.5"]

    @pytest.mark.parametrize(
        "cmd", ["typeof", "write_refcount_incr", "write_refcount_decr", "read_refcount_decr"]
    )
    def test_a_missing_id_is_a_usage_error(self, cmd):
        # it used to be "IndexError: list index out of range"
        with pytest.raises(TaskError, match=r"usage: turbine::%s id" % cmd):
            run("proc swift:main {} { turbine::%s }\n" % cmd)

    def test_retrieve_unset_is_error(self):
        with pytest.raises(TaskError, match="before set"):
            run(
                "proc swift:main {} {\n"
                "  set td [ turbine::allocate integer ]\n"
                "  turbine::log_output [ turbine::retrieve $td ]\n"
                "}\n"
            )


class TestRuntimeBehavior:
    def test_multi_engine_control_distribution(self):
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  for { set i 0 } { $i < 20 } { incr i } {\n"
            "    turbine::spawn CONTROL [ list cbody $i ]\n"
            "  }\n"
            "}\n"
            "proc cbody { i } { turbine::log_output \"c$i\" }\n",
            RuntimeConfig(size=6, n_engines=2),
        )
        assert sorted(res.stdout_lines) == sorted("c%d" % i for i in range(20))
        # at least one control task should land on the second engine
        assert sum(e.control_tasks_run for e in res.engine_stats) == 20

    def test_engine_stats(self):
        # The store is a later unit's: a rule registered by the unit
        # that closes its input finds it closed and is never notified.
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  set td [ turbine::allocate integer ]\n"
            "  turbine::rule [ list $td ] { turbine::noop } LOCAL\n"
            "  turbine::spawn WORK [ list turbine::store_integer $td 1 ]\n"
            "}\n",
            RuntimeConfig(size=4),
        )
        stats = res.engine_stats[0]
        assert stats.rules_created == 1
        assert stats.notifications == 1
        assert stats.rules_fired_local == 1

    def test_interp_state_persists_on_worker(self):
        """Worker Tcl interps are retained across tasks (paper §III-C)."""
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  turbine::spawn WORK { python::persist {n = 10} {} } 10\n"
            "  turbine::spawn WORK { turbine::log_output [ python::persist {n += 1} {n} ] } 0\n"
            "}\n",
            RuntimeConfig(size=3),  # single worker: tasks run in order
        )
        assert res.stdout_lines == ["11"]

    def test_reinit_mode_clears_worker_state(self):
        with pytest.raises(TaskError, match="NameError"):
            run_turbine_program(
                "proc swift:main {} {\n"
                "  turbine::spawn WORK { python::eval {n = 10} {} } 10\n"
                "  turbine::spawn WORK { turbine::log_output [ python::eval {} {n} ] } 0\n"
                "}\n",
                RuntimeConfig(size=3, interp_mode="reinit"),
            )

    def test_output_collects_across_ranks(self):
        res = run_turbine_program(
            "proc swift:main {} {\n"
            "  turbine::spawn WORK { turbine::log_output from-worker }\n"
            "  turbine::log_output from-engine\n"
            "}\n",
            RuntimeConfig(size=4),
        )
        assert sorted(res.stdout_lines) == ["from-engine", "from-worker"]
        ranks = {rank for rank, _ in res.output.lines}
        assert len(ranks) == 2

    def test_worker_error_reports_failure(self):
        with pytest.raises(TaskError, match="invalid command"):
            run(
                "proc swift:main {} { turbine::spawn WORK { nonsense_cmd } }\n"
            )

    def test_dangling_future_times_out(self):
        with pytest.raises(RankFailure):
            run_turbine_program(
                "proc swift:main {} {\n"
                "  set td [ turbine::allocate integer ]\n"
                "  turbine::rule [ list $td ] { turbine::noop } LOCAL\n"
                "}\n",  # td never stored -> deadlock -> timeout
                RuntimeConfig(size=3, recv_timeout=1.0),
            )


# ------------------------------- a leaf waits on no RPC inside its unit

CHAIN = (
    'string a[];\na[0] = "1";\nforeach i in [0:%d] {\n'
    '    a[i+1] = python(strcat("x=", a[i], "*3+1*", fromint(i)), "x%%1000003");\n'
    "}\ntrace(a[%d]);\n"
)

# A WORK rule on an integer, a container and a blob; the leaf reads all three.
THREE_INPUTS = """
proc swift:main {} {
    set i [ turbine::allocate integer ]
    turbine::store_integer $i 7
    set c [ turbine::allocate_container ]
    turbine::container_insert $c 0 $i
    set b [ turbine::allocate blob ]
    turbine::store_blob $b [ blobutils::from_string abc ]
    turbine::rule [ list $i $c $b ] [ list leaf $i $c $b ] WORK
}
proc leaf { i c b } {
    set h [ turbine::retrieve $b ]
    turbine::log_output "[ turbine::retrieve $i ] [ turbine::container_lookup $c 0 ] [ blobutils::to_string $h ]"
}
"""


@pytest.fixture
def worker_rpcs(monkeypatch):
    """The (op, id, subscript) of every RPC a worker's units send."""
    sent, real = [], AdlbClient._rpc

    def rpc(self, server, msg):
        if self.carries_done:
            sent.append((msg["op"], msg.get("id"), msg.get("subscript")))
        return real(self, server, msg)

    monkeypatch.setattr(AdlbClient, "_rpc", rpc)
    return sent


class TestALeafWaitsOnNoRpc:
    """A chain hop's leaf reads its input from its grant and its store
    rides its worker's next GET: no RPC inside the unit (ROADMAP item
    26's chain row).  A blob or a container is still read from its
    server."""

    @staticmethod
    def expected(n: int) -> list[str]:
        x = 1
        for i in range(n):
            x = (x * 3 + i) % 1000003
        return ["trace: %d" % x]

    def test_a_chain_hop_sends_no_rpc_from_its_leaf(self, worker_rpcs):
        n = 30
        res = swift_run(CHAIN % (n - 1, n), workers=2, servers=1, engines=1)
        assert res.stdout_lines == self.expected(n) and worker_rpcs == []

    def test_a_chain_across_two_servers_reads_the_right_values(self):
        # Two servers steal each other's leaves; a thief carries only
        # what its own store holds, and the worker reads the rest.
        n = 40
        res = swift_run(CHAIN % (n - 1, n), workers=2, servers=2, engines=2)
        assert res.stdout_lines == self.expected(n)

    def test_a_blob_and_a_container_are_read_from_their_server(self, worker_rpcs):
        res = run_turbine_program(THREE_INPUTS, RuntimeConfig(size=4))
        assert res.stdout_lines == ["7 1 abc"]  # c[0] is the integer's id, 1
        # the integer came with the grant; the blob (an id) and the
        # container's member are two reads of two other TDs
        (blob, member) = sorted(worker_rpcs, key=lambda rpc: rpc[2] or "")
        assert (blob[0], blob[2], member[0], member[2]) == ("RETRIEVE", None, "RETRIEVE", "0")
        assert blob[1] != member[1]
