"""Bytecode VM differential tests: the VM must agree with the oracle.

The VM (`repro.tcl.vm`) is the product; the plain interpreted walk
(``Interp(compile_enabled=False)``) is the oracle — the simplest
statement of the language's semantics.  Every script here runs under
both and must produce identical results — including identical error
messages *and* identical ``errorInfo`` traces; on a divergence the
oracle wins and the VM gets fixed.  Plus VM-only properties: explicit
frame-depth limiting
(deep Tcl recursion works without touching the Python recursion
limit; runaway recursion raises a catchable TclError), inline-cache
invalidation mid-run, and the ``tcl.vm.*`` counters.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro import swift_run
from repro.tcl.errors import TclBreak, TclContinue, TclError, TclReturn
from repro.tcl.interp import Interp

from .test_swift_fuzz import Undefined, evaluate, exprs, to_swift


def run_mode(script: str, vm: bool):
    """('ok', result) or ('err', message, errorinfo-trace)."""
    it = Interp(compile_enabled=vm)
    it.echo = False
    try:
        return ("ok", it.eval(script))
    except TclError as e:
        return ("err", e.message, e.trace())
    except TclReturn as r:
        return ("return", r.value, r.code)
    except (TclBreak, TclContinue) as e:
        return (type(e).__name__,)


def assert_same(script: str):
    vm = run_mode(script, True)
    oracle = run_mode(script, False)
    assert vm == oracle, (
        "vm/interpreted divergence on:\n%s\nvm:          %r\ninterpreted: %r"
        % (script, vm, oracle)
    )
    return vm


DIFFERENTIAL_SCRIPTS = [
    # arithmetic / expr lowering
    "expr {1 + 2 * 3}",
    "expr {(7 % 3) ** 2 - 4 / 2}",
    "set x 5; expr {$x > 3 && $x < 10 ? \"in\" : \"out\"}",
    "expr {\"abc\" < \"abd\"}",
    "expr {1.5 + 2}",
    "expr {~3 + -2 + !0}",
    # control flow
    "set s 0; for {set i 0} {$i < 10} {incr i} {incr s $i}; set s",
    "set s {}; foreach x {a b c} {append s $x-}; set s",
    "set i 0; while {$i < 5} {incr i; if {$i == 3} break}; set i",
    "set o {}; for {set i 0} {$i<6} {incr i} {if {$i%2} continue;"
    " lappend o $i}; set o",
    "if {1 < 2} then {set r yes} else {set r no}; set r",
    "switch b {a {set r 1} b {set r 2} default {set r 3}}; set r",
    # procs: recursion, defaults, varargs, locals
    "proc fib {n} { if {$n < 2} {return $n};"
    " return [expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}] }\n"
    "fib 12",
    "proc d {a {b B} args} { return \"$a/$b/$args\" }\n"
    "list [d 1] [d 1 2] [d 1 2 3 4]",
    "proc acc {} { set t 0; foreach x {1 2 3} {incr t $x}; return $t }\nacc",
    "proc outer {} { inner }\nproc inner {} { return deep }\nouter",
    # upvar / uplevel / global interplay with slots
    "proc bump {vn} { upvar 1 $vn v; incr v 10 }\n"
    "set n 5; bump n; set n",
    "proc lv {} { uplevel 1 {set leaked 42} }\nlv; set leaked",
    "set g 1\nproc useg {} { global g; incr g; return $g }\nuseg; useg",
    # errors: undefined things, wrong arity, bad incr — messages and
    # errorInfo decoration must match the interpreted walk exactly
    "nosuchcommand a b",
    "set x",
    "proc one {a} {return $a}\none",
    "proc one {a} {return $a}\none x y",
    "set s hello; incr s",
    "proc f {} { error boom }\nproc g {} { f }\ng",
    "proc f {} { nosuch }\nf",
    "set x $undefined_var",
    "proc f {} { expr {$nope + 1} }\nf",
    # catch and return codes
    "catch {error oops} msg; set msg",
    "list [catch {expr {1/0}} m] $m",
    "proc f {} { return -code error fromreturn }\ncatch {f} m; set m",
    "proc f {} { return -code break }\n"
    "set o {}; foreach i {1 2 3} { if {$i == 2} {f}; lappend o $i }; set o",
    # break/continue crossing proc frames is an error at top level
    "break",
    "continue",
    # nested command substitution and word building
    "proc f {x} {return $x}\nset a 3; f a$a[f b]$a",
    "set x ab; set y \"$x[string length $x]\"",
    # namespaces and qualified names
    "namespace eval ns { proc p {} { return inns } }\nns::p",
    "namespace eval ns { variable v 7 }\nset ns::v",
    # redefinition mid-loop (epoch invalidation inside one script)
    "proc f {} { proc f {} { return second }; return first }\n"
    "set o {}; for {set i 0} {$i < 2} {incr i} { lappend o [f] }; set o",
    # string / list commands through the generic call path
    "string toupper [string range abcdef 1 3]",
    "lsort -integer {5 3 10 1}",
    "llength [lrange {a b c d e} 1 3]",
    # {*} expansion: never lowered, runs through the EXEC fallback
    "set l {1 2 3}; list {*}$l x {*}{y z}",
    "proc mk {} { return {a b} }\nlist {*}[mk] c",
    "set l {1 2 3}; expr {[llength [list {*}$l 4]] * 2}",
    "set l {a b}; nosuch {*}$l",
    "proc f {args} { return [format %s-%s {*}$args] }\nf 1 2",
    # proc bodies the bytecode compiler declines (generic binding +
    # interp.eval of the body)
    "proc f {a a} { return $a }\nf 1 2",
    "namespace eval ns {}\nproc f {ns::a} { return [set ns::a] }\nf 7",
    "proc f {} {set x \"unterminated}\nf",
    "proc f {} {set x \"unterminated}\nlist [catch {f} m] $m",
    # foreach is a plain command: its body re-enters eval per iteration
    "proc f {} { set o {}; foreach {a b} {1 2 3 4 5} c {x y}"
    " { lappend o $a$b$c }; return $o }\nf",
    "proc f {} { set o {}; foreach x {1 2 3 4 5} { if {$x == 2} continue;"
    " if {$x == 4} break; lappend o $x }; return $o }\nf",
    "proc f {} { foreach x {1 2} { error boom$x } }\nproc g {} { f }\ng",
    # while with a non-literal condition is not inlined
    "set i 0; set c {$i < 3}; while $c { incr i }; set i",
    "proc f {} { set i 0; set c {$i < 3}; while $c { incr i;"
    " if {$i == 2} break }; return $i }\nf",
]


@pytest.mark.parametrize(
    "script", DIFFERENTIAL_SCRIPTS, ids=range(len(DIFFERENTIAL_SCRIPTS))
)
def test_vm_matches_interpreted(script):
    assert_same(script)


# --- property-based: random expression programs through the full stack ---


@given(exprs)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_swift_programs_agree_vm_vs_interpreted(tree):
    try:
        expected = evaluate(tree)
    except Undefined:
        return
    if abs(expected) > 10**15:
        return
    src = (
        'int v0 = parseint("3");\n'
        'int v1 = 0 - parseint("7");\n'
        'int v2 = parseint("12");\n'
        "int result = %s;\n"
        'printf("R=%%i", result);\n' % to_swift(tree)
    )
    expected_lines = ["R=%d" % expected]
    for vm in (True, False):
        out = swift_run(src, workers=2, tcl_compile=vm)
        assert out.stdout_lines == expected_lines, (to_swift(tree), vm)


# --- inline-cache invalidation under the VM ------------------------------


@pytest.fixture
def vm_interp():
    it = Interp()
    it.echo = False
    return it


class TestVMCacheInvalidation:
    def test_proc_redefinition_seen_by_vm_caller(self, vm_interp):
        vm_interp.eval("proc f {} { return a }")
        vm_interp.eval("proc g {} { return [f] }")
        assert vm_interp.eval("g") == "a"
        vm_interp.eval("proc f {} { return b }")
        assert vm_interp.eval("g") == "b"

    def test_rename_seen_by_vm_caller(self, vm_interp):
        vm_interp.eval("proc f {} { return old }")
        vm_interp.eval("proc g {} { return [f] }")
        assert vm_interp.eval("g") == "old"
        vm_interp.eval("rename f saved")
        vm_interp.eval("proc f {} { return new }")
        assert vm_interp.eval("g") == "new"
        assert vm_interp.eval("saved") == "old"

    def test_rename_to_empty_deletes_at_call_site(self, vm_interp):
        vm_interp.eval("proc f {} { return x }")
        vm_interp.eval("proc g {} { return [f] }")
        assert vm_interp.eval("g") == "x"
        vm_interp.eval('rename f ""')
        with pytest.raises(TclError, match="invalid command"):
            vm_interp.eval("g")

    def test_redefinition_mid_run_from_inside_vm(self, vm_interp):
        # The redefinition happens *inside* a VM run; the very next
        # iteration's CALL must miss its inline cache and re-resolve.
        vm_interp.eval(
            "proc f {} { proc f {} { return second }; return first }"
        )
        out = vm_interp.eval(
            "set out {}\n"
            "for {set i 0} {$i < 2} {incr i} { lappend out [f] }\n"
            "set out"
        )
        assert out == "first second"

    def test_builtin_guard_invalidation(self, vm_interp):
        # `set` is inlined behind a GUARD; hijacking it must reroute
        # every compiled call site to the new command.
        vm_interp.eval("proc g {} { return [set local 1] }")
        assert vm_interp.eval("g") == "1"
        vm_interp.register("set", lambda it, args: "hijacked")
        assert vm_interp.eval("g") == "hijacked"

    def test_trivial_proc_return_hijack(self, vm_interp):
        # `proc id {x} {return $x}` gets the frameless trivial-call
        # fast path, valid only while `return` is the builtin.
        vm_interp.eval("proc id {x} { return $x }")
        assert vm_interp.eval("id hi") == "hi"
        vm_interp.register("return", lambda it, args: "custom:" + args[0])
        assert vm_interp.eval("id hi") == "custom:hi"

    def test_trivial_proc_wrong_arity_message(self, vm_interp):
        vm_interp.eval("proc id {x} { return $x }")
        assert vm_interp.eval("id a") == "a"  # prime the trivial cache
        with pytest.raises(TclError) as ei:
            vm_interp.eval("id a b")
        assert ei.value.message == 'wrong # args: should be "id x"'


# --- frame-depth limiting (VM replaces the recursion-limit bump) ---------


class TestVMDepth:
    def test_vm_mode_leaves_python_recursion_limit_alone(self):
        before = sys.getrecursionlimit()
        it = Interp()
        assert sys.getrecursionlimit() == before
        it.eval("proc f {} {return ok}")
        assert it.eval("f") == "ok"

    def test_deep_finite_recursion_succeeds(self, vm_interp):
        # Far deeper than Python's default recursion limit allows for
        # the interpreted walk without its setrecursionlimit bump:
        # proc-to-proc calls are VM frames, not Python frames.
        vm_interp.eval(
            "proc count {n} { if {$n == 0} {return done};"
            " return [count [expr {$n - 1}]] }"
        )
        assert vm_interp.eval("count 2500") == "done"

    def test_infinite_recursion_is_catchable(self, vm_interp):
        vm_interp.eval("proc loop {} { loop }")
        with pytest.raises(TclError, match="too many nested evaluations"):
            vm_interp.eval("loop")
        # the interpreter survives and keeps working
        assert vm_interp.eval("expr {1 + 1}") == "2"

    def test_infinite_recursion_through_exec_fallback_is_catchable(
        self, vm_interp
    ):
        # `{*}` commands run through the EXEC fallback, which re-enters
        # the dispatch loop from Python: the eval-depth guard must fire
        # before CPython's recursion limit, as it does in the oracle.
        vm_interp.eval("proc loop {args} { loop {*}$args }")
        with pytest.raises(TclError, match="too many nested evaluations"):
            vm_interp.eval("loop 1")
        assert vm_interp.eval("catch {loop 1}") == "1"

    def test_infinite_recursion_caught_by_tcl_catch(self, vm_interp):
        vm_interp.eval("proc loop {} { loop }")
        assert vm_interp.eval("catch {loop}") == "1"
        assert vm_interp.eval("expr {2 + 2}") == "4"


# --- vm_stats counters ---------------------------------------------------


class TestVMStats:
    def test_counters_populated(self, vm_interp):
        # the if/else-of-returns body leaves a dead jump for the
        # peephole pass to delete
        vm_interp.eval(
            "proc f {n} { if {$n > 0} { return [expr {$n + 1}] }"
            " else { return 0 } }"
        )
        vm_interp.eval(
            "for {set i 0} {$i < 20} {incr i} { f $i }"
        )
        s = vm_interp.vm_stats
        assert s.frames > 0
        assert s.cache_hits > 0
        assert s.cache_misses > 0
        assert s.code_misses > 0
        assert s.peephole_ops > 0

    def test_code_cache_hits_on_reeval(self, vm_interp):
        vm_interp.eval("set x 1")
        before = vm_interp.vm_stats.code_hits
        vm_interp.eval("set x 1")
        assert vm_interp.vm_stats.code_hits > before

    def test_single_literal_command_dispatches_directly(self, vm_interp):
        # The rule-action shape skips bytecode: one literal command
        # lowers to a CompiledCommand, but the proc body it invokes
        # still executes on the VM (frames counter moves).
        from repro.tcl.interp import CompiledCommand

        vm_interp.eval("proc g {x} { return $x }")
        assert type(vm_interp.vm_compiled("g 5")) is CompiledCommand
        before = vm_interp.vm_stats.frames
        assert vm_interp.eval("g 5") == "5"
        assert vm_interp.vm_stats.frames > before

    def test_script_builtins_not_direct_dispatched(self, vm_interp):
        # Control builtins re-enter `interp.eval` per body evaluation
        # when called as plain functions, so a top-level
        # `for`/`while`/... must take the full bytecode path, which
        # inlines the body.
        from repro.tcl.bytecode import Code

        assert type(
            vm_interp.vm_compiled(
                "for {set i 0} {$i < 3} {incr i} { set x $i }"
            )
        ) is Code

    def test_stats_folded_into_traced_run(self):
        out = swift_run(
            'printf("n=%i", 1 + 2);', workers=2, trace=True
        )
        counters = out.trace.metrics.get("counters", {})
        assert counters.get("tcl.vm.frames", 0) > 0


# --- disassembler --------------------------------------------------------


class TestDisassembler:
    def test_dis_lists_expected_opcodes(self, vm_interp):
        # two commands so the script itself lowers to bytecode (a lone
        # literal command takes the direct-dispatch path instead)
        code = vm_interp.vm_compiled(
            "proc add {a b} { return [expr {$a + $b}] }\nadd 1 2"
        )
        vm_interp.eval("proc add {a b} { return [expr {$a + $b}] }")
        proc = vm_interp.lookup_command("add")
        pcode = vm_interp._vm_proc_code(vm_interp, proc)
        text = pcode.dis()
        assert "LOAD_SLOT" in text
        assert "ADD" in text
        assert "RETURN" in text
        assert "slots: 0=a, 1=b" in text
        assert code.dis()  # script-level dis renders too

    def test_cli_disasm(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "t.tcl"
        src.write_text(
            "proc id {x} { return $x }\nputs [id 7]\n", encoding="utf-8"
        )
        assert main(["disasm", str(src)]) == 0
        out = capsys.readouterr().out
        assert "CALL_LIT" in out or "CALL" in out
        assert "proto: id {x}" in out
