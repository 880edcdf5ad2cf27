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

import re
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import swift_run
from repro.tcl.bytecode import OP_CALL, OP_CALL_LIT, OP_GUARD, OP_LOOP
from repro.tcl.compile import compile_proc_code
from repro.tcl.errors import TclBreak, TclContinue, TclError, TclReturn
from repro.tcl.interp import Interp, _vm_lower

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
    # global / unset interplay with slots: unset drops a slot's cell,
    # global relinks it, and the slot must follow both
    "proc bump {} { set n 1; unset n; global n; incr n 10; return $n }\n"
    "set n 5; list [bump] $n",
    "proc lv {} { global leaked; set leaked 42 }\nlv; set leaked",
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
    "namespace eval ns { set ::ns::v 7 }\nset ns::v",
    # redefinition mid-loop (epoch invalidation inside one script)
    "proc f {} { proc f {} { return second }; return first }\n"
    "set o {}; for {set i 0} {$i < 2} {incr i} { lappend o [f] }; set o",
    # string / list commands through the generic call path
    "string toupper [string range abcdef 1 3]",
    "lsort -integer {5 3 10 1}",
    "llength [concat [lindex {{a b} c} 0] {d e}]",
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

# The tier behind the bytecode: each proc's loop runs 300 iterations,
# lowered from its first back-edge, and hits its edge at i = 200, on
# lowered code.  The flag says whether the loop is lowered at all (False:
# a command call, the NAME ops of script-root code, or Python's nesting
# keep it on the VM).
TIER_SCRIPTS = [
    # a float appears mid-loop: that iteration hands back, later entries
    # find a non-int slot and stay on the VM
    ("proc f {} { set s 0; for {set i 0} {$i < 300} {incr i} {"
     " if {$i == 200} { set s [expr {$s / 2.0}] }; set s [expr {$s + $i}] };"
     " return $s }\nf", True),
    # a slot holds a non-numeric string, then an operand is one
    ("proc f {} { set t 0; for {set i 0} {$i < 300} {incr i} {"
     " if {$i == 200} { set t abc }; set u $t };"
     " return $t-$u-$i }\nf", True),
    ("proc f {} { set t 0; for {set i 0} {$i < 300} {incr i} {"
     " if {$i == 200} { set t abc } else { set t [expr {$t + 1}] } };"
     " return $t }\nf", True),
    # a zero divisor past the threshold: the VM's message and errorInfo
    ("proc f {} { set a 1; for {set i 0} {$i < 300} {incr i} {"
     " set z [expr {200 - $i}]; set a [expr {($a + 7) % $z}] };"
     " return $a }\nf", True),
    ("proc f {} { set a 1; set i 0; while {$i < 300} {"
     " set a [expr {$a + 1000 / (200 - $i)}]; incr i }; return $a }\nf", True),
    # ints past 2**64
    ("proc f {} { set x 1; for {set i 0} {$i < 300} {incr i} {"
     " set x [expr {$x * 3 + $i}] }; return $x }\nf", True),
    # negative % and / floor
    ("proc f {} { set s 0; for {set i 0} {$i < 300} {incr i} {"
     " set s [expr {$s + (-$i - 7) / 3 + (-$i) % 5 + $i % -7 + -$i / -4}] };"
     " return $s }\nf", True),
    # incr of " 7": a non-canonical int string is handed back
    ("proc f {} { set x 0; for {set i 0} {$i < 300} {incr i} {"
     " if {$i == 200} { set x \" 7\" }; incr x }; return $x }\nf", True),
    # ** with a negative exponent turns float
    ("proc f {} { set p 0; for {set i 0} {$i < 300} {incr i} {"
     " set e [expr {200 - $i}]; set p [expr {2 ** $e / 4}] }; return $p }\nf", True),
    # an int slot in a non-canonical form at entry keeps its text
    ("proc f {} { set x 007; set y 0; for {set i 0} {$i < 300} {incr i} {"
     " incr y; set y $x }; return $x-$y }\nf", True),
    # an int too long for str() is the VM's error, even when no slot holds it
    ("proc f {} { set s 0; for {set i 0} {$i < 300} {incr i} {"
     " if {$i == 200} { set b 10 } else { set b 2 };"
     " if {[expr {$b ** 5000}] > 0} { incr s } }; return $s }\nf", True),
    # a negative shift is the VM's error
    ("proc f {} { set q 0; for {set i 0} {$i < 300} {incr i} {"
     " set q [expr {1 << (200 - $i)}] }; return $q }\nf", True),
    # nested loops: the inner one tiers up first, then the outer one
    ("proc f {} { set s 0; for {set i 0} {$i < 100} {incr i} {"
     " for {set j 0} {$j < 30} {incr j} { set s [expr {($s * 7 + $i - $j) % 1009}] } };"
     " return $s-$i-$j }\nf", True),
    # if, break and continue in the body; && and ! in the condition
    ("proc f {} { set s 0; for {set i 0} {$i < 300} {incr i} {"
     " if {$i % 3 == 0} continue; if {$i == 250} break;"
     " if {$s > 1000} { set s [expr {$s - 999}] } elseif {!($i & 1)} { incr s 5 }"
     " else { set s [expr {~$s + $i * 2}] } }; return $s-$i }\nf", True),
    ("proc f {} { set i 0; set s 0; while {$i < 300 && $s != -1} {"
     " incr i; set s [expr {$s ^ ($i << 3) | 1}] }; return $s-$i }\nf", True),
    # 120 nested `?:` outgrow Python's nesting: the loop stays on the VM
    ("proc f {} { set s 0; for {set i 0} {$i < 300} {incr i} { set s [expr {$s + (%s : -1)}] };"
     " return $s }\nf" % " : ".join("$i == %d ? %d" % (j, j) for j in range(120)), False),
    # a body with a command call is declined
    ("proc f {} { set s 0; for {set i 0} {$i < 300} {incr i} {"
     " set s [string length $i] }; return $s }\nf", False),
    # a loop at script root is declined: the NAME ops
    ("set s 0; for {set i 0} {$i < 300} {incr i} { set s [expr {$s + $i}] }; set s",
     False),
]
DIFFERENTIAL_SCRIPTS += [script for script, _ in TIER_SCRIPTS]


@pytest.mark.parametrize(
    "script", DIFFERENTIAL_SCRIPTS, ids=range(len(DIFFERENTIAL_SCRIPTS))
)
def test_vm_matches_interpreted(script):
    assert_same(script)


@pytest.mark.parametrize(
    "script,lowered", TIER_SCRIPTS, ids=range(len(TIER_SCRIPTS))
)
def test_tier_corpus_runs_on_the_tier(script, lowered):
    it = Interp()
    it.echo = False
    try:
        it.eval(script)
    except TclError:
        pass
    s = it.vm_stats  # entered the loop's function, or tried to
    assert (s.lowered_iterations + s.loop_deopts >= 1) == lowered


def test_lowered_loops_shared_across_threads():
    # Each rank thread has its own Interp; the loop functions and the
    # OP_LOOP verdicts are shared process-wide through lock-free LRUs.
    body = (
        "proc hot {n a} { for {set k 0} {$k < $n} {incr k}"
        " { set a [expr {($a * 31 + $k) % 1009}] }; return $a }"
    )
    results = []

    def work(first):
        it = Interp()
        it.echo = False
        it.eval(body)
        for a in range(first, first + 5):
            results.append((a, it.eval("hot 200 %d" % a)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(10 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == sorted((a, str(_acc(200, a))) for k in range(6)
                                     for a in range(10 * k, 10 * k + 5))


# --- the proc tier: proc bodies lowered to Python functions ---------------

# Each script's entry proc runs lowered from its first call, and reaches
# a hand-back site (or an inlined catch) there.
PROC_TIER_SCRIPTS = [
    # a proc redefined, and renamed, mid-body: every call site re-checks
    "proc g {} { return a }\n"
    "proc f {} { set r [g]; proc g {} { return b }; append r [g];"
    " proc g {} { return a }; return $r }\nlist [f] [f] [f] [f]",
    "proc g {} { return old }\n"
    "proc f {} { set r [g]; rename g h; proc g {} { return new }; append r [g] [h];"
    " rename g {}; rename h g; return $r }\nlist [f] [f] [f] [f]",
    "proc f {n} { if {$n == 3} { proc f {n} { return redefined } }; return $n }\n"
    "list [f 1] [f 2] [f 3] [f 4]",
    # ... where a stale cache would answer with an older definition
    "proc f {n} { proc g {} [list return $n]; return [g] }\nlist [f 1] [f 2] [f 3] [f 4]",
    "proc g {} { return 0 }\n"
    "proc f {n} { rename g {}; proc h {} [list return $n]; rename h g; return [g] }\n"
    "list [f 1] [f 2] [f 3] [f 4]",
    "proc g {} { return global }\nnamespace eval ns { proc f {n} {"
    " if {$n == 3} { proc ::ns::g {} { return local } }; return [g] } }\n"
    "list [ns::f 1] [ns::f 2] [ns::f 3] [ns::f 4]",
    # a namespace's own command defined mid-body shadows the global one
    "proc g {} { return global }\n"
    "namespace eval ns { proc f {} { set a [g]; proc ::ns::g {} { return local };"
    " set b [g]; rename ::ns::g {}; return $a/$b/[g] } }\n"
    "list [ns::f] [ns::f] [ns::f] [namespace eval ns { f }]",
    # wrong # args: a trivial callee, a plain one, one with args
    "proc one {a} { return $a }\nproc f {n} { if {$n == 3} { one }; return [one $n] }\n"
    "f 1; f 2; f 3",
    "proc two {a b} { return $a$b }\n"
    "proc f {n} { if {$n == 3} { return [two $n] }; return $n }\nf 1; f 2; f 3",
    "proc va {a b args} { return $a$b$args }\n"
    "proc f {n} { list [va $n x] [va $n x y z] [expr {$n == 3 ? [va $n] : 0}] }\n"
    "f 1; f 2; f 3",
    # an unknown command, with an unknown handler and then without one
    "proc unknown {args} { return \"u:$args\" }\n"
    "proc f {n} { return [nosuch $n 2] }\nlist [f 1] [f 2] [f 3]",
    "proc unknown {args} { return \"u:$args\" }\n"
    "proc f {n} { return [nosuch $n 2] }\nf 1; f 2; rename unknown {}; f 3",
    # the frame's cells change under a call: global, unset, eval
    "set x 10\nproc f {} { set x 1; global x; incr x; return $x }\nlist [f] [f] [f]",
    "proc f {} { set y 1; unset y; set y 2; incr y; return $y }\nlist [f] [f] [f]",
    "proc f {n} { eval {set z $n}; return [expr {$z * 2}] }\nlist [f 1] [f 2] [f 3]",
    "proc f {n} { set a 1; if {$n == 3} { eval {unset a} }; return $a }\nf 1; f 2; f 3",
    # `incr name $word`: a slot increment, and its errors
    "proc f {s} { set i 5; incr i $s; incr i; return $i }\nlist [f 1] [f -3] [f 0x10]",
    "proc f {s} { set i 5; incr i $s }\nf 1; f 2; f 1.5",
    "proc f {s} { incr i $s }\nlist [f 4] [f 4] [f 4]",
    "proc f {s} { set i [expr {$s == 3 ? \"abc\" : 1}]; incr i $s }\nf 1; f 2; f 3",
    "proc f {n} { if {$n == 3} { for {set i 0} {$i < 9} {incr i $s} {} }; return $n }\n"
    "f 1; f 2; f 3",
    # catch: error, return, break and continue, with and without a var
    "proc f {n} { set c [catch {error boom$n} m]; return $c:$m }\nlist [f 1] [f 2] [f 3]",
    "proc f {n} { set c [catch {return x$n} m]; return $c:$m }\nlist [f 1] [f 2] [f 3]",
    "proc f {n} { list [catch {error e$n}] [catch {return -code error r$n} m] $m }\n"
    "list [f 1] [f 2] [f 3]",
    "proc f {n} { set o {}; for {set i 0} {$i < 5} {incr i} {"
    " lappend o [catch { if {$i == 1} break; if {$i == 3} continue; set i } m]$m };"
    " return $o }\nlist [f 1] [f 2] [f 3]",
    "proc f {n} { set o {}; set c [catch { for {set i 0} {$i < 5} {incr i} {"
    " if {$i == $n} break; if {$i == 1} continue; lappend o $i } } m];"
    " return $c:$m:$o }\nlist [f 2] [f 3] [f 4]",
    "proc f {n} { set o {}; catch { foreach i {1 2 3} { if {$i == $n} break;"
    " lappend o $i } }; return $o }\nlist [f 2] [f 3] [f 9]",
    "proc f {n} { catch { catch {error in$n} m; error out$m } m2; return $m/$m2 }\n"
    "list [f 1] [f 2] [f 3]",
    "proc f {n} { list [catch {expr {1 << -$n}} m] $m }\nlist [f 1] [f 2] [f 3]",
    "proc f {n} { list [catch {expr {$n / 0}} m] $m [catch {nosuch} m] $m }\n"
    "list [f 1] [f 2] [f 3]",
    # ... across a proc frame: the callee's error, break and return
    "proc g {n} { error deep$n }\nproc h {} { break }\nproc r {} { return -code return rr }\n"
    "proc f {n} { list [catch {g $n} m] $m [catch {h} m] $m [catch {r} m] $m }\n"
    "list [f 1] [f 2] [f 3]",
    "proc h {} { break }\nproc f {} { set o {}; foreach i {1 2 3} { lappend o $i; h };"
    " return $o }\nlist [f] [f] [f]",
    "proc g {n} { if {$n > 2} { error deep$n }; return $n }\n"
    "proc f {n} { set r [g $n]; return $r }\nf 1; f 2; f 3",
    # a catch whose body the compiler leaves to cmd_catch, and a caught
    # error whose message the var receives
    "proc f {n} { set s {error dyn$n}; list [catch $s m] $m [catch {set x \"un}] }\n"
    "list [f 1] [f 2] [f 3]",
    "proc f {} { catch {error x} ::gv; return $::gv }\nlist [f] [f] [f]",
]


@pytest.fixture
def default_recursion_limit():
    """CPython's default recursion limit, which only the oracle raises."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(before)


def _lowered(script):
    it = Interp()
    it.echo = False
    try:
        it.eval(script)
    except (TclError, TclReturn, TclBreak, TclContinue):
        pass
    return it.vm_stats


@pytest.mark.parametrize("script", PROC_TIER_SCRIPTS, ids=range(len(PROC_TIER_SCRIPTS)))
def test_proc_tier_matches_interpreted(script):
    assert_same(script)
    assert _lowered(script).lowered_calls >= 1


@pytest.mark.parametrize(
    "script", DIFFERENTIAL_SCRIPTS + PROC_TIER_SCRIPTS,
    ids=range(len(DIFFERENTIAL_SCRIPTS) + len(PROC_TIER_SCRIPTS)),
)
def test_vm_matches_interpreted_lowered_at_once(script):
    # every proc body runs lowered from its first call
    assert_same(script)


@pytest.mark.parametrize(
    "script", DIFFERENTIAL_SCRIPTS + PROC_TIER_SCRIPTS,
    ids=range(len(DIFFERENTIAL_SCRIPTS) + len(PROC_TIER_SCRIPTS)),
)
def test_vm_matches_interpreted_on_the_vm(script, monkeypatch):
    # NEST 0: every proc activation is a VM frame; loops still run lowered
    from repro.tcl import vm

    monkeypatch.setattr(vm, "NEST", 0)
    assert_same(script)
    assert _lowered(script).lowered_calls == 0


class TestProcTier:
    def test_hand_back_sites_count(self, vm_interp):
        vm_interp.eval("proc f {n} { set a [string length $n]; global g;"
                       " return $a }\nproc k {} { return [f 1][f 22] }")
        assert vm_interp.eval("k; k; k") == "12"
        s = vm_interp.vm_stats
        # every call runs lowered: k's 3 and f's 6, each of f's handing
        # its frame back after `global` moved its cells
        assert s.lowered_calls == 9 and s.proc_handbacks == 6

    def test_catch_is_inlined_in_a_proc_body(self, vm_interp):
        vm_interp.eval("proc f {} { catch { for {set i 0} {$i < 3} {incr i $n} { lappend l $i } } m;"
                       " return $m }")
        dis = vm_interp._vm_proc_code(vm_interp, vm_interp.lookup_command("f")).dis()
        assert "(catch, fallback" in dis and not re.search(r"CALL_LIT .*\(catch", dis)
        assert "PROC lowerable" in dis
        assert vm_interp.eval("set n 1; f") == 'can\'t read "n": no such variable'
        root = vm_interp.vm_compiled("catch {error x} m; set m")
        assert "CALL_LIT" in root.dis()  # script-root code keeps cmd_catch

    def test_a_lowered_body_runs_its_loop_on_the_loop_tier(self, monkeypatch):
        # OP_LOOP in a lowered body enters the loop's function at its
        # first back-edge, as the VM does: no hand-back, and the loop
        # tier's counters read as on the VM.
        from repro.tcl import vm

        script = ("proc f {n} { set s 0; for {set i 0} {$i < $n} {incr i} {"
                  " set s [expr {($s * 3 + $i) % 1009}] }; return $s-$i }\n"
                  "list [f 200] [f 200] [f 200]")
        stats = []
        for nest in (0, vm.NEST):
            monkeypatch.setattr(vm, "NEST", nest)
            stats.append(_lowered(script))
        on_vm, lowered = stats
        assert (on_vm.lowered_calls, lowered.lowered_calls, lowered.proc_handbacks) == (0, 3, 0)
        assert lowered.lowered_iterations == on_vm.lowered_iterations == 3 * 199
        assert lowered.loop_deopts == on_vm.loop_deopts == 0
        assert_same(script)

    def test_dis_names_the_first_op_on_the_vm(self, vm_interp):
        vm_interp.eval("proc f {} { set l {1 2}; return [list {*}$l] }")
        dis = vm_interp._vm_proc_code(vm_interp, vm_interp.lookup_command("f")).dis()
        assert re.search(r"PROC on VM: EXEC \d+ \(<dynamic>\)", dis)

    def test_deep_recursion_through_lowered_procs(self, vm_interp):
        vm_interp.eval(
            "proc count {n} { if {$n == 0} {return done};"
            " return [count [expr {$n - 1}]] }"
        )
        assert vm_interp.eval("count 3; count 3; count 3") == "done"
        before = vm_interp.vm_stats.lowered_calls
        assert vm_interp.eval("count 2500") == "done"
        # the first NEST levels run lowered, the rest as VM frames
        from repro.tcl.vm import NEST

        assert vm_interp.vm_stats.lowered_calls - before == NEST

    def test_infinite_recursion_through_lowered_procs_is_catchable(self, vm_interp):
        vm_interp.eval("proc loop {n} { if {$n} { return [loop $n] }; return 0 }")
        assert vm_interp.eval("loop 0; loop 0; loop 0") == "0"
        with pytest.raises(TclError, match="too many nested evaluations"):
            vm_interp.eval("loop 1")
        assert vm_interp.eval("catch {loop 1}") == "1"
        assert len(vm_interp.frames) == 1 and vm_interp.vm_nest == 0
        assert vm_interp.eval("loop 0") == "0"

    def test_a_lowered_function_is_shared_across_threads(self):
        # One template, one function; each interp's bound copy passes its
        # own caches, so a redefinition in one is never seen by another.
        steps = {
            who: ["proc g {x} { return %s$x }" % who,
                  "proc f {n} { set s {}; for {set i 0} {$i < $n} {incr i} {"
                  " append s [g $i] }; return $s }"]
            for who in "ABCD"
        }
        results = {who: [] for who in steps}
        interps = {}
        warm = Interp()  # one template: threads missing at once each compile
        warm.echo = False
        for step in steps["A"] + ["f 3"]:
            warm.eval(step)

        def work(who):
            it = interps[who] = Interp()
            it.echo = False
            for step in steps[who]:
                it.eval(step)
            for i in range(60):
                if who == "A" and i == 30:
                    it.eval("proc g {x} { return a$x }")
                results[who].append(it.eval("f 3"))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in steps]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for who in steps:
            first = "%s0%s1%s2" % (who, who, who)
            want = [first] * 60 if who != "A" else [first] * 30 + ["a0a1a2"] * 30
            assert results[who] == want
            assert interps[who].vm_stats.lowered_calls >= 55
        codes = [interps[w].lookup_command("f")._vm_code for w in steps]
        assert len({id(c.low) for c in codes}) == 1 and codes[0].low[0]
        assert len({id(c.caches) for c in codes}) == 4

    def test_trailing_args_bind_on_the_fast_path(self, vm_interp, monkeypatch):
        from repro.tcl.interp import TclProc

        def no_bind(*a):
            raise AssertionError("slow binding")

        vm_interp.eval("proc cat {args} { join $args {} }\nproc fmt {f args} { format $f {*}$args }")
        monkeypatch.setattr(TclProc, "bind", no_bind)
        assert vm_interp.eval("cat a {b c} d; cat; cat x") == "x"
        assert vm_interp.eval("proc k {} { return [cat 1 2][cat][fmt %s-%s a b] }\nk; k; k") == "12a-b"
        with pytest.raises(TclError, match="slow binding"):
            vm_interp.eval("fmt")


# --- property-based: random int loops, tier vs oracle ----------------------

_VARS = ["a", "b", "c", "d"]


@st.composite
def _loops(draw):
    names = _VARS[: draw(st.integers(2, 4))]
    small = st.integers(-9, 9).map(str)

    def expr(depth):
        leaf = st.one_of(small, st.sampled_from(names).map(lambda n: "$" + n))
        if depth == 0:
            return leaf
        op = st.sampled_from(["+", "-", "*", "/", "%", "<", ">=", "==", "!="])
        return st.one_of(leaf, st.tuples(expr(depth - 1), op, expr(depth - 1)).map(
            lambda t: "(%s %s %s)" % t))

    def assign():
        return st.tuples(st.sampled_from(names), expr(2)).map(
            lambda t: "set %s [expr {%s %% 1009}]" % t)

    body = draw(st.lists(assign(), min_size=1, max_size=3))
    if draw(st.booleans()):
        body.append(draw(st.tuples(expr(1), assign(), assign()).map(
            lambda t: "if {%s} { %s } else { %s }" % t)))
    inits = " ".join("set %s %s;" % (n, draw(small)) for n in names)
    return "proc f {} { %s for {set i 0} {$i < 150} {incr i} { %s }; return %s }\nf" % (
        inits, "; ".join(body), "-".join("$" + n for n in names))


@seed(34)
@given(script=_loops())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_int_loops_agree_tier_vs_oracle(script):
    assert_same(script)


# --- property-based: random expression programs through the full stack ---


@given(tree=exprs)
@settings(
    max_examples=20,
    deadline=None,
    # tcl_oracle is a stateless switch: each use restores the VM on exit
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_property_swift_programs_agree_vm_vs_interpreted(tree, tcl_oracle):
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
    assert swift_run(src, workers=2).stdout_lines == expected_lines, (to_swift(tree), "vm")
    with tcl_oracle():
        out = swift_run(src, workers=2)
    assert out.stdout_lines == expected_lines, (to_swift(tree), "interpreted")


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


HOT = (
    "proc hot {n} { set a 0; for {set i 0} {$i < $n} {incr i}"
    " { set a [expr {$a + $i}] }; return $a }\n"
)


class TestTierInvalidation:
    """A lowered loop's guards are re-checked at every loop entry, so a
    redefinition between two calls is taken by the second."""

    @pytest.mark.parametrize("body,redefine", [
        ("if {$i == 150} { set a [expr {$a + 1000}] }; incr i",
         "rename expr orig_expr; proc expr {args} { return 1 }"),
        ("if {$i == 150} { set a [expr {$a + 1000}] }; incr i",
         "proc set {args} { error {set is off} }"),
        ("if {$i == 150} { incr a 1000 }; set i [expr {$i + 1}]",
         "proc incr {args} { error {incr is off} }"),
    ])
    def test_redefinition_between_calls_is_taken(self, vm_interp, body, redefine):
        # The redefined command sits in a branch the second call's first
        # iteration (on the VM) does not take: only the entry check sees it.
        hot = "proc hot {n a i} { while {$i < $n} { %s }; return $a }\n" % body
        call = "list [catch {hot 300 0 0} m] $m"
        assert_same(hot + "set r [hot 300 0 0]\n" + redefine + "\nlappend r [%s]" % call)
        vm_interp.eval(hot + "hot 300 0 0")
        stats = vm_interp.vm_stats
        assert (stats.lowered_iterations, stats.loop_deopts) == (299, 0)
        vm_interp.eval(redefine)
        vm_interp.eval(call)
        assert stats.loop_deopts == 1

    def test_a_loop_that_redefines_a_command_is_never_lowered(self, vm_interp):
        vm_interp.eval(
            "proc f {} { set a 0; for {set i 0} {$i < 300} {incr i}"
            " { proc g {} { return 1 }; set a [expr {$a + $i}] }; return $a }"
        )
        assert vm_interp.eval("f") == str(sum(range(300)))
        assert (vm_interp.vm_stats.lowered_iterations, vm_interp.vm_stats.loop_deopts) == (0, 0)
        pcode = vm_interp._vm_proc_code(vm_interp, vm_interp.lookup_command("f"))
        assert "on VM: CALL_LIT" in pcode.dis()


# --- shared templates, per-interp inline caches ---------------------------

# The body holds all four cache kinds: CALL ([g $n]), CALL_LIT ([g]),
# GUARD (set/for/expr/return) and LOOP (a loop of no command, lowered
# with its template).
SHARED_F = (
    "proc f {n} { set s 0; for {set k 0} {$k < 100} {incr k}"
    " { set s [expr {$s + $k}] }; return [g]:[g $n]:$s }"
)


# Each cache kind's run-time fields, from their first index, as compiled:
# epoch -1 and nothing resolved; a loop that has not handed back.
PRISTINE = {
    OP_CALL: (2, [-1, None, None, 0, None]),
    OP_CALL_LIT: (3, [-1, None, 0, None]),
    OP_GUARD: (2, [-1, None, False]),
    OP_LOOP: (3, [True]),
}


def _assert_pristine(template):
    """Every inline cache of a template holds its compile-time values."""
    ops, seen = template.ops, set()
    for pc in range(0, len(ops), 2):
        if ops[pc] in PRISTINE:
            first, values = PRISTINE[ops[pc]]
            assert template.caches[ops[pc + 1]][first:first + len(values)] == values
            seen.add(ops[pc])
    assert seen == set(PRISTINE)


def _template_misses():
    return _vm_lower.cache_info().misses, compile_proc_code.cache_info().misses


class TestSharedTemplates:
    """A text compiles once per process to a template; each interp runs
    its own bound copy, so a redefinition in one interp is never seen by
    another running the same text at the same time."""

    @pytest.mark.parametrize("setup,f,redefine,mid", [
        ("", "f", "proc g {args} { return A2 }", "A2:A2:4950"),
        ("", "f", 'rename g old_g; proc g {args} { return "r[old_g]" }',
         "rA:rA:4950"),
        ("namespace eval ns { %s }", "ns::f",
         "proc ::ns::g {args} { return N }", "N:N:4950"),
    ], ids=["proc", "rename", "namespace"])
    def test_interps_see_only_their_own_commands(self, setup, f, redefine, mid):
        # More interps than CPUs, one thread each; only A redefines `g`.
        n, half, names = 200, 100, "ABCD"
        steps = {
            who: [(setup or "%s") % SHARED_F, "proc g {args} { return %s }" % who]
            for who in names
        }
        interps, results = {}, {who: [] for who in names}
        # Two threads that miss on one text at once may each compile
        # it; compile it first, so that every interp binds one template.
        warm = Interp()
        warm.echo = False
        for step in steps["A"] + ["%s 3" % f]:
            warm.eval(step)

        def work(who):
            it = interps[who] = Interp()
            it.echo = False
            for step in steps[who]:
                it.eval(step)
            for i in range(n):
                if who == "A" and i == half:
                    it.eval(redefine)
                results[who].append(it.eval("%s 3" % f))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        # the oracle, one interp at a time, gives the same sequences
        for who in names:
            oracle = Interp(compile_enabled=False)
            oracle.echo = False
            for step in steps[who]:
                oracle.eval(step)
            want = [oracle.eval("%s 3" % f) for _ in range(half)]
            if who == "A":
                oracle.eval(redefine)
            want += [oracle.eval("%s 3" % f) for _ in range(n - half)]
            assert results[who] == want
            assert want[0] == "%s:%s:4950" % (who, who)
            assert want[-1] == (mid if who == "A" else want[0])
            stats = interps[who].vm_stats
            assert (stats.lowered_iterations, stats.loop_deopts) == (n * 99, 0)
        procs = [interps[w].lookup_command(f) for w in names]
        p = procs[0]
        template = compile_proc_code(p.body, p.params, p.name, p._simple)
        codes = [template] + [p._vm_code for p in procs]
        assert all(c.ops is template.ops and c.consts is template.consts for c in codes)
        for entries in zip(*(c.caches for c in codes)):
            assert len({id(e) for e in entries}) == len(codes)
        _assert_pristine(template)

    def test_a_second_run_compiles_nothing(self):
        # A 1-hop chain: its chunk runs its loop inside a `catch` script,
        # which a second run of the program finds compiled.
        src = ('string a[];\na[0] = "1";\nforeach i in [0:0] {\n'
               '    a[i+1] = python(strcat("x=", a[i], "*3+1*", fromint(i)),'
               ' "x%1000003");\n}\ntrace(a[1]);\n')
        runs = []
        for _ in range(2):
            before = _template_misses()
            res = swift_run(src, workers=2)
            runs.append((res.stdout_lines, res.metrics["counters"]["tcl.vm.code_misses"],
                         _template_misses() != before))
        assert runs[0][0] == ["trace: 3"]
        assert not runs[1][2]
        assert runs[1][:2] == runs[0][:2]  # same output, same code_misses

    def test_a_second_interp_compiles_nothing(self):
        def run():
            it = Interp()
            it.echo = False
            it.eval(SHARED_F + "\nproc g {args} { return x }")
            return it.eval("f 3; f 3"), it.vm_stats

        first, stats = run()
        before = _template_misses()
        second, again = run()
        assert second == first == "x:x:4950"
        assert _template_misses() == before
        assert again == stats  # every counter reads per interp, as before


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

    # Recursion through `eval`: every level is an evaluation, about 8 of
    # CPython's recursion units, so under its default limit the eval
    # guard must fire before a RecursionError, which `catch` cannot take.
    EVAL_RECURSION = (
        "proc r {n} { if {$n == 0} {return done}; return [eval [list r [expr {$n-1}]]] }"
    )

    @pytest.mark.parametrize("n, ok", [(3, True), (100, True), (300, False), (2500, False)])
    @pytest.mark.parametrize("caught", [False, True], ids=["bare", "catch"])
    def test_recursion_through_eval_stops_at_the_guard(self, default_recursion_limit, n, ok, caught):
        it = Interp()
        it.echo = False
        it.eval(self.EVAL_RECURSION)
        script = "r %d" % n
        if caught:
            want = "0 done" if ok else "1 {too many nested evaluations (infinite loop?)}"
            assert it.eval("list [catch {%s} m] $m" % script) == want
        elif ok:
            assert it.eval(script) == "done"
        else:
            with pytest.raises(TclError, match="too many nested evaluations"):
                it.eval(script)
        assert it._depth == 0 and len(it.frames) == 1 and it.eval("r 3") == "done"

    def test_infinite_recursion_caught_by_tcl_catch(self, vm_interp):
        vm_interp.eval("proc loop {} { loop }")
        assert vm_interp.eval("catch {loop}") == "1"
        assert vm_interp.eval("expr {2 + 2}") == "4"

    # Bodies whose lowered function hands the frame back at every call
    # (`global` moves its cells; `{*}` is an EXEC), so each level resumes
    # on the VM from Python.  Under CPython's default recursion limit
    # the depth must still come from FRAME_LIMIT, not a RecursionError.
    HANDING_BACK = [
        "proc count {n} { global g; if {$n == 0} {return done};"
        " return [count [expr {$n - 1}]] }",
        "proc count {n} { if {$n == 0} {return done}; set a [list {*}[list $n]];"
        " return [count [expr {$a - 1}]] }",
    ]

    @pytest.mark.parametrize("proc", HANDING_BACK, ids=["global", "exec"])
    def test_deep_recursion_of_a_handing_back_body(self, vm_interp, default_recursion_limit, proc):
        vm_interp.eval(proc)
        assert vm_interp.eval("count 3; count 3; count 2500") == "done"
        assert vm_interp.vm_stats.proc_handbacks > 0
        assert len(vm_interp.frames) == 1 and vm_interp.vm_nest == 0

    def test_infinite_recursion_of_a_handing_back_body_is_catchable(
        self, vm_interp, default_recursion_limit
    ):
        vm_interp.eval("proc loop {} { global g; loop }")
        assert vm_interp.eval("catch {loop} m; set m") == "too many nested evaluations (infinite loop?)"
        assert vm_interp.eval("catch {loop}") == "1"
        assert vm_interp.vm_stats.proc_handbacks > 0
        assert len(vm_interp.frames) == 1 and vm_interp.vm_nest == 0


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

    def test_counters_populated_after_another_interp(self, vm_interp):
        # The texts compile once per process; code_misses and
        # peephole_ops still read what a first interp reads.
        first = Interp()
        first.echo = False
        self.test_counters_populated(first)
        self.test_counters_populated(vm_interp)
        for name in ("code_misses", "code_hits", "peephole_ops", "frames"):
            assert getattr(vm_interp.vm_stats, name) == getattr(first.vm_stats, name)

    def test_bad_arg_spec_raises_on_every_definition(self, vm_interp):
        for _ in range(3):
            with pytest.raises(TclError, match='too many fields in argument'
                               ' specifier "a b c"'):
                vm_interp.eval("proc bad {{a b c}} { return 1 }")
        assert vm_interp.lookup_command("bad") is None

    def test_code_cache_hits_on_reeval(self, vm_interp):
        # two commands: a script of one plain command never enters the cache
        vm_interp.eval("set x 1; set y 2")
        before = vm_interp.vm_stats.code_hits
        vm_interp.eval("set x 1; set y 2")
        assert vm_interp.vm_stats.code_hits > before

    def test_plain_payload_is_no_cache_entry(self, vm_interp):
        from repro.tcl.parser import parse_cached

        vm_interp.eval("proc task:p {a b} { return $a$b }")
        assert vm_interp.eval("task:p a b") == "ab"  # parses the body
        stats, size = vm_interp.vm_stats, len(vm_interp._vm_code_cache)
        misses, hits = stats.code_misses, stats.code_hits
        parses = parse_cached.cache_info()
        payload = "task:p i=41 x%1000003"
        assert vm_interp.eval(payload) == "i=41x%1000003"
        assert parse_cached.cache_info() == parses
        assert payload not in vm_interp._vm_code_cache
        assert len(vm_interp._vm_code_cache) == size
        assert (stats.code_misses, stats.code_hits) == (misses, hits)
        # a braced word is literal but not plain: it is lowered and cached
        assert vm_interp.eval("task:p {i=41} x") == "i=41x"
        assert "task:p {i=41} x" in vm_interp._vm_code_cache

    def test_single_literal_command_dispatches_directly(self, vm_interp):
        # A one-command literal script skips bytecode: it
        # lowers to its parsed Command, but the proc body it invokes
        # still executes on the VM (frames counter moves).
        from repro.tcl.parser import Command

        vm_interp.eval("proc g {x} { return $x }")
        assert type(vm_interp.vm_compiled("g 5")) is Command
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

    def test_tier_counters(self, vm_interp):
        vm_interp.eval(HOT)
        vm_interp.eval("hot 300")
        vm_interp.eval("hot 300")
        s = vm_interp.vm_stats
        # each call runs its first iteration, the rest lowered
        assert (s.lowered_iterations, s.loop_deopts) == (2 * 299, 0)
        vm_interp.eval("proc half {} { set a 0; for {set i 0} {$i < 300} {incr i}"
                       " { set a [expr {$i == 200 ? 0.5 : $a + 1}] }; return $a }")
        assert vm_interp.eval("half") == "99.5"
        assert (s.lowered_iterations, s.loop_deopts) == (2 * 299 + 199, 1)

    def test_a_first_call_runs_lowered(self):
        # no warm-up: in a fresh interp the body runs lowered from its
        # first call, and its loop from its first back-edge
        it = Interp()
        it.echo = False
        it.eval("proc crunch {x n} { set acc [expr {($x * 5807 + 816) % 12}];"
                " for {set k 0} {$k < $n} {incr k} { set acc [expr {($acc * 3723 + $k) % 1000003}] };"
                " return $acc }")
        it.eval("crunch 7 3000")
        s = it.vm_stats
        assert (s.lowered_calls, s.lowered_iterations, s.loop_deopts) == (1, 2999, 0)

    def test_a_hand_back_sticks(self, vm_interp):
        # a float slot hands the loop back at its first entry; the copy's
        # later calls run the loop on the VM without trying again
        vm_interp.eval("proc f {n} { set x 1; for {set i 0} {$i < $n} {incr i}"
                       " { set x [expr {$x * 1.0001}] }; return $x }")
        for _ in range(10):
            vm_interp.eval("f 3000")
        s = vm_interp.vm_stats
        assert (s.lowered_iterations, s.loop_deopts) == (0, 1)
        assert_same("proc f {n} { set x 1; for {set i 0} {$i < $n} {incr i}"
                    " { set x [expr {$x * 1.0001}] }; return $x }\nf 300")

    def test_tier_counters_in_a_run(self):
        res = swift_run(
            '(int o) acc(int n) "" "1.0" [ "set a 0; for {set k 0} {$k < <<n>>}'
            ' {incr k} { set a [expr {($a * 31 + $k) % 1009}] }; set <<o>> $a" ];\n'
            "trace(acc(300));",
            workers=2,
        )
        assert res.stdout_lines == ["trace: %d" % _acc(300)]
        counters = res.metrics["counters"]
        assert counters["tcl.vm.lowered_iterations"] == 299
        assert counters["tcl.vm.loop_deopts"] == 0

    def test_stats_folded_into_traced_run(self):
        out = swift_run(
            'printf("n=%i", 1 + 2);', workers=2, trace=True
        )
        counters = out.trace.metrics.get("counters", {})
        assert counters.get("tcl.vm.frames", 0) > 0


# --- plain dispatch ------------------------------------------------------

# Each case is a list of scripts run in order on one interpreter; the
# last ones are plain, or one character away from plain.
PLAIN_CASES = {
    "wrong # args": ["proc f {a} { return $a }", "f 1 2", "f"],
    "unknown, no unknown proc": ["nosuch 1 2"],
    "unknown proc": ['proc unknown {args} { return "u:$args" }', "nosuch 1 2", "set"],
    "catch first": ["catch nosuch", "catch set"],
    "eval first": ["eval set x 5", "set x"],
    "uplevel first": ["uplevel 1 set y 6"],
    "leading #": ["#set x 1", "# set x 1"],
    "tab": ["set\tx 1", "set x"],
    "double space": ["set x  2", "set x"],
    "newline": ["set x 3\nset x"],
    "non-ASCII": ["set x \u00e9", "set x"],
    "proc redefined": [
        "proc g {} { return 1 }", "g", "proc g {a} { return $a }", "g", "g 2",
    ],
    "error in a proc": ["proc h {a} { expr {$a / 0} }", "h 3"],
    "host exception": ["string repeat ab x"],
    # A braced word is literal but not plain: the script is looked up
    # in the code cache as its parsed Command and must still re-resolve
    # its command on every evaluation.
    "braced, proc redefined": [
        "proc g {a} { return 1:$a }", "g {b c}",
        "proc g {a} { return 2:$a }", "g {b c}",
    ],
    "braced, rename": [
        "proc g {a} { return g:$a }", "g {b c}", "rename g h", "g {b c}",
        "h {b c}", "proc g {a} { return new:$a }", "g {b c}",
    ],
    "braced, two namespaces": [
        "proc f {a} { return ::f:$a }",
        "namespace eval n1 { proc f {a} { return n1:$a } }",
        "namespace eval n2 { proc f {a} { return n2:$a } }",
        "namespace eval n1 {f {b c}}", "namespace eval n2 {f {b c}}",
        "f {b c}", "namespace eval n3 {f {b c}}",
    ],
    "braced, wrong # args": [
        "proc f {a} { return $a }", "f {1} {2}", "{f}", "f \\1",
    ],
    "braced, unknown": [
        "{nosuch} {1 2}", 'proc unknown {args} { return "u:$args" }',
        "{nosuch} {1 2}", "rename unknown {}", "{nosuch} {1 2}",
    ],
}


def run_steps(scripts: list[str], vm: bool) -> list:
    it = Interp(compile_enabled=vm)
    it.echo = False
    out = []
    for script in scripts:
        try:
            out.append(("ok", it.eval(script)))
        except TclError as e:
            out.append(("err", e.message, e.trace()))
    return out


@pytest.mark.parametrize("name", sorted(PLAIN_CASES))
def test_plain_dispatch_agrees_with_the_vm_path(name, monkeypatch):
    from repro.tcl import interp as interp_mod

    steps = PLAIN_CASES[name]
    plain = run_steps(steps, True)
    monkeypatch.setattr(interp_mod, "_PLAIN", lambda script: None)
    assert plain == run_steps(steps, True) == run_steps(steps, False), name


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

    def test_dis_marks_each_inlined_loop(self, vm_interp):
        vm_interp.eval(HOT)
        vm_interp.eval(
            "proc cold {n} { set a {}; for {set i 0} {$i < $n} {incr i}"
            " { lappend a $i }; return $a }"
        )
        text = {
            name: vm_interp._vm_proc_code(
                vm_interp, vm_interp.lookup_command(name)
            ).dis()
            for name in ("hot", "cold")
        }
        assert re.search(r"\d+  LOOP +\d+ \(-> \d+\)", text["hot"])
        assert re.search(r"LOOP \[\d+, \d+\] lowerable", text["hot"])
        assert re.search(r"LOOP \[\d+, \d+\] on VM: CALL \d+ \(argc=3", text["cold"])
        root = vm_interp.vm_compiled(
            "set a 0; for {set i 0} {$i < 3} {incr i} { set a $i }"
        ).dis()
        assert re.search(r"LOOP \[\d+, \d+\] on VM: ELOAD_NAME", root)

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


def _acc(n, a=0):
    for k in range(n):
        a = (a * 31 + k) % 1009
    return a
