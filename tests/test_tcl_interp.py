"""Core Tcl interpreter semantics: substitution, procs, scopes, errors."""

from __future__ import annotations

import pytest

from repro.tcl import Interp, TclError

from .test_tcl_commands import gone


class TestSubstitution:
    def test_variable_substitution(self, tcl):
        tcl.eval("set x hello")
        assert tcl.eval("set y $x-world") == "hello-world"

    def test_braced_variable_name(self, tcl):
        tcl.eval("set x 1")
        assert tcl.eval('set y a${x}b') == "a1b"

    def test_command_substitution(self, tcl):
        assert tcl.eval("set y [string toupper ab][string tolower CD]") == "ABcd"

    def test_braces_suppress_substitution(self, tcl):
        tcl.eval("set x 1")
        assert tcl.eval("set y {$x [cmd]}") == "$x [cmd]"

    def test_quotes_allow_substitution_no_splitting(self, tcl):
        tcl.eval("set x {a b}")
        assert tcl.eval('llength [list "$x"]') == "1"

    def test_bare_word_splitting_of_substituted_value(self, tcl):
        # Tcl does NOT re-split substituted variables into words
        tcl.eval("set x {a b}")
        assert tcl.eval("llength [list $x]") == "1"

    def test_expand_operator(self, tcl):
        tcl.eval("set x {a b c}")
        assert tcl.eval("llength [list {*}$x]") == "3"

    def test_backslash_escapes(self, tcl):
        assert tcl.eval(r'set y "a\tb\nc"') == "a\tb\nc"

    def test_backslash_newline_continuation(self, tcl):
        assert tcl.eval("set y [expr \\\n  {1 + 2}]") == "3"

    def test_hex_escape(self, tcl):
        assert tcl.eval(r'set y "\x41"') == "A"

    def test_unicode_escape(self, tcl):
        assert tcl.eval(r'set y "é"') == "é"

    def test_semicolon_separates_commands(self, tcl):
        assert tcl.eval("set a 1; set b 2; expr {$a + $b}") == "3"

    def test_comment_at_command_start(self, tcl):
        assert tcl.eval("# a comment\nset x 5") == "5"

    def test_dollar_without_name_is_literal(self, tcl):
        assert tcl.eval('set y "cost: 5$"') == "cost: 5$"


class TestVariables:
    def test_set_get(self, tcl):
        tcl.eval("set x 42")
        assert tcl.eval("set x") == "42"

    def test_unset(self, tcl):
        tcl.eval("set x 1; unset x")
        with pytest.raises(TclError):
            tcl.eval("set x")

    def test_unset_nocomplain(self, tcl):
        tcl.eval("unset -nocomplain nosuch")

    def test_incr_default_and_amount(self, tcl):
        tcl.eval("set n 5")
        assert tcl.eval("incr n") == "6"
        assert tcl.eval("incr n 10") == "16"

    def test_incr_creates_variable(self, tcl):
        assert tcl.eval("incr fresh") == "1"

    def test_append(self, tcl):
        tcl.eval("set s ab")
        assert tcl.eval("append s cd ef") == "abcdef"

    def test_info_exists(self, tcl):
        assert tcl.eval("info exists nosuch") == "0"
        tcl.eval("set yes 1")
        assert tcl.eval("info exists yes") == "1"


class TestProcs:
    def test_basic_proc(self, tcl):
        tcl.eval("proc add {a b} { expr {$a + $b} }")
        assert tcl.eval("add 2 3") == "5"

    def test_default_argument(self, tcl):
        tcl.eval("proc f {a {b 10}} { expr {$a * $b} }")
        assert tcl.eval("f 5") == "50"
        assert tcl.eval("f 5 2") == "10"

    def test_varargs(self, tcl):
        tcl.eval("proc count {first args} { llength $args }")
        assert tcl.eval("count a b c d") == "3"

    def test_wrong_arity_raises(self, tcl):
        tcl.eval("proc f {a} { set a }")
        with pytest.raises(TclError, match="wrong # args"):
            tcl.eval("f 1 2")
        with pytest.raises(TclError, match="wrong # args"):
            tcl.eval("f")

    def test_return_value(self, tcl):
        tcl.eval("proc f {} { return early; set never 1 }")
        assert tcl.eval("f") == "early"

    def test_implicit_return_of_last_command(self, tcl):
        tcl.eval("proc f {} { set x 7 }")
        assert tcl.eval("f") == "7"

    def test_local_scope(self, tcl):
        tcl.eval("set x global")
        tcl.eval("proc f {} { set x local; set x }")
        assert tcl.eval("f") == "local"
        assert tcl.eval("set x") == "global"

    def test_global_command(self, tcl):
        tcl.eval("set g 1")
        tcl.eval("proc bump {} { global g; incr g }")
        tcl.eval("bump; bump")
        assert tcl.eval("set g") == "3"

    # upvar / uplevel / apply are gone; each test checks the migration
    # CHANGES.md gives for it

    def test_upvar(self, tcl):
        gone(tcl, "upvar 1 target v")
        tcl.eval("proc setit {} { global target; set target 99 }")
        tcl.eval("setit")
        assert tcl.eval("set target") == "99"

    def test_uplevel(self, tcl):
        # the callee returns the script and the caller evaluates it
        gone(tcl, "uplevel 1 {set here 5}")
        tcl.eval("proc runup {script} { return $script }")
        tcl.eval("proc f {} { eval [runup {set here 5}]; set here }")
        assert tcl.eval("f") == "5"

    def test_recursion(self, tcl):
        tcl.eval(
            "proc fact {n} { if {$n <= 1} { return 1 };"
            " expr {$n * [fact [expr {$n - 1}]]} }"
        )
        assert tcl.eval("fact 10") == "3628800"

    def test_rename(self, tcl):
        tcl.eval("proc f {} { return 1 }; rename f g")
        assert tcl.eval("g") == "1"
        with pytest.raises(TclError):
            tcl.eval("f")

    def test_apply(self, tcl):
        gone(tcl, "apply {{x} {expr {$x * 3}}} 7")
        tcl.eval("proc triple {x} { expr {$x * 3} }")
        assert tcl.eval("triple 7") == "21"


class TestControlFlow:
    def test_if_elseif_else(self, tcl):
        tcl.eval("proc sign {x} { if {$x > 0} { return pos } elseif {$x < 0} { return neg } else { return zero } }")
        assert tcl.eval("sign 5") == "pos"
        assert tcl.eval("sign -5") == "neg"
        assert tcl.eval("sign 0") == "zero"

    def test_while_with_break_continue(self, tcl):
        out = tcl.eval(
            "set s {}\n"
            "set i 0\n"
            "while {1} {\n"
            "  incr i\n"
            "  if {$i == 3} { continue }\n"
            "  if {$i > 5} { break }\n"
            "  lappend s $i\n"
            "}\n"
            "set s"
        )
        assert out == "1 2 4 5"

    def test_for(self, tcl):
        assert tcl.eval(
            "set s 0; for {set i 1} {$i <= 4} {incr i} { incr s $i }; set s"
        ) == "10"

    def test_foreach_multi_var(self, tcl):
        out = tcl.eval(
            "set s {}; foreach {a b} {1 2 3 4} { lappend s $b$a }; set s"
        )
        assert out == "21 43"

    def test_foreach_parallel_lists(self, tcl):
        out = tcl.eval(
            "set s {}; foreach a {1 2} b {x y} { lappend s $a$b }; set s"
        )
        assert out == "1x 2y"

    def test_switch(self, tcl):
        tcl.eval("proc f {v} { switch $v { a { return A } b { return B } default { return D } } }")
        assert tcl.eval("f a") == "A"
        assert tcl.eval("f q") == "D"

    def test_switch_glob_and_fallthrough(self, tcl):
        tcl.eval(
            'proc f {v} { switch -glob $v { a* - b* { return AB } default { return D } } }'
        )
        assert tcl.eval("f abc") == "AB"
        assert tcl.eval("f bcd") == "AB"
        assert tcl.eval("f xyz") == "D"

    def test_catch_codes(self, tcl):
        assert tcl.eval("catch {set x 1}") == "0"
        assert tcl.eval("catch {error boom} m") == "1"
        assert tcl.eval("set m") == "boom"
        assert tcl.eval("catch {return r}") == "2"

    def test_error_propagates(self, tcl):
        with pytest.raises(TclError, match="kaput"):
            tcl.eval("error kaput")

    def test_eval_command(self, tcl):
        assert tcl.eval("eval {set q 3}") == "3"
        assert tcl.eval("eval set r 4") == "4"

    def test_subst(self, tcl):
        # `subst` is gone; a double-quoted word substitutes the same way
        tcl.eval("set x 5")
        gone(tcl, "subst {val=$x}")
        assert tcl.eval('set s "val=$x sum=[expr {1 + 1}]"') == "val=5 sum=2"

    def test_infinite_recursion_guard(self, tcl):
        tcl.eval("proc loop {} { loop }")
        with pytest.raises(TclError):
            tcl.eval("loop")


class TestNamespaces:
    def test_namespace_proc(self, tcl):
        tcl.eval("namespace eval math { proc twice {x} { expr {$x * 2} } }")
        assert tcl.eval("math::twice 21") == "42"

    def test_namespace_variable(self, tcl):
        # `variable` is gone; a qualified name reaches the namespace's own
        gone(tcl, "variable level 3")
        tcl.eval("namespace eval cfg { set ::cfg::level 3 }")
        assert tcl.eval("set cfg::level") == "3"

    def test_namespace_internal_resolution(self, tcl):
        tcl.eval(
            "namespace eval m { proc a {} { return [b] }; proc b {} { return inner } }"
        )
        assert tcl.eval("m::a") == "inner"

    def test_namespace_tail_qualifiers(self, tcl):
        assert tcl.eval("namespace tail a::b::c") == "c"
        assert tcl.eval("namespace qualifiers a::b::c") == "a::b"

    def test_nested_namespace_eval(self, tcl):
        tcl.eval("namespace eval outer { namespace eval inner { proc f {} { return x } } }")
        assert tcl.eval("outer::inner::f") == "x"


class TestPackages:
    def test_provide_require(self, tcl):
        tcl.eval("package provide mylib 2.0")
        assert tcl.eval("package require mylib") == "2.0"

    def test_ifneeded_lazy_load(self, tcl):
        tcl.eval(
            'package ifneeded lazy 1.1 {proc lazy::f {} { return ok }; package provide lazy 1.1}'
        )
        assert tcl.eval("package require lazy") == "1.1"
        assert tcl.eval("lazy::f") == "ok"

    def test_require_missing_raises(self, tcl):
        with pytest.raises(TclError, match="can't find package"):
            tcl.eval("package require ghost")

    def test_python_registered_loader(self, tcl):
        tcl.package_loaders["ext"] = (
            "3.0",
            lambda it: it.register("ext::hi", lambda i, a: "hello"),
        )
        assert tcl.eval("package require ext") == "3.0"
        assert tcl.eval("ext::hi") == "hello"


class TestObjectRegistry:
    def test_wrap_unwrap(self, tcl):
        handle = tcl.wrap_object({"k": 1}, "obj")
        assert tcl.unwrap(handle) == {"k": 1}

    def test_release(self, tcl):
        handle = tcl.wrap_object(1, "obj")
        tcl.release_object(handle)
        with pytest.raises(TclError):
            tcl.unwrap(handle)

    def test_invalid_handle(self, tcl):
        with pytest.raises(TclError):
            tcl.unwrap("_nope#1")


class TestErrorReporting:
    def test_errorinfo_trace(self, tcl):
        tcl.eval("proc inner {} { error deep }")
        tcl.eval("proc outer {} { inner }")
        try:
            tcl.eval("outer")
        except TclError as e:
            assert "deep" in e.trace()
            assert "inner" in e.trace()
        else:
            pytest.fail("no error raised")

    def test_unknown_command(self, tcl):
        with pytest.raises(TclError, match="invalid command name"):
            tcl.eval("no_such_command_xyz")

    def test_host_exception_becomes_tcl_error(self, tcl):
        def bad(it, args):
            raise ValueError("host problem")

        tcl.register("bad", bad)
        with pytest.raises(TclError, match="host problem"):
            tcl.eval("bad")
