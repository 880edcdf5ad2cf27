"""List, string, dict, and misc command ensembles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcl import Interp, TclError


def gone(tcl, script):
    """``script``'s command was deleted (no workload, example, experiment
    or CLI path called it): it is now an unknown command."""
    with pytest.raises(TclError, match='invalid command name "%s"' % script.split()[0]):
        tcl.eval(script)


class TestListCommands:
    def test_list_quotes_specials(self, tcl):
        assert tcl.eval('list a "b c" {}') == "a {b c} {}"

    def test_lindex(self, tcl):
        assert tcl.eval("lindex {a b c} 1") == "b"
        assert tcl.eval("lindex {a b c} end") == "c"
        assert tcl.eval("lindex {a b c} end-1") == "b"
        assert tcl.eval("lindex {a b c} 99") == ""

    def test_lindex_nested(self, tcl):
        assert tcl.eval("lindex {{a b} {c d}} 1 0") == "c"

    def test_llength(self, tcl):
        assert tcl.eval("llength {a {b c} d}") == "3"

    def test_lappend_var(self, tcl):
        tcl.eval("set l {a}")
        assert tcl.eval('lappend l "b c" d') == "a {b c} d"

    # The list commands below are gone; each test checks the migration
    # CHANGES.md gives for it against what the command used to return.

    def test_lrange(self, tcl):
        gone(tcl, "lrange {a b c d e} 1 3")
        tcl.eval("set l {a b c d e}; set o {}")
        tcl.eval("for {set i 1} {$i <= 3} {incr i} { lappend o [lindex $l $i] }")
        assert tcl.eval("set o") == "b c d"

    def test_linsert(self, tcl):
        gone(tcl, "linsert {a c} 1 b")
        assert tcl.eval("set l {a c}; concat [lindex $l 0] b [lindex $l end]") == "a b c"

    def test_lreplace(self, tcl):
        gone(tcl, "lreplace {a b c d} 1 2 X Y Z")
        tcl.eval("set o {}; set i 0")
        tcl.eval(
            "foreach x {a b c d} { if {$i == 1} { lappend o X Y Z };"
            " if {$i < 1 || $i > 2} { lappend o $x }; incr i }"
        )
        assert tcl.eval("set o") == "a X Y Z d"

    def test_lsearch(self, tcl):
        gone(tcl, "lsearch -glob {foo bar baz} ba*")
        tcl.eval(
            "proc search {l pattern} { set i 0; foreach x $l {"
            " if {[string match $pattern $x]} { return $i }; incr i }; return -1 }"
        )
        assert tcl.eval("search {foo bar baz} ba*") == "1"
        assert tcl.eval("search {a b c} z") == "-1"

    def test_lsort(self, tcl):
        assert tcl.eval("lsort {b c a}") == "a b c"
        assert tcl.eval("lsort -integer {10 9 100}") == "9 10 100"
        assert tcl.eval("lsort -decreasing {a c b}") == "c b a"
        assert tcl.eval("lsort -unique {b a b}") == "a b"

    def test_lassign_returns_remainder(self, tcl):
        gone(tcl, "lassign {1 2 3 4} a b")
        tcl.eval("foreach {a b} {1 2 3 4} break")
        assert tcl.eval("list $a $b") == "1 2"

    def test_lassign_pads_missing(self, tcl):
        tcl.eval("foreach {a b} {1} break")
        assert tcl.eval('list $a "$b"') == "1 {}"

    def test_lreverse_lrepeat(self, tcl):
        gone(tcl, "lreverse {a b c}")
        gone(tcl, "lrepeat 3 x y")
        tcl.eval("set r {}; foreach x {a b c} { set r [concat [list $x] $r] }")
        assert tcl.eval("set r") == "c b a"
        tcl.eval("set o {}; for {set i 0} {$i < 3} {incr i} { lappend o x y }")
        assert tcl.eval("set o") == "x y x y x y"

    def test_concat(self, tcl):
        assert tcl.eval("concat {a b} {} {c}") == "a b c"

    def test_lmap(self, tcl):
        gone(tcl, "lmap x {1 2 3} { expr {$x * $x} }")
        tcl.eval("set o {}; foreach x {1 2 3} { lappend o [expr {$x * $x}] }")
        assert tcl.eval("set o") == "1 4 9"


class TestStringCommands:
    def test_length_index_range(self, tcl):
        assert tcl.eval("string length héllo") == "5"
        assert tcl.eval("string index hello 1") == "e"
        assert tcl.eval("string range hello 1 3") == "ell"
        assert tcl.eval("string range hello 3 end") == "lo"

    def test_case_ops(self, tcl):
        assert tcl.eval("string toupper aBc") == "ABC"
        assert tcl.eval("string tolower aBc") == "abc"
        assert tcl.eval("string totitle hello") == "Hello"

    def test_trim_family(self, tcl):
        assert tcl.eval('string trim "  x  "') == "x"
        assert tcl.eval("string trim xxayyxx x") == "ayy"
        assert tcl.eval('string trimleft "  x "') == "x "
        assert tcl.eval('string trimright " x  "') == " x"

    def test_equal_compare_match(self, tcl):
        assert tcl.eval("string equal a a") == "1"
        assert tcl.eval("string equal -nocase AB ab") == "1"
        assert tcl.eval("string compare a b") == "-1"
        assert tcl.eval("string match *.txt file.txt") == "1"
        assert tcl.eval("string match a?c abc") == "1"

    def test_first_last(self, tcl):
        assert tcl.eval("string first l hello") == "2"
        assert tcl.eval("string last l hello") == "3"
        assert tcl.eval("string first z hello") == "-1"

    def test_repeat_reverse_replace(self, tcl):
        assert tcl.eval("string repeat ab 3") == "ababab"
        assert tcl.eval("string reverse abc") == "cba"
        assert tcl.eval("string replace hello 1 3 XYZ") == "hXYZo"

    def test_map(self, tcl):
        assert tcl.eval("string map {a 1 b 2} abcab") == "12c12"

    def test_is_classes(self, tcl):
        assert tcl.eval("string is integer 42") == "1"
        assert tcl.eval("string is integer 4.2") == "0"
        assert tcl.eval("string is double 4.2") == "1"
        assert tcl.eval("string is alpha abc") == "1"
        assert tcl.eval("string is digit 123") == "1"

    def test_format(self, tcl):
        assert tcl.eval('format "%d-%s-%.2f" 42 x 3.14159') == "42-x-3.14"
        assert tcl.eval('format "%05d" 42') == "00042"
        assert tcl.eval('format "%x" 255') == "ff"
        assert tcl.eval('format "%%"') == "%"
        assert tcl.eval('format "%c" 65') == "A"

    def test_format_missing_args_raises(self, tcl):
        with pytest.raises(TclError):
            tcl.eval('format "%d %d" 1')

    def test_split_join(self, tcl):
        assert tcl.eval("split a,b,,c ,") == "a b {} c"
        assert tcl.eval("split abc {}") == "a b c"
        assert tcl.eval("join {a b c} -") == "a-b-c"

    # regexp / regsub are gone: a glob, split or map in Tcl, a python()
    # leaf for a real regular expression

    def test_regexp(self, tcl):
        gone(tcl, r'regexp {\d+} "abc 123"')
        assert tcl.eval('string match {*[0-9]*} "abc 123"') == "1"
        assert tcl.eval("split 12-34 -") == "12 34"

    def test_regsub(self, tcl):
        gone(tcl, r'regsub -all {\d} a1b2 X')
        assert tcl.eval("string map {1 X 2 X} a1b2") == "aXbX"
        assert tcl.eval("string map {aaa <aaa>} baaad") == "b<aaa>d"


class TestDictCommands:
    def test_create_get(self, tcl):
        tcl.eval("set d [dict create a 1 b 2]")
        assert tcl.eval("dict get $d a") == "1"

    def test_set_preserves_order(self, tcl):
        tcl.eval("set d {}; dict set d k1 v1; dict set d k2 v2; dict set d k1 v9")
        assert tcl.eval("dict keys $d") == "k1 k2"
        assert tcl.eval("dict get $d k1") == "v9"

    def test_nested_get_set(self, tcl):
        tcl.eval("set d {}; dict set d outer inner 42")
        assert tcl.eval("dict get $d outer inner") == "42"

    def test_exists_unset(self, tcl):
        tcl.eval("set d [dict create a 1]")
        assert tcl.eval("dict exists $d a") == "1"
        assert tcl.eval("dict exists $d z") == "0"
        tcl.eval("dict unset d a")
        assert tcl.eval("dict exists $d a") == "0"

    def test_keys_values_size(self, tcl):
        tcl.eval("set d [dict create a 1 b 2 c 3]")
        assert tcl.eval("dict size $d") == "3"
        assert tcl.eval("dict values $d") == "1 2 3"
        assert tcl.eval("dict keys $d b*") == "b"

    def test_merge(self, tcl):
        assert tcl.eval("dict merge {a 1 b 2} {b 9 c 3}") == "a 1 b 9 c 3"

    def test_incr_lappend_append(self, tcl):
        tcl.eval("set d {}")
        tcl.eval("dict incr d hits; dict incr d hits 4")
        assert tcl.eval("dict get $d hits") == "5"
        tcl.eval("dict lappend d l x; dict lappend d l y")
        assert tcl.eval("dict get $d l") == "x y"
        tcl.eval("dict append d s ab; dict append d s cd")
        assert tcl.eval("dict get $d s") == "abcd"

    def test_for(self, tcl):
        tcl.eval(
            "set out {}; dict for {k v} {a 1 b 2} { lappend out $k=$v }"
        )
        assert tcl.eval("set out") == "a=1 b=2"

    def test_missing_key_raises(self, tcl):
        with pytest.raises(TclError):
            tcl.eval("dict get {a 1} z")

    def test_odd_dict_raises(self, tcl):
        with pytest.raises(TclError):
            tcl.eval("dict get {a 1 b} a")


class TestMiscCommands:
    def test_puts_captured(self, tcl):
        tcl.eval("puts hello")
        assert tcl.stdout == ["hello"]

    def test_info_commands_procs(self, tcl):
        tcl.eval("proc userproc {} {}")
        assert "userproc" in tcl.eval("info procs userproc")
        assert "set" in tcl.eval("info commands set")

    def test_info_args_body(self, tcl):
        tcl.eval("proc f {a b} { return $a$b }")
        assert tcl.eval("info args f") == "a b"
        assert "return" in tcl.eval("info body f")

    def test_info_level(self, tcl):
        tcl.eval("proc depth {} { info level }")
        assert tcl.eval("depth") == "1"


# property: lsort -integer agrees with Python sorting
@given(st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=20))
@settings(max_examples=150, deadline=None)
def test_property_lsort_matches_python(values):
    tcl = Interp()
    tcl.echo = False
    joined = " ".join(str(v) for v in values)
    got = tcl.eval("lsort -integer {%s}" % joined)
    want = " ".join(str(v) for v in sorted(values))
    assert got == want
