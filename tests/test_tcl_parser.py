"""Tcl script parsing structure (words, segments, commands)."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interlang.python_interp import _compile
from repro.rlang.parser import parse as parse_r
from repro.tcl import tier
from repro.tcl.commands.control import _arg_spec
from repro.tcl.compile import compile_proc_code
from repro.tcl.expr import compile_expr
from repro.tcl.interp import _vm_lower
from repro.tcl.parser import TclParseError, parse_cached, parse_script


def words_of(script: str, cmd_index: int = 0):
    return parse_script(script)[cmd_index].words


class TestCommandSplitting:
    def test_newline_and_semicolon(self):
        cmds = parse_script("a b\nc d; e")
        assert [len(c.words) for c in cmds] == [2, 2, 1]

    def test_empty_commands_skipped(self):
        assert parse_script(";;\n\n  ;") == []

    def test_newline_inside_braces_does_not_split(self):
        cmds = parse_script("proc f {} {\n body \n}")
        assert len(cmds) == 1
        assert len(cmds[0].words) == 4  # proc, f, {}, {body}

    def test_newline_inside_quotes_does_not_split(self):
        cmds = parse_script('set x "a\nb"')
        assert len(cmds) == 1

    def test_newline_inside_brackets_does_not_split(self):
        cmds = parse_script("set x [cmd\narg]")
        assert len(cmds) == 1

    def test_comment_consumes_line(self):
        cmds = parse_script("# comment ; still comment\nreal cmd")
        assert len(cmds) == 1

    def test_line_numbers_recorded(self):
        cmds = parse_script("one\n\nthree\nfour")
        assert [c.line for c in cmds] == [1, 3, 4]


class TestWordForms:
    def test_bare_literal(self):
        (w,) = words_of("word")
        assert w.literal == "word"

    def test_braced_word_raw(self):
        w = words_of("set {a $x [b]}")[1]
        assert w.literal == "a $x [b]"

    def test_quoted_word_with_substitution(self):
        w = words_of('set "pre $x post"')[1]
        kinds = [k for k, _ in w.segments]
        assert kinds == ["lit", "var", "lit"]

    def test_bare_word_with_command_sub(self):
        w = words_of("set a[b c]d")[1]
        assert [k for k, _ in w.segments] == ["lit", "cmd", "lit"]

    def test_variable_name_forms(self):
        w = words_of("set $a::b")[1]
        assert w.segments[0] == ("var", "a::b")
        w = words_of("set ${weird name}")[1]
        assert w.segments[0] == ("var", "weird name")

    def test_expand_prefix(self):
        w = words_of("cmd {*}$list")[1]
        assert w.expand is True

    def test_literal_dollar(self):
        (w,) = words_of('"5$"')
        assert w.literal == "5$"

    def test_nested_brackets(self):
        w = words_of("set [a [b [c]]]")[1]
        assert w.segments[0][0] == "cmd"
        assert w.segments[0][1] == "a [b [c]]"

    def test_braces_inside_brackets(self):
        w = words_of("set [cmd {un} {balanced {}} ]")[1]
        assert w.segments[0][0] == "cmd"

    def test_backslash_newline_joins_words(self):
        cmds = parse_script("cmd a \\\n b")
        assert len(cmds) == 1
        assert len(cmds[0].words) == 3


class TestErrors:
    def test_unclosed_brace(self):
        with pytest.raises(TclParseError, match="close-brace"):
            parse_script("set x {abc")

    def test_unclosed_bracket(self):
        with pytest.raises(TclParseError, match="close-bracket"):
            parse_script("set x [abc")

    def test_unclosed_quote(self):
        with pytest.raises(TclParseError, match="close quote"):
            parse_script('set x "abc')

    def test_text_after_close_brace(self):
        with pytest.raises(TclParseError, match="after close-brace"):
            parse_script("set x {a}b")

    def test_text_after_close_quote(self):
        with pytest.raises(TclParseError, match="after close-quote"):
            parse_script('set x "a"b')


class TestCache:
    def test_cache_returns_same_object(self):
        a = parse_cached("set x 1")
        b = parse_cached("set x 1")
        assert a is b

    def test_different_scripts_different_objects(self):
        assert parse_cached("set x 1") is not parse_cached("set x 2")

    @pytest.mark.parametrize(
        "fn,fmt,n",
        [
            (parse_cached, "set x%d_%d 1", 60_000),
            (compile_expr, "%d + %d", 60_000),
            (parse_r, "x%d_%d <- 1", 5_000),
            (lambda s: _compile(s, "<py>", "exec"), "x%d_%d = 1", 5_000),
            (tier._function, "def loop(cells):\n    return %d, %d", 2_000),
            (_vm_lower, "set x %d; set y %d", 2_000),
            (lambda s: compile_proc_code(s, (("a", None),), "p", True),
             "set x %d; return $a%d", 2_000),
            (_arg_spec, "a%d {b %d}", 2_000),
        ],
        ids=["parse_cached", "compile_expr", "r_parse", "python_compile",
             "tier_function", "vm_lower", "proc_template", "arg_spec"],
    )
    def test_concurrent_eviction_does_not_raise(self, fn, fmt, n):
        # Every process-wide text cache is shared by all rank threads,
        # which insert unique strings (rule actions, task payloads), so
        # at capacity several threads evict at once.  A hand-rolled
        # eviction that picked the same victim twice once escaped as a
        # KeyError.
        errors = []

        def insert_unique(k):
            try:
                for i in range(n):
                    fn(fmt % (k, i))
            except BaseException as e:
                errors.append(e)

        threads = [
            threading.Thread(target=insert_unique, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd"),
            ),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=150, deadline=None)
def test_property_plain_words_parse_unchanged(words):
    cmds = parse_script(" ".join(words))
    assert len(cmds) == 1
    assert [w.literal for w in cmds[0].words] == words
