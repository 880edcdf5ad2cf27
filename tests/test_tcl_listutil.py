"""Tcl list parsing/formatting, including property-based round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcl import listutil
from repro.tcl.listutil import format_element, format_list, parse_list


class TestParseList:
    def test_empty(self):
        assert parse_list("") == []
        assert parse_list("   \t\n ") == []

    def test_simple_words(self):
        assert parse_list("a b c") == ["a", "b", "c"]

    def test_extra_whitespace(self):
        assert parse_list("  a\t\tb \n c ") == ["a", "b", "c"]

    def test_braced_element(self):
        assert parse_list("a {b c} d") == ["a", "b c", "d"]

    def test_nested_braces(self):
        assert parse_list("{a {b c}} d") == ["a {b c}", "d"]

    def test_quoted_element(self):
        assert parse_list('a "b c" d') == ["a", "b c", "d"]

    def test_quoted_with_escape(self):
        assert parse_list(r'"a\tb"') == ["a\tb"]

    def test_bare_backslash_escape(self):
        assert parse_list(r"a\ b") == ["a b"]

    def test_empty_braced(self):
        assert parse_list("{} a") == ["", "a"]

    def test_unbalanced_brace_raises(self):
        with pytest.raises(ValueError):
            parse_list("{a b")

    def test_unterminated_quote_raises(self):
        with pytest.raises(ValueError):
            parse_list('"abc')

    def test_brace_followed_by_text_raises(self):
        with pytest.raises(ValueError):
            parse_list("{a}b")

    def test_backslash_inside_braces_preserved(self):
        assert parse_list(r"{a\nb}") == [r"a\nb"]


class TestFormatElement:
    def test_plain(self):
        assert format_element("abc") == "abc"

    def test_empty(self):
        assert format_element("") == "{}"

    def test_space(self):
        assert format_element("a b") == "{a b}"

    def test_dollar_braced(self):
        assert format_element("$x") == "{$x}"

    def test_unbalanced_brace_backslashed(self):
        out = format_element("a{b")
        assert parse_list(out) == ["a{b"]

    def test_trailing_backslash(self):
        out = format_element("a\\")
        assert parse_list(out) == ["a\\"]


class TestFormatList:
    def test_round_trip_simple(self):
        items = ["a", "b c", "", "{x}", "$v", "[cmd]"]
        assert parse_list(format_list(items)) == items

    def test_nested_list(self):
        inner = format_list(["1", "2 3"])
        outer = format_list(["head", inner])
        parsed = parse_list(outer)
        assert parsed[0] == "head"
        assert parse_list(parsed[1]) == ["1", "2 3"]


# printable text without NUL; Tcl lists cannot contain NUL cleanly
_element = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=30,
)


@given(st.lists(_element, max_size=12))
@settings(max_examples=300, deadline=None)
def test_property_round_trip(items):
    assert parse_list(format_list(items)) == items


@given(st.lists(_element, max_size=8))
@settings(max_examples=150, deadline=None)
def test_property_double_format_stable(items):
    once = format_list(items)
    twice = format_list(parse_list(once))
    assert parse_list(twice) == items


# The fast paths against the character walk they skip: Tcl whitespace,
# what Python's str.split() also splits on, and every grouping, escape
# and substitution character.
_TRICKY = st.text(
    alphabet=st.sampled_from(list(' \t\n\r\f\v\x1c\x1f\x85\xa0{}"\\[]$;#ab')),
    max_size=16,
)


def _walked(s):
    try:
        return listutil._walk_list(s)
    except ValueError as e:
        return ("ValueError", str(e))


@given(_TRICKY)
@settings(max_examples=400, deadline=None)
def test_property_parse_list_fast_path_is_the_walk(s):
    try:
        got = parse_list(s)
    except ValueError as e:
        got = ("ValueError", str(e))
    assert got == _walked(s)


@given(_TRICKY)
@settings(max_examples=400, deadline=None)
def test_property_format_element_fast_path_is_the_character_test(el):
    # the fast path replaced only this test; the quoting after it is unchanged
    plain = el != "" and not any(ch in listutil._SPECIAL for ch in el)
    assert (format_element(el) == el) == plain
    assert parse_list(format_element(el)) == [el]


def test_fast_paths_keep_tcl_whitespace():
    for s in ("", "a\x1cb c\xa0", " \x85 ", "a\x1fb\vc"):
        assert parse_list(s) == listutil._walk_list(s)
    assert parse_list("a\x1cb c\xa0") == ["a\x1cb", "c\xa0"]
    assert format_element("a\xa0b") == "a\xa0b"
