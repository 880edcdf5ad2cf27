"""Tcl list parsing and formatting.

A Tcl list is a string whose elements are separated by whitespace, with
braces and quotes grouping elements that contain special characters.
These routines implement the canonical round-trip used throughout the
runtime: ``format_list(parse_list(s))`` preserves element boundaries.
"""

from __future__ import annotations

import re

_WHITESPACE = " \t\n\r\f\v"
# Characters that force quoting when formatting an element.
_SPECIAL = set(_WHITESPACE) | set('{}"\\[]$;')
# The fast paths: a list with no grouping or escape character is its
# runs of Tcl whitespace's complement (``str.split()`` would also split
# on \x1c-\x1f, \x85 and \xa0), and an element with no special
# character is its own text.
_GROUPING = re.compile(r'[{"\\]').search
_ELEMENTS = re.compile("[^%s]+" % _WHITESPACE).findall
_QUOTED = re.compile("[%s]" % re.escape("".join(sorted(_SPECIAL)))).search

_BACKSLASH_MAP = {
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "v": "\v",
}


def backslash_subst(ch: str) -> str:
    """Single-character backslash substitution (no hex/unicode here)."""
    return _BACKSLASH_MAP.get(ch, ch)


def parse_list(s: str) -> list[str]:
    """Split a Tcl list string into its elements.

    Raises ValueError on unbalanced braces or unterminated quotes, the
    same conditions under which Tcl reports "unmatched open brace in
    list".
    """
    return _walk_list(s) if _GROUPING(s) else _ELEMENTS(s)


def _walk_list(s: str) -> list[str]:
    """``parse_list`` character by character."""
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        # Skip inter-element whitespace.
        while i < n and s[i] in _WHITESPACE:
            i += 1
        if i >= n:
            break
        c = s[i]
        if c == "{":
            depth = 1
            i += 1
            start = i
            while i < n and depth:
                if s[i] == "\\" and i + 1 < n:
                    i += 2
                    continue
                if s[i] == "{":
                    depth += 1
                elif s[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if depth:
                raise ValueError("unmatched open brace in list")
            out.append(s[start:i])
            i += 1  # past closing brace
            if i < n and s[i] not in _WHITESPACE:
                raise ValueError(
                    "list element in braces followed by %r instead of space"
                    % s[i]
                )
        elif c == '"':
            i += 1
            buf: list[str] = []
            closed = False
            while i < n:
                if s[i] == "\\" and i + 1 < n:
                    buf.append(backslash_subst(s[i + 1]))
                    i += 2
                    continue
                if s[i] == '"':
                    closed = True
                    i += 1
                    break
                buf.append(s[i])
                i += 1
            if not closed:
                raise ValueError("unmatched open quote in list")
            out.append("".join(buf))
            if i < n and s[i] not in _WHITESPACE:
                raise ValueError(
                    'list element in quotes followed by %r instead of space'
                    % s[i]
                )
        else:
            buf = []
            while i < n and s[i] not in _WHITESPACE:
                if s[i] == "\\" and i + 1 < n:
                    buf.append(backslash_subst(s[i + 1]))
                    i += 2
                    continue
                buf.append(s[i])
                i += 1
            out.append("".join(buf))
    return out


def _braces_balanced(s: str) -> bool:
    depth = 0
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\":
            i += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return False
        i += 1
    return depth == 0


def format_element(el: str) -> str:
    """Quote one element so parse_list recovers it exactly."""
    if el == "":
        return "{}"
    if not _QUOTED(el):
        return el
    # Prefer brace quoting when braces balance and no trailing backslash.
    if _braces_balanced(el) and not el.endswith("\\"):
        return "{" + el + "}"
    # Fall back to backslash escaping.
    out = []
    for ch in el:
        if ch in _SPECIAL:
            if ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ch == "\r":
                out.append("\\r")
            else:
                out.append("\\" + ch)
        else:
            out.append(ch)
    return "".join(out)


def format_list(elements: list[str]) -> str:
    """Join elements into a canonical Tcl list string."""
    return " ".join(format_element(str(e)) for e in elements)
