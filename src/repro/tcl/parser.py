"""Tcl script parser.

Parses a script string into a sequence of commands; each command is a
sequence of words; each word is either literal or a list of segments to
be substituted at evaluation time (``$var``, ``[cmd]``, backslash
escapes).  Parsed scripts are cached because dataflow rule bodies and
loop bodies are re-evaluated many times.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

_WORD_TERM = " \t;\n\r"
_VARNAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


class TclParseError(ValueError):
    pass


# --- word segment kinds -------------------------------------------------
# ("lit", text)   literal text
# ("var", name)   variable substitution
# ("cmd", script) command substitution


@dataclass
class Word:
    """One word of a command.

    ``literal`` is set when the word needs no runtime substitution (bare
    text or brace-quoted).  Otherwise ``segments`` drives substitution.
    ``expand`` marks a ``{*}``-prefixed word.
    """

    literal: str | None = None
    segments: list[tuple[str, str]] = field(default_factory=list)
    expand: bool = False


@dataclass
class Command:
    words: list[Word]
    line: int  # 1-based line of the command start, for error messages


def _backslash(s: str, i: int) -> tuple[str, int]:
    """Process a backslash escape at s[i] == '\\'.  Returns (text, next_i)."""
    if i + 1 >= len(s):
        return "\\", i + 1
    c = s[i + 1]
    if c == "\n":
        # Backslash-newline plus following whitespace collapses to one space.
        j = i + 2
        while j < len(s) and s[j] in " \t":
            j += 1
        return " ", j
    if c == "x":
        j = i + 2
        hexdigits = ""
        while j < len(s) and len(hexdigits) < 2 and s[j] in "0123456789abcdefABCDEF":
            hexdigits += s[j]
            j += 1
        if hexdigits:
            return chr(int(hexdigits, 16)), j
        return "x", i + 2
    if c == "u":
        j = i + 2
        hexdigits = ""
        while j < len(s) and len(hexdigits) < 4 and s[j] in "0123456789abcdefABCDEF":
            hexdigits += s[j]
            j += 1
        if hexdigits:
            return chr(int(hexdigits, 16)), j
        return "u", i + 2
    mapped = {
        "a": "\a", "b": "\b", "f": "\f", "n": "\n",
        "r": "\r", "t": "\t", "v": "\v",
    }.get(c, c)
    return mapped, i + 2


def _scan_braced(s: str, i: int) -> tuple[str, int]:
    """Scan a brace-quoted section starting at s[i] == '{'.

    Returns (content, index-after-closing-brace).  Backslash-newline is
    substituted inside braces; all other content is raw.
    """
    depth = 1
    i += 1
    out: list[str] = []
    n = len(s)
    while i < n:
        c = s[i]
        if c == "\\":
            if i + 1 < n and s[i + 1] == "\n":
                text, j = _backslash(s, i)
                out.append(text)
                i = j
                continue
            out.append(s[i : i + 2])
            i += 2
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return "".join(out), i + 1
        out.append(c)
        i += 1
    raise TclParseError("missing close-brace")


def _scan_command_subst(s: str, i: int) -> tuple[str, int]:
    """Scan a [command] substitution starting at s[i] == '['.

    Returns (script, index-after-closing-bracket).  Nested brackets,
    braces, quotes, and backslashes are respected.
    """
    i += 1
    start = i
    depth = 1
    n = len(s)
    while i < n:
        c = s[i]
        if c == "\\":
            i += 2
            continue
        if c == "{":
            _, i = _scan_braced(s, i)
            continue
        if c == '"':
            i += 1
            while i < n and s[i] != '"':
                if s[i] == "\\":
                    i += 1
                i += 1
            i += 1
            continue
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if depth == 0:
                return s[start:i], i + 1
        i += 1
    raise TclParseError("missing close-bracket")


def _scan_varname(s: str, i: int) -> tuple[str | None, int]:
    """Scan a variable name after '$' at s[i-1].  Returns (name|None, next_i)."""
    n = len(s)
    if i < n and s[i] == "{":
        j = s.find("}", i + 1)
        if j < 0:
            raise TclParseError("missing close-brace for variable name")
        return s[i + 1 : j], j + 1
    j = i
    while j < n:
        if s[j] in _VARNAME_CHARS:
            j += 1
        elif s[j] == ":" and j + 1 < n and s[j + 1] == ":":
            j += 2
        else:
            break
    if j == i:
        return None, i  # bare '$'
    return s[i:j], j


def _parse_segments(
    s: str, i: int, terminators: str, in_quotes: bool
) -> tuple[list[tuple[str, str]], int]:
    """Parse substitution segments until a terminator (or close quote)."""
    segs: list[tuple[str, str]] = []
    lit: list[str] = []
    n = len(s)

    def flush() -> None:
        if lit:
            segs.append(("lit", "".join(lit)))
            lit.clear()

    while i < n:
        c = s[i]
        if in_quotes:
            if c == '"':
                i += 1
                flush()
                return segs, i
        elif c in terminators:
            break
        if c == "\\":
            text, i = _backslash(s, i)
            lit.append(text)
            continue
        if c == "$":
            name, j = _scan_varname(s, i + 1)
            if name is None:
                lit.append("$")
                i += 1
            else:
                flush()
                segs.append(("var", name))
                i = j
            continue
        if c == "[":
            flush()
            script, i = _scan_command_subst(s, i)
            segs.append(("cmd", script))
            continue
        lit.append(c)
        i += 1
    if in_quotes:
        raise TclParseError("missing close quote")
    flush()
    return segs, i


def parse_script(script: str) -> list[Command]:
    """Parse a full script into commands (uncached; see parse_cached)."""
    cmds: list[Command] = []
    i, n = 0, len(script)
    line = 1

    while i < n:
        # Skip leading whitespace and empty commands.
        while i < n and script[i] in " \t":
            i += 1
        if i < n and script[i] in ";\n\r":
            if script[i] == "\n":
                line += 1
            i += 1
            continue
        if i >= n:
            break
        if script[i] == "#":
            # Comment to end of line (honoring backslash-newline).
            while i < n and script[i] != "\n":
                if script[i] == "\\" and i + 1 < n:
                    if script[i + 1] == "\n":
                        line += 1
                    i += 1
                i += 1
            continue

        words: list[Word] = []
        cmd_line = line
        while i < n and script[i] not in ";\n\r":
            while i < n and script[i] in " \t":
                i += 1
            if i >= n or script[i] in ";\n\r":
                break
            if script[i] == "\\" and i + 1 < n and script[i + 1] == "\n":
                line += 1
                _, i = _backslash(script, i)
                continue

            expand = False
            if script.startswith("{*}", i) and i + 3 < n and script[i + 3] not in _WORD_TERM:
                expand = True
                i += 3

            c = script[i]
            if c == "{":
                content, j = _scan_braced(script, i)
                if j < n and script[j] not in _WORD_TERM:
                    raise TclParseError(
                        "extra characters after close-brace (line %d)" % line
                    )
                line += content.count("\n") + script[i:j].count("\\\n")
                words.append(Word(literal=content, expand=expand))
                i = j
            elif c == '"':
                segs, j = _parse_segments(script, i + 1, "", True)
                if j < n and script[j] not in _WORD_TERM:
                    raise TclParseError(
                        "extra characters after close-quote (line %d)" % line
                    )
                line += script[i:j].count("\n")
                if len(segs) == 1 and segs[0][0] == "lit":
                    words.append(Word(literal=segs[0][1], expand=expand))
                elif not segs:
                    words.append(Word(literal="", expand=expand))
                else:
                    words.append(Word(segments=segs, expand=expand))
                i = j
            else:
                segs, j = _parse_segments(script, i, _WORD_TERM, False)
                line += script[i:j].count("\n")
                if len(segs) == 1 and segs[0][0] == "lit":
                    words.append(Word(literal=segs[0][1], expand=expand))
                else:
                    words.append(Word(segments=segs, expand=expand))
                i = j
        if words:
            cmds.append(Command(words=words, line=cmd_line))
    return cmds


# --- parse cache ---------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def parse_cached(script: str) -> list[Command]:
    """Parse once per text: loop and rule bodies re-parse for free, the
    commands are shared by every rank, and a parse error is not cached."""
    return parse_script(script)
