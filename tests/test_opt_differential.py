"""Differential test of the STC passes, with -O0 as the oracle.

-O0 runs no pass: every op is a rule over TDs.  -O1 runs closed-value
propagation, by-value leaves, single-consumer fusion and loops of
leaves; -O2 is accepted and equals -O1.  Every program must print the same multiset of lines
and end in the same verdict (completed / failed) at all three levels.

The corpus is every Swift source the end-to-end and stdlib suites and
the shipped examples run, plus the cases the rewrites make newly
reachable (a closed value used before its textual assignment, escapes,
payload quoting, partial closedness, fusion boundaries, failures).
"""

from __future__ import annotations

import ast
import importlib.util
import os

import pytest

import repro
from repro import SwiftRuntime, compile_swift, swift_run
from repro.core import SwiftError
from repro.turbine.builtins import SPLIT_OVER

LEVELS = (0, 1, 2)
HERE = os.path.dirname(__file__)


def verdict(src: str, opt: int, **kw) -> tuple:
    """("ok", sorted lines) or ("failed",): which unit fails (a rule at
    -O0; the control task or the leaf above) is allowed to differ, and
    so is what was printed before the failure."""
    kw.setdefault("workers", 2)
    try:
        res = swift_run(src, opt=opt, **kw)
    except SwiftError:
        return ("rejected",)
    except Exception:
        return ("failed",)
    return ("ok", sorted(res.stdout_lines)) if res.ok else ("failed",)


def agree(src: str, **kw) -> tuple:
    oracle = verdict(src, 0, **kw)
    for opt in LEVELS[1:]:
        assert verdict(src, opt, **kw) == oracle, "-O%d differs from -O0 on:\n%s" % (opt, src)
    return oracle


# ---------------------------------------------------------------- the corpus


def harvest(filename: str) -> list:
    """Every ``run(...)`` / ``run_swift(...)`` / ``swift_run(...)`` call
    in a test file whose program is a literal (or a module constant),
    with its ``args=`` / ``workers=`` keywords."""
    with open(os.path.join(HERE, filename)) as f:
        tree = ast.parse(f.read())

    def constants(body) -> dict:
        return {
            node.targets[0].id: node.value.value
            for node in body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.targets[0], ast.Name)
        }

    found = []
    module = constants(tree.body)
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {**module, **constants(ast.walk(fn))}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in ("run", "run_swift", "swift_run"):
                continue
            first = node.args[0]
            src = names.get(first.id) if isinstance(first, ast.Name) else None
            if isinstance(first, ast.Constant):
                src = first.value
            if not isinstance(src, str):
                continue  # built at run time
            kw = {
                k.arg: k.value.value if k.arg == "workers" else ast.literal_eval(k.value)
                for k in node.keywords
                if k.arg == "args" or k.arg == "workers" and isinstance(k.value, ast.Constant)
            }
            found.append(pytest.param(src, kw, id="%s:%d" % (filename[5:-3], node.lineno)))
    return found


CORPUS = harvest("test_swift_e2e.py") + harvest("test_swift_stdlib.py")


def test_corpus_is_harvested():
    assert len(CORPUS) >= 70  # the harvester still sees the suites


@pytest.mark.parametrize("src,kw", CORPUS)
def test_suite_programs_agree(src, kw):
    agree(src, **kw)


EXAMPLES = sorted(
    f for f in os.listdir(os.path.join(HERE, "..", "examples")) if f.endswith(".py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_examples_agree(name, capsys):
    """Each example's ``main()`` with its runtime pinned to each level."""
    outputs = {}
    for opt in LEVELS:
        seen = outputs[opt] = []

        class AtLevel(SwiftRuntime):
            def __init__(self, *a, **kw):
                kw["opt"] = opt
                super().__init__(*a, **kw)

            def run(self, *a, **kw):
                res = super().run(*a, **kw)
                seen.append((res.ok, sorted(res.stdout_lines)))
                return res

        def run_at_level(src, **kw):
            res = swift_run(src, opt=opt, **kw)
            seen.append((res.ok, sorted(res.stdout_lines)))
            return res

        spec = importlib.util.spec_from_file_location(
            "example_" + name[:-3], os.path.join(HERE, "..", "examples", name)
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.SwiftRuntime, mod.swift_run = AtLevel, run_at_level
        mod.main()
        assert seen, "example ran no Swift program"
    capsys.readouterr()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# ------------------------------------------------- newly reachable cases

ECHO = '(string o) echo(string s) "" "1.0" [ "set <<o>> <<s>>" ];\n'
WHOAMI = '(string o) whoami(int i) "" "1.0" [ "set <<o>> [ turbine::rank ]" ];\n'
# ; newline $x [cmd] # unbalanced braces, and a trailing backslash
NASTY = 'a;b\nc $x [exit] # {{ } \\{ "q" \\'
NASTY_SWIFT = NASTY.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

CASES = {
    "closed value used before its textual assignment": (
        "int x; int y = x + 1; trace(y); x = 5;",
        ["trace: 6"],
    ),
    "closed input of a fused consumer assigned after the leaf": (
        'foreach i in [0:2] { int k; string s = python("", fromint(i));\n'
        '  printf("%s %i", s, k); k = i * 10; }',
        ["0 0", "1 10", "2 20"],
    ),
    "closed if inside a foreach": (
        "foreach i in [0:5] {\n"
        '  if (i % 2 == 0) { trace(i); } else { printf("odd %i", i); }\n'
        "}",
        ["odd 1", "odd 3", "odd 5", "trace: 0", "trace: 2", "trace: 4"],
    ),
    "closed if rebalances the writer slots of each branch": (
        "int a[];\n"
        "foreach i in [0:5] { if (i % 2 == 0) { a[i] = i; a[i + 100] = 1; } else { } }\n"
        "int b[]; if (1 < 2) { b[0] = 1; b[1] = 2; } else { }\n"
        'printf("%i %i %i", size(a), sum_integer(a), size(b));',
        ["6 9 2"],
    ),
    "a TD first needed inside one branch exists on both paths": (
        "foreach i in [0:3] {\n"
        '  string s; int k = i * 3;\n'
        '  if (i % 2 == 0) { s = python("", fromint(k)); } else { s = "odd"; }\n'
        '  printf("%i %s", k, s);\n'
        "}",
        ["0 0", "3 odd", "6 6", "9 odd"],
    ),
    "closed value escapes into a composite call, a member and a wait": (
        "(int o) twice(int x) { o = x * 2; }\n"
        "int a[];\n"
        "foreach i in [0:3] {\n"
        "  int k = i + 1;\n"
        "  a[i] = k;\n"
        "  int t = twice(k);\n"
        '  wait (k) { printf("k=%i t=%i", k, t); }\n'
        "}\n"
        "trace(sum_integer(a));",
        ["k=1 t=2", "k=2 t=4", "k=3 t=6", "k=4 t=8", "trace: 10"],
    ),
    "by-value payload with every special character": (
        ECHO + 'string r = echo("%s"); printf("%%s", r);' % NASTY_SWIFT,
        [NASTY],
    ),
    "closed computed payload with every special character": (
        ECHO
        + "foreach i in [7:7] {\n"
        + '  string r = echo(strcat("%s", fromint(i), "\\\\")); trace(strlen(r)); printf("%%s", r);\n'
        % NASTY_SWIFT
        + "}",
        [NASTY + "7\\", "trace: %d" % (len(NASTY) + 2)],
    ),
    "leaf with one closed and one future input": (
        'string a = python("x = 2", "x");\n'
        'foreach i in [0:2] { string b = python(strcat("y = ", a, " + ", fromint(i)), "y");\n'
        "  trace(b); }",
        ["trace: 2", "trace: 3", "trace: 4"],
    ),
    "leaf output with two consumers keeps its TD": (
        'foreach i in [0:2] { string s = python("", fromint(i)); trace(s); printf("again %s", s); }',
        ["again 0", "again 1", "again 2", "trace: 0", "trace: 1", "trace: 2"],
    ),
    "two outputs, each with a fused continuation": (
        '(string a, int b) two(int i) "" "1.0" [ "set <<a>> x<<i>>; set <<b>> [ expr {<<i>> * 1.0} ]" ];\n'
        "foreach i in [1:2] { string p; int q; p, q = two(i); trace(p); trace(q + 1); }",
        ["trace: 2", "trace: 3", "trace: x1", "trace: x2"],
    ),
    "a chain of pure ops fuses through": (
        'foreach i in [0:1] { trace(strlen(toupper(python("", strcat("\'ab\' * ", fromint(i + 1)))))); }',
        ["trace: 2", "trace: 4"],
    ),
    "@prio and @target on an all-closed leaf": (
        WHOAMI
        + "foreach i in [0:3] { @prio=i @target=2 string r = whoami(i);\n"
        + '  printf("%i ran on %s", i, r); }',
        ["0 ran on 2", "1 ran on 2", "2 ran on 2", "3 ran on 2"],
    ),
    "computed @prio and @target": (
        WHOAMI
        + "int base = parseint(\"10\");\n"
        + "foreach i in [0:3] { @prio=(base-i) @target=(1+i%2) string r = whoami(i);\n"
        + '  printf("%i ran on %s", i, r); }',
        ["0 ran on 1", "1 ran on 2", "2 ran on 1", "3 ran on 2"],
    ),
    "float, boolean and big-int formatting": (
        "foreach i in [1:2] { trace(tofloat(i) * 1.0, i > 1, i * 4611686018427387904); }\n"
        "float f = 1 + 2; float g = 3; int n = 4; float h = n; trace(f, g, h, 7 / 2, 2 ** 10);",
        [
            "trace: 1.0,0,4611686018427387904",
            "trace: 2.0,1,9223372036854775808",
            "trace: 3.0,3.0,4.0,3,1024",
        ],
    ),
    "argv in a closed position": (
        'int n = argv_int("n", 2); foreach i in [1:n] { trace(python("", argv("s"))); }',
        ["trace: 42", "trace: 42"],
    ),
}
CASE_KW = {"argv in a closed position": {"args": {"s": "6 * 7"}}}


@pytest.mark.parametrize("name", CASES)
def test_new_cases_agree_and_are_right(name):
    src, expected = CASES[name]
    assert agree(src, **CASE_KW.get(name, {})) == ("ok", sorted(expected))


FAILING = {
    "closed division by zero": "int z = 0; trace(1 / z);",
    "closed parseint of a non-number": 'trace(parseint("x"));',
    "closed assertion": 'int x = 3; assert(x > 4, "too small");',
    "error raised by an op fused into a leaf": (
        'string s = python("", "\'x\'"); trace(parseint(s));'
    ),
}


@pytest.mark.parametrize("name", FAILING)
def test_failures_fail_at_every_level(name):
    assert agree(FAILING[name], max_retries=1) == ("failed",)


# ------------------------------------------------------- loops of leaves

LEAF = 'string s = python("", fromint(%s)); trace(s);'
K = SPLIT_OVER


def traces(values) -> list:
    return ["trace: %d" % v for v in values]


# name -> (program, expected lines, loops the pass inlines at -O1)
LOOPS = {
    "a range of k iterations": (
        "foreach i in [0:%d] { %s }" % (K - 1, LEAF % "i"), traces(range(K)), 1,
    ),
    "a range of k + 1 iterations": (
        "foreach i in [0:%d] { %s }" % (K, LEAF % "i"), traces(range(K + 1)), 1,
    ),
    "a range of 1 000 iterations": (
        "foreach i in [0:999] { %s }" % LEAF % "i", traces(range(1000)), 1,
    ),
    "a step over a split range": (
        "foreach i in [3:%d:7] { %s }" % (7 * 3 * K, LEAF % "i"),
        traces(range(3, 7 * 3 * K + 1, 7)), 1,
    ),
    "an empty range": ("foreach i in [5:4] { %s }\ntrace(7);" % LEAF % "i", traces([7]), 1),
    "a computed negative step is the empty loop": (
        "foreach i in [9:0:-3] { %s }\ntrace(7);" % LEAF % "i", traces([7]), 1,
    ),
    "a future bound is retrieved once, before the first split": (
        'int n = parseint(python("", "%d"));\n' % (2 * K)
        + "foreach i in [0:n] { %s }" % LEAF % "i",
        traces(range(2 * K + 1)), 1,
    ),
    "captured closed variables ride through every split": (
        'int base = argv_int("b", 1000); string sep = " + ";\n'
        "foreach i in [0:%d] {\n" % (2 * K)
        + "  string s = python(\"\", strcat(fromint(base), sep, fromint(i))); trace(s);\n}",
        traces(range(1000, 1001 + 2 * K)), 1,
    ),
    "@prio and @target leaves in a split range": (
        WHOAMI
        + "foreach i in [0:%d] { @prio=(i %% 5) @target=(1 + i %% 2) string r = whoami(i);\n" % K
        + '  printf("%i ran on %s", i, r); }',
        ["%d ran on %d" % (i, 1 + i % 2) for i in range(K + 1)], 1,
    ),
    "a closed if around the leaf": (
        "foreach i in [0:%d] { if (i %% 3 == 0) { %s } }" % (K, LEAF % "i * 2"),
        traces(range(0, 2 * K + 1, 6)), 1,
    ),
    "a value op that runs in one branch only": (
        "foreach i in [0:5] { if (i != 3) { %s } }" % LEAF % "60 / (i - 3)",
        traces([-20, -30, -60, 60, 30]), 1,
    ),
    "a sink in the body runs on the engine, in the chunk": (
        "foreach i in [0:5] { if (i != 3) { %s } else { trace(i); } }" % LEAF % "i",
        traces([0, 1, 2, 3, 4, 5]), 1,
    ),
    # (and so is the outer: its body only calls the inner chunk)
    "a nested loop whose inner body is leaf-only": (
        "foreach i in [0:2] { foreach j in [0:%d] { %s } }" % (K, LEAF % "i * 1000 + j"),
        traces(i * 1000 + j for i in range(3) for j in range(K + 1)), 2,
    ),
    # (the loop that fills ``a`` is: it only inserts)
    "an array foreach is not inlined": (
        "int a[]; foreach i in [0:4] { a[i] = i * i; }\n"
        "foreach v in a { %s }" % LEAF % "v",
        traces(i * i for i in range(5)), 1,
    ),
    "a loop that writes an array is a chunk": (
        'string a[]; foreach i in [0:4] { a[i] = python("", fromint(i)); }\ntrace(size(a));',
        traces([5]), 1,
    ),
    "a written loop over a computed bound": (
        'int n = argv_int("n", %d); int a[]; foreach i in [0:n] { a[i] = i; }\n' % (K + 5)
        + "trace(size(a));",
        traces([K + 6]), 1,
    ),
    "a written loop over a future bound": (
        'int n = parseint(python("", "%d")); int a[]; foreach i in [0:n] { a[i] = i; }\n' % (K + 5)
        + "trace(size(a));",
        traces([K + 6]), 1,
    ),
    "a leaf whose output is read twice keeps its TD, in a chunk": (
        'foreach i in [0:2] { string s = python("", fromint(i)); trace(s); trace(s); }',
        traces([0, 0, 1, 1, 2, 2]), 1,
    ),
    "a composite call keeps its control task": (
        "(int o) twice(int x) { o = x * 2; }\n"
        "foreach i in [0:2] { trace(twice(i)); }",
        traces([0, 2, 4]), 0,
    ),
}


@pytest.mark.parametrize("name", LOOPS)
def test_loops_of_leaves_agree_and_are_right(name):
    src, expected, inlined = LOOPS[name]
    assert compile_swift(src, opt=0).tcl_text.count("turbine::split_range") == 0
    assert compile_swift(src, opt=1).tcl_text.count("turbine::split_range") == inlined
    assert agree(src) == ("ok", sorted(expected))


def test_a_zero_step_never_starts_at_any_level():
    """It used to spawn control tasks until memory ran out.  A literal
    is a compile error; a computed one a TclError where the loop proc
    computes its count, whether the loop is split or per-iteration."""
    assert agree("foreach i in [0:9:0] { trace(i); }") == ("rejected",)
    for body, lines in (("trace(i);", traces([0, 4, 8])), (LEAF % "i", traces([0, 4, 8]))):
        src = 'int z = argv_int("z", 0);\nforeach i in [0:9:z] { %s }' % body
        for opt in LEVELS:
            with pytest.raises(repro.TaskError, match=r"range \[0:9:0\] never ends"):
                swift_run(src, workers=2, opt=opt, deadline=30.0)
        assert agree(src, args={"z": "4"}) == ("ok", lines)


def test_a_split_loop_is_shared_by_the_engines():
    src = "foreach i in [0:999] { %s }" % LEAF % "i"
    res = swift_run(src, workers=2, servers=2, engines=2)
    assert sorted(res.stdout_lines) == sorted(traces(range(1000)))
    per_engine = [res.metrics["gauges"]["engine.control_tasks_run[%d]" % r] for r in (0, 1)]
    # 1000 -> 2 x 500 -> 4 x 250 -> 8 x 125 -> 16 x 62 or 63
    assert sum(per_engine) == 2 + 4 + 8 + 16 and min(per_engine) > 0


# ISSUE 24's example: iteration 3 divides by zero where the loop proc
# evaluates the chunk's payloads.  The iterations then run as control
# tasks, as they did before loops of leaves: the other five print, the
# one fails in a unit of its own, and no leaf is out twice.
RAISING = (
    'foreach i in [0:5] { string s = python(strcat("i=", fromint(10/(i-3))), "i"); trace(s); }\n'
    'trace("after");'
)
RAISING_LINES = sorted(["trace: %d" % (10 // (i - 3)) for i in (0, 1, 2, 4, 5)] + ["trace: after"])


@pytest.mark.parametrize("opt", [1, 2])
def test_a_raising_iteration_fails_alone_under_every_policy(opt):
    assert "catch" in compile_swift(RAISING, opt=opt).tcl_text
    res = swift_run(RAISING, workers=2, opt=opt, on_error="continue")
    assert not res.ok and sorted(res.stdout_lines) == RAISING_LINES
    assert [(f.kind, f.attempts) for f in res.failures] == [("ctask", 1)]
    assert "divide by zero" in res.failures[0].error
    for policy, attempts in (("retry", 3), ("fail_fast", 1)):
        with pytest.raises(repro.TaskError, match="divide by zero") as info:
            swift_run(RAISING, workers=2, opt=opt, on_error=policy)
        assert (info.value.failure.kind, info.value.failure.attempts) == ("ctask", attempts)


def test_many_retries_back_off_to_a_cap():
    # ten requeues at an uncapped doubling backoff wait ~51 s in all;
    # capped at leases.RETRY_BACKOFF_MAX they wait under 4 s
    with pytest.raises(repro.TaskError, match="divide by zero") as info:
        swift_run(RAISING, workers=2, on_error="retry", max_retries=10, deadline=10.0)
    assert (info.value.failure.kind, info.value.failure.attempts) == ("ctask", 11)


# The same loop, called in place by swift:main after main wrote a[0]
# and spawned x's leaf: the catch branch forgets only the chunk's
# spawns, so main's insert, leaf, rules and decrements all stay.
AROUND_RAISING = (
    'int a[];\na[0] = 1;\nstring x = python("x=7", "x");\ntrace(x);\n'
    'foreach i in [0:5] { string s = python(strcat("i=", fromint(10/(i-3))), "i"); trace(s); }\n'
    "trace(a[0]);\n"
)


@pytest.mark.parametrize("opt", [1, 2])
def test_a_raising_chunk_keeps_what_its_caller_did(opt):
    assert "turbine::drop $spawned" in compile_swift(AROUND_RAISING, opt=opt).tcl_text
    res = swift_run(AROUND_RAISING, workers=2, opt=opt, on_error="continue")
    assert not res.ok and [(f.kind, f.attempts) for f in res.failures] == [("ctask", 1)]
    lines = [line for line in RAISING_LINES if line != "trace: after"] + ["trace: 1", "trace: 7"]
    assert sorted(res.stdout_lines) == sorted(lines)
    # (main losing a's create would fail the program with "TD <1> not
    # found" long before the body's three attempts are used up)
    with pytest.raises(repro.TaskError, match="divide by zero") as info:
        swift_run(AROUND_RAISING, workers=2, opt=opt, on_error="retry")
    assert (info.value.failure.kind, info.value.failure.attempts) == ("ctask", 3)


# A chunk that holds more than spawns: each iteration inserts a member,
# registers the rules that trace it and prints, and the last raises after
# all of that.  The catch branch cuts everything the try held, so the
# fallback's control tasks make each insert, rule and line once: no
# "inserted twice", no line twice, and none of the raising iteration's.
# (-O0 runs the division as a rule of its own, so the raising unit, and
# what it printed first, differ; the verdict may not.)
HOLDS_THEN_RAISES = (
    "int a[];\n"
    "foreach i in [0:5] {\n"
    "  a[i] = i * 10;\n"
    "  trace(a[i] + 1);\n"
    "  trace(i);\n"
    "  int k = 60 / (i - 5);\n"
    "  trace(k);\n"
    "}\n"
)
PRINTED_LINES = sorted(traces(range(5)) + traces(60 // (i - 5) for i in range(5)))


@pytest.mark.parametrize("servers", [1, 2])
@pytest.mark.parametrize("policy", ["retry", "continue", "fail_fast"])
def test_a_raising_chunk_leaves_nothing_of_its_try(policy, servers):
    kw = dict(workers=2, servers=servers, on_error=policy)
    assert agree(HOLDS_THEN_RAISES, **kw) == ("failed",)
    for opt in (1, 2):
        if policy == "continue":
            res = swift_run(HOLDS_THEN_RAISES, opt=opt, **kw)
            members = traces(10 * i + 1 for i in range(5))
            assert sorted(res.stdout_lines) == sorted(members + PRINTED_LINES)
            (failure,) = res.failures
        else:
            with pytest.raises(repro.TaskError) as info:
                swift_run(HOLDS_THEN_RAISES, opt=opt, **kw)
            failure = info.value.failure
        assert (failure.kind, failure.attempts) == ("ctask", 3 if policy == "retry" else 1)
        assert "divide by zero" in failure.error


PRINTS_THEN_RAISES = "foreach i in [0:5] { trace(i); int k = 60 / (i - 5); trace(k); }\n"


@pytest.mark.parametrize("servers", [1, 2])
@pytest.mark.parametrize("policy", ["retry", "continue", "fail_fast"])
def test_a_chunk_that_prints_prints_each_line_once(policy, servers, capsys):
    """The try printed iterations 0-4 and half of 5 before it raised;
    the lines the fallback prints are the only ones.  A run that fails
    may end before some iterations print: no line twice, none but
    theirs; one that goes on prints each, once."""
    kw = dict(workers=2, servers=servers, on_error=policy)
    assert agree(PRINTS_THEN_RAISES, **kw) == ("failed",)
    capsys.readouterr()
    for opt in (1, 2):
        assert "turbine::drop" in compile_swift(PRINTS_THEN_RAISES, opt=opt).tcl_text
        if policy == "continue":
            lines = swift_run(PRINTS_THEN_RAISES, opt=opt, **kw).stdout_lines
        else:
            with pytest.raises(repro.TaskError, match="divide by zero"):
                swift_run(PRINTS_THEN_RAISES, opt=opt, echo=True, **kw)
            lines = capsys.readouterr().out.splitlines()
        if policy == "continue":
            assert sorted(lines) == PRINTED_LINES
        else:
            assert len(set(lines)) == len(lines) and set(lines) <= set(PRINTED_LINES)


# A written loop over more than SPLIT_OVER iterations: its writer slots
# are taken once, by the proc that calls the chunk, before the split —
# not by each half, nor by a fallback — so the container closes once,
# with every member in.
SPLIT_WRITES = (
    "int a[];\n"
    'foreach i in [0:%d] { a[i] = parseint(python("", fromint(i))); }\n'
    "trace(size(a)); trace(sum_integer(a));\n" % (2 * K + 1)
)


@pytest.mark.parametrize("servers", [1, 2])
@pytest.mark.parametrize("policy", ["retry", "continue", "fail_fast"])
def test_a_split_written_loop_closes_its_array_once(policy, servers):
    text = compile_swift(SPLIT_WRITES, opt=1).tcl_text
    assert text.count("turbine::write_refcount_incr") == 1
    main = text[text.index("proc swift:main") :].split("\n}\n")[0]
    assert "set n [ turbine::range_count 0 %d 1 ]" % (2 * K + 1) in main
    assert "turbine::write_refcount_incr $v_a [ expr { $n * 1 } ]" in main
    n = 2 * K + 2
    expected = ("ok", sorted(traces([n, n * (n - 1) // 2])))
    assert agree(SPLIT_WRITES, workers=2, servers=servers, on_error=policy) == expected


# Not a loop of leaves (trace(k) is no leaf): every iteration is a body
# control task that spawns its leaf, then raises in parseint.
LEAF_THEN_RAISE = (
    "foreach i in [0:2] {\n"
    '  trace(python(strcat("x=", fromint(i)), "x"));\n'
    '  int k = parseint(strcat("z", fromint(i)));\n'
    "  trace(k);\n"
    "}\n"
)


@pytest.mark.parametrize("opt", [1, 2])
def test_a_failed_body_spawns_no_leaf_under_every_policy(opt, capsys):
    """A unit's spawns leave when its Tcl returns: a body that raised
    spawned nothing, so no attempt of it, retried or not, runs its leaf
    (each used to, up to three times a body under ``retry``)."""
    for policy, attempts in (("retry", 3), ("fail_fast", 1)):
        with pytest.raises(repro.TaskError, match="non-numeric") as info:
            swift_run(LEAF_THEN_RAISE, workers=2, opt=opt, on_error=policy, echo=True)
        assert (info.value.failure.kind, info.value.failure.attempts) == ("ctask", attempts)
        assert capsys.readouterr().out == ""
    res = swift_run(LEAF_THEN_RAISE, workers=2, opt=opt, on_error="continue")
    assert [(f.kind, f.attempts) for f in res.failures] == [("ctask", 1)] * 3
    assert not res.ok and res.stdout_lines == []


# Every iteration inserts into the array, then raises in parseint.
INSERT_THEN_RAISE = (
    "int a[];\n"
    "foreach i in [0:2] {\n"
    "  a[i] = i * 10;\n"
    '  int k = parseint(strcat("z", fromint(i)));\n'
    "  trace(k);\n"
    "}\n"
)
# A leaf whose second output's store raises after its first one.
TWO_OUTPUTS_THEN_RAISE = (
    '(string a, int b) two(int i) "" "1.0" [ "set <<a>> x<<i>>; set <<b>> y<<i>>" ];\n'
    "string p; int q; p, q = two(1); trace(p); trace(q);\n"
)


@pytest.mark.parametrize("opt", LEVELS)
def test_a_failed_body_inserts_nothing_under_every_policy(opt):
    """A unit's writes leave when its Tcl returns: a body that raised
    inserted nothing, so its retry meets the parse error again, not
    ``inserted twice``."""
    with pytest.raises(repro.TaskError, match="non-numeric") as info:
        swift_run(INSERT_THEN_RAISE, workers=2, opt=opt, on_error="retry")
    assert "twice" not in info.value.failure.error
    res = swift_run(INSERT_THEN_RAISE, workers=2, opt=opt, on_error="continue")
    assert not res.ok and res.stdout_lines == []
    assert len(res.failures) == 3
    assert all("non-numeric" in f.error for f in res.failures)


@pytest.mark.parametrize("policy", ["retry", "continue"])
def test_a_two_output_leaf_that_raises_is_seen_alike_at_every_level(policy):
    """-O0 stores the leaf's first output and -O1 fuses its trace into
    the leaf: they agree because the failed leaf stores neither."""
    seen = set()
    for opt in LEVELS:
        try:
            res = swift_run(TWO_OUTPUTS_THEN_RAISE, workers=2, opt=opt, on_error=policy)
            seen.add((res.ok, tuple(res.stdout_lines), tuple(f.error for f in res.failures)))
        except repro.TaskError as e:
            seen.add(("raised", e.failure.error))
    assert seen == {
        ("raised", "TclError: expected integer, got 'y1'")
        if policy == "retry"
        else (False, (), ("TclError: expected integer, got 'y1'",))
    }


def test_a_retried_chunk_spawns_its_leaves_once():
    """A chunk is a leased CONTROL task: failed at its start (where
    injected faults land), it is requeued whole and runs once."""
    src = "foreach i in [0:%d] { %s }" % (2 * K - 1, LEAF % "i")
    plan = repro.FaultPlan(seed=0).fail_task("swift:__chunk", times=2)
    res = swift_run(src, workers=2, faults=plan, trace=True)
    assert res.ok and sorted(res.stdout_lines) == sorted(traces(range(2 * K)))
    counters = res.trace.metrics["counters"]
    assert counters["fault.task_errors"] == 2 and counters["adlb.lease.requeued"] == 2


def test_future_annotation_is_rejected_at_every_level():
    """What may follow @prio / @target is the same language at every
    level: the ops computing it are closed even at -O0."""
    src = 'int p = parseint(system("echo 3"));\n@prio=p string s = system("echo x"); trace(s);'
    assert agree(src) == ("rejected",)
    assert agree(src.replace('system("echo 3")', '"3"')) == ("ok", ["trace: x"])


def test_assert_is_not_retried_as_part_of_a_leaf():
    """An assertion on a leaf's output fails the run once, on an
    engine — not as max_retries + 1 attempts of the leaf."""
    src = 'string s = python("", "1"); assert(s == "2", "leaf said 1");'
    for opt in LEVELS:
        with pytest.raises(repro.TaskError, match="leaf said 1") as info:
            swift_run(src, workers=2, opt=opt)
        assert info.value.failure.attempts == 1
        assert info.value.failure.kind == "rule"
