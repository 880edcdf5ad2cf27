"""Property-based compiler testing: random programs, all opt levels.

Random integer-expression programs are generated, evaluated by a
Python reference evaluator, then compiled at -O0/-O1/-O2 and executed
on the real runtime; every path must agree.  This exercises the value
procs both ways — called in place on closed values, and behind the
rule shim on TDs — against one source of truth.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import swift_run

# --- random expression ASTs over declared int variables ------------------

_VARS = ["v0", "v1", "v2"]
_VALUES = {"v0": 3, "v1": -7, "v2": 12}


def _leaf():
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(lambda v: ("lit", v)),
        st.sampled_from(_VARS).map(lambda name: ("var", name)),
    )


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda t: ("bin", t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["/", "%"]), children, children).map(
            lambda t: ("bin", t[0], t[1], t[2])
        ),
        children.map(lambda c: ("neg", c)),
    )


exprs = st.recursive(_leaf(), _node, max_leaves=8)


def to_swift(node) -> str:
    kind = node[0]
    if kind == "lit":
        v = node[1]
        return str(v) if v >= 0 else "(0 - %d)" % -v
    if kind == "var":
        return node[1]
    if kind == "neg":
        return "(0 - %s)" % to_swift(node[1])
    _, op, a, b = node
    return "(%s %s %s)" % (to_swift(a), op, to_swift(b))


class Undefined(Exception):
    pass


def evaluate(node) -> int:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "var":
        return _VALUES[node[1]]
    if kind == "neg":
        return -evaluate(node[1])
    _, op, a, b = node
    x, y = evaluate(a), evaluate(b)
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if y == 0:
        raise Undefined()
    if op == "/":
        return x // y
    return x % y


@given(exprs)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_random_expressions_agree_across_opt_levels(tree):
    try:
        expected = evaluate(tree)
    except Undefined:
        return  # division by zero: skip (compile may reject or runtime may fail)
    if abs(expected) > 10**15:
        return
    src = (
        "int v0 = parseint(\"3\");\n"
        # v1 comes out of a leaf: a future at every level, so -O1 mixes
        # closed and future operands (escapes, the shim, fusion)
        "int v1 = 0 - parseint(python(\"\", \"7\"));\n"
        "int v2 = parseint(\"12\");\n"
        "int result = %s;\n"
        'printf("R=%%i", result);\n' % to_swift(tree)
    )
    for opt in (0, 1, 2):
        out = swift_run(src, workers=2, opt=opt)
        assert out.stdout_lines == ["R=%d" % expected], (
            to_swift(tree),
            opt,
        )


@given(
    st.lists(
        st.integers(min_value=-50, max_value=50), min_size=1, max_size=8
    )
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_array_sum_matches_python(values):
    stores = "\n".join(
        "a[%d] = %s;" % (i, v if v >= 0 else "0 - %d" % -v)
        for i, v in enumerate(values)
    )
    src = "int a[];\n%s\nprintf(\"S=%%i\", sum_integer(a));" % stores
    out = swift_run(src, workers=2)
    assert out.stdout_lines == ["S=%d" % sum(values)]


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=4))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_range_loop_matches_python(hi, step):
    src = (
        "int a[];\n"
        "foreach i in [0:%d:%d] { a[i] = i; }\n"
        'printf("S=%%i N=%%i", sum_integer(a), size(a));' % (hi, step)
    )
    values = list(range(0, hi + 1, step))
    out = swift_run(src, workers=2)
    assert out.stdout_lines == ["S=%d N=%d" % (sum(values), len(values))]
