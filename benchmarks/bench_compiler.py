"""STC — compiler cost and the effect of optimization levels.

Supporting benchmark for the DESIGN.md ablations: compile time per
program, emitted-code size, and static / dynamic Turbine-operation
count at -O0 (no pass: every op a rule over TDs) vs -O1 (closed-value
propagation, by-value leaves, single-consumer fusion).  -O2 is accepted
and runs the same pass list as -O1, so it is checked equal to -O1 here
and not reported as a third column.
"""

from __future__ import annotations

import pytest

from repro.core import compile_swift

SMALL = 'printf("hello %i", 1 + 2);'

MEDIUM = """
(int o) f(int x) { o = x * 2 + 1; }
(int o) g(int x, int y) { o = f(x) + f(y); }
int a[];
foreach i in [0:63] {
    a[i] = g(i, i + 1);
}
printf("%i", sum_integer(a));
"""

LARGE = "\n".join(
    [
        "(int o) k%d(int x) { o = x + %d; }" % (i, i)
        for i in range(25)
    ]
    + ["int a%d[] ;".replace(" ;", ";") % i for i in range(10)]
    + [
        "foreach i in [0:9] { a%d[i] = k%d(i * %d); }" % (i, i % 25, i + 1)
        for i in range(10)
    ]
    + ['printf("%%i", sum_integer(a0) + sum_integer(a9));']
)

PROGRAMS = {"small": SMALL, "medium": MEDIUM, "large": LARGE}


@pytest.mark.parametrize("name", list(PROGRAMS))
@pytest.mark.parametrize("opt", [0, 1])
def test_stc_compile_time(benchmark, name, opt):
    src = PROGRAMS[name]
    compiled = benchmark(lambda: compile_swift(src, opt=opt))
    benchmark.extra_info["program"] = name
    benchmark.extra_info["opt"] = opt
    benchmark.extra_info["emitted_lines"] = compiled.n_lines
    benchmark.extra_info["procs"] = compiled.n_procs


def count_ops(text: str) -> int:
    """Static count of Turbine operations in the emitted program."""
    return sum(text.count(op) for op in (
        "turbine::allocate",
        "turbine::rule",
        "turbine::op ",  # the rule shim: one rule per call
        "turbine::store",
        "turbine::spawn",
    ))


def test_stc_optimization_reduces_ops(benchmark):
    src = (
        "int base = 10;\n"
        "int scale = 3;\n"
        "int a[];\n"
        "foreach i in [0:31] { a[i] = base + i * scale; }\n"
        'printf("%i", sum_integer(a));\n'
    )

    def measure():
        return {opt: count_ops(compile_swift(src, opt=opt).tcl_text) for opt in (0, 1)}

    ops = benchmark.pedantic(measure, rounds=2, iterations=1)
    benchmark.extra_info["ops_O0"] = ops[0]
    benchmark.extra_info["ops_O1"] = ops[1]
    assert ops[1] < ops[0]
    # -O2 is -O1: same text below the header line that names the level
    o1, o2 = (compile_swift(src, opt=opt).tcl_text.split("\n", 1)[1] for opt in (1, 2))
    assert o2 == o1


def test_stc_runtime_effect_of_opt(benchmark):
    """Dynamic effect: -O1 runs the same program with fewer engine rules."""
    from repro import SwiftRuntime

    src = (
        "int base = 7;\n"
        "int a[];\n"
        "foreach i in [0:19] { a[i] = base + i; }\n"
        'printf("%i", sum_integer(a));\n'
    )

    def measure():
        rules = {}
        for opt in (0, 1):
            res = SwiftRuntime(workers=2, opt=opt).run(src)
            assert res.stdout_lines == ["330"]
            rules[opt] = sum(e.rules_created for e in res.engine_stats)
        return rules

    rules = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["rules_O0"] = rules[0]
    benchmark.extra_info["rules_O1"] = rules[1]
    assert rules[1] < rules[0]
