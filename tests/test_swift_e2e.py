"""End-to-end: Swift source -> STC -> Turbine -> ADLB -> workers.

Every test compiles a program and runs it on the full thread-backed
runtime, checking program output.
"""

from __future__ import annotations

import pytest

from repro import SwiftRuntime, swift_run
from repro.faults import TaskError
from repro.mpi.launcher import RankFailure


def run_swift(src: str, workers: int = 3, **kw) -> list[str]:
    return sorted(swift_run(src, workers=workers, **kw).stdout_lines)


class TestBasics:
    def test_hello(self):
        assert run_swift('printf("hello");') == ["hello"]

    def test_arithmetic_chain(self):
        out = run_swift("int x = parseint(\"4\"); printf(\"%i\", (x + 1) * (x - 1));")
        assert out == ["15"]

    def test_float_arithmetic(self):
        out = run_swift('float y = 1.5 * 4.0; printf("%s", fromfloat(y));')
        assert out == ["6.0"]

    def test_mixed_promotion(self):
        out = run_swift('float y = 3 + 0.5; printf("%s", fromfloat(y));')
        assert out == ["3.5"]

    def test_string_concat_operator(self):
        out = run_swift('string s = "ab" + "cd"; printf("%s", s);')
        assert out == ["abcd"]

    def test_strcat_and_sprintf(self):
        out = run_swift(
            'printf("%s", strcat("a", fromint(1), "b"));'
            'printf("%s", sprintf("%03i/%s", 7, "x"));'
        )
        assert out == ["007/x", "a1b"]

    def test_trace(self):
        res = swift_run("trace(1, 2.5);", workers=2)
        assert res.stdout_lines == ["trace: 1,2.5"]

    def test_use_before_assign_dataflow(self):
        out = run_swift(
            "int y;\n"
            'printf("y=%i", y);\n'
            "y = 17;\n"
        )
        assert out == ["y=17"]

    def test_boolean_logic(self):
        out = run_swift(
            "boolean b = (1 < 2) && !(3 < 2);\n"
            'if (b) { printf("yes"); } else { printf("no"); }\n'
        )
        assert out == ["yes"]

    def test_conversions(self):
        out = run_swift(
            'printf("%i", toint(9.9));\n'
            'printf("%s", fromfloat(tofloat(4)));\n'
            'printf("%i", parseint("123"));\n'
            'printf("%i", strlen("hello"));\n'
        )
        assert out == ["123", "4.0", "5", "9"]

    def test_math_functions(self):
        out = run_swift(
            'printf("%s", fromfloat(sqrt(25.0)));\n'
            'printf("%s", fromfloat(floor(2.9)));\n'
            'printf("%s", fromfloat(ceil(2.1)));\n'
        )
        assert out == ["2.0", "3.0", "5.0"]

    def test_power_and_modulo(self):
        out = run_swift('printf("%i %i", 2 ** 10, 17 % 5);')
        assert out == ["1024 2"]

    def test_assert_passes(self):
        assert run_swift('assert(1 < 2, "math works"); printf("ok");') == ["ok"]

    def test_assert_failure_aborts(self):
        with pytest.raises(TaskError, match="assertion failed"):
            swift_run('assert(1 > 2, "broken");', workers=2)


class TestFunctions:
    def test_composite_function(self):
        out = run_swift(
            "(int o) sq(int x) { o = x * x; }\n"
            'printf("%i", sq(7));\n'
        )
        assert out == ["49"]

    def test_nested_composite_calls(self):
        out = run_swift(
            "(int o) inc(int x) { o = x + 1; }\n"
            'printf("%i", inc(inc(inc(0))));\n'
        )
        assert out == ["3"]

    def test_function_calling_function(self):
        out = run_swift(
            "(int o) twice(int x) { o = x * 2; }\n"
            "(int o) quad(int x) { o = twice(twice(x)); }\n"
            'printf("%i", quad(3));\n'
        )
        assert out == ["12"]

    def test_multi_output(self):
        out = run_swift(
            "(int lo, int hi) order(int a, int b) {\n"
            "  if (a < b) { lo = a; hi = b; } else { lo = b; hi = a; }\n"
            "}\n"
            "int lo; int hi;\n"
            "lo, hi = order(9, 3);\n"
            'printf("%i-%i", lo, hi);\n'
        )
        assert out == ["3-9"]

    def test_recursive_function(self):
        out = run_swift(
            "(int o) fib(int n) {\n"
            "  if (n < 2) { o = n; } else { o = fib(n - 1) + fib(n - 2); }\n"
            "}\n"
            'printf("%i", fib(10));\n',
            workers=4,
        )
        assert out == ["55"]

    def test_void_like_function_with_side_effect(self):
        out = run_swift(
            "() report(int x) { printf(\"got %i\", x); }\n"
            "report(5);\n"
        )
        assert out == ["got 5"]

    def test_function_with_array_input(self):
        out = run_swift(
            "(int o) total(int a[]) { o = sum_integer(a); }\n"
            "int xs[];\n"
            "xs[0] = 5; xs[1] = 6;\n"
            'printf("%i", total(xs));\n'
        )
        assert out == ["11"]

    def test_function_with_array_output(self):
        out = run_swift(
            "(int a[]) build(int n) {\n"
            "  foreach i in [0:2] { a[i] = n + i; }\n"
            "}\n"
            "int ys[] = build(10);\n"
            'printf("%i", sum_integer(ys));\n'
        )
        assert out == ["33"]


class TestControlFlow:
    def test_foreach_range_step(self):
        out = run_swift('foreach i in [0:10:5] { printf("i=%i", i); }')
        assert out == ["i=0", "i=10", "i=5"]

    def test_foreach_with_future_bounds(self):
        out = run_swift(
            "int n = parseint(\"3\");\n"
            'foreach i in [1:n] { printf("%i", i); }\n'
        )
        assert out == ["1", "2", "3"]

    def test_empty_range(self):
        out = run_swift(
            'foreach i in [5:1] { printf("never"); }\nprintf("done");'
        )
        assert out == ["done"]

    def test_if_on_future_condition(self):
        out = run_swift(
            "int x = parseint(\"10\");\n"
            'if (x > 5) { printf("big"); } else { printf("small"); }\n'
        )
        assert out == ["big"]

    def test_nested_if(self):
        out = run_swift(
            "(string s) classify(int x) {\n"
            "  if (x < 0) { s = \"neg\"; } else {\n"
            "    if (x == 0) { s = \"zero\"; } else { s = \"pos\"; }\n"
            "  }\n"
            "}\n"
            'printf("%s %s %s", classify(0 - 5), classify(0), classify(5));\n'
        )
        assert out == ["neg zero pos"]

    def test_wait_ordering(self):
        res = swift_run(
            "int gate;\n"
            "wait (gate) { printf(\"after\"); }\n"
            "gate = 1;\n",
            workers=2,
        )
        assert res.stdout_lines == ["after"]

    def test_wait_on_multiple(self):
        out = run_swift(
            "int a = parseint(\"1\"); int b = parseint(\"2\");\n"
            "wait (a, b) { printf(\"both\"); }\n"
        )
        assert out == ["both"]

    def test_dataflow_pipeline_fig1(self):
        """The paper's Fig. 1: f/g pipelines per iteration."""
        out = run_swift(
            "(int o) f(int i) { o = i * i; }\n"
            "(int o) g(int t) { o = t % 2; }\n"
            "foreach i in [0:9] {\n"
            "  int t = f(i);\n"
            "  if (g(t) == 0) { printf(\"g(%i) == 0\", t); }\n"
            "}\n",
            workers=4,
        )
        assert out == sorted("g(%d) == 0" % (i * i) for i in range(0, 10, 2))


class TestArrays:
    def test_write_read_roundtrip(self):
        out = run_swift(
            "int a[];\n"
            "a[0] = 10;\n"
            "a[1] = a[0] + 5;\n"
            'printf("%i %i", a[0], a[1]);\n'
        )
        assert out == ["10 15"]

    def test_out_of_order_element_read(self):
        out = run_swift(
            "int a[];\n"
            'printf("%i", a[3]);\n'
            "a[3] = 42;\n"
        )
        assert out == ["42"]

    def test_loop_fill_and_reduce(self):
        out = run_swift(
            "int a[];\n"
            "foreach i in [0:99] { a[i] = i; }\n"
            'printf("%i %i %i %i", size(a), sum_integer(a), '
            "max_integer(a), min_integer(a));\n",
            workers=4,
        )
        assert out == ["100 4950 99 0"]

    def test_float_array_sum(self):
        out = run_swift(
            "float f[];\n"
            "f[0] = 1.5; f[1] = 2.5;\n"
            'printf("%s", fromfloat(sum_float(f)));\n'
        )
        assert out == ["4.0"]

    def test_foreach_over_array_values_and_indices(self):
        out = run_swift(
            "string names[];\n"
            'names[0] = "a"; names[1] = "b";\n'
            'foreach v, i in names { printf("%i=%s", i, v); }\n'
        )
        assert out == ["0=a", "1=b"]

    def test_computed_subscripts(self):
        out = run_swift(
            "int a[];\n"
            "int k = parseint(\"7\");\n"
            "a[k] = 1;\n"
            "a[k + 1] = 2;\n"
            'printf("%i", a[7] + a[8]);\n'
        )
        assert out == ["3"]

    def test_conditional_array_writes(self):
        out = run_swift(
            "int a[];\n"
            "foreach i in [0:9] {\n"
            "  if (i % 2 == 0) { a[i] = i; } else { }\n"
            "}\n"
            'printf("%i %i", size(a), sum_integer(a));\n',
            workers=4,
        )
        assert out == ["5 20"]

    def test_empty_array_closes(self):
        out = run_swift("int a[];\nprintf(\"%i\", size(a));")
        assert out == ["0"]

    def test_nested_loops(self):
        out = run_swift(
            "int grid[];\n"
            "foreach i in [0:3] {\n"
            "  foreach j in [0:3] {\n"
            "    grid[i * 4 + j] = i * j;\n"
            "  }\n"
            "}\n"
            'printf("%i %i", size(grid), sum_integer(grid));\n',
            workers=4,
        )
        assert out == ["16 36"]

    def test_double_write_same_subscript_fails(self):
        with pytest.raises(TaskError, match="twice"):
            swift_run("int a[]; a[0] = 1; a[0] = 2; printf(\"%i\", a[0]);", workers=2)


class TestInterlanguage:
    def test_python_builtin(self):
        out = run_swift('printf("%s", python("z = 2 ** 16", "z"));')
        assert out == ["65536"]

    def test_python_with_swift_data(self):
        out = run_swift(
            "foreach i in [1:3] {\n"
            '  string r = python(strcat("v = ", fromint(i), " * 11"), "v");\n'
            '  printf("%s", r);\n'
            "}\n"
        )
        assert out == ["11", "22", "33"]

    def test_r_builtin(self):
        out = run_swift('printf("%s", r("m <- mean(c(1, 2, 3, 4))", "m"));')
        assert out == ["2.5"]

    def test_python_and_r_cooperate(self):
        out = run_swift(
            'string py = python("x = list(range(1, 6))", "sum(x)");\n'
            'string rr = r(strcat("y <- ", py, " * 2"), "y");\n'
            'printf("%s", rr);\n'
        )
        assert out == ["30"]

    def test_system_builtin(self):
        out = run_swift('printf("[%s]", system("echo shell-out"));')
        assert out == ["[shell-out]"]

    def test_app_function(self):
        out = run_swift(
            'app (string o) shout(string a, string b) { "echo" a b }\n'
            'printf("%s", shout("x", "y"));\n'
        )
        assert out == ["x y"]

    def test_extension_function_with_tcl_snippet(self):
        out = run_swift(
            '(int o) triple(int x) "" "1.0" [\n'
            '  "set <<o>> [ expr { <<x>> * 3 } ]"\n'
            "];\n"
            'printf("%i", triple(14));\n'
        )
        assert out == ["42"]

    def test_python_task_error_propagates(self):
        with pytest.raises(TaskError, match="python task failed"):
            swift_run('string s = python("1/0", ""); trace(s);', workers=2)

    def test_blob_round_trip(self):
        out = run_swift(
            'blob b = blob_from_string("binary payload");\n'
            'printf("%i", blob_size(b));\n'
            'printf("%s", string_from_blob(b));\n'
        )
        assert out == ["15", "binary payload"]


class TestRuntimeConfigurations:
    @pytest.mark.parametrize("servers,engines,workers", [
        (1, 1, 2),
        (2, 1, 3),
        (1, 2, 3),
        (2, 2, 4),
    ])
    def test_layouts_agree(self, servers, engines, workers):
        src = (
            "int a[];\n"
            "foreach i in [0:19] { a[i] = i * 3; }\n"
            'printf("%i", sum_integer(a));\n'
        )
        res = swift_run(src, workers=workers, servers=servers, engines=engines)
        assert res.stdout_lines == ["570"]

    def test_opt_levels_agree(self):
        src = (
            "(int o) f(int x) { o = x + 1; }\n"
            "int a[];\n"
            "foreach i in [0:9] { a[i] = f(i * 2); }\n"
            'printf("%i", sum_integer(a));\n'
        )
        outs = {opt: run_swift(src, opt=opt) for opt in (0, 1, 2)}
        assert outs[0] == outs[1] == outs[2] == ["100"]

    def test_runtime_reuse(self):
        rt = SwiftRuntime(workers=2)
        assert rt.run('printf("one");').stdout_lines == ["one"]
        assert rt.run('printf("two");').stdout_lines == ["two"]

    def test_worker_stats_populated(self):
        res = swift_run(
            'foreach i in [0:9] { string s = python("x=1", "x"); trace(s); }',
            workers=3,
        )
        assert res.tasks_run == 10
        assert len(res.worker_stats) == 3

    def test_two_servers_complete_a_loop(self):
        res = swift_run(
            "foreach i in [0:9] { trace(i); }",
            workers=3,
            servers=2,
        )
        assert sorted(res.stdout_lines) == sorted("trace: %d" % i for i in range(10))

    @pytest.mark.parametrize("servers", [2, 3])
    def test_a_chain_of_subscript_reads_across_servers(self, servers):
        # Each hop reads a[i] into a TD of its own: the container's
        # server sends the COPY to the member's, which stores into the
        # reader TD's when the member closes; the three ids' homes differ
        # from hop to hop (at three servers, all three differ on some).
        src = (
            "string a[];\n"
            'a[0] = "1";\n'
            "foreach i in [0:11] {\n"
            '    a[i+1] = python(strcat("x=", a[i], "*3+", fromint(i)), "x%1000003");\n'
            "}\n"
            "trace(a[12]);\n"
        )
        x = 1
        for i in range(12):
            x = (x * 3 + i) % 1000003
        res = swift_run(src, workers=2, servers=servers, engines=1)
        assert res.stdout_lines == ["trace: %d" % x]
        assert res.metrics["counters"]["engine.rules_created"] == 12 + 1
