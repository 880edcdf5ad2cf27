"""Swift standard-library intrinsics, end to end."""

from __future__ import annotations

import pytest

from repro import swift_run
from repro.faults import TaskError
from repro.mpi.launcher import RankFailure


def run(src: str, **kw) -> list[str]:
    return sorted(swift_run(src, workers=kw.pop("workers", 3), **kw).stdout_lines)


class TestStringIntrinsics:
    def test_substring(self):
        assert run('printf("%s", substring("abcdef", 1, 3));') == ["bcd"]

    def test_substring_clamps(self):
        assert run('printf("[%s]", substring("ab", 1, 99));') == ["[b]"]

    def test_find_present_and_absent(self):
        out = run(
            'printf("%i %i", find("hello world", "wor"), find("hello", "zz"));'
        )
        assert out == ["6 -1"]

    def test_replace_all(self):
        assert run('printf("%s", replace_all("aXbXc", "X", "--"));') == ["a--b--c"]

    def test_case_and_trim(self):
        out = run(
            'printf("%s|%s|%s", toupper("mIx"), tolower("mIx"), trim("  p "));'
        )
        assert out == ["MIX|mix|p"]

    def test_split_produces_array(self):
        out = run(
            'string p[] = split("a,b,c,d", ",");\n'
            'printf("%i %s %s", size(p), p[0], p[3]);'
        )
        assert out == ["4 a d"]

    def test_split_empty_fields(self):
        out = run(
            'string p[] = split("x,,y", ",");\n'
            'printf("%i [%s]", size(p), p[1]);'
        )
        assert out == ["3 []"]

    def test_join_ordered_by_subscript(self):
        out = run(
            "string p[];\n"
            'p[2] = "c"; p[0] = "a"; p[1] = "b";\n'
            'printf("%s", join(p, "-"));'
        )
        assert out == ["a-b-c"]

    def test_join_empty_array(self):
        out = run('string p[];\nprintf("[%s]", join(p, "-"));')
        assert out == ["[]"]

    def test_split_join_round_trip(self):
        out = run(
            'string s = "q/w/e/r";\n'
            'printf("%s", join(split(s, "/"), "/"));'
        )
        assert out == ["q/w/e/r"]

    def test_split_feeds_foreach(self):
        out = run(
            'foreach w in split("one two three", " ") {\n'
            '  printf("w=%s", w);\n'
            "}"
        )
        assert out == ["w=one", "w=three", "w=two"]


class TestArgv:
    def test_argv_with_value(self):
        out = run('printf("%s", argv("name"));', args={"name": "zed"})
        assert out == ["zed"]

    def test_argv_default_used(self):
        assert run('printf("%s", argv("name", "fallback"));') == ["fallback"]

    def test_argv_value_overrides_default(self):
        out = run(
            'printf("%s", argv("name", "fallback"));', args={"name": "given"}
        )
        assert out == ["given"]

    def test_argv_int(self):
        out = run(
            'printf("%i", argv_int("n") * 2);', args={"n": "21"}
        )
        assert out == ["42"]

    def test_argv_int_default(self):
        assert run('printf("%i", argv_int("n", 7));') == ["7"]

    def test_argv_missing_no_default_fails(self):
        with pytest.raises(TaskError, match="missing program argument"):
            swift_run('printf("%s", argv("required"));', workers=2)

    def test_args_visible_on_workers(self):
        # argv evaluated in a leaf python task via strcat plumbing
        out = run(
            'string s = python(strcat("x = ", argv("n"), " * 2"), "x");\n'
            'printf("%s", s);',
            args={"n": "8"},
        )
        assert out == ["16"]


class TestReductions:
    def test_min_max_float(self):
        out = run(
            "float f[];\n"
            "f[0] = 2.5; f[1] = 0.5; f[2] = 9.5;\n"
            'printf("%s %s", fromfloat(min_float(f)), fromfloat(max_float(f)));'
        )
        assert out == ["0.5 9.5"]

    def test_sum_empty_integer_array_is_zero(self):
        assert run("int a[];\nprintf(\"%i\", sum_integer(a));") == ["0"]


class TestPriorityAnnotation:
    def test_prio_orders_queued_tasks(self):
        from repro import swift_run

        src = """
(string o) emit(string tag, int delay_ms) "python" "1.0" [
    "set code [ string map [ list D <<delay_ms>> ] {import time; time.sleep(D / 1000.0)} ]
     python::eval $code {}
     set <<o>> <<tag>>"
];
string gate = emit("gate", 100);
printf("G %s", gate);
@prio=1 string low = emit("low", 1);
@prio=9 string high = emit("high", 1);
printf("L %s", low);
printf("H %s", high);
"""
        res = swift_run(src, workers=1)
        lines = [line for _, line in res.output.lines]
        assert lines.index("H high") < lines.index("L low")

    def test_prio_requires_int(self):
        from repro.core import SwiftError, compile_swift

        with pytest.raises(SwiftError, match="@prio must be an int"):
            compile_swift('@prio="high" system("echo x");')

    def test_prio_on_composite_rejected(self):
        from repro.core import SwiftError, compile_swift

        with pytest.raises(SwiftError, match="leaf tasks"):
            compile_swift(
                "(int o) f(int x) { o = x; }\n"
                "@prio=5 int y = f(1);\n"
                'printf("%i", y);'
            )

    def test_prio_future_rejected(self):
        from repro.core import SwiftError, compile_swift

        with pytest.raises(SwiftError, match="spawn time"):
            # (parseint of a literal is computed at spawn time, at every
            # level: the priority has to come out of a leaf to be a future)
            compile_swift(
                'int p = parseint(system("echo 3"));\n'
                '@prio=p string s = system("echo x");\n'
                'printf("%s", s);'
            )

    def test_unknown_annotation_rejected(self):
        from repro.core import SwiftError, compile_swift

        with pytest.raises(SwiftError, match="unknown annotation"):
            compile_swift('@speed=9 system("echo x");')

    def test_prio_loop_index_allowed(self):
        from repro import swift_run

        src = """
foreach i in [0:3] {
    @prio=i string s = system(strcat("echo t", fromint(i)));
    printf("%s", s);
}
"""
        res = swift_run(src, workers=2, opt=2)
        assert sorted(res.stdout_lines) == ["t0", "t1", "t2", "t3"]


class TestTargetAnnotation:
    def test_target_pins_tasks_to_rank(self):
        from repro import swift_run

        src = """
(string o) whoami(int i) "python" "1.0" [
    "set <<o>> [ turbine::rank ]"
];
foreach i in [0:7] {
    @target=2 string r = whoami(i);
    printf("ran on %s", r);
}
"""
        res = swift_run(src, workers=3)
        assert sorted(res.stdout_lines) == ["ran on 2"] * 8

    def test_prio_and_target_combine(self):
        from repro import swift_run

        src = """
(string o) whoami() "python" "1.0" [
    "set <<o>> [ turbine::rank ]"
];
@prio=5 @target=1 string r = whoami();
printf("r=%s", r);
"""
        res = swift_run(src, workers=2)
        assert res.stdout_lines == ["r=1"]

    def test_target_requires_int(self):
        from repro.core import SwiftError, compile_swift

        with pytest.raises(SwiftError, match="@target must be an int"):
            compile_swift('@target="w0" system("echo x");')

    def test_duplicate_annotation_rejected(self):
        from repro.core import SwiftError, compile_swift

        with pytest.raises(SwiftError, match="duplicate annotation"):
            compile_swift('@prio=1 @prio=2 system("echo x");')
