"""Code-generation structure: emitted Tcl, slot accounting, opt levels."""

from __future__ import annotations

import pytest

from repro.core import compile_swift
from repro.core.codegen import Codegen
from repro.core.lower import block_writes, writer_count, writes_arrays
from repro.core.parser import parse
from repro.core.semantics import analyze
from repro.core.stdlib import THIN
from repro.tcl import Interp, TclError
from repro.tcl.listutil import format_element, format_list
from repro.turbine.builtins import register_turbine
from repro.turbine.tcllib import TURBINE_TCL
from repro.turbine.unit import Held


def gen(src: str, opt: int = 1) -> str:
    return compile_swift(src, opt=opt).tcl_text


def body(src: str, opt: int = 1) -> str:
    """The generated Tcl without its header line (which names the level)."""
    return gen(src, opt).split("\n", 1)[1]


def proc_text(text: str, name: str) -> str:
    return text[text.index("proc " + name) :].split("\n}\n")[0]


class TestStructure:
    def test_main_proc_exists(self):
        text = gen("int x = 1;")
        assert "proc swift:main" in text

    def test_user_function_proc(self):
        text = gen("(int o) f(int x) { o = x; } trace(f(1));")
        assert "proc swift:f:f" in text

    def test_extension_generates_dispatch_and_task(self):
        text = gen(
            '(int o) g(int i) "pkg" "1.0" [ "set <<o>> [ cmd <<i>> ]" ];'
            "int y = g(1); trace(y, y);"
        )
        # the dispatch is printed at the call site: no swift:f: wrapper
        assert "swift:f:g" not in text
        assert "proc task:g" in text
        assert "set o_val [ cmd ${i_val} ]" in text
        assert "package require pkg" in text

    def test_ext_rule_is_work_typed(self):
        src = '(int o) g(int i) "p" "1.0" [ "set <<o>> <<i>>" ]; int y = g(1);'
        assert "] WORK" in gen(src, opt=0)  # a rule on the input TD
        # by value: every input is closed, so no rule at all
        assert "turbine::spawn WORK [ list task:g" in gen(src)
        assert "turbine::rule" not in gen(src)

    def test_app_generates_shell_call(self):
        text = gen('app (string o) e(string s) { "echo" s } string r = e("x"); trace(r);')
        assert "shell::exec echo ${s_val}" in text

    def test_loop_spawns_control_tasks(self):
        text = gen("foreach i in [0:9] { trace(i); }")
        assert "turbine::spawn CONTROL" in text

    def test_if_hoisted_with_rule(self):
        text = gen(
            'int c = parseint(system("echo 1")); if (c == 1) { trace(1); } else { trace(2); }'
        )
        assert "proc swift:__if" in text
        assert "turbine::retrieve $c" in text

    def test_wait_rule(self):
        text = gen("int x = parseint(\"5\"); wait (x) { trace(x); }")
        assert "proc swift:__wait" in text


class TestSlotAccounting:
    def test_array_allocated_with_writer_slots(self):
        # one writer statement (the foreach) + declaration slot = 2
        text = gen("int a[];\nforeach i in [0:3] { a[i] = i; }\ntrace(size(a));")
        assert "turbine::allocate_container 2" in text

    def test_declaration_slot_released_at_block_end(self):
        text = gen("int a[]; a[0] = 1;")
        assert "turbine::write_refcount_decr" in text

    def test_loop_rebalances_by_iteration_count(self):
        text = gen("int a[]; foreach i in [0:3] { a[i] = i; }")
        assert "turbine::write_refcount_incr" in text
        assert "$n * 1" in text

    def test_two_writers_in_loop_body(self):
        text = gen(
            "int a[]; foreach i in [0:3] { a[i*2] = i; a[i*2+1] = i; }"
        )
        assert "$n * 2" in text

    def test_writes_analysis(self):
        prog = parse(
            "int a[]; int b[];\n"
            "foreach i in [0:1] { a[i] = 1; }\n"
            "if (true) { b[0] = 1; } else { }\n"
        )
        analyze(prog)
        stmts = prog.main.stmts
        assert writes_arrays(stmts[2]) == {"a"}
        assert writes_arrays(stmts[3]) == {"b"}
        assert block_writes(prog.main) == set()  # both declared here
        assert writer_count(prog.main, "a") == 1
        assert writer_count(prog.main, "b") == 1

    def test_nested_loop_writes_propagate(self):
        prog = parse(
            "int a[];\n"
            "foreach i in [0:1] { foreach j in [0:1] { a[i+j] = 1; } }\n"
        )
        analyze(prog)
        assert writes_arrays(prog.main.stmts[1]) == {"a"}

    def test_local_declaration_shadows_writes(self):
        prog = parse(
            "foreach i in [0:1] { int a[]; a[0] = i; trace(size(a)); }"
        )
        analyze(prog)
        assert writes_arrays(prog.main.stmts[0]) == set()


class TestOptimization:
    """Each behaviour is checked against -O0, the oracle shape, and
    named after the IR pass that owns it."""

    def test_o0_emits_rules_for_constants(self):
        text = gen("int x = 1 + 2; trace(x);", opt=0)
        assert "turbine::op integer" in text
        assert "binop_integer" in text

    def test_o1_folds_constants(self):
        # closed-value propagation: the sum is a plain Tcl value of
        # swift:main, computed by the body of the value proc -O0 runs in
        # a rule: the expression binop_integer builds, printed in place
        src = "int x = 1 + 2; trace(x);"
        o0, o1 = gen(src, opt=0), gen(src, opt=1)
        assert "turbine::op" in o0 and "turbine::allocate" in o0
        assert "turbine::op" not in o1 and "turbine::allocate" not in o1
        assert "set t1 [ turbine::norm integer [ expr { 1 + 2 } ] ]" in o1
        assert 'turbine::log_output "trace: ${t1}"' in o1

    def test_o1_eliminates_constant_branch(self):
        # closed-value propagation: a closed condition is a Tcl if in place
        text = gen("if (1 < 2) { trace(1); } else { trace(2); }", opt=1)
        assert "swift:__if" not in text
        assert "if { $t1 } {" in text

    def test_o0_keeps_constant_branch(self):
        text = gen("if (1 < 2) { trace(1); } else { trace(2); }", opt=0)
        assert "swift:__if" in text

    def test_o2_propagates_scalar_constants(self):
        # a singly-assigned scalar with a closed right-hand side is
        # closed: -O2's old special case of propagation, now at -O1
        src = "int x = 5; int y = x + 1; trace(y);"
        assert "turbine::op integer" in gen(src, opt=0)
        assert "turbine::op" not in gen(src, opt=1)
        assert "[ turbine::norm integer [ expr { 5 + 1 } ] ]" in gen(src, opt=1)
        assert body(src, opt=2) == body(src, opt=1)

    def test_o2_spawn_time_arithmetic_in_loops(self):
        src = "int a[]; foreach i in [0:3] { a[i+1] = i; }"
        o0, o1 = gen(src, opt=0), gen(src, opt=1)
        # the subscript is computed at spawn time instead of by a rule
        assert "insert_when_ready" in o0 and "turbine::op" in o0
        assert "insert_when_ready" not in o1 and "turbine::op" not in o1
        assert body(src, opt=2) == body(src, opt=1)

    def test_closed_value_escapes_once(self):
        # an array member needs a TD: allocate + store, nothing else
        o1 = gen("int a[]; foreach i in [0:3] { a[i] = i * 2; }")
        assert o1.count("turbine::allocate integer") == 1
        assert "turbine::store_integer $t2 $t1" in o1

    def test_by_value_leaf_fuses_its_single_consumer(self):
        text = gen('foreach i in [0:3] { string s = python("x=1", fromint(i)); trace(s); }')
        task = proc_text(text, "task:python")
        # the fused trace is printed in place: the string it reads is
        # the leaf's own, so no norm comes before it
        assert 'turbine::log_output "trace: ${out_val}"' in task
        assert "turbine::trace" not in task and "turbine::norm" not in task
        assert "turbine::store_string" not in task
        assert "turbine::allocate" not in text and "turbine::rule" not in text

    def test_thin_value_procs_are_called_at_o0(self):
        # -O0 marks nothing closed or fused: every op is a rule, and the
        # rule calls the library proc
        src = 'foreach i in [0:3] { string s = python(strcat("x=", fromint(i)), "x"); trace(s); }'
        o0 = gen(src, opt=0)
        assert "turbine::op string $t2 turbine::strcat $t3 $t1" in o0
        assert "turbine::op string $t1 turbine::fromint $v_i" in o0
        assert "turbine::op none {} turbine::trace $v_s" in o0
        assert "turbine::log_output" not in o0 and "turbine::norm" not in o0
        o1 = gen(src, opt=1)
        assert 'set t1 "x=${i}"' in o1 and "turbine::strcat" not in o1
        assert 'turbine::log_output "trace: ${out_val}"' in o1

    def test_two_consumers_keep_the_td(self):
        text = gen('string s = python("x=1", "x"); trace(s); trace(s);')
        task = proc_text(text, "task:python")
        assert "turbine::store_string $o_out" in task
        assert "turbine::trace" not in task
        assert text.count("turbine::op none {} turbine::trace $v_s") == 2

    def test_assert_is_never_fused(self):
        text = gen('string s = python("x=1", "x"); assert(s == "1", "no");')
        task = proc_text(text, "task:python")
        assert "assert" not in task
        assert "turbine::op none {} turbine::assert" in text

    def test_producer_with_future_input_runs_in_the_leaf(self):
        text = gen(
            "string a[];\n"
            'foreach i in [0:3] { a[i+1] = python(strcat("x=", a[i], "*2"), "x"); }'
        )
        task = proc_text(text, "task:python")
        assert 'set code_val "x=${a1}*2"' in task
        assert "turbine::op" not in text

    def test_only_reachable_procs_and_live_locals(self):
        text = gen('foreach i in [0:3] { string s = python("x=1", fromint(i)); trace(s); }')
        assert "task:r" not in text and "task:system" not in text
        assert "swift:f:" not in text
        assert "set n " not in text and "set lo " not in text
        # main, chunk, task:python.  The chunk proc spawns the leaves;
        # fromint, printed in place as the word $i, cannot raise, so the
        # chunk has no catch and nothing to fall back on
        assert text.count("\nproc ") == 3 and "catch" not in text
        chunk = proc_text(text, "swift:__chunk1")
        assert "turbine::spawn WORK [ list task:python x=1 $i ]" in chunk
        assert "turbine::drop" not in text and "swift:__body" not in text
        # A value op that can raise (an integer product, normalised by a
        # command) keeps body and loop, printed as they always were: the
        # chunk falls back on them when it raises ...
        text = gen('foreach i in [0:3] { string s = python("x=1", fromint(i * 2)); trace(s); }')
        assert text.count("\nproc ") == 5
        chunk = proc_text(text, "swift:__chunk3")
        assert "turbine::spawn WORK [ list task:python x=1 $t1 ]" in chunk
        # ... after dropping the spawns the chunk made before it raised
        fallback = chunk[chunk.index("} ] } {") :].split()
        assert fallback == ["}", "]", "}", "{", "turbine::drop", "$spawned", *"swift:__loop2 $lo $hi $step }".split()]
        assert "set spawned [ turbine::spawned ]\n    if { [ catch {" in chunk
        assert "spawn CONTROL [ list swift:__body1 $i ]" in proc_text(text, "swift:__loop2")
        # ... and a body that evaluates nothing has neither: its spawns
        # leave together when it returns (one put for the chunk)
        text = gen('foreach i in [0:3] { string s = python("x=1", "x"); trace(s); }')
        assert text.count("\nproc ") == 3 and "catch" not in text
        chunk = proc_text(text, "swift:__chunk1")
        assert "turbine::spawn WORK [ list task:python x=1 x ]" in chunk
        assert chunk.rstrip("}\n ").endswith("turbine::spawn WORK [ list task:python x=1 x ]")
        assert "turbine::drop" not in text

    def test_opt_levels_preserve_structure(self):
        src = "(int o) f(int x) { o = x * 2; } trace(f(4));"
        for opt in (0, 1, 2):
            text = gen(src, opt=opt)
            assert "proc swift:f:f" in text

    def test_emitted_size_shrinks_with_opt(self):
        src = (
            "int base = 100;\n"
            "int a[];\n"
            "foreach i in [0:9] { a[i] = base + i * 2 + 3; }\n"
            "trace(sum_integer(a));\n"
        )
        sizes = {opt: len(gen(src, opt=opt)) for opt in (0, 1, 2)}
        assert sizes[2] == sizes[1] < sizes[0]


_NUMBERS = ("-7", "0", "2", "-2.5", "010", "x")
_STRINGS = ("{a b}", '} $x [y] \\ "q"', "a\nb;c", "")
_PAIRS = [(x, y) for x in ("-7", "2", "0", "-2") for y in ("3", "-2", "0")]
# the operator prefixes and the operands each thin proc is checked on
_THIN_CASES = {
    "turbine::fromint": [((), (n,)) for n in _NUMBERS],
    "turbine::fromfloat": [((), (n,)) for n in _NUMBERS],
    "turbine::tofloat": [((), (n,)) for n in _NUMBERS],
    "turbine::toint": [((), (n,)) for n in _NUMBERS],
    "turbine::parseint": [((), (n,)) for n in _NUMBERS],
    "turbine::neg_integer": [((), (n,)) for n in _NUMBERS],
    "turbine::neg_float": [((), (n,)) for n in _NUMBERS],
    "turbine::not": [((), (n,)) for n in ("0", "1", "-2.5", "x")],
    "turbine::binop_integer": [((o,), xy) for o in ("+", "-", "*", "/", "%", "**") for xy in _PAIRS],
    "turbine::binop_float": [((o,), xy) for o in ("+", "-", "*", "/") for xy in _PAIRS + [("1.5", "x")]],
    "turbine::binop_logic": [((o,), xy) for o in ("&&", "||") for xy in [("0", "1"), ("1", "-2"), ("x", "1")]],
    "turbine::strcat": [((), args) for args in [(), _STRINGS[:1], _STRINGS[1:]]],
    "turbine::trace": [((), args) for args in [(), _STRINGS[:1], _STRINGS[1:]]],
}


def _outcome(it: Interp, held: Held, script: str) -> tuple:
    held.printed.clear()
    try:
        value = it.eval(script)
    except TclError as e:
        return ("error", str(e))
    return ("ok", value, list(held.printed))


def test_every_thin_form_is_its_procs_own_expression():
    """The form STC prints for a thin value proc, on variable and on
    literal operands inside a braced proc body, gives what the library
    proc gives, value or error."""
    assert set(_THIN_CASES) == set(THIN)
    it, held = Interp(), Held()
    register_turbine(it, None, None, held)
    it.eval(TURBINE_TCL)
    printer = Codegen(None, {}, opt=1)
    for name, cases in _THIN_CASES.items():
        for prefix, values in cases:
            fn = (name, *prefix)
            expected = _outcome(it, held, format_list([*fn, *values]))
            params = ["p%d" % k for k in range(len(values))]
            for words in (["$" + p for p in params], [format_element(v) for v in values]):
                tcl, _ = printer.value_tcl(fn, words, name == "turbine::trace")
                body = tcl if name == "turbine::trace" else "return " + tcl
                it.eval("proc inline { %s } { %s }" % (" ".join(params), body))
                got = _outcome(it, held, format_list(["inline", *values]))
                assert got == expected, (fn, values, words, tcl)


class TestCompileStats:
    def test_stats_returned(self):
        compiled, stats = compile_swift("int x = 1;", return_stats=True)
        assert stats.n_procs >= 1
        assert stats.n_lines > 5
        assert stats.parse_time >= 0

    def test_printf_format_conversion(self):
        text = gen('printf("%i and %s", 1, "x");')
        assert "%d and %s" in text

    def test_printf_requires_literal_format(self):
        with pytest.raises(Exception, match="literal"):
            gen('string f = "x%i"; printf(f, 1);')
