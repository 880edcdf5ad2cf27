"""The Tcl expr sublanguage, checked against Python reference semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcl import Interp, TclError


@pytest.fixture()
def tcl():
    it = Interp()
    it.echo = False
    return it


def ev(tcl, expression: str) -> str:
    return tcl.eval("expr {%s}" % expression)


class TestArithmetic:
    def test_precedence(self, tcl):
        assert ev(tcl, "2 + 3 * 4") == "14"

    def test_parens(self, tcl):
        assert ev(tcl, "(2 + 3) * 4") == "20"

    def test_power_right_assoc(self, tcl):
        assert ev(tcl, "2 ** 3 ** 2") == "512"

    def test_unary_minus(self, tcl):
        assert ev(tcl, "-3 + 10") == "7"

    def test_int_division_floors(self, tcl):
        assert ev(tcl, "-7 / 2") == "-4"
        assert ev(tcl, "7 / 2") == "3"

    def test_mod_sign_of_divisor(self, tcl):
        assert ev(tcl, "-7 % 3") == "2"
        assert ev(tcl, "7 % -3") == "-2"

    def test_float_division(self, tcl):
        assert ev(tcl, "7.0 / 2") == "3.5"

    def test_divide_by_zero(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "1 / 0")

    def test_hex_and_binary_literals(self, tcl):
        assert ev(tcl, "0xff + 0b101") == "260"

    def test_float_formatting_whole(self, tcl):
        assert ev(tcl, "1.5 + 0.5") == "2.0"

    def test_scientific_notation(self, tcl):
        assert ev(tcl, "1e3 + 1") == "1001.0"


class TestComparisonLogic:
    def test_numeric_comparison(self, tcl):
        assert ev(tcl, "3 < 12") == "1"

    def test_string_comparison_via_eq(self, tcl):
        assert ev(tcl, '"abc" eq "abc"') == "1"
        assert ev(tcl, '"abc" ne "abd"') == "1"

    def test_equality_numeric_coercion(self, tcl):
        assert ev(tcl, '"3" == "3.0"') == "1"

    def test_in_operator(self, tcl):
        assert ev(tcl, '"b" in {a b c}') == "1"
        assert ev(tcl, '"z" ni {a b c}') == "1"

    def test_logical_short_circuit(self, tcl):
        tcl.eval("proc boom {} { error nope }")
        assert ev(tcl, "0 && [boom]") == "0"
        assert ev(tcl, "1 || [boom]") == "1"

    def test_ternary(self, tcl):
        assert ev(tcl, "1 < 2 ? 10 : 20") == "10"
        assert ev(tcl, "1 > 2 ? 10 : 20") == "20"

    def test_not(self, tcl):
        assert ev(tcl, "!0") == "1"
        assert ev(tcl, "!3") == "0"

    def test_bitwise(self, tcl):
        assert ev(tcl, "6 & 3") == "2"
        assert ev(tcl, "6 | 3") == "7"
        assert ev(tcl, "6 ^ 3") == "5"
        assert ev(tcl, "1 << 4") == "16"
        assert ev(tcl, "~0") == "-1"

    def test_boolean_words(self, tcl):
        assert ev(tcl, "true && !false") == "1"


class TestSubstitution:
    def test_variable(self, tcl):
        tcl.eval("set x 9")
        assert ev(tcl, "$x * 2") == "18"

    def test_command(self, tcl):
        assert ev(tcl, "[string length hello] + 1") == "6"

    def test_nested_expr(self, tcl):
        assert ev(tcl, "[expr {1 + 2}] * 3") == "9"

    def test_missing_variable_raises(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "$nosuchvar + 1")


class TestMathFunctions:
    def test_sqrt(self, tcl):
        assert ev(tcl, "sqrt(16)") == "4.0"

    def test_min_max(self, tcl):
        assert ev(tcl, "min(3, 1, 2)") == "1"
        assert ev(tcl, "max(3, 1, 2)") == "3"

    def test_int_truncates(self, tcl):
        assert ev(tcl, "int(3.9)") == "3"
        assert ev(tcl, "int(-3.9)") == "-3"

    def test_double(self, tcl):
        assert ev(tcl, "double(3)") == "3.0"

    def test_round(self, tcl):
        assert ev(tcl, "round(2.5)") == "3"  # half away from zero, as Tcl
        assert ev(tcl, "round(3.6)") == "4"

    def test_abs(self, tcl):
        assert ev(tcl, "abs(-4)") == "4"

    def test_pow(self, tcl):
        assert ev(tcl, "pow(2, 10)") == "1024.0"

    def test_unknown_function(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "frobnicate(1)")

    def test_domain_error(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "sqrt(-1)")


@pytest.mark.parametrize("vm", [True, False], ids=["vm", "interpreted"])
def test_round_is_half_away_from_zero(vm):
    # Tcl's round() takes a .5 away from zero; Python's round() takes it
    # to the even neighbour (0.5 -> 0, 2.5 -> 2, -2.5 -> -2).  R's round
    # does go to even, and stays that way.
    it = Interp(compile_enabled=vm)
    it.eval("proc r {x} { expr {round($x)} }")
    cases = {"0.5": "1", "1.5": "2", "2.5": "3", "-2.5": "-3", "3.4999": "3", "7": "7"}
    for arg, want in cases.items():
        assert it.eval("expr {round(%s)}" % arg) == want, arg
        assert it.eval("r %s" % arg) == want, arg


class TestErrors:
    def test_unbalanced_paren(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "(1 + 2")

    def test_trailing_garbage(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "1 + 2 3")

    def test_bareword(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, "hello + 1")

    def test_non_numeric_operand(self, tcl):
        with pytest.raises(TclError):
            ev(tcl, '"abc" + 1')


# --- property tests against Python semantics ------------------------------

_small_ints = st.integers(min_value=-1000, max_value=1000)


@given(_small_ints, _small_ints)
@settings(max_examples=200, deadline=None)
def test_property_int_add_sub_mul(a, b):
    tcl = Interp()
    tcl.echo = False
    assert tcl.eval("expr {%d + %d}" % (a, b)) == str(a + b)
    assert tcl.eval("expr {%d - %d}" % (a, b)) == str(a - b)
    assert tcl.eval("expr {%d * %d}" % (a, b)) == str(a * b)


@given(_small_ints, _small_ints.filter(lambda x: x != 0))
@settings(max_examples=200, deadline=None)
def test_property_int_div_mod_match_python_floor(a, b):
    tcl = Interp()
    tcl.echo = False
    assert tcl.eval("expr {%d / %d}" % (a, b)) == str(a // b)
    assert tcl.eval("expr {%d %% %d}" % (a, b)) == str(a % b)


@given(_small_ints, _small_ints)
@settings(max_examples=200, deadline=None)
def test_property_comparisons_match_python(a, b):
    tcl = Interp()
    tcl.echo = False
    for op in ("<", ">", "<=", ">=", "==", "!="):
        want = {"<": a < b, ">": a > b, "<=": a <= b,
                ">=": a >= b, "==": a == b, "!=": a != b}[op]
        got = tcl.eval("expr {%d %s %d}" % (a, op, b))
        assert got == ("1" if want else "0")
