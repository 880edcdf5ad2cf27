"""The embedded mini-R interpreter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlang import RError, RInterp, r_repr


@pytest.fixture()
def R():
    return RInterp()


def ev(R, src: str) -> str:
    return r_repr(R.eval_code(src))


def gone(R, src: str) -> None:
    """``src`` calls a builtin that was deleted (no workload, example or
    experiment called it): the name is now unbound."""
    with pytest.raises(RError, match="object '%s' not found" % src.split("(")[0]):
        R.eval_code(src)


class TestVectors:
    def test_c_concatenates(self, R):
        assert ev(R, "c(1, 2, c(3, 4))") == "1 2 3 4"

    def test_character_vectors(self, R):
        assert ev(R, "c('a', 'b')") == "a b"

    def test_mixed_coerces_to_character(self, R):
        assert ev(R, "c(1, 'a')") == "1 a"

    def test_colon_range(self, R):
        assert ev(R, "1:5") == "1 2 3 4 5"
        assert ev(R, "5:1") == "5 4 3 2 1"

    # Builtins no consumer called are gone; the tests named after them
    # check the migration CHANGES.md gives against the old result.

    def test_seq(self, R):
        gone(R, "seq(0, 1, by=0.5)")
        gone(R, "seq_along(c('x','y'))")
        assert ev(R, "seq_len(4)") == "1 2 3 4"
        assert ev(R, "(0:2) / 2") == "0 0.5 1"
        assert ev(R, "seq_len(length(c('x','y')))") == "1 2"

    def test_rep(self, R):
        gone(R, "rep(c(1,2), times=2)")
        assert ev(R, "c(1,2)[c(1,2,1,2)]") == "1 2 1 2"
        assert ev(R, "c(1,2)[c(1,1,2,2)]") == "1 1 2 2"

    def test_length(self, R):
        assert ev(R, "length(1:7)") == "7"
        assert ev(R, "length(NULL)") == "0"

    def test_recycling_in_arithmetic(self, R):
        assert ev(R, "1:6 + c(10, 20)") == "11 22 13 24 15 26"

    def test_vectorized_math(self, R):
        assert ev(R, "sqrt(c(4, 9, 16))") == "2 3 4"
        assert ev(R, "round(c(0.5, 2.5, -2.5))") == "0 2 -2"  # R: half to even

    def test_elementwise_comparison(self, R):
        assert ev(R, "c(1,5,3) > 2") == "FALSE TRUE TRUE"


class TestIndexing:
    def test_positive_index_one_based(self, R):
        assert ev(R, "c(10,20,30)[2]") == "20"

    def test_index_vector(self, R):
        assert ev(R, "c(10,20,30)[c(3,1)]") == "30 10"

    def test_negative_index_excludes(self, R):
        assert ev(R, "c(10,20,30)[-2]") == "10 30"

    def test_logical_mask(self, R):
        assert ev(R, "x <- 1:6; x[x %% 2 == 0]") == "2 4 6"

    def test_index_assignment(self, R):
        assert ev(R, "x <- c(1,2,3); x[2] <- 99; x") == "1 99 3"

    def test_index_assignment_grows(self, R):
        assert ev(R, "x <- c(1); x[3] <- 5; length(x)") == "3"

    def test_double_bracket_on_list(self, R):
        assert ev(R, "l <- list(10, 'x'); l[[2]]") == "x"

    def test_dollar_access(self, R):
        assert ev(R, "l <- list(a=1, b=2); l$b") == "2"

    def test_dollar_assignment(self, R):
        assert ev(R, "l <- list(a=1); l$c <- 9; l$c") == "9"

    def test_out_of_bounds_list_raises(self, R):
        with pytest.raises(RError):
            R.eval_code("list(1)[[5]]")


class TestFunctions:
    def test_closure(self, R):
        assert ev(R, "f <- function(x) x + 1; f(41)") == "42"

    def test_default_arguments(self, R):
        assert ev(R, "f <- function(a, b=10) a*b; f(3)") == "30"

    def test_named_arguments(self, R):
        assert ev(R, "f <- function(a, b) a - b; f(b=1, a=10)") == "9"

    def test_lexical_scoping(self, R):
        assert ev(R, "make <- function(n) function(x) x + n; add5 <- make(5); add5(2)") == "7"

    def test_superassign(self, R):
        assert ev(R, "count <- 0; bump <- function() count <<- count + 1; bump(); bump(); count") == "2"

    def test_return_early(self, R):
        assert ev(R, "f <- function(x) { if (x > 0) return('pos'); 'neg' }; f(1)") == "pos"
        assert ev(R, "f(-1)") == "neg"

    def test_recursion(self, R):
        assert ev(R, "fib <- function(n) if (n < 2) n else fib(n-1) + fib(n-2); fib(10)") == "55"

    def test_unused_named_argument_raises(self, R):
        with pytest.raises(RError):
            R.eval_code("f <- function(a) a; f(b=1)")

    def test_immediately_invoked(self, R):
        assert ev(R, "(function(x) x*2)(21)") == "42"


class TestControlFlow:
    def test_if_else(self, R):
        assert ev(R, "if (1 > 2) 'a' else 'b'") == "b"

    def test_for_loop(self, R):
        assert ev(R, "s <- 0; for (i in 1:10) s <- s + i; s") == "55"

    def test_for_over_character(self, R):
        assert ev(R, "out <- ''; for (w in c('a','b')) out <- paste(out, w, sep=''); out") == "ab"

    def test_while_with_break(self, R):
        assert ev(R, "n <- 0; while (TRUE) { n <- n + 1; if (n == 5) break }; n") == "5"

    def test_next_skips(self, R):
        assert ev(R, "s <- 0; for (i in 1:6) { if (i %% 2 == 0) next; s <- s + i }; s") == "9"

    def test_repeat(self, R):
        assert ev(R, "n <- 0; repeat { n <- n + 1; if (n >= 3) break }; n") == "3"

    def test_condition_length_zero_raises(self, R):
        with pytest.raises(RError):
            R.eval_code("if (c()) 1")


class TestBuiltins:
    def test_reductions(self, R):
        assert ev(R, "sum(1:10)") == "55"
        assert ev(R, "mean(c(2,4,9))") == "5"
        assert ev(R, "max(c(3,9,1))") == "9"
        assert ev(R, "min(c(3,9,1))") == "1"
        gone(R, "prod(1:5)")

    def test_sd_var(self, R):
        assert abs(float(R.eval_code("sd(c(2,4,4,4,5,5,7,9))")[0]) - 2.13809) < 1e-4

    def test_cumsum(self, R):
        gone(R, "cumsum(1:4)")
        assert ev(R, "s <- 0; out <- c(); for (x in 1:4) { s <- s + x; out <- c(out, s) }; out") == "1 3 6 10"

    def test_paste(self, R):
        assert ev(R, "paste('a', 'b', sep='-')") == "a-b"
        assert ev(R, "paste('x', 1:3, sep='')") == "x1 x2 x3"
        assert ev(R, "paste(c('a','b'), collapse='+')") == "a+b"

    def test_string_ops(self, R):
        # paste and sprintf are the string builtins; the rest is a Python leaf
        for call in ("nchar('hello')", "toupper('ab')", "substr('abcdef', 2, 4)", "paste0('x', 1)"):
            gone(R, call)
        assert ev(R, "sprintf('%s!', paste('ab', 'cd', sep=''))") == "abcd!"

    def test_sprintf(self, R):
        assert ev(R, "sprintf('%05.1f|%d|%s', 3.14, 7, 'x')") == "003.1|7|x"

    def test_sapply(self, R):
        gone(R, "sapply(1:4, function(x) x^2)")
        assert ev(R, "out <- c(); for (x in 1:4) out <- c(out, x^2); out") == "1 4 9 16"

    def test_lapply_returns_list(self, R):
        gone(R, "lapply(1:3, function(x) x)")
        assert ev(R, "l <- list(); for (x in 1:3) l[[x]] <- x; length(l)") == "3"

    def test_map_reduce(self, R):
        gone(R, "Reduce(function(a,b) a*b, 1:5)")
        gone(R, "Map(function(a,b) a+b, 1:3, 4:6)")
        assert ev(R, "acc <- 1; for (x in 1:5) acc <- acc * x; acc") == "120"
        assert ev(R, "f <- function(a,b) a+b; f(1:3, 4:6)") == "5 7 9"

    def test_do_call(self, R):
        gone(R, "do.call(sum, list(1, 2, 3))")
        assert ev(R, "f <- sum; f(1, 2, 3)") == "6"

    def test_which_sort_rev_unique(self, R):
        for call in ("which(c(F,T,F,T))", "sort(c(3,1,2))", "rev(1:3)", "unique(c(1,2,1,3))"):
            gone(R, call)
        assert ev(R, "x <- c(0,1,0,1); (1:4)[x == 1]") == "2 4"
        assert ev(R, "x <- 1:3; x[length(x):1]") == "3 2 1"

    def test_coercions(self, R):
        gone(R, "as.integer(3.9)")
        assert ev(R, "trunc(3.9)") == "3"
        assert ev(R, "paste(c(1,2))") == "1 2"
        assert ev(R, "as.numeric('2.5') * 2") == "5"

    def test_predicates(self, R):
        for call in ("is.null(NULL)", "is.numeric(1:3)", "is.character('a')", "is.na(c(1, NA))"):
            gone(R, call)
        assert ev(R, "length(NULL) == 0") == "TRUE"
        assert ev(R, "x <- c(1, NA); x != x") == "FALSE TRUE"

    def test_ifelse(self, R):
        assert ev(R, "ifelse(c(TRUE,FALSE,TRUE), 1, 0)") == "1 0 1"

    def test_stop_and_stopifnot(self, R):
        with pytest.raises(RError, match="boom"):
            R.eval_code("stop('boom')")
        gone(R, "stopifnot(1 == 2)")
        with pytest.raises(RError, match="not TRUE"):
            R.eval_code("if (!(1 == 2)) stop('1 == 2 is not TRUE')")

    def test_cat_output(self, R):
        R.eval_code("cat('hello', 42)")
        assert R.output == ["hello 42"]

    def test_comments_ignored(self, R):
        assert ev(R, "x <- 1 # set x\nx + 1") == "2"


class TestState:
    def test_state_persists_across_eval_calls(self, R):
        R.eval_code("cache <- 42")
        assert ev(R, "cache") == "42"

    def test_reset_clears_user_state(self, R):
        R.eval_code("x <- 1")
        R.reset()
        with pytest.raises(RError, match="not found"):
            R.eval_code("x")

    def test_builtins_survive_reset(self, R):
        R.reset()
        assert ev(R, "sum(1:3)") == "6"

    def test_set_get_host_interface(self, R):
        R.set("fromhost", np.array([1.0, 2.0]))
        assert ev(R, "sum(fromhost)") == "3"


# --- property tests --------------------------------------------------------

_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(_floats, min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_property_sum_matches_numpy(values):
    R = RInterp()
    R.set("v", np.array(values))
    got = float(R.eval_code("sum(v)")[0])
    assert got == pytest.approx(float(np.sum(values)), rel=1e-9, abs=1e-9)


@given(
    st.lists(_floats, min_size=1, max_size=12),
    st.lists(_floats, min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_property_recycling_law(a, b):
    """R recycling: (a + b)[i] == a[i % len(a)] + b[i % len(b)]."""
    R = RInterp()
    R.set("a", np.array(a))
    R.set("b", np.array(b))
    out = R.eval_code("a + b")
    n = max(len(a), len(b))
    assert len(out) == n
    for i in range(n):
        assert out[i] == pytest.approx(a[i % len(a)] + b[i % len(b)])


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_property_sort_rev_involution(values):
    # sort / rev are gone; reversing by a descending index is an involution
    R = RInterp()
    R.set("v", np.array(values, dtype=np.float64))
    double_rev = R.eval_code("r <- v[length(v):1]; r[length(r):1]")
    assert list(double_rev) == [float(v) for v in values]
