"""The coefficient mini-grammar: parsing, printing, evaluation, zero test."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from rwlab import expressions as ex
from rwlab.errors import ExpressionError, UndecidableTailError


CASES = [
    ("1/2", Fraction(1, 2)),
    ("0.25", Fraction(1, 4)),
    ("(j+2)/(2*(j+1))", None),
    ("4^-j", None),
    ("(1 - 4^-j)*3/5", None),
    ("1 - 1/j^2", None),
    ("2 + j", None),
    ("-1/3", Fraction(-1, 3)),
    ("j*0", None),
]


@pytest.mark.parametrize("text,const", CASES)
def test_parse_print_roundtrip(text, const):
    e = ex.parse(text, "j")
    printed = ex.to_string(e)
    again = ex.parse(printed, "j")
    assert again == e
    assert ex.to_string(again) == printed
    if const is not None:
        assert e == ex.Const(const)


def test_values():
    e = ex.parse("(j+2)/(2*(j+1))", "j")
    assert ex.eval_fraction(e, 0) == 1
    assert ex.eval_fraction(e, 1) == Fraction(3, 4)
    e = ex.parse("4^-j", "j")
    assert ex.eval_fraction(e, 3) == Fraction(1, 64)
    out = ex.eval_numpy(e, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1, 0.25, 0.0625])
    assert float(ex.eval_mpf(e, 2)) == 0.0625


def test_integer_power_of_the_variable_at_an_mpf():
    # the exponent is evaluated in the backend, so an mpf argument works
    assert ex.eval_mpf(ex.parse("2 + x^2", "x"), mp.mpf("0.5")) == mp.mpf("2.25")


def test_eval_mpf_takes_a_fraction():
    x = ex.parse("x", "x")
    assert ex.eval_mpf(x, Fraction(1, 2)) == mp.mpf("0.5")
    # rounded once: 1/3 is the mpf nearest to it at the working precision
    with mp.workdps(15):
        third = ex.eval_mpf(x, Fraction(1, 3))
        assert third == mp.mpf(1) / 3
        assert ex.eval_mpf(ex.parse("3*x", "x"), Fraction(1, 3)) == 3 * third


def test_decimal_is_exact():
    assert ex.parse("0.1", "j") == ex.Const(Fraction(1, 10))


def test_errors():
    with pytest.raises(ExpressionError):
        ex.parse("x + 1", "j")  # wrong variable
    with pytest.raises(ExpressionError):
        ex.parse("1/0", "j")
    with pytest.raises(ExpressionError):
        ex.parse("j^(1/2)", "j")  # fractional exponent
    with pytest.raises(ExpressionError):
        ex.parse("(j)^j", "j")  # variable base with variable exponent
    with pytest.raises(ExpressionError):
        ex.parse("", "j")


def test_zero_detection():
    assert ex.is_zero(ex.parse("0", "j"))
    assert ex.is_zero(ex.parse("j - j", "j"))
    assert ex.is_zero(ex.parse("(j+1)*0", "j"))
    assert not ex.is_zero(ex.parse("4^-j", "j"))
    assert not ex.is_zero(ex.parse("1 - j/(j+1)", "j"))


def test_zero_capacity_cap():
    text = "j"
    for _ in range(9):
        text = f"({text}) + ({text})"
    with pytest.raises(UndecidableTailError):
        ex.is_zero(ex.parse(f"{text} - 512*j", "j"))


def test_tail_limit():
    assert ex.tail_limit(ex.parse("1/2", "j")) == 0.5
    assert ex.tail_limit(ex.parse("4^-j", "j")) == 0.0
    lim = ex.tail_limit(ex.parse("(j+2)/(2*(j+1))", "j"))
    assert abs(lim - 0.5) < 1e-9
    assert ex.tail_limit(ex.parse("j", "j")) is None


@given(
    a=st.fractions(min_value=-4, max_value=4),
    b=st.fractions(min_value=-4, max_value=4),
    j=st.integers(min_value=0, max_value=50),
)
def test_arithmetic_matches_fractions(a, b, j):
    e = ex.BinOp("+", ex.BinOp("*", ex.Const(a), ex.Var("j")), ex.Const(b))
    assert ex.eval_fraction(e, j) == a * j + b
    assert ex.eval_numpy(e, np.array([float(j)]))[0] == pytest.approx(float(a * j + b))


# --- one evaluator, three backends -------------------------------------------

U = 2.0**-53  # unit roundoff of float64


class _NearPole(Exception):
    pass


def _exact_and_bound(e, x):
    """Exact value of e at x and a bound on the rounding error of evaluating
    it in float64; raises _NearPole where a divisor or negative-power base
    is within its own error of 0."""
    if isinstance(e, ex.Const):
        return e.value, abs(float(e.value)) * U
    if isinstance(e, ex.Var):
        return Fraction(x), 0.0
    a, ea = _exact_and_bound(e.left, x)
    b, eb = _exact_and_bound(e.right, x)
    if e.op == "^":  # integer exponents are exact in every backend
        k = int(b)
        if k == 0:
            return Fraction(1), 0.0
        if a == 0:
            if k < 0:
                raise _NearPole
            return Fraction(0), ea**k
        rel = ea / abs(float(a))
        if k < 0 and rel >= 0.5:
            raise _NearPole
        v = a**k
        grow = math.expm1(k * math.log1p(rel if k > 0 else -rel))
        return v, abs(float(v)) * (grow + 4 * U)
    if e.op in "+-":
        v = a + b if e.op == "+" else a - b
        err = ea + eb
    elif e.op == "*":
        v = a * b
        err = abs(float(a)) * eb + abs(float(b)) * ea + ea * eb
    else:
        if b == 0 or eb >= abs(float(b)) / 2:
            raise _NearPole
        v = a / b
        err = (ea + abs(float(v)) * eb) / (abs(float(b)) - eb)
    return v, err + U * (abs(float(v)) + err)


def _trees(variable: str):
    """Random expression trees over + - * /, constant integer powers and,
    in j, c^j with c > 0."""
    leaves = [st.fractions(min_value=-4, max_value=4, max_denominator=8).map(ex.Const),
              st.just(ex.Var(variable))]
    if variable == "j":
        leaves.append(st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)
                      .map(lambda c: ex.BinOp("^", ex.Const(c), ex.Var("j"))))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children)
            .map(lambda t: ex.BinOp(*t)),
            st.tuples(children, st.integers(min_value=-3, max_value=3))
            .map(lambda t: ex.BinOp("^", t[0], ex.Const(Fraction(t[1])))),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=6)


def _assert_backends_agree(e, exact_arg, mpf_arg, float_arg):
    try:
        exact, bound = _exact_and_bound(e, exact_arg)
        scale = abs(float(exact))
    except (ZeroDivisionError, OverflowError, _NearPole):
        assume(False)
    assume(bound <= 1e-6 * (1 + scale))
    assert ex.eval_fraction(e, exact_arg) == exact
    with mp.workdps(30):
        assert abs(float(ex.eval_mpf(e, mpf_arg)) - float(exact)) <= bound + U * scale
    assert abs(ex.eval_numpy(e, np.array([float_arg]))[0] - float(exact)) <= bound + U * scale


@given(e=_trees("j"), j=st.integers(min_value=0, max_value=20))
def test_backends_agree_at_integer_j(e, j):
    _assert_backends_agree(e, j, j, float(j))


@given(e=_trees("x"), m=st.integers(min_value=-64, max_value=64))
def test_backends_agree_at_fraction_mpf_and_float_x(e, m):
    # x = m/32 is exact in all three backends
    x = Fraction(m, 32)
    _assert_backends_agree(e, x, mp.mpf(m) / 32, float(x))


@pytest.mark.parametrize("text, coeffs", [
    ("1", (1,)),
    ("3 + x^3", (3, 0, 0, 1)),
    ("(32*x - 1)^2 - 1/4", (Fraction(3, 4), -64, 1024)),
    ("x/2 + (x - 1)*(x + 1)", (-1, Fraction(1, 2), 1)),
    ("(2*x - x*2 + 3)^(0 - 2)", (Fraction(1, 9),)),
    ("x - x", ()),
    ("2^x", None),  # variable exponent
    ("1/(x + 3)", None),  # division by a variable term
    ("(x + 2)^(0 - 1)", None),  # negative power of a variable term
    ("x^33", None),  # above the degree cap
])
def test_polynomial_coefficients(text, coeffs):
    got = ex.polynomial_coefficients(ex.parse(text, "x"))
    assert got == (None if coeffs is None else tuple(Fraction(c) for c in coeffs))


@given(e=_trees("x"), m=st.integers(min_value=-64, max_value=64))
def test_polynomial_coefficients_agree_with_the_exact_backend(e, m):
    x = Fraction(m, 32)
    try:
        exact = ex.eval_fraction(e, x)
    except ZeroDivisionError:
        assume(False)
    coeffs = ex.polynomial_coefficients(e)
    assume(coeffs is not None)
    assert sum(c * x**k for k, c in enumerate(coeffs)) == exact
