"""Coefficient mini-grammar: exact closed-form expressions in one variable.

Grammar (documented in README.md, round-trip stable):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | VARIABLE | '(' expr ')'
    NUMBER := digits ('.' digits)?        # parsed exactly as a rational

The variable is 'j' in chain tail rules and 'x' in weight smooth factors.
'^' requires an integer-valued exponent; if the exponent involves the
variable, the base must be a positive constant (so tails of the form
exponential-times-rational stay inside the decidable fragment).

Constant subexpressions are folded at parse time, which makes
parse -> to_string -> parse the identity on values and structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import mpmath as mp
import numpy as np

from .errors import ExpressionError, UndecidableTailError
from .numeric import to_mpf

_TOKEN_RE = re.compile(r"\s*(\d+\.\d+|\d+|[A-Za-z_]\w*|\*\*|[()+\-*/^])")

# constant folding skips exponents above this to avoid giant integers
_FOLD_EXP_CAP = 4096

# zero-test point cap; tails beyond this complexity are declared undecidable
_ZERO_TEST_CAP = 512

# polynomial_coefficients reads no polynomial above this degree
_POLY_DEGREE_CAP = 32


class Expr:
    """Immutable expression node."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_string(self)!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], variable: str):
        self.tokens = tokens
        self.variable = variable
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing tokens at {self.peek()!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            e = _make(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            e = _make(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return _make("-", Const(Fraction(0)), self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            return _make("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.take()
        if tok == "(":
            e = self.expr()
            if self.take() != ")":
                raise ExpressionError("missing ')'")
            return e
        if re.fullmatch(r"\d+\.\d+|\d+", tok):
            return Const(Fraction(tok))
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            if tok != self.variable:
                raise ExpressionError(
                    f"unknown name {tok!r}; the variable here is {self.variable!r}"
                )
            return Var(tok)
        raise ExpressionError(f"unexpected token {tok!r}")


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _make(op: str, left: Expr, right: Expr) -> Expr:
    """Build a node, folding constant subexpressions."""
    if isinstance(left, Const) and isinstance(right, Const):
        a, b = left.value, right.value
        if op == "/" and b == 0:
            raise ExpressionError("constant division by zero")
        if op in _ARITH:
            return Const(_ARITH[op](a, b))
        if b.denominator != 1:
            raise ExpressionError("exponent must be an integer")
        k = int(b)
        if abs(k) > _FOLD_EXP_CAP:
            return BinOp(op, left, right)
        if a == 0 and k <= 0:
            raise ExpressionError("0 raised to a nonpositive power")
        return Const(a**k)
    if op == "^":
        if _depends(right) and not (isinstance(left, Const) and left.value > 0):
            raise ExpressionError(
                "variable exponent requires a positive constant base"
            )
        if isinstance(right, Const) and right.value.denominator != 1:
            raise ExpressionError("exponent must be an integer")
    return BinOp(op, left, right)


def _depends(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, BinOp):
        return _depends(e.left) or _depends(e.right)
    return False


def parse(text: str, variable: str = "j") -> Expr:
    """Parse an expression with the given variable name."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens, variable).parse()


# --- printing ---------------------------------------------------------------

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _print(e: Expr, parent_level: int, right_side: bool) -> str:
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            s = str(v.numerator)
            level = 4 if v >= 0 else 0
        else:
            s = f"{v.numerator}/{v.denominator}"
            level = 2 if v >= 0 else 0
        if level < parent_level or (right_side and level == parent_level):
            return f"({s})"
        return s
    if isinstance(e, Var):
        return e.name
    assert isinstance(e, BinOp)
    lvl = _LEVEL[e.op]
    if e.op == "^":
        left = _print(e.left, 4, False)
        right = _print(e.right, 4, False)
        return f"{left}^{right}"
    left = _print(e.left, lvl, False)
    right = _print(e.right, lvl, e.op in ("-", "/"))
    s = f"{left} {e.op} {right}" if lvl == 1 else f"{left}{e.op}{right}"
    if lvl < parent_level or (right_side and lvl == parent_level):
        return f"({s})"
    return s


def to_string(e: Expr) -> str:
    return _print(e, 0, False)


# --- evaluation -------------------------------------------------------------


def _evaluate(e: Expr, value, const, power):
    """The one tree walk: `value` is the backend's variable value, `const`
    turns a Fraction into a backend value and `power(base, exponent)` takes
    both sides in the backend."""
    if isinstance(e, Const):
        return const(e.value)
    if isinstance(e, Var):
        return value
    assert isinstance(e, BinOp)
    a = _evaluate(e.left, value, const, power)
    b = _evaluate(e.right, value, const, power)
    return power(a, b) if e.op == "^" else _ARITH[e.op](a, b)


def _integer_exponent(k) -> int:
    if k != int(k):
        raise ExpressionError("exponent must be integer-valued")
    return int(k)


def eval_fraction(e: Expr, value: Fraction | int) -> Fraction:
    """Exact evaluation; raises ZeroDivisionError at poles."""
    return _evaluate(e, Fraction(value), lambda c: c,
                     lambda a, k: a ** _integer_exponent(k))


def eval_mpf(e: Expr, value) -> mp.mpf:
    """Evaluation at the current mpmath working precision; a Fraction
    argument is rounded once."""
    return _evaluate(e, to_mpf(value), lambda c: mp.mpf(c.numerator) / c.denominator,
                     lambda a, k: mp.power(a, _integer_exponent(k)))


def eval_numpy(e: Expr, values: np.ndarray) -> np.ndarray:
    """Vectorized float64 evaluation."""
    x = np.asarray(values, dtype=np.float64)
    return _evaluate(e, x, lambda c: np.full_like(x, float(c)), np.power)


class _NotPolynomial(Exception):
    pass


class _Polynomial:
    """Exact coefficients in ascending powers, without trailing zeros, under
    + - * and division by a nonzero constant: the backend that reads a
    polynomial off the tree."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > _POLY_DEGREE_CAP + 1:
            raise _NotPolynomial
        self.c = tuple(coeffs)

    def _padded(self, other, sign):
        return _Polynomial(u + sign * v for u, v in zip_longest(self.c, other.c, fillvalue=0))

    def __add__(self, other):
        return self._padded(other, 1)

    def __sub__(self, other):
        return self._padded(other, -1)

    def __mul__(self, other):
        out = [Fraction(0)] * max(0, len(self.c) + len(other.c) - 1)
        for i, u in enumerate(self.c):
            for j, v in enumerate(other.c):
                out[i + j] += u * v
        return _Polynomial(out)

    def constant(self) -> Fraction:
        if len(self.c) > 1:
            raise _NotPolynomial
        return self.c[0] if self.c else Fraction(0)

    def __truediv__(self, other):
        return self * _Polynomial((1 / other.constant(),))


def _polynomial_power(base: _Polynomial, k: _Polynomial) -> _Polynomial:
    k = _integer_exponent(k.constant())
    if len(base.c) <= 1:
        return _Polynomial((base.constant() ** k,))
    if k < 0:
        raise _NotPolynomial
    out = _Polynomial((Fraction(1),))
    for _ in range(k):
        out = out * base
    return out


def polynomial_coefficients(e: Expr) -> tuple[Fraction, ...] | None:
    """The exact coefficients of e in ascending powers of its variable, or
    None when e is not a polynomial (division by a variable term, a variable
    exponent, a negative power of a variable term) or its degree exceeds
    _POLY_DEGREE_CAP.  The zero polynomial is the empty tuple."""
    try:
        return _evaluate(e, _Polynomial((Fraction(0), Fraction(1))),
                         lambda c: _Polynomial((c,)), _polynomial_power).c
    except _NotPolynomial:
        return None


# --- decidable zero test ----------------------------------------------------


def _zero_capacity(e: Expr) -> int:
    """Upper bound for (number of real zeros + 1) within the grammar's
    sum-of-rational-times-exponential fragment."""
    if isinstance(e, Const):
        return 1
    if isinstance(e, Var):
        return 2
    assert isinstance(e, BinOp)
    if e.op in ("+", "-"):
        return _zero_capacity(e.left) + _zero_capacity(e.right)
    if e.op in ("*",):
        return _zero_capacity(e.left) + _zero_capacity(e.right) - 1
    if e.op == "/":
        return _zero_capacity(e.left)
    # power: variable exponent has positive constant base (no zeros);
    # constant exponent keeps the base's zero set
    return 1 if _depends(e.right) else _zero_capacity(e.left)


def is_zero(e: Expr, start: int = 0) -> bool:
    """Decide whether the expression vanishes at every integer >= start.

    Valid inside the grammar's fragment: an expression with zero capacity m
    that vanishes at enough consecutive integers is identically zero there.
    Raises UndecidableTailError past the complexity cap.
    """
    if isinstance(e, Const):
        return e.value == 0
    points = 8 * _zero_capacity(e) + 16
    if points > _ZERO_TEST_CAP:
        raise UndecidableTailError(
            f"tail too complex for zero test ({points} > {_ZERO_TEST_CAP} points)"
        )
    j = start
    checked = 0
    skips = 0
    while checked < points:
        try:
            if eval_fraction(e, j) != 0:
                return False
        except ZeroDivisionError:
            skips += 1
            if skips > points:
                raise UndecidableTailError("tail has too many poles to test")
            j += 1
            continue
        checked += 1
        j += 1
    return True


def tail_limit(e: Expr) -> float | None:
    """Numeric limit of e(j) as j -> infinity, or None if not stabilizing.

    Probes three geometrically spaced large arguments at 34 digits and
    extrapolates the geometric part of the difference sequence; a numeric
    probe, not a proof.
    """
    with mp.workdps(34):
        v1, v2, v3 = (eval_mpf(e, j) for j in (10**6, 4 * 10**6, 16 * 10**6))
        if any(not mp.isfinite(v) for v in (v1, v2, v3)):
            return None
        scale = max(1, abs(v3))
        d1, d2 = v2 - v1, v3 - v2
        if abs(d1) < scale * mp.mpf(10) ** -30:
            return float(v3)
        rho = d2 / d1
        if 0 <= rho < mp.mpf("0.9"):
            return float(v3 + d2 * rho / (1 - rho))
    return None
