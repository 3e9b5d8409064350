"""Small numeric value types shared across modules.

Products like pi_j and polynomial values at points outside the support
overflow float64 quickly, so magnitudes are carried as sign plus natural-log
magnitude wherever they cross a module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class SignedLog:
    """A real number represented as (sign, ln|value|).

    sign is -1, 0 or +1; for sign 0 the log is -inf (exact-zero sentinel).
    """

    sign: int
    log: float

    @property
    def value(self) -> float:
        """Best-effort float64 value (inf on overflow, 0.0 on underflow)."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log)
        except OverflowError:
            return self.sign * math.inf

    @property
    def log10(self) -> float:
        return self.log / math.log(10.0) if self.sign != 0 else NEG_INF


def signed_log(x) -> SignedLog:
    """SignedLog of an mpf/float, taking the log at current precision."""
    if x == 0:
        return SignedLog(0, NEG_INF)
    s = 1 if x > 0 else -1
    return SignedLog(s, float(mp.log(abs(x))))


def mpf_from_fraction(f) -> mp.mpf:
    """The mpf nearest to a Fraction at the working precision (one rounding)."""
    return mp.make_mpf(mp.libmp.from_rational(f.numerator, f.denominator, mp.mp.prec, "n"))


def to_mpf(x) -> mp.mpf:
    """An int, float, str, mpf or Fraction as an mpf at the working
    precision; a Fraction is rounded once."""
    if isinstance(x, Fraction):
        return mpf_from_fraction(x)
    return mp.mpf(x)
