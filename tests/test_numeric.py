"""Conversions between exact rationals and working-precision numbers."""

import random
from fractions import Fraction

import mpmath as mp

from rwlab.numeric import mpf_from_fraction


def test_mpf_from_fraction_rounds_once():
    # 140-bit numerators and denominators exceed both working precisions, so
    # rounding the numerator first and the quotient second would miss the
    # nearest mpf about a quarter of the time
    rng = random.Random(140)
    fractions = [
        Fraction(rng.choice((-1, 1)) * rng.getrandbits(140), rng.getrandbits(140) | 1)
        for _ in range(2000)
    ]
    for digits in (15, 34):
        with mp.workdps(digits):
            for f in fractions:
                want = mp.libmp.from_rational(f.numerator, f.denominator, mp.mp.prec, "n")
                assert mpf_from_fraction(f)._mpf_ == want, (digits, f)
