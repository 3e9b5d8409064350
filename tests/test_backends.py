"""The float64 polynomial passes against mpmath at 34 digits: Christoffel
ratio sequences and the ratio-vanishing criterion against oracles built
here from _q_pi and q_values at 34 + 8 digits, and the growth of Q_n(1) at
15 digits against its own 34-digit route, on the bundled chains, on
recovered weight chains, and on random chains far enough beyond the edge
that an unscaled float64 recurrence overflows."""

import math
from fractions import Fraction
from itertools import accumulate

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import bundled
from rwlab.asymptotics import ratio_vanishing_criterion
from rwlab.chains import ChainSpec, classify_series, rule
from rwlab.errors import NonpositiveQError
from rwlab.polynomials import (
    RatioSequences,
    _guarded,
    _q_pi,
    christoffel_ratio_sequence,
    q_at_one_growth,
    q_values,
)
from rwlab.tridiagonal import _three_term

TINY = np.finfo(float).smallest_subnormal


def ratio_oracle(chain, n_max, eta) -> RatioSequences:
    """The ratio sequences from the running sums sum_{j<=k} pi_j Q_j(+-eta)^2
    in mpmath at 34 + 8 digits."""
    with _guarded(34):
        pos, w = _q_pi(chain, n_max, eta)
        neg = q_values(chain, n_max, -mp.mpf(eta))
        s_pos, s_neg = (list(accumulate(wk * v * v for wk, v in zip(w, vals)))
                        for vals in (pos, neg))
        quotients = [a / b for a, b in zip(s_pos[:n_max], s_neg)]
        return RatioSequences(
            float(eta),
            np.array([float(v) for v in quotients]),
            np.array([float((a / b) ** 2) if b != 0 else math.inf for a, b in zip(pos, neg)]),
            np.array([float(mp.log10(v)) if v > 0 else -math.inf for v in quotients]),
        )


def criterion_oracle(chain, eta, n):
    """The criterion and L~ summand series through j = n in mpmath at
    34 + 8 digits, classified by classify_series; raises NonpositiveQError
    with ratio_vanishing_criterion's message at the first Q_j(eta) <= 0."""
    with _guarded(34):
        qv, pis = _q_pi(chain, n + 1, eta)
        for j, v in enumerate(qv):
            if v <= 0:
                raise NonpositiveQError(f"{chain.label}: Q_{j}(eta) <= 0 at eta = {float(eta)}")
        p, _, r, _ = chain.mpf_coefficients(n)
        inner = mp.mpf(0)
        terms, lt_terms = np.empty(n + 1), np.empty(n + 1)
        for j, pi_j in enumerate(pis[: n + 1]):
            inner += r[j] * pi_j * qv[j] * qv[j]
            denom = p[j] * pi_j * qv[j] * qv[j + 1]
            terms[j], lt_terms[j] = float(inner / denom), float(1 / denom)
    return [classify_series(np.cumsum(t), t) for t in (terms, lt_terms)]


def assert_ratios_agree(fast, exact, rtol):
    # an entry that underflows on one route underflows on the other
    assert np.array_equal(fast.ratios == 0, exact.ratios == 0)
    np.testing.assert_allclose(fast.ratios, exact.ratios, rtol=rtol, atol=2 * TINY)
    np.testing.assert_allclose(fast.log10_ratios, exact.log10_ratios,
                               rtol=rtol, atol=rtol)
    assert np.array_equal(np.isinf(fast.q_sq_ratios), np.isinf(exact.q_sq_ratios))
    finite = np.isfinite(exact.q_sq_ratios)
    np.testing.assert_allclose(fast.q_sq_ratios[finite], exact.q_sq_ratios[finite],
                               rtol=rtol, atol=2 * TINY)


def bundled_chains():
    etas = {"chain_a": 1.0, "chain_b": 1.0, "chain_c": math.sqrt(0.84), "chain_s": 1.0,
            "chain_k": 1.0, "constant_killing": 0.9, "chain_recovered": 1.0}
    return {name: (bundled(name), eta) for name, eta in etas.items()}


@pytest.mark.parametrize("name", list(bundled_chains()))
def test_ratio_sequences_agree_on_bundled_chains(name):
    chain, eta = bundled_chains()[name]
    n_max = int(min(1500, chain.depth - 1))
    fast = christoffel_ratio_sequence(chain, n_max, eta)
    assert_ratios_agree(fast, ratio_oracle(chain, n_max, eta), 1e-11)


@pytest.mark.parametrize("fixture", ["chain_d600", "chain_e600"])
def test_ratio_sequences_agree_on_recovered_weight_chains(fixture, request):
    chain = request.getfixturevalue(fixture)
    fast = christoffel_ratio_sequence(chain, 599, 1.0)
    assert_ratios_agree(fast, ratio_oracle(chain, 599, 1.0), 1e-11)


@pytest.mark.parametrize("name, eta, n", [
    ("chain_a", 1.0, 1500),
    ("chain_b", 1.0, 2500),
    ("chain_c", math.sqrt(0.84), 1500),
    ("chain_s", 1.0, 1500),
    ("chain_recovered", 1.0, 62),
    ("chain_k", 1.0, 1500),  # Q_j(1) grows under killing: the ln Q_j terms count
])
def test_ratio_vanishing_verdicts_equal(name, eta, n):
    chain = bundled_chains()[name][0]
    fast = ratio_vanishing_criterion(chain, eta, n)
    for a, b in zip((fast.criterion, fast.l_tilde), criterion_oracle(chain, eta, n)):
        assert a.verdict == b.verdict
        np.testing.assert_allclose(a.partial_sums, b.partial_sums, rtol=1e-11)


def test_ratio_vanishing_names_the_same_nonpositive_index(chain_b):
    messages = []
    for route in (ratio_vanishing_criterion, criterion_oracle):
        with pytest.raises(NonpositiveQError) as err:
            route(chain_b, 0.99, 2000)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("family", ["chain_k", "constant_killing"])
def test_q_at_one_growth_agrees(family):
    chain = bundled(family)
    fast, exact = (np.array(q_at_one_growth(chain, 2000, digits)) for digits in (15, 34))
    # constant_killing's Q_n(1) grows past the float64 range on both routes
    assert np.array_equal(np.isinf(fast), np.isinf(exact))
    finite = np.isfinite(exact)
    np.testing.assert_allclose(fast[finite], exact[finite], rtol=1e-12)


@st.composite
def constant_tail_chains(draw):
    """Honest chains: a short exact rational prefix, then constant p, q, r."""
    denom = draw(st.integers(min_value=5, max_value=16))
    rows = []  # (p_j, q_j, r_j); the last row is the tail
    for j in range(draw(st.integers(min_value=1, max_value=4)) + 1):
        pj = draw(st.integers(min_value=1, max_value=denom - 2))
        qj = 0 if j == 0 else draw(st.integers(min_value=1, max_value=denom - pj - 1))
        rows.append(tuple(Fraction(v, denom) for v in (pj, qj, denom - pj - qj)))
    *prefix, tail = rows
    p, q, r = zip(*prefix)
    return ChainSpec("random-tail", p=rule(p, str(tail[0])), q=rule(q, str(tail[1])),
                     r=rule(r, str(tail[2])))


@settings(max_examples=10)
@given(constant_tail_chains(), st.floats(min_value=0.05, max_value=1.0))
def test_scaled_recurrence_beyond_the_edge(chain, beyond):
    n = 3000
    x = 1.0 + beyond  # above every edge of a random walk measure
    p, q, r, _ = (c.tolist() for c in chain.arrays(n))
    *_, unscaled = _three_term(x, p, q, r, n)
    assume(not math.isfinite(unscaled))
    fast = christoffel_ratio_sequence(chain, n, x)
    for values in (fast.ratios, fast.log10_ratios, fast.q_sq_ratios):
        assert np.all(np.isfinite(values))
    assert_ratios_agree(fast, ratio_oracle(chain, n, x), 1e-11)
