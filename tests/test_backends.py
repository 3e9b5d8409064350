"""The float64 polynomial passes at 15 digits against the mpmath route at
34 digits: Christoffel ratio sequences, the ratio-vanishing criterion and
the growth of Q_n(1), on the bundled chains, on recovered weight chains,
and on random chains far enough beyond the edge that an unscaled float64
recurrence overflows."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rwlab import families
from rwlab import fileformats as ff
from rwlab.asymptotics import ratio_vanishing_criterion
from rwlab.chains import ChainSpec, rule
from rwlab.errors import NonpositiveQError
from rwlab.polynomials import christoffel_ratio_sequence, q_at_one_growth
from rwlab.tridiagonal import _three_term

RECOVERED = os.path.join(os.path.dirname(__file__), "..", "configs", "chain_recovered.cfg")
TINY = np.finfo(float).smallest_subnormal


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
    chains = {
        "chain_a": (families.chain_arcsine(), 1.0),
        "chain_b": (families.chain_shifted_arcsine(), 1.0),
        "chain_c": (families.chain_asymmetric(), math.sqrt(0.84)),
        "chain_s": (families.chain_semicircle(), 1.0),
        "chain_k": (families.chain_k(), 1.0),
        "constant_killing": (families.chain_constant_killing(), 0.9),
    }
    recovered = ff.chain_from_sections(ff.parse_file(RECOVERED))
    chains["chain_recovered"] = (recovered, 1.0)
    return chains


@pytest.mark.parametrize("name", list(bundled_chains()))
def test_ratio_sequences_agree_on_bundled_chains(name):
    chain, eta = bundled_chains()[name]
    n_max = int(min(1500, chain.depth - 1))
    fast = christoffel_ratio_sequence(chain, n_max, eta, 15)
    exact = christoffel_ratio_sequence(chain, n_max, eta, 34)
    assert_ratios_agree(fast, exact, 1e-11)


@pytest.mark.parametrize("fixture", ["chain_d600", "chain_e600"])
def test_ratio_sequences_agree_on_recovered_weight_chains(fixture, request):
    chain = request.getfixturevalue(fixture)
    fast = christoffel_ratio_sequence(chain, 599, 1.0, 15)
    exact = christoffel_ratio_sequence(chain, 599, 1.0, 34)
    assert_ratios_agree(fast, exact, 1e-11)


@pytest.mark.parametrize("name, eta, n", [
    ("chain_a", 1.0, 1500),
    ("chain_b", 1.0, 2500),
    ("chain_c", math.sqrt(0.84), 1500),
    ("chain_s", 1.0, 1500),
    ("chain_recovered", 1.0, 62),
])
def test_ratio_vanishing_verdicts_equal(name, eta, n):
    chain = bundled_chains()[name][0]
    fast, exact = (ratio_vanishing_criterion(chain, eta, n, digits) for digits in (15, 34))
    for a, b in ((fast.criterion, exact.criterion), (fast.l_tilde, exact.l_tilde)):
        assert a.verdict == b.verdict
        np.testing.assert_allclose(a.partial_sums, b.partial_sums, rtol=1e-11)


def test_ratio_vanishing_names_the_same_nonpositive_index(chain_b):
    messages = []
    for digits in (15, 34):
        with pytest.raises(NonpositiveQError) as err:
            ratio_vanishing_criterion(chain_b, 0.99, 2000, digits)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("family", ["chain_k", "chain_constant_killing"])
def test_q_at_one_growth_agrees(family):
    chain = getattr(families, family)()
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
    fast = christoffel_ratio_sequence(chain, n, x, 15)
    for values in (fast.ratios, fast.log10_ratios, fast.q_sq_ratios):
        assert np.all(np.isfinite(values))
    assert_ratios_agree(fast, christoffel_ratio_sequence(chain, n, x, 34), 1e-11)
