"""Polynomial evaluation against closed forms, Christoffel functions, the
kernel identity, support edges, and the killing-side quantities."""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import bundled, chain_transient_killing
from rwlab import tridiagonal
from rwlab.chains import ChainSpec, rule
from rwlab.errors import MalformedChainError, PrecisionExhaustedError
from rwlab.measures import monte_carlo_absorption
from rwlab.polynomials import (
    EDGE_TOL,
    SupportEdges,
    absorption_probabilities,
    cd_identity_residual,
    christoffel,
    christoffel_ratio_sequence,
    eval_Q,
    leading_coefficient,
    q_at_one_growth,
    support_edges,
)
from rwlab.recover import recover_chain


def chebyshev_t(n, x):
    """Independent closed form: T_n = cos/cosh of n arccos/arccosh."""
    from fractions import Fraction

    with mp.workdps(80):
        xm = mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)
        if abs(xm) <= 1:
            return mp.cos(n * mp.acos(xm))
        sign = mp.mpf(1) if xm > 1 or n % 2 == 0 else mp.mpf(-1)
        return sign * mp.cosh(n * mp.acosh(abs(xm)))


def test_eval_arcsine_is_chebyshev(chain_a):
    for x in (0.5, -0.3, 0.9):
        tr = eval_Q(chain_a, 12, x)
        for n in range(13):
            assert tr.q_float(n) == pytest.approx(float(chebyshev_t(n, x)), abs=1e-12)
    assert eval_Q(chain_a, 3, 0.5).q_float(3) == pytest.approx(-1.0, abs=1e-14)


def test_eval_shifted_arcsine(chain_b):
    # Q_n(x) = T_n(2x - 1); at x = -1 the values grow geometrically
    tr = eval_Q(chain_b, 6, -1)
    assert tr.q_float(2) == 17.0
    for n in range(7):
        assert tr.q_float(n) == pytest.approx(float(chebyshev_t(n, -3)), rel=1e-12)


def test_q_at_one_is_one(core_chains):
    for chain in core_chains.values():
        tr = eval_Q(chain, 40, 1)
        for v in tr.values:
            assert v.sign == 1 and abs(v.log) < 1e-12


def test_root_sentinel(chain_a):
    tr = eval_Q(chain_a, 2, 0)  # T_1(0) = 0 exactly
    assert tr.values[1].sign == 0
    assert tr.values[1].log == float("-inf")


def test_orthonormal_relation(chain_b):
    from rwlab.chains import potential_coefficients

    tr = eval_Q(chain_b, 8, -0.7)
    pis = potential_coefficients(chain_b, 8)
    for k in range(9):
        if tr.values[k].sign == 0:
            continue
        assert abs(
            tr.orthonormal_values[k].log - (0.5 * pis[k].log + tr.values[k].log)
        ) < 1e-12


def test_precision_exhaustion(chain_a):
    # a hair away from a degree-200 root, cancellation eats the low-precision
    # run completely; enough digits restore agreement with the closed form
    from rwlab.normalization import _fraction_from_mpf

    with mp.workdps(60):
        x = _fraction_from_mpf(mp.cos(mp.pi / 400) + mp.mpf(10) ** -18)
    with pytest.raises(PrecisionExhaustedError):
        eval_Q(chain_a, 200, x, digits=15)
    tr = eval_Q(chain_a, 200, x, digits=60)
    assert tr.q_float(200) == pytest.approx(float(chebyshev_t(200, x)), rel=1e-8)


def test_leading_coefficient(chain_a, chain_s):
    assert leading_coefficient(chain_a, 2).value == pytest.approx(2 * math.sqrt(2))
    assert leading_coefficient(chain_a, 1).value == pytest.approx(math.sqrt(2))
    assert leading_coefficient(chain_s, 1).value == pytest.approx(2.0)


def test_christoffel_closed_forms(chain_a, chain_s):
    assert float(christoffel(chain_a, 3, 1)) == pytest.approx(0.2, rel=1e-12)
    assert float(christoffel(chain_a, 1, 0.37)) == 1.0
    for n in (5, 40):
        want = 6 / (n * (n + 1) * (2 * n + 1))
        assert float(christoffel(chain_s, n, 1)) == pytest.approx(want, rel=1e-12)


def test_ratio_sequence(chain_a, chain_b, chain_s):
    rs = christoffel_ratio_sequence(chain_a, 40, 1)
    assert np.allclose(rs.ratios, 1.0, atol=1e-13)
    rs = christoffel_ratio_sequence(chain_s, 40, 1)
    assert np.allclose(rs.ratios, 1.0, atol=1e-13)
    rs = christoffel_ratio_sequence(chain_b, 40, 1)
    assert rs.ratios[39] < rs.ratios[9] < 1
    assert np.all(rs.ratios > 0)
    # companion sequence is non-increasing with limit < 1 (aperiodic)
    q = rs.q_sq_ratios
    assert np.all(np.diff(q) <= 1e-15)
    assert q[-1] < 1


def test_stolz_cesaro_consistency(chain_b):
    from rwlab.limits import estimate_limit

    rs = christoffel_ratio_sequence(chain_b, 60, 1)
    e1 = estimate_limit(rs.ratios)
    e2 = estimate_limit(rs.q_sq_ratios)
    assert abs(e1.value - e2.value) <= e1.uncertainty + e2.uncertainty + 1e-12


def test_cd_identity(core_chains):
    assert cd_identity_residual(core_chains["A"], 10, 0.3, 0.7) < 1e-12
    assert cd_identity_residual(core_chains["B"], 25, -0.9, 0.9) < 1e-10
    assert cd_identity_residual(core_chains["S"], 5, 0, 1) < 1e-13


def test_periodic_symmetry(chain_a, chain_c):
    for chain in (chain_a, chain_c):
        for x in np.arange(0.1, 1.0, 0.2):
            tp = eval_Q(chain, 100, x)
            tm = eval_Q(chain, 100, -x)
            for n in range(101):
                a = tp.values[n]
                b = tm.values[n]
                va = a.sign * math.exp(a.log) if a.sign else 0.0
                vb = (-1) ** n * (b.sign * math.exp(b.log) if b.sign else 0.0)
                assert abs(va - vb) < 1e-12


def test_edge_monotonicity(chain_c, edges2000):
    # between the top edge and 1 the values decrease strictly to 0
    eta = edges2000["C"].eta_hat
    for x in (eta, 0.95, 0.99):
        tr = eval_Q(chain_c, 200, x, digits=60)
        vals = [tr.q_float(n) for n in range(201)]
        assert all(v > 0 for v in vals)
        assert all(vals[n + 1] <= vals[n] + 1e-12 for n in range(200))
        assert all(v <= 1 + 1e-12 for v in vals)


def test_support_edges_known_values(edges2000):
    assert edges2000["A"].eta_hat == pytest.approx(1.0, abs=1e-6)
    assert edges2000["A"].zeta_hat == pytest.approx(-1.0, abs=1e-6)
    assert edges2000["B"].eta_hat == pytest.approx(1.0, abs=1e-4)
    assert edges2000["B"].zeta_hat == pytest.approx(0.0, abs=1e-4)
    assert edges2000["C"].eta_hat == pytest.approx(2 * math.sqrt(0.21), abs=1e-6)
    assert edges2000["S"].eta_hat == pytest.approx(1.0, abs=1e-6)
    for e in edges2000.values():
        assert e.method == "cross-checked"
        assert -1 - 1e-6 <= e.zeta_hat <= e.eta_hat <= 1 + 1e-6
        assert e.eta_hat > 0
        assert e.zeta_hat >= -e.eta_hat - 1e-9


# the nine fields of support_edges as the recurrence-predicate bisection
# gave them; every operand is exact (fixed-point integers from correctly
# rounded np.sqrt of Fraction-exact constant tails), so the solve is
# reproducible bit for bit
PINNED_EDGES = {
    ("chain_b", 400): SupportEdges(
        0.9999999999801821, 1.9817879254286448e-11, "cross-checked", 400,
        6.395859597496667e-08, 0.9999961446907353, 0.9999962086493313,
        3.85530926469533e-06, 3.84149006537427e-06),
    ("chain_b", 2000): SupportEdges(
        0.9999999999999681, 3.170866247212719e-14, "cross-checked", 2000,
        7.710628047163937e-08, 0.9999998457874391, 0.9999999228937195,
        1.5421256083981509e-07, 1.4043042274787825e-07),
    ("chain_c", 400): SupportEdges(
        0.9165146806453691, -0.9165146806453692, "cross-checked", 400,
        3.75462416712935e-08, 0.9164872215253164, 0.9164872590715579,
        -0.9164872215253165, -0.9164872590715581),
    ("chain_c", 2000): SupportEdges(
        0.9165151352424622, -0.9165151352424623, "cross-checked", 2000,
        3.432712614159783e-08, 0.9165140111076276, 0.9165140454347537,
        -0.9165140111076278, -0.9165140454347539),
    # zeta_eigen lies within 2^-24 of 0, where the 2^-77 grid is coarser
    # than the doubles and the eigenvalue bisection stops at one grid step
    ("chain_b", 4000): SupportEdges(
        0.9999999999999979, 1.9817815858740785e-15, "cross-checked", 4000,
        1.927657100608826e-08, 0.9999999614468582, 0.9999999807234292,
        3.8553141696289964e-08, 2.4772161769236313e-08),
}


@pytest.mark.parametrize("name, truncation", list(PINNED_EDGES))
def test_support_edges_bit_for_bit(name, truncation):
    assert support_edges(bundled(name), truncation) == PINNED_EDGES[name, truncation]


def test_eigenvalue_beyond_the_validated_prefix_is_refused():
    # rows within 1.7e-17 of a probability vector through j = 200, so the
    # chain validates, but the r tail puts an eigenvalue of J_2000 above the
    # positivity bracket's end; the refusal names the first of its rows
    # whose sum is more than SUM_TOL off 1
    chain = ChainSpec("late-outlier", p=rule(["1/2"], "1/4"), q=rule(["0"], "1/4"),
                      r=rule(["1/2"], "1/2 + j^24/10^72"))
    chain.validate()
    assert chain.at(1000)[2] == 1.5
    with pytest.raises(MalformedChainError,
                       match=r"late-outlier: p\+q\+r\+kappa = 1.0000000000000109 at j=262$"):
        support_edges(chain, 2000)


@pytest.mark.parametrize("name", ["chain_b", "chain_c", "weight_e"])
def test_support_edges_counts_only_its_eigenvalue_bisections(name, monkeypatch):
    # the positivity ends are read off the extreme eigenvalues: one call
    # runs the Sturm counts of its four eigenvalue bisections and no more
    chain = bundled(name)
    if name == "weight_e":  # its recovered chain, one row beyond J_2000
        chain = recover_chain(chain, 2001)[2].chain
    calls = []
    sturm_count = tridiagonal.sturm_count
    monkeypatch.setattr(tridiagonal, "sturm_count",
                        lambda *args: calls.append(None) or sturm_count(*args))
    d, e = tridiagonal.jacobi_arrays_f64(chain, 2000)
    for n in (1000, 2000):
        for which in ("max", "min"):
            tridiagonal.extreme_eigen_f64(d[:n], e[:n - 1], which)
    expected, calls[:] = len(calls), []
    edges = support_edges(chain, 2000)
    assert len(calls) == expected
    assert edges.discrepancy < EDGE_TOL / 8
    assert edges.method == "cross-checked"


def test_q_growth(chain_a):
    assert q_at_one_growth(chain_a, 5) == [1.0] * 6
    g = q_at_one_growth(bundled("chain_k"), 8)
    assert g == pytest.approx([1 + n / 2 for n in range(9)])
    g = q_at_one_growth(bundled("constant_killing"), 300)
    assert all(b >= a for a, b in zip(g, g[1:]))
    assert g[-1] > 100


def test_absorption_zero_killing(chain_a):
    res = absorption_probabilities(chain_a, 5, 100)
    assert res.tau == (0.0,) * 6


def test_absorption_exact_transient():
    # first-passage argument: tau_0 = 2/5, tau_1 = 1/5, Q_inf(1) = 5/3
    res = absorption_probabilities(chain_transient_killing(), 2, 400, digits=15)
    assert res.route == "extrapolated"
    assert res.q_infinity == pytest.approx(5 / 3, rel=1e-10)
    assert res.tau[0] == pytest.approx(0.4, abs=1e-10)
    assert res.tau[1] == pytest.approx(0.2, abs=1e-10)


def test_absorption_divergence_route():
    res = absorption_probabilities(bundled("constant_killing"), 3, 300)
    assert res.route == "killing-sum-diverges"
    assert res.tau == (1.0,) * 4


def test_absorption_monte_carlo_oracle():
    est, se = monte_carlo_absorption(
        chain_transient_killing(), 0, 300, 2 * 10**5, seed=421
    )
    assert abs(est - 0.4) <= 4 * se + 1e-4
