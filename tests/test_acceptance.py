"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and nowhere else; the heavy pipeline artifacts
come from session fixtures shared with the rest of the suite.
"""

import math
import time

import numpy as np
import pytest

from conftest import SESSION_START, bundled
from rwlab.asymptotics import (
    edge_exponents,
    edge_scaled_christoffel,
    sup_tail_bound_check,
)
from rwlab.chains import asymptotic_aperiodicity_sum
from rwlab.measures import (
    matrix_transition_vector,
    monte_carlo_eventual_absorption,
    monte_carlo_transition,
)
from rwlab.polynomials import (
    absorption_probabilities,
    cd_identity_residual,
    christoffel,
)
from rwlab.recover import stieltjes_recurrence


def test_criterion_01_kernel_identity(core_chains):
    t0 = time.time()
    worst = 0.0
    pairs = ((0.3, 0.7), (-0.9, 0.9), (0.0, 1.0))
    for chain in core_chains.values():
        for x, y in pairs:
            for n in range(0, 51, 1):
                worst = max(worst, cd_identity_residual(chain, n, x, y, digits=34))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 30
    print(f"ACCEPTANCE 01 PASS: kernel-identity residual <= {worst:.2e} "
          f"(bound 1e-10) in {elapsed:.1f}s")


def test_criterion_02_christoffel_closed_forms(chain_a, chain_s):
    worst = 0.0
    for n in range(1, 201):
        got = float(christoffel(chain_a, n, 1, digits=34))
        worst = max(worst, abs(got * (2 * n - 1) - 1))
        got = float(christoffel(chain_s, n, 1, digits=34))
        want = 6 / (n * (n + 1) * (2 * n + 1))
        worst = max(worst, abs(got / want - 1))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 02 PASS: closed-form Christoffel values, rel err <= {worst:.2e}")


def test_criterion_03_transition_routes(core_chains, quad400):
    from rwlab.chains import log_pi_mpf
    from rwlab.measures import _q_table_f64
    import mpmath as mp

    worst = 0.0
    for key, chain in core_chains.items():
        m = quad400[key]
        qtab = _q_table_f64(chain, 10, tuple(m.nodes))
        with mp.workdps(20):
            pis = np.array([float(mp.exp(v)) for v in log_pi_mpf(chain, 10)])
        dim = 112
        p, q, r, _ = chain.arrays(dim - 1)
        vectors = np.zeros((11, dim))
        for i in range(11):
            vectors[i, i] = 1.0
        wx = m.weights.copy()
        for n in range(1, 101):
            nxt = r[:dim] * vectors
            nxt[:, 1:] += p[: dim - 1] * vectors[:, :-1]
            nxt[:, :-1] += q[1:dim] * vectors[:, 1:]
            vectors = nxt
            wx = wx * m.nodes
            spectral = (qtab * wx) @ qtab.T * pis[None, :]
            worst = max(worst, np.abs(spectral - vectors[:, :11]).max())
    assert worst <= 1e-8
    spots = [
        ("A", 0, 0, 2), ("A", 0, 2, 2), ("A", 1, 1, 4),
        ("B", 0, 0, 1), ("B", 0, 1, 3), ("B", 2, 2, 4),
        ("C", 0, 0, 2), ("C", 1, 0, 3),
        ("S", 0, 0, 2), ("S", 0, 1, 1), ("S", 2, 3, 5),
        ("K", 0, 0, 2),
    ]
    chains = dict(core_chains)
    chains["K"] = bundled("chain_k")
    worst_sigma = 0.0
    for idx, (key, i, j, n) in enumerate(spots):
        chain = chains[key]
        want = float(matrix_transition_vector(chain, i, n)[j])
        est, se = monte_carlo_transition(chain, i, j, n, 10**6, seed=20240 + idx)
        worst_sigma = max(worst_sigma, abs(est - want) / se)
    assert worst_sigma <= 4.0
    print(f"ACCEPTANCE 03 PASS: |spectral - matrix| <= {worst:.2e} (bound 1e-8); "
          f"12 MC spot checks within {worst_sigma:.2f} sigma (bound 4)")


def test_criterion_04_roundtrip(core_chains, quad400):
    worst = 0.0
    for key, chain in core_chains.items():
        rc = stieltjes_recurrence(quad400[key], 30)
        p, q, r, _ = chain.arrays(30)
        a_true = np.sqrt(p[:29] * q[1:30])
        worst = max(worst, np.abs(rc.a[:29] - a_true).max())
        worst = max(worst, np.abs(rc.b - r[:30]).max())
    assert worst <= 1e-8
    print(f"ACCEPTANCE 04 PASS: chain->measure->chain coefficients within {worst:.2e}")


def test_criterion_05_edge_bracketing(edges2000):
    for key, e in edges2000.items():
        assert e.eta_bisection >= e.eta_eigen - 1e-13, key
    widths = {k: e.discrepancy for k, e in edges2000.items() if k in "ACS"}
    assert max(widths.values()) <= 1e-4
    eta_c = edges2000["C"].eta_hat
    err_c = abs(eta_c - 2 * math.sqrt(0.21))
    assert err_c <= 1e-6
    print(f"ACCEPTANCE 05 PASS: bisection >= eigen on all chains; bracket widths "
          f"{max(widths.values()):.2e} (bound 1e-4); asymmetric-chain edge error "
          f"{err_c:.2e} (bound 1e-6)")


def test_criterion_06_periodic_branch(report_a):
    dev = np.abs(report_a.cn_values - 1).max()
    assert dev <= 1e-10
    assert np.all(report_a.ratio_values == 1.0)
    assert report_a.branch == "i"
    assert report_a.verdict == "consistent"
    print(f"ACCEPTANCE 06 PASS: periodic chain, C_n = 1 within {dev:.2e} "
          f"(bound 1e-10), ratio = 1, verdict consistent")


def test_criterion_07_divergent_sum_branch(report_b, chain_b):
    assert report_b.lim_cn.value <= 1e-6
    assert report_b.lim_rho_ratio.value <= 1e-6
    assert report_b.verdict == "consistent"
    assert asymptotic_aperiodicity_sum(chain_b, 3000).verdict == "diverges"
    print(f"ACCEPTANCE 07 PASS: shifted chain, C_n limit {report_b.lim_cn.value:.1e} "
          f"and ratio limit {report_b.lim_rho_ratio.value:.1e} (bound 1e-6); "
          f"double sum diverges; verdict consistent")


def test_criterion_08_distinct_exponents(report_d):
    assert report_d.branch == "iii"
    assert report_d.prediction == 0.0
    assert report_d.lim_cn.value <= 0.02
    assert report_d.lim_rho_ratio.value <= 0.02
    cn_tail = report_d.cn_values[1000:]
    assert np.all(np.diff(cn_tail) <= 1e-12)
    ratio_tail = report_d.ratio_values[1000:]
    assert ratio_tail[-1] <= ratio_tail[0]
    assert report_d.verdict == "consistent"
    print(f"ACCEPTANCE 08 PASS: distinct edge exponents, C_n limit "
          f"{report_d.lim_cn.value:.2e} and ratio limit "
          f"{report_d.lim_rho_ratio.value:.2e} (bound 0.02), decreasing tails, "
          f"verdict consistent with prediction 0")


def test_criterion_09_equal_exponents(report_e):
    assert report_e.branch == "iii"
    dev_cn = abs(report_e.lim_cn.value - 1 / 3)
    dev_rho = abs(report_e.lim_rho_ratio.value - 1 / 3)
    assert dev_cn <= 0.05
    assert dev_rho <= 0.05
    assert report_e.verdict == "consistent"
    print(f"ACCEPTANCE 09 PASS: equal edge exponents at horizon 2000, "
          f"|C_n limit - 1/3| = {dev_cn:.2e}, |ratio limit - 1/3| = {dev_rho:.2e} "
          f"(bound 0.05), verdict consistent")


def test_criterion_10_tail_bound(report_b, report_d, report_e):
    results = {}
    for rep, window in ((report_b, 400), (report_d, 2000), (report_e, 2000)):
        ok, tail_max = sup_tail_bound_check(
            rep.cn_values, window, rep.lim_rho_ratio.value
        )
        results[rep.chain_label] = (ok, tail_max)
        assert ok, (rep.chain_label, tail_max)
    summary = "; ".join(f"{k}: max tail C_n {v:.2e}" for k, (_, v) in results.items())
    print(f"ACCEPTANCE 10 PASS: limsup bound C_n <= ratio limit + 1e-3 on every "
          f"aperiodic family ({summary})")


def test_criterion_11_edge_scaling_calibration(chain_s):
    worst = 0.0
    for n in (500, 750, 1000, 2000):
        scaled = n**3 * float(christoffel(chain_s, n, 1, digits=15))
        worst = max(worst, abs(scaled / 3 - 1))
    assert worst <= 0.01
    exps = edge_exponents(bundled("semicircle_weight"))
    res = edge_scaled_christoffel(chain_s, exps, 1.0, 1000)
    assert res.constant_top == pytest.approx(3.0, rel=1e-12)
    print(f"ACCEPTANCE 11 PASS: semicircle n^3 rho_n(1) within {worst:.2%} of 3 "
          f"for n >= 500 (bound 1%); derived edge constant "
          f"{res.constant_top:.6f}")


def test_criterion_12_killing():
    res = absorption_probabilities(bundled("constant_killing"), 4, 400, digits=15)
    assert res.route == "killing-sum-diverges"
    assert res.tau == (1.0,) * 5
    chain_k = bundled("chain_k")
    res_k = absorption_probabilities(chain_k, 0, 3000, digits=15)
    assert res_k.tau[0] == 1.0
    mc = monte_carlo_eventual_absorption(chain_k, 0, 10**6, seed=2024)
    sigma = abs(mc.estimate - res_k.tau[0]) / mc.std_error
    assert sigma <= 4.0
    print(f"ACCEPTANCE 12 PASS: constant-killing tau = 1 by divergence; "
          f"recurrent killed chain tau_0 = 1 matches MC estimate "
          f"{mc.estimate:.6f} +- {mc.std_error:.1e} ({sigma:.2f} sigma, bound 4)")


def test_criterion_13_runtime():
    elapsed = time.time() - SESSION_START
    assert elapsed < 1800
    print(f"ACCEPTANCE 13 PASS: suite wall time {elapsed:.0f}s (bound 1800s)")
