"""Predictions, coefficient criteria, edge scaling, and consistency reports."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import bundled, chain_transient_killing
from rwlab.asymptotics import (
    EdgeExponents,
    blumenthal_edges,
    condition_bounded_variation,
    conjecture_report,
    edge_constant,
    edge_exponents,
    edge_mass_ratio,
    edge_scaled_christoffel,
    predicted_cn_limit,
    ratio_vanishing_criterion,
    regularity_check,
    sup_tail_bound_check,
)
from rwlab.errors import InconsistentWeightError, NumericalRouteWarning
from rwlab.recover import chain_from_recurrence, discretize_weight, stieltjes_recurrence


def test_predicted_limits():
    d = edge_exponents(bundled("weight_d"))
    assert predicted_cn_limit(d) == 0.0
    e = edge_exponents(bundled("weight_e"))
    assert predicted_cn_limit(e) == pytest.approx(1 / 3, rel=1e-12)
    s = edge_exponents(bundled("semicircle_weight"))
    assert predicted_cn_limit(s) == pytest.approx(1.0, rel=1e-12)


def test_symmetric_prediction_implies_periodic_chain():
    # equal exponents with symmetric smooth factor predict 1, and the
    # recovered chain is indeed periodic
    m = discretize_weight(bundled("semicircle_weight"), 1000, digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(m, 20))
    from rwlab.chains import is_periodic

    assert rec.ok and is_periodic(rec.chain)


def test_inconsistent_exponents_flagged():
    with pytest.raises(InconsistentWeightError):
        predicted_cn_limit(EdgeExponents(1.5, 0.5, 1.0, 1.0))
    with pytest.raises(InconsistentWeightError):
        predicted_cn_limit(EdgeExponents(0.5, 1.5, 0.0, 1.0))  # w(eta-) = 0
    with pytest.raises(InconsistentWeightError):
        predicted_cn_limit(EdgeExponents(0.0, 0.5, 1.0, 1.0))  # alpha = 0


def test_blumenthal(chain_b, chain_c, chain_s):
    pred = blumenthal_edges(chain_c)
    assert pred.applicable
    assert pred.eta == pytest.approx(2 * math.sqrt(0.21), rel=1e-9)
    assert pred.zeta == pytest.approx(-2 * math.sqrt(0.21), rel=1e-9)
    assert not blumenthal_edges(chain_b).applicable  # r does not vanish
    pred = blumenthal_edges(chain_s)
    assert pred.applicable and pred.eta == pytest.approx(1.0, rel=1e-9)


def test_ratio_vanishing_criterion(chain_a, chain_b):
    crit = ratio_vanishing_criterion(chain_b, 1.0, 2500)
    assert crit.criterion.verdict == "diverges"  # matches the observed ratio -> 0
    crit = ratio_vanishing_criterion(chain_a, 1.0, 1500)
    assert crit.criterion.verdict == "converges"  # periodic: all terms vanish
    assert np.all(crit.criterion.partial_sums == 0)


def test_bounded_variation_condition(chain_s, chain_c):
    holds, tail = condition_bounded_variation(chain_s, 10**5)
    assert holds and tail < 1e-6
    holds, _ = condition_bounded_variation(chain_c, 10**4)
    assert holds  # constant products: differences vanish


def test_regularity(chain_a, chain_c, chain_s):
    r = regularity_check(chain_a, 1.0, 3000)
    assert abs(r.estimate.value - 2.0) < 2e-3
    assert "2*eta" in r.matches()
    r = regularity_check(chain_s, 1.0, 3000)
    assert abs(r.estimate.value - 2.0) < 1e-6
    # eta != 1 separates the two candidate normalizations: capacity wins
    r = regularity_check(chain_c, 2 * math.sqrt(0.21), 4000)
    assert r.matches() == "2/eta"


def test_edge_scaling_semicircle(chain_s):
    exps = edge_exponents(bundled("semicircle_weight"))
    res = edge_scaled_christoffel(chain_s, exps, 1.0, 2000)
    assert res.limit_top.value == pytest.approx(3.0, rel=5e-3)
    # the derived constant is the closed-form semicircle limit
    assert res.constant_top == pytest.approx(3.0, rel=1e-12)


def test_edge_scaling_weight_d(report_d):
    # the bottom-edge scaled sequence n^(2 beta + 2) rho_n(-eta) stabilizes
    exps = edge_exponents(bundled("weight_d"))
    chain = None
    # rebuild the chain from the cached report's series length cheaply
    from rwlab.recover import grid_size_for_depth

    m = discretize_weight(bundled("weight_d"), grid_size_for_depth(600), digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(m, 600))
    res = edge_scaled_christoffel(rec.chain, exps, report_d.edges.eta_hat, 590)
    tail = res.scaled_bottom[-8:]
    assert np.all(np.isfinite(tail))
    assert (tail.max() - tail.min()) / tail.mean() < 0.2
    assert res.limit_bottom.is_finite


@pytest.mark.parametrize("weight, eta, chain, top, bottom", [
    ("semicircle_weight", 1, "chain_s", 3.0, 3.0),
    ("weight_d", 1, "chain_d600", 6.0, 22.5),
    ("weight_e", 1, "chain_e600", 4.5, 1.5),
    # scaling the support leaves the constants alone: checks the (2 eta) powers
    ("semicircle_weight", Fraction(1, 2), None, 3.0, 3.0),
    ("weight_d", Fraction(1, 2), None, 6.0, 22.5),
])
def test_edge_constants_are_derived(request, weight, eta, chain, top, bottom):
    spec = dataclasses.replace(bundled(weight), eta=Fraction(eta))
    exps = edge_exponents(spec)
    constants = (edge_constant(eta, exps.alpha, exps.beta, exps.w_at_eta),
                 edge_constant(eta, exps.beta, exps.alpha, exps.w_at_minus_eta))
    assert constants == pytest.approx((top, bottom), rel=1e-12)
    if chain is not None:
        # at the exact edge the measured limits cover the derived constants
        res = edge_scaled_christoffel(request.getfixturevalue(chain), exps, 1.0, 590)
        assert (res.constant_top, res.constant_bottom) == constants
        for limit, constant in ((res.limit_top, top), (res.limit_bottom, bottom)):
            assert abs(limit.value - constant) <= limit.uncertainty


def test_eps_window(chain_b, quad400):
    diag = edge_mass_ratio(quad400["B"], 1.0)
    assert np.all(diag.ratios == 0.0)
    me = discretize_weight(bundled("weight_e"), 2000, digits=15)
    diag = edge_mass_ratio(me, 1.0, eps_grid=np.geomspace(0.5, 0.01, 24))
    assert diag.estimate.value == pytest.approx(1 / 3, abs=0.1)


def test_report_branches(report_a, report_b, report_d, report_e):
    assert report_a.branch == "i" and report_a.verdict == "consistent"
    assert report_a.prediction == 1.0
    assert report_b.branch == "ii" and report_b.verdict == "consistent"
    assert report_b.lim_cn.value <= 1e-6 and report_b.lim_rho_ratio.value <= 1e-6
    assert report_d.branch == "iii" and report_d.verdict == "consistent"
    assert report_d.prediction == 0.0
    assert report_e.branch == "iii" and report_e.verdict == "consistent"
    assert report_e.prediction == pytest.approx(1 / 3, rel=1e-12)
    # bounded-variation coefficients with products -> 1/4 pin the support
    # to the full interval
    assert report_e.edges.eta_hat == pytest.approx(1.0, abs=1e-4)
    assert report_e.edges.zeta_hat == pytest.approx(-1.0, abs=1e-4)


def test_no_bundled_family_inconsistent(report_a, report_b, report_d, report_e,
                                        chain_c, chain_s):
    for rep in (report_a, report_b, report_d, report_e):
        assert rep.verdict != "inconsistent"
    for chain in (chain_c, chain_s):
        rep = conjecture_report(chain=chain, N=200, n_max=200, truncation=1000)
        assert rep.branch == "i"
        assert rep.verdict == "consistent"
        assert rep.lim_rho_ratio.value == 1.0
        assert abs(rep.lim_cn.value - 1.0) < 1e-9


def test_weight_e_vanishing_criterion_consistent(report_e):
    # a nonzero ratio limit coexists with a convergent criterion series
    assert report_e.diagnostics["ratio_vanishing_sum"] in ("converges", "undecided")
    assert report_e.diagnostics["l_tilde"] == "converges"


def test_stolz_cesaro_nonzero_limit(chain_e600, report_e):
    # the cumulative-ratio and term-ratio limits agree at a nonzero value
    from rwlab.limits import estimate_limit
    from rwlab.polynomials import christoffel_ratio_sequence

    seq = christoffel_ratio_sequence(chain_e600, 590, report_e.edges.eta_hat)
    e1 = estimate_limit(seq.ratios)
    e2 = estimate_limit(seq.q_sq_ratios)
    assert e1.value == pytest.approx(1 / 3, abs=0.01)
    assert abs(e1.value - e2.value) <= e1.uncertainty + e2.uncertainty + 1e-3


def test_sup_tail_bound(report_b, report_d, report_e):
    # finite-horizon limsup bound across the aperiodic bundled families
    for rep, window in ((report_b, 400), (report_d, 2000), (report_e, 2000)):
        ok, tail_max = sup_tail_bound_check(
            rep.cn_values, window, rep.lim_rho_ratio.value
        )
        assert ok, (rep.chain_label, tail_max)


def test_gap_between_edges_forces_zero_limits(report_b):
    # bottom edge well above -eta: both limits vanish
    assert report_b.edges.zeta_hat > -report_b.edges.eta_hat + 0.01
    assert report_b.lim_cn.value <= 1e-6
    assert report_b.lim_rho_ratio.value <= 1e-6


@pytest.mark.parametrize("name", ["chain_b", "chain_c"])
def test_conjecture_brackets_the_edges_as_edges_does(name):
    # one edge tolerance: below truncation 500 the report's bracket is the
    # one `rwlab edges` prints, bisection ends and discrepancy included
    from rwlab.polynomials import support_edges

    chain = bundled(name)
    rep = conjecture_report(chain=chain, N=60, n_max=200, truncation=400, sum_horizon=400)
    assert rep.edges == support_edges(chain, 400)


def test_killed_chain_report():
    rep = conjecture_report(chain=bundled("chain_k"), n_max=300, truncation=1000)
    assert rep.lim_cn is None
    assert rep.branch == "none-applicable"  # absorption certain: no prediction
    assert rep.lim_rho_ratio.value <= 1e-6
    # killed chain with r = 0: the parity argument still applies, the ratio
    # is identically 1, and the report lands in the periodic branch
    rep = conjecture_report(chain=chain_transient_killing(), n_max=300,
                            truncation=1000)
    assert rep.branch == "i"
    assert rep.lim_cn is None
    assert rep.lim_rho_ratio.value == 1.0
    assert rep.verdict == "consistent"


def test_bisection_fallback_is_reported(monkeypatch, chain_b):
    import dataclasses

    from rwlab import asymptotics

    solve = asymptotics.support_edges

    def misplaced_edges(chain, *args, **kwargs):
        # eta_hat 0.01 below chain_b's bottom edge 0: Q_k(eta_hat)^2 then
        # outgrows Q_k(-eta_hat)^2 and the Christoffel ratios exceed 1
        edges = solve(chain, *args, **kwargs)
        return dataclasses.replace(edges, eta_hat=edges.zeta_eigen - 0.01)

    monkeypatch.setattr(asymptotics, "support_edges", misplaced_edges)
    with pytest.warns(NumericalRouteWarning, match="rerun at the bisection edge"):
        rep = conjecture_report(chain=chain_b, N=60, n_max=200, truncation=400,
                                sum_horizon=400)
    assert rep.diagnostics["eta_hat"].endswith("(bisection fallback)")
    assert float(rep.diagnostics["eta_hat"].split()[0]) == pytest.approx(1.0, abs=1e-5)
    assert np.nanmax(rep.ratio_values) <= 1 + 1e-9
