"""Weight discretization, the Stieltjes recursion, and chain recovery."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import bundled
from rwlab import recover
from rwlab.errors import InputError, NumericalRouteWarning
from rwlab.measures import cn_series, moment
from rwlab.numeric import mpf_from_fraction
from rwlab.recover import (
    RecurrenceCoefficients,
    chain_from_recurrence,
    discretize_weight,
    grid_size_for_depth,
    make_weight,
    stieltjes_recurrence,
)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def test_semicircle_moments_closed_form():
    # even moments of the normalized semicircle are Catalan(k)/4^k
    m = discretize_weight(bundled("semicircle_weight"), 1000, digits=34)
    for k in range(0, 13):
        want = catalan(k) / 4.0**k
        assert moment(m, 2 * k, digits=34) == pytest.approx(want, rel=1e-20)
        assert moment(m, 2 * k + 1, digits=34) == pytest.approx(0.0, abs=1e-25)


def test_weight_d_mean():
    m = discretize_weight(bundled("weight_d"), 1000, digits=15)
    assert moment(m, 1) == pytest.approx(0.25, abs=1e-13)


def test_moments_against_adaptive_oracle():
    # doubling the grid moves the first 50 moments by less than 1e-16
    spec = bundled("weight_e")
    m1 = discretize_weight(spec, 1000, digits=34)
    m2 = discretize_weight(spec, 2000, digits=34)
    for n in range(50):
        assert abs(moment(m1, n, 34) - moment(m2, n, 34)) < 1e-16
    # and a spot check against mpmath adaptive quadrature
    with mp.workdps(40):
        dens = lambda x: mp.sqrt(1 - x * x) * (2 + x)
        total = mp.quad(dens, [-1, 1])
        m3 = float(mp.quad(lambda x: x**3 * dens(x), [-1, 1]) / total)
    assert moment(m1, 3, 34) == pytest.approx(m3, abs=1e-15)


def test_atoms_and_normalization():
    spec = make_weight("atomic", 1, "1/2", "1/2", "1", atoms=[("1/2", "1/4")])
    m = discretize_weight(spec, 500, digits=15)
    assert m.total_mass == pytest.approx(1.0, abs=1e-13)
    k = np.argmin(np.abs(m.nodes - 0.5))
    assert m.nodes[k] == 0.5
    # atom keeps a quarter of the total mass after normalization:
    # raw masses: density integral I and atom 1/4; atom share = (1/4)/(I + 1/4)
    with mp.workdps(30):
        dens_integral = mp.quad(lambda x: mp.sqrt(1 - x * x), [-1, 1])
        want = float((mp.mpf(1) / 4) / (dens_integral + mp.mpf(1) / 4))
    assert m.weights[k] == pytest.approx(want, rel=1e-10)


def test_weight_validation():
    with pytest.raises(InputError):
        make_weight("bad", 1, "-1/2", "0", "1")
    with pytest.raises(InputError):
        make_weight("bad", 1, "1/2", "1/2", "x - 2")  # not positive
    with pytest.raises(InputError):
        make_weight("bad", 1, "1/2", "1/2", "1", atoms=[("2", "1/10")])


def test_stieltjes_arcsine(quad400):
    rc = stieltjes_recurrence(quad400["A"], 10)
    assert rc.a[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert np.abs(rc.a[1:] - 0.5).max() < 1e-12
    assert np.abs(rc.b).max() < 1e-12


def test_stieltjes_semicircle_weight():
    m = discretize_weight(bundled("semicircle_weight"), 1000, digits=15)
    rc = stieltjes_recurrence(m, 12)
    assert np.abs(rc.a - 0.5).max() < 1e-12
    assert np.abs(rc.b).max() < 1e-13  # symmetric weight: diagonal vanishes


def test_stieltjes_b0_is_mean():
    m = discretize_weight(bundled("weight_d"), 1000, digits=15)
    rc = stieltjes_recurrence(m, 5)
    assert rc.b[0] == pytest.approx(0.25, abs=1e-12)


def test_stieltjes_preconditions(quad400):
    with pytest.raises(ValueError):
        stieltjes_recurrence(quad400["A"], 400)  # n > nodes/2


def test_chain_recovery_known_families(quad400):
    rc = stieltjes_recurrence(quad400["A"], 10)
    rec = chain_from_recurrence(rc)
    assert rec.ok
    assert float(rec.chain.p.at(0)) == pytest.approx(1.0, abs=1e-12)
    for j in range(1, 9):
        assert float(rec.chain.p.at(j)) == pytest.approx(0.5, abs=1e-11)
        assert float(rec.chain.q.at(j)) == pytest.approx(0.5, abs=1e-11)
    m = discretize_weight(bundled("semicircle_weight"), 1000, digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(m, 10))
    assert rec.ok
    for j in range(9):
        want = (j + 2) / (2 * (j + 1))
        assert float(rec.chain.p.at(j)) == pytest.approx(want, abs=1e-11)
    # symmetric weight recovers a periodic chain exactly (diagonal snapped)
    assert all(rec.chain.r.at(j) == 0 for j in range(10))


def test_recovery_failure_negative_mean():
    coeffs = RecurrenceCoefficients(a=np.array([0.5]), b=np.array([-0.2, 0.0]))
    rec = chain_from_recurrence(coeffs)
    assert not rec.ok
    assert rec.fail_index == 0
    assert "r_0" in rec.fail_reason
    m = discretize_weight(bundled("negative_mean"), 500, digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(m, 10))
    assert not rec.ok and rec.fail_index == 0


def test_roundtrip_all_core_families(core_chains, quad400):
    for key, chain in core_chains.items():
        rc = stieltjes_recurrence(quad400[key], 30)
        p, q, r, _ = chain.arrays(30)
        a_true = np.sqrt(p[:29] * q[1:30])
        assert np.abs(rc.a[:29] - a_true).max() < 1e-8, key
        assert np.abs(rc.b - r[:30]).max() < 1e-8, key


def test_normalization_invariance():
    # a constant multiple of the smooth factor changes nothing
    base = bundled("weight_e")
    scaled = make_weight("scaled", 1, "1/2", "1/2", "(2 + x) * 5")
    m1 = discretize_weight(base, 800, digits=15)
    m2 = discretize_weight(scaled, 800, digits=15)
    r1 = stieltjes_recurrence(m1, 12)
    r2 = stieltjes_recurrence(m2, 12)
    assert np.abs(r1.a - r2.a).max() < 1e-12
    assert np.abs(r1.b - r2.b).max() < 1e-12


def test_rw_condition_verified_to_depth():
    # weight D's diagonal decays like 1/k^2 and stays resolvable through 200;
    # weight E's decays geometrically below any working precision around
    # k = 12, so positivity is only checked on the resolvable range there
    md = discretize_weight(bundled("weight_d"), grid_size_for_depth(220), digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(md, 220))
    assert rec.ok
    assert all(rec.chain.r.at(j) > 0 for j in range(200))
    me = discretize_weight(bundled("weight_e"), grid_size_for_depth(220), digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(me, 220))
    assert rec.ok and rec.depth == 220
    assert all(rec.chain.r.at(j) > 0 for j in range(10))
    assert all(rec.chain.r.at(j) >= 0 for j in range(200))


@pytest.fixture(scope="module")
def measure_d600():
    return discretize_weight(bundled("weight_d"), grid_size_for_depth(600), digits=15)


def test_verified_plain_stieltjes_matches_reorthogonalized(measure_d600):
    # on a grid that resolves the depth, the plain recursion passes its
    # orthogonality check and agrees with full reorthogonalization
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalRouteWarning)
        plain = stieltjes_recurrence(measure_d600, 600)
    full = recover._stieltjes_f64(measure_d600, 600, True)[0]
    assert np.abs(plain.a - full.a).max() <= 1e-14
    assert np.abs(plain.b - full.b).max() <= 1e-14


def test_stieltjes_fallback_is_reorthogonalized_bit_for_bit():
    # 3,360 nodes resolve about 130 coefficients: the plain recursion loses
    # orthogonality, so the default path must return the reorthogonalized
    # coefficients exactly and say so
    m = discretize_weight(bundled("weight_d"), 64, digits=15)
    with pytest.warns(NumericalRouteWarning, match="reorthogonalization"):
        default = stieltjes_recurrence(m, 600)
    full = recover._stieltjes_f64(m, 600, True)[0]
    plain = recover._stieltjes_f64(m, 600, False)[0]
    assert np.array_equal(default.a, full.a)
    assert np.array_equal(default.b, full.b)
    assert np.abs(plain.a - full.a).max() > 1e-3  # the check is not idle here


def test_recovered_coefficients_stay_small_with_exact_row_sums(measure_d600):
    rec = chain_from_recurrence(stieltjes_recurrence(measure_d600, 600))
    assert rec.ok
    p, q, r = rec.chain.p.prefix, rec.chain.q.prefix, rec.chain.r.prefix
    assert len(p) == len(q) == len(r) == 600
    for c in p + q + r:
        assert c.numerator.bit_length() <= 128
        assert c.denominator.bit_length() <= 128
    assert all(p[k] + q[k] + r[k] == 1 for k in range(600))


# the closed-form route against its oracle, the mpmath grid and Stieltjes:
# every bundled weight, and one benchmark member per smooth factor
CLOSED_FORM_CASES = [
    (name, lambda name=name: bundled(name))
    for name in ("weight_d", "weight_e", "weight_power", "weight_half",
                 "semicircle_weight", "negative_mean")
] + [
    (f"member-a{alpha}-b{beta}-s{smooth}",
     lambda alpha=alpha, beta=beta, smooth=smooth: make_weight("member", 1, alpha, beta, smooth))
    for alpha, beta, smooth in (("3/2", "5/2", "1"), ("3/2", "3/2", "2 + x"),
                                ("1/2", "3/2", "3 + x"), ("3/2", "5/2", "4 + x"))
]


@pytest.mark.parametrize("case", [make for _, make in CLOSED_FORM_CASES],
                         ids=[name for name, _ in CLOSED_FORM_CASES])
def test_closed_form_matches_the_grid(case):
    spec = case()
    n = 2000
    # the oracle's grid resolves 200 coefficients beyond the depth: on
    # grid_size_for_depth(2000) itself, the last diagonal coefficient of
    # the alpha = 3/2, beta = 5/2 member is 1.2e-12 off, and finer grids
    # converge to the closed form
    nodes = grid_size_for_depth(n + 200)
    grid = discretize_weight(spec, nodes, digits=15)
    oracle = stieltjes_recurrence(grid, n)
    closed = recover.jacobi_christoffel_recurrence(spec, recover._closed_form_smooth(spec), n)
    assert np.abs(closed.a - oracle.a).max() <= 1e-13
    assert np.abs(closed.b - oracle.b).max() <= 1e-13
    # the float64 panel rule gives the C_n series of the mpmath one; each
    # series is within about 1e-15 of exact sums over its own nodes
    # (test_cn_series_matches_exact_sums), so the gap between them, at most
    # 1.46e-14 (weight_half), comes from the two rules, not the summation
    c64 = cn_series(recover._discretize_f64(spec, nodes), 2 * n - 1)
    cmp_ = cn_series(grid, 2 * n - 1)
    assert np.all(np.abs(c64 - cmp_) <= 1e-13 * np.abs(cmp_))
    # the closed-form normalization against the panel rule at 34 digits
    with mp.workdps(44):
        gap = abs(recover.density_integral(spec, 34) - recover.raw_density_integral(spec, 34))
    assert gap <= 1e-25


def test_density_integral_of_a_weight_with_atoms_is_closed_form(monkeypatch):
    # the atoms lie outside the density's integral, so a polynomial smooth
    # factor takes the closed form with atoms too, not the panel rule
    spec = make_weight("atomic", 1, "1/2", "3/2", "2 + x", atoms=[("1/2", "1/4")])
    panel = recover.raw_density_integral(spec, 34)

    def refuse(*args, **kwargs):
        raise AssertionError("the panel rule ran")

    monkeypatch.setattr(recover, "raw_density_integral", refuse)
    with mp.workdps(44):
        assert abs(recover.density_integral(spec, 34) - panel) <= 1e-25


def test_float_panel_rule_is_gauss_legendre():
    # the float64 panel rule of _discretize_f64 is the Golub-Welsch rule of
    # the Legendre chain that the mpmath rule reads: within 1.6e-14 of the
    # 40-digit weights, where numpy's leggauss is 1.8e-12 off at the ends
    nodes, weights = recover._gauss_legendre_f64()
    exact_nodes, exact_weights = recover._gauss_legendre_mpf(recover.PANEL_ORDER, 40)
    assert len(nodes) == len(exact_nodes) == 60
    with mp.workdps(40):
        for x, w, xe, we in zip(nodes, weights, reversed(exact_nodes), reversed(exact_weights)):
            assert abs(mp.mpf(float(x)) - xe) <= 2.3e-16
            assert abs(mp.mpf(float(w)) - we) <= 1e-13 * we


def _conjugate_pairs(pairs) -> str:
    """A smooth factor that is the product of (x - c)^2 + d^2 over pairs."""
    return " * ".join(f"((x - ({c}))^2 + {d}^2)" for c, d in pairs)


# the float64 closed form against the same two helpers on mpf at 30 digits:
# the 16 benchmark members, weight_half (eta = 1/2), and smooth factors of
# degree 8 and 32 made of conjugate pairs of roots.  Measured worst cases:
# the members and weight_half 2 ulp off the diagonal and 7.2e-17 on it;
# degree 8, 8 ulp and 7.6e-16; degree 32 (depth 300), 11 ulp and 4.3e-15.
ROUNDING_CASES = [
    pytest.param(lambda alpha=alpha, beta=beta, smooth=smooth:
                 make_weight("member", 1, alpha, beta, smooth), 2000, 4, 1.5e-16,
                 id=f"member-a{alpha}-b{beta}-s{smooth}")
    for alpha in (Fraction(1, 2), Fraction(3, 2)) for beta in (alpha, alpha + 1)
    for smooth in ("1", "2 + x", "3 + x", "4 + x")
] + [
    pytest.param(lambda: bundled("weight_half"), 2000, 4, 1.5e-16, id="weight_half"),
    pytest.param(lambda: make_weight("degree-8", 1, "1/2", "3/2", _conjugate_pairs(
        [("-1/2", "1/2"), ("1/2", "1/2"), (0, 1), (1, 1)])), 2000, 16, 1.5e-15, id="degree-8"),
    pytest.param(lambda: make_weight("degree-32", 1, "1/2", "1/2", _conjugate_pairs(
        [(Fraction(2 * j - 15, 16), Fraction(1, 4) + Fraction(j, 32)) for j in range(16)])),
        300, 22, 9e-15, id="degree-32"),
]


@pytest.mark.parametrize("case, n, ulps, diag_tol", ROUNDING_CASES)
def test_float64_closed_form_rounding(case, n, ulps, diag_tol):
    spec = case()
    coeffs = recover._closed_form_smooth(spec)
    got = recover.jacobi_christoffel_recurrence(spec, coeffs, n)
    with mp.workdps(30):
        roots = mp.polyroots([mpf_from_fraction(c) for c in reversed(coeffs)], maxsteps=100,
                             extraprec=2 * mp.mp.prec) if len(coeffs) > 1 else []
        a, b = recover._jacobi_coefficients(spec, n + 1 + len(roots), mpf_from_fraction)
        for z in roots:
            a, b = recover._christoffel_step(a, b, z)
        off = np.array([float(mp.sqrt(mp.re(v))) for v in b[1:n + 1]])
        diag = np.array([float(mp.re(v)) for v in a[:n]])
    assert np.all(np.abs(got.a - off) <= ulps * np.spacing(off))
    assert np.abs(got.b - diag).max() <= diag_tol
