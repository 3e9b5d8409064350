"""Chain validation, potential coefficients and the divergence verdicts."""

import glob
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    CONFIGS,
    TEST_ONLY_CHAINS,
    bundled,
    chain_geometric_transient,
    chain_negative_tail,
    chain_polyhold,
    chain_r4_transient,
    chain_transient_killing,
)
from rwlab.chains import (
    ChainSpec,
    CoeffRule,
    _series_float,
    asymptotic_aperiodicity_sum,
    classify_series,
    is_periodic,
    killing_sum,
    potential_coefficients,
    rj_over_pj_sum,
    rule,
    series_L,
)
from rwlab.errors import ChainHasKillingError, MalformedChainError
from rwlab.measures import quadrature_from_chain
from rwlab.polynomials import support_edges


def test_validation_errors():
    bad = ChainSpec("bad-q0", p=rule(["1/2"], "1/2"), q=rule(["1/4"], "1/2"),
                    r=rule([], "0"))
    with pytest.raises(MalformedChainError):
        bad.validate()
    bad = ChainSpec("bad-sum", p=rule(["1"], "1/2"), q=rule(["0"], "1/3"),
                    r=rule([], "0"))
    with pytest.raises(MalformedChainError):
        bad.validate()


def test_all_families_validate():
    # every bundled config: chains through ChainSpec.validate, weights
    # through weight_from_sections (bundled parses them); and the test-only
    # chains
    kinds = set()
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.cfg"))):
        spec = bundled(os.path.basename(path)[:-4])
        if isinstance(spec, ChainSpec):
            spec.validate()
        kinds.add(type(spec).__name__)
    assert kinds == {"ChainSpec", "WeightSpec"}
    for make in TEST_ONLY_CHAINS.values():
        make().validate()


def test_potential_coefficients(chain_a, chain_b):
    # pi_1 = p_0/q_1 by hand, then constant
    assert [v.value for v in potential_coefficients(chain_a, 3)] == [1, 2, 2, 2]
    assert [v.value for v in potential_coefficients(chain_b, 2)] == [1, 2, 2]
    assert potential_coefficients(chain_a, 0)[0].value == 1.0


def test_pi_ratio_identity(chain_s):
    pis = potential_coefficients(chain_s, 200)
    for j in range(200):
        p, q = chain_s.p.at(j), chain_s.q.at(j + 1)
        expected = math.log(float(p)) - math.log(float(q))
        assert abs((pis[j + 1].log - pis[j].log) - expected) < 1e-13


def test_series_L(chain_a, chain_b):
    v = series_L(chain_a, 5)
    assert np.allclose(v.partial_sums, [1, 2, 3, 4, 5, 6])
    assert v.verdict == "diverges"
    assert series_L(chain_b, 2000).verdict == "diverges"
    assert series_L(chain_geometric_transient(), 500).verdict == "converges"


def test_aperiodicity_sum(chain_a, chain_b):
    v = asymptotic_aperiodicity_sum(chain_a, 500)
    assert v.verdict == "converges"
    assert np.all(v.partial_sums == 0)
    assert asymptotic_aperiodicity_sum(chain_b, 2000).verdict == "diverges"
    # exponentially vanishing hold on a transient drift: double sum converges
    assert asymptotic_aperiodicity_sum(chain_r4_transient(), 2000).verdict == "converges"
    with pytest.raises(ChainHasKillingError):
        asymptotic_aperiodicity_sum(bundled("chain_k"), 100)


def test_rj_over_pj(chain_a, chain_b):
    assert rj_over_pj_sum(chain_b, 1000).verdict == "diverges"
    assert rj_over_pj_sum(chain_a, 1000).verdict == "converges"
    assert rj_over_pj_sum(chain_polyhold(), 4000).verdict == "converges"


def test_rj_dominated_by_double_sum(chain_b):
    n = 500
    double = asymptotic_aperiodicity_sum(chain_b, n).partial_sums
    single = rj_over_pj_sum(chain_b, n).partial_sums
    assert np.all(double >= single - 1e-12)


def test_rj_sum_only_sufficient():
    # recurrent chain with summable holds: the single sum converges while
    # the double sum still diverges (the converse implication fails)
    chain = chain_polyhold()
    assert rj_over_pj_sum(chain, 4000).verdict == "converges"
    assert asymptotic_aperiodicity_sum(chain, 4000).verdict == "diverges"


def test_killing_sum(chain_a):
    assert killing_sum(chain_a, 500).verdict == "converges"
    assert killing_sum(bundled("constant_killing"), 1500).verdict == "diverges"
    assert killing_sum(chain_transient_killing(), 1500).verdict == "converges"
    assert killing_sum(bundled("chain_k"), 3000).verdict == "diverges"


@pytest.mark.parametrize("series, family, n, verdict, detail", [
    (series_L, "chain_c", 4000, "converges",
     "aitken stable at 1.75 over indices [40, 400, 4000]"),
    (series_L, "chain_b", 2000, "diverges",
     "summand ~ j^-0.000 >= 1/j over j in [200,2000]"),
    (killing_sum, "chain_transient_killing", 4000, "converges",
     "aitken stable at 0.666667 over indices [40, 400, 4000]"),
    (killing_sum, "constant_killing", 4000, "diverges",
     "summand ~ j^1.000 >= 1/j over j in [400,4000]"),
    (killing_sum, "chain_k", 3000, "diverges",
     "summand ~ j^-0.000 >= 1/j over j in [300,3000]"),
    (asymptotic_aperiodicity_sum, "chain_r4_transient", 2000, "converges",
     "aitken stable at 2.10549 over indices [20, 200, 2000]"),
    (asymptotic_aperiodicity_sum, "chain_polyhold", 4000, "diverges",
     "summand ~ j^0.000 >= 1/j over j in [400,4000]"),
    (rj_over_pj_sum, "chain_polyhold", 4000, "converges",
     "summand ~ j^-2.000, extrapolated tail 0.0005"),
])
def test_series_verdicts_pinned(series, family, n, verdict, detail):
    # the exact strings chain-info and conjecture print; the float64
    # log-space summands must reproduce them at any working precision
    chain = bundled(family)
    v = series(chain, n)
    assert (v.verdict, v.tail_analysis) == (verdict, detail)


@pytest.mark.parametrize("p, q, r, aperiodicity", [
    ("3/10", "7/10", "0", "converges"),
    ("1/5", "1/2", "3/10", "diverges"),
])
def test_overflowing_series_stay_quiet(p, q, r, aperiodicity):
    # recurrent chains drifting to 0: 1/(p_j pi_j) overflows float64 and the
    # partial sums reach inf, which reads as divergence without a warning
    chain = ChainSpec("drift", p=rule([1], p), q=rule([0], q), r=rule([0], r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recurrence = series_L(chain, 4000)
        aperiodic = asymptotic_aperiodicity_sum(chain, 4000)
    assert recurrence.verdict == "diverges"
    assert recurrence.tail_analysis == "partial sums exceed bound 1e+08"
    assert aperiodic.verdict == aperiodicity


def test_is_periodic(chain_a, chain_b):
    assert is_periodic(chain_a)
    assert not is_periodic(chain_b)
    one_hold = ChainSpec(
        "one-hold", p=rule(["1", "0.4"], "1/2"), q=rule(["0", "1/2"], "1/2"),
        r=rule(["0", "0.1"], "0"),
    )
    assert not is_periodic(one_hold)


def test_classifier_geometric():
    terms = 2.0 ** -np.arange(60)
    v = classify_series(np.cumsum(terms), terms)
    assert v.verdict == "converges"
    assert abs(v.bound - 2.0) < 1e-6


def test_deep_sum_to_one():
    # tail rules keep the one-step probabilities normalized far out
    closed_form = ("chain_a", "chain_b", "chain_c", "chain_s", "chain_k", "constant_killing")
    for chain in [bundled(name) for name in closed_form] + [
            make() for make in TEST_ONLY_CHAINS.values()]:
        idx = np.unique(np.geomspace(1, 10**5, 40).astype(int))
        p, q, r, k = (
            chain.p.array(idx[-1]), chain.q.array(idx[-1]),
            chain.r.array(idx[-1]), chain.kappa.array(idx[-1]),
        )
        total = p[idx] + q[idx] + r[idx] + k[idx]
        assert np.abs(total - 1).max() < 1e-14, chain.label


@st.composite
def random_chains(draw):
    """Small honest chains: exact rational prefix + constant rational tail."""
    denom = draw(st.integers(min_value=4, max_value=12))
    prefix_len = draw(st.integers(min_value=1, max_value=4))
    p, q, r = [], [], []
    for j in range(prefix_len):
        pj = draw(st.integers(min_value=1, max_value=denom - 2))
        qj = 0 if j == 0 else draw(st.integers(min_value=1, max_value=denom - pj - 1))
        rj = denom - pj - qj
        p.append(Fraction(pj, denom))
        q.append(Fraction(qj, denom))
        r.append(Fraction(rj, denom))
    pt = draw(st.integers(min_value=1, max_value=denom - 2))
    qt = draw(st.integers(min_value=1, max_value=denom - pt - 1))
    rt = denom - pt - qt
    return ChainSpec(
        "random",
        p=rule([str(v) for v in p], f"{pt}/{denom}"),
        q=rule([str(v) for v in q], f"{qt}/{denom}"),
        r=rule([str(v) for v in r], f"{rt}/{denom}"),
    )


@given(random_chains())
def test_random_chain_invariants(chain):
    chain.validate()
    pis = potential_coefficients(chain, 40)
    assert pis[0].value == 1.0
    for j in range(40):
        expected = math.log(float(chain.p.at(j) / chain.q.at(j + 1)))
        assert abs((pis[j + 1].log - pis[j].log) - expected) < 1e-13
    if is_periodic(chain):
        assert np.all(asymptotic_aperiodicity_sum(chain, 64).partial_sums == 0)


@given(random_chains())
def test_random_chain_kernel_identity(chain):
    from rwlab.polynomials import cd_identity_residual

    assert cd_identity_residual(chain, 12, 0.25, -0.6) < 1e-12


def test_no_hot_path_hashes_a_chain(monkeypatch):
    # mpf coefficients and ln pi are memoized on the chain itself, so no
    # cache keyed by a hashed ChainSpec sits on any of these paths
    from rwlab.asymptotics import conjecture_report
    from rwlab.measures import quadrature_from_chain, srlp_predicted_limit
    from rwlab.normalization import normalize
    from rwlab.polynomials import (
        absorption_probabilities,
        christoffel_ratio_sequence,
        support_edges,
    )

    def refuse(self):
        raise AssertionError(f"{self.label} was hashed")

    monkeypatch.setattr(ChainSpec, "__hash__", refuse)
    chain = bundled("chain_b")
    conjecture_report(chain=chain, N=60, n_max=100, truncation=200,
                      sum_horizon=200)
    conjecture_report(weight=bundled("weight_e"), N=60, n_max=60, truncation=200,
                      sum_horizon=200)
    support_edges(chain, 60)
    quadrature_from_chain(chain, 20, digits=34)
    normalize(chain, 1.0, 50)
    srlp_predicted_limit(chain, 0, 1, 0, 0, 1.0, horizon=50)
    christoffel_ratio_sequence(chain, 100, 1.0)
    absorption_probabilities(bundled("chain_k"), 4, 200)


def test_fifteen_digit_passes_stay_off_mpmath(monkeypatch):
    # at <= 16 digits the polynomial passes read float64 coefficients and
    # ln pi, so neither mpf source is touched on these paths
    import sys

    from rwlab import chains as chains_module
    from rwlab.asymptotics import conjecture_report
    from rwlab.measures import srlp_predicted_limit, transition_probability
    from rwlab.polynomials import absorption_probabilities

    def refuse(*args):
        raise AssertionError("an mpf coefficient pass ran at 15 digits")

    monkeypatch.setattr(ChainSpec, "mpf_coefficients", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("rwlab") and getattr(module, "log_pi_mpf", None) is chains_module.log_pi_mpf:
            monkeypatch.setattr(module, "log_pi_mpf", refuse)
    for chain in (bundled("chain_b"), bundled("chain_k"), bundled("chain_recovered")):
        conjecture_report(chain=chain, N=60, n_max=200, truncation=400,
                          sum_horizon=400)
    absorption_probabilities(bundled("chain_k"), 6, 2000, digits=15)
    srlp_predicted_limit(bundled("chain_b"), 1, 2, 0, 1, 1.0, horizon=50)
    transition_probability(bundled("chain_b"), 0, 1, 4)
    potential_coefficients(bundled("chain_c"), 64)


def test_float_columns_come_from_one_table(monkeypatch):
    # the float64 columns are converted once, when a request first runs
    # past the table, and are read-only slices of it afterwards
    chain = bundled("chain_b")
    first = chain.arrays(300)
    calls = []
    build = CoeffRule.array
    monkeypatch.setattr(CoeffRule, "array", lambda self, n: calls.append(n) or build(self, n))
    for n in (300, 120, 0):
        for col, again in zip(first, chain.arrays(n)):
            assert np.array_equal(again, col[: n + 1])
    p, q, *_ = _series_float(chain, 200)
    assert calls == []
    assert not any(col.flags.writeable for col in (*first, p, q))
    # growing rebuilds to exactly the new length, with the same prefix
    grown = chain.arrays(400)
    assert calls == [400] * 4
    for col, longer in zip(first, grown):
        assert np.array_equal(longer[:301], col)


@pytest.mark.parametrize("solve", [
    pytest.param(lambda chain: support_edges(chain, 2000), id="edges"),
    pytest.param(lambda chain: quadrature_from_chain(chain, 2000, 15), id="quadrature-15"),
    pytest.param(lambda chain: quadrature_from_chain(chain, 2000, 34), id="quadrature-34"),
])
def test_a_row_past_the_validated_prefix_is_named(solve):
    # q_955 < 0 lies past the rows validate checks: the float64 table names
    # it before any logarithm of it runs
    chain = chain_negative_tail()
    chain.validate()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedChainError, match=r"^neg-tail: q_955 = -\d+/\d+ not > 0$"):
            solve(chain)
