"""Quadrature construction, moments, tail-moment ratios, the power-weighted
functional, and the three transition-probability routes."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import bundled, chain_transient_killing
from rwlab.chains import ChainSpec, rule
from rwlab.errors import ChainHasKillingError, InputError, ZeroDenominatorError
from rwlab.measures import (
    _BLOCK,
    _SINK_THRESHOLDS,
    DiscreteMeasure,
    _measure_from_arrays,
    L_functional,
    _deficit_extrapolation,
    _mc_step,
    _mc_thresholds,
    cn_series,
    compute_Cn,
    matrix_transition_vector,
    moment,
    monte_carlo_absorption,
    monte_carlo_eventual_absorption,
    monte_carlo_transition,
    monte_carlo_transitions,
    quadrature_from_chain,
    spectral_transition,
    srlp_predicted_limit,
    transition_probability,
)
from rwlab.recover import discretize_weight, recover_chain


def test_two_point_rule(chain_a):
    m = quadrature_from_chain(chain_a, 2, digits=15)
    assert m.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert m.weights == pytest.approx([0.5, 0.5])


def test_mass_and_moments(quad400):
    for key, m in quad400.items():
        assert m.total_mass == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.diff(m.nodes) > 0)
    assert moment(quad400["A"], 1) == pytest.approx(0.0, abs=1e-14)
    assert moment(quad400["A"], 2) == pytest.approx(0.5, rel=1e-12)
    assert moment(quad400["S"], 2) == pytest.approx(0.25, rel=1e-12)


def test_killing_rejected():
    with pytest.raises(ChainHasKillingError):
        quadrature_from_chain(bundled("chain_k"), 16)


def test_node_range(chain_b):
    m = quadrature_from_chain(chain_b, 100, digits=15)
    assert m.nodes.min() > -1e-8
    assert m.nodes.max() < 1 + 1e-8


def test_nodes_inside_edges(quad400, edges2000):
    for key, m in quad400.items():
        e = edges2000[key]
        assert m.nodes.min() >= e.zeta_hat - 1e-4, key
        assert m.nodes.max() <= e.eta_hat + 1e-4, key


def test_high_precision_backend(chain_a):
    m = quadrature_from_chain(chain_a, 24, digits=34)
    assert m.mp_nodes is not None
    with mp.workdps(40):
        m4 = mp.fsum(w * x**4 for x, w in zip(m.mp_nodes, m.mp_weights))
        assert abs(m4 - mp.mpf(3) / 8) < mp.mpf(10) ** -30


def test_mpf_nodes_equal_in_float64_keep_mpf_order():
    # 1 + 2^-60 and 1 are one float64; the rows follow the mpf nodes, not
    # the order they arrived in
    with mp.workdps(30):
        nodes = [1 + mp.ldexp(1, -60), mp.mpf(1), mp.mpf("0.5")]
        weights = [mp.mpf("0.25"), mp.mpf("0.5"), mp.mpf("0.25")]
        m = _measure_from_arrays(nodes, weights)
    assert m.mp_nodes == (nodes[2], nodes[1], nodes[0])
    assert m.mp_weights == (weights[2], weights[1], weights[0])
    assert m.nodes.tolist() == [0.5, 1.0, 1.0]
    assert m.weights.tolist() == [0.25, 0.5, 0.25]


def test_gauss_exactness_vs_matrix_powers(chain_s):
    # quadrature moments equal return probabilities for all n <= 2N-1
    N = 8
    m = quadrature_from_chain(chain_s, N, digits=15)
    for n in range(2 * N):
        v = matrix_transition_vector(chain_s, 0, n)
        assert moment(m, n) == pytest.approx(float(v[0]), abs=1e-10)


def test_cn_examples(quad400):
    assert compute_Cn(quad400["A"], 7).value == pytest.approx(1.0, rel=1e-10)
    series = cn_series(quad400["A"], 799)
    assert np.abs(series - 1).max() < 1e-10
    assert np.all(cn_series(quad400["B"], 799) == 0.0)
    assert compute_Cn(quad400["B"], 5).log10_negative == float("-inf")


def _cn_at_40_digits(m, ns):
    """C_n over the same float64 nodes and weights, summed in 40 digits."""
    with mp.workdps(40):
        halves = [[(mp.mpf(abs(x)), mp.mpf(w)) for x, w in zip(m.nodes, m.weights)
                   if sign * x > 1e-15] for sign in (-1, 1)]
        return np.array([float(mp.fsum(w * x**n for x, w in halves[0])
                               / mp.fsum(w * x**n for x, w in halves[1])) for n in ns])


@pytest.mark.parametrize("case", ["weight_e", "weight_half", "chain_c"])
def test_cn_series_matches_exact_sums(case, quad400):
    # weight_e (eta = 1) and weight_half (eta = 1/2) on their 7,740-node
    # float64 panel rules to n = 3999, chain_c on its 400-node quadrature
    if case == "chain_c":
        m = quad400["C"]
        ns = [0, 1, 2, 17, 250, 500, 798, 799]
    else:
        m = recover_chain(bundled(case), 2000)[0]
        ns = [0, 1, 2, 17, 250, 999, 1500, 2047, 2600, 3100, 3541, 3577, 3999]
    got = cn_series(m, ns[-1])[ns]
    want = _cn_at_40_digits(m, ns)
    assert np.all(want > 0)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_cn_overflow_keeps_finite_parts():
    # C_400 = 9^400 on {-0.9, 0.1} exceeds the float range; its parts do not
    m = DiscreteMeasure(np.array([-0.9, 0.1]), np.array([0.5, 0.5]), 1.0)
    c = compute_Cn(m, 400)
    assert c.value == math.inf
    assert c.log10_negative == pytest.approx(400 * math.log10(0.9) + math.log10(0.5), rel=1e-14)
    assert c.log10_positive == pytest.approx(400 * math.log10(0.1) + math.log10(0.5), rel=1e-14)
    assert cn_series(m, 400)[-1] == math.inf


def test_cn_weight_oracle():
    # independent oracle: adaptive quadrature of the weight-E density
    me = discretize_weight(bundled("weight_e"), 2000, digits=15)
    got = compute_Cn(me, 200).value
    with mp.workdps(40):
        dens = lambda x: mp.sqrt(1 - x * x) * (2 + x)
        num = mp.quad(lambda x: (-x) ** 200 * dens(x), [-1, 0])
        den = mp.quad(lambda x: x**200 * dens(x), [0, 1])
        want = float(num / den)
    assert got == pytest.approx(want, rel=1e-6)
    assert 0 < got < 1
    assert got == pytest.approx(1 / 3, rel=0.2)


def test_L_functional(chain_b, quad400):
    mb = quad400["B"]
    assert L_functional(mb, chain_b, [1], 37) == pytest.approx(1.0, rel=1e-12)
    # mass concentrates at the top point: L_n(Q_1) -> Q_1(1) = 1
    val = L_functional(mb, chain_b, [0, 1], 500)
    assert val == pytest.approx(1.0, abs=5e-3)
    with pytest.raises(ZeroDenominatorError):
        L_functional(quad400["A"], bundled("chain_a"), [1], 7)


def test_transition_one_step(chain_b):
    tq = transition_probability(chain_b, 0, 0, 1, N=16)
    assert tq.value_matrix == pytest.approx(0.5, abs=1e-14)
    assert tq.value_spectral == pytest.approx(0.5, abs=1e-12)


def test_transition_arcsine(chain_a, quad400):
    tq = transition_probability(chain_a, 0, 0, 2, N=400, measure=quad400["A"])
    assert tq.value_spectral == pytest.approx(0.5, abs=1e-12)
    assert tq.value_matrix == pytest.approx(0.5, abs=1e-14)
    # periodic chain: P_01(n) vanishes for even n
    for n in (2, 4, 6):
        tq = transition_probability(chain_a, 0, 1, n, N=50)
        assert abs(tq.value_matrix) == 0.0
        assert abs(tq.value_spectral) < 1e-12


def test_row_sums(core_chains):
    for chain in core_chains.values():
        v = matrix_transition_vector(chain, 3, 100)
        assert math.fsum(v) == pytest.approx(1.0, abs=1e-12)


def test_spectral_vs_matrix_sample(core_chains, quad400):
    for key, chain in core_chains.items():
        m = quad400[key]
        for i, j, n in ((0, 0, 10), (2, 5, 31), (7, 7, 100)):
            spect = spectral_transition(chain, m, i, j, n)
            v = matrix_transition_vector(chain, i, n)
            assert abs(spect - float(v[j])) < 1e-8, (key, i, j, n)


def test_monte_carlo_deterministic(chain_b):
    a = monte_carlo_transition(chain_b, 0, 0, 3, 10**4, seed=99)
    b = monte_carlo_transition(chain_b, 0, 0, 3, 10**4, seed=99)
    assert a == b
    c = monte_carlo_transition(chain_b, 0, 0, 3, 10**4, seed=100)
    assert a != c


def test_monte_carlo_matches_matrix(chain_b):
    est, se = monte_carlo_transition(chain_b, 0, 0, 1, 10**5, seed=42)
    assert abs(est - 0.5) <= 4 * se


def test_monte_carlo_killing():
    # killed trajectories never count as being at j
    chain = bundled("constant_killing")
    est, se = monte_carlo_transition(chain, 0, 0, 2, 10**5, seed=7)
    v = matrix_transition_vector(chain, 0, 2)
    assert abs(est - float(v[0])) <= 4 * se


def test_monte_carlo_streams_pinned():
    # exact values of the seeded streams: the down/hold/up/kill decision of
    # every uniform, the draw pattern and the standard errors must not move
    chain_k = bundled("chain_k")
    assert monte_carlo_transition(chain_k, 0, 0, 8, 10**4, seed=5) == (
        0.0604, 0.0023822644689454613)
    assert monte_carlo_absorption(
        chain_transient_killing(), 0, 300, 10**4, seed=3
    ) == (0.395, 0.0048885069295235735)
    res = monte_carlo_eventual_absorption(chain_k, 0, 10**4, seed=2)
    assert res.estimate == 0.9917979729729731
    assert res.std_error == 0.0021372367121728197
    assert res.absorbed_fractions == (0.9519, 0.9762, 0.9857)


def test_eventual_checkpoints_match_single_horizon_walks():
    # one checkpointed walk draws the stream of each shorter walk as a prefix
    chain_k = bundled("chain_k")
    res = monte_carlo_eventual_absorption(chain_k, 0, 10**4, seed=2)
    for horizon, fraction in zip(res.horizons, res.absorbed_fractions):
        assert monte_carlo_absorption(chain_k, 0, horizon, 10**4, seed=2)[0] == fraction


@pytest.mark.parametrize("name,kills", [("chain_k", True), ("chain_b", False)])
def test_transitions_walk_matches_single_queries(name, kills):
    # chain_k kills at state 0; chain_b takes the no-kill path
    chain = bundled(name)
    assert (_mc_thresholds(chain, 10)[2] is not None) == kills
    js = (0, 1, 2)
    walk = monte_carlo_transitions(chain, 0, js, 6, 10**4, seed=11)
    assert sorted(walk) == [(n, j) for n in range(7) for j in js]
    for (n, j), value in walk.items():
        assert monte_carlo_transition(chain, 0, j, n, 10**4, seed=11) == value


def _step_major_counts(chain, i, js, n_max, samples, seed):
    """The transition walk with every walker stepped together: one
    rng.random(samples) per step on Philox(key=seed), killed walkers parked
    in the sink; the reference for the blocked walk's stream address."""
    thresholds = _mc_thresholds(chain, i + n_max + 2)
    if thresholds[2] is not None:
        thresholds = tuple(np.append(t, h) for t, h in zip(thresholds, _SINK_THRESHOLDS))
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = np.full(samples, i, dtype=np.int64)
    counts = {(0, j): samples if j == i else 0 for j in js}
    for n in range(1, n_max + 1):
        killed = _mc_step(rng.random(samples), state, thresholds)
        if killed is not None:
            state[killed] = -1
        counts.update({(n, j): int(np.count_nonzero(state == j)) for j in js})
    return counts


@pytest.mark.parametrize("samples", [_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("name,kills", [("chain_k", True), ("chain_s", False)])
def test_blocked_walk_draws_the_step_major_stream(name, kills, samples):
    # block edges and step offsets (n - 1) samples + lo that are not a
    # multiple of Philox's four uniforms per counter
    chain = bundled(name)
    assert (_mc_thresholds(chain, 10)[2] is not None) == kills
    js = (0, 1, 2, 3)
    for i in (0, 2):
        walk = monte_carlo_transitions(chain, i, js, 5, samples, seed=23)
        counts = {key: round(est * samples) for key, (est, _) in walk.items()}
        assert counts == _step_major_counts(chain, i, js, 5, samples, 23), i


def test_transition_walk_memory_does_not_grow_with_samples(chain_b):
    # holding all 10^6 walkers at once takes about 25 bytes each, 25 MB
    tracemalloc.start()
    try:
        monte_carlo_transitions(chain_b, 0, (0, 1), 8, 10**6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_walks_past_a_finite_chain_are_input_errors():
    # walkers step from the states up to start + steps - 1
    chain = ChainSpec("three-state", rule(("1/2",) * 3), rule((0, "1/4", "1/4")),
                      rule(("1/2", "1/4", 0)), rule((0, 0, "1/4")))
    assert monte_carlo_absorption(chain, 0, 3, 10**3, seed=1)[0] > 0
    with pytest.raises(InputError, match="state 1 with horizon = 3 needs the states 0..3, "
                                         "but the chain has depth 3"):
        monte_carlo_absorption(chain, 1, 3, 10**3, seed=1)
    with pytest.raises(InputError, match="three-state: a walk from state 0 with steps = 4"):
        monte_carlo_transitions(chain, 0, (0,), 4, 10**3, seed=1)


def test_deficit_extrapolation_se_matches_multinomial_spread():
    # cells (absorbed by T1, in (T1, T2] = X, in (T2, T3] = Y, surviving T3
    # = d3) at chain_k's fractions from criterion 12: the delta-method
    # standard error must match the spread of d3 - Y^2 / (X - Y) over
    # repeated multinomial draws (unclamped, so the spread is that of the
    # smooth function the delta method linearizes)
    fractions = np.array([0.955179, 0.977698, 0.988856])
    cells = np.diff(np.concatenate(([0.0], fractions, [1.0])))
    samples = 10**5
    draws = np.random.default_rng(12).multinomial(samples, cells, size=4000) / samples
    x, y, d3 = draws[:, 1], draws[:, 2], draws[:, 3]
    stalled, se = _deficit_extrapolation(tuple(samples * fractions), samples)
    assert stalled == pytest.approx(cells[3] - cells[2] ** 2 / (cells[1] - cells[2]))
    assert se == pytest.approx(np.std(d3 - y * y / (x - y), ddof=1), rel=0.1)


def test_deficit_extrapolation_keeps_negative_limits():
    # chain_k's exact cells at 10^6 walkers (survival fractions 0.044981,
    # 0.022548 and 0.011281 from matrix powers): the geometric limit of a
    # deficit that is truly 0 comes out slightly below 0 and stays there,
    # so the eventual-absorption estimate can exceed 1 by its noise
    stalled, se = _deficit_extrapolation((955019, 977452, 988719), 10**6)
    assert stalled == pytest.approx(-8.79e-5, rel=1e-3)
    assert abs(stalled) < 4 * se


def test_srlp_predictions(chain_b):
    cmp_ = srlp_predicted_limit(chain_b, 0, 0, 0, 0, 1.0, horizon=32)
    assert cmp_.predicted == 1.0
    cmp_ = srlp_predicted_limit(chain_b, 0, 1, 0, 0, 1.0, horizon=200)
    assert cmp_.predicted == pytest.approx(2.0, rel=1e-12)
    assert cmp_.ratios[-1] == pytest.approx(2.0, rel=0.01)
    cmp_ = srlp_predicted_limit(chain_b, 1, 1, 0, 0, 1.0, horizon=200)
    assert cmp_.predicted == pytest.approx(2.0, rel=1e-12)
    assert cmp_.ratios[-1] == pytest.approx(2.0, rel=0.01)


def test_srlp_periodic_parity(chain_a):
    # r = 0: P_ij(n) vanishes unless n = j - i (mod 2)
    with pytest.raises(ZeroDenominatorError, match="is odd"):
        srlp_predicted_limit(chain_a, 0, 1, 0, 0, 1.0)
    cmp_ = srlp_predicted_limit(chain_a, 0, 0, 0, 0, 1.0, horizon=40)
    assert cmp_.predicted == 1.0
    assert list(cmp_.ns) == list(range(2, 41, 2))
