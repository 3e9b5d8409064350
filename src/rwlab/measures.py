"""Discrete approximations of the orthogonality measure and everything
computed through it: moments, the positive/negative tail ratio C_n, the
power-weighted functional L_n, n-step transition probabilities by spectral
formula, matrix powers and Monte Carlo, and predicted strong-ratio limits
(from the float64 ln pi_j and ln|Q_k|, at every precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .chains import DEFAULT_DIGITS, ChainSpec, is_periodic
from .errors import (
    ChainHasKillingError,
    DivisionSentinelError,
    InputError,
    ZeroDenominatorError,
)
from .numeric import NEG_INF
from .polynomials import _q_pi_f64
from .tridiagonal import (
    FLOAT_DIGITS,
    _three_term,
    golub_welsch_f64,
    golub_welsch_mpf,
    jacobi_arrays_f64,
)

ZERO_NODE_TOL = 1e-15
_TINY = 2.0**-500


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Quadrature nodes/weights approximating a unit-mass measure.

    nodes are nondecreasing float64; mp_nodes/mp_weights carry the
    full-precision values when the measure was built at high precision.
    """

    nodes: np.ndarray
    weights: np.ndarray
    total_mass: float
    mp_nodes: tuple | None = None
    mp_weights: tuple | None = None

    def __len__(self) -> int:
        return len(self.nodes)


def _measure_from_arrays(nodes, weights) -> DiscreteMeasure:
    """The measure of nodes and weights (float64 arrays, or mpf sequences),
    in node order: of the mpf nodes when there are any, which keeps mpf
    nodes that are equal in float64 in their mpf order, and a stable sort
    of the float64 nodes otherwise."""
    if isinstance(nodes, np.ndarray):
        order = np.argsort(nodes, kind="stable")
        nodes64, weights64 = nodes[order], weights[order]
        mp_nodes = mp_weights = None
    else:
        order = sorted(range(len(nodes)), key=nodes.__getitem__)
        mp_nodes = tuple(nodes[k] for k in order)
        mp_weights = tuple(weights[k] for k in order)
        nodes64 = np.array([float(x) for x in mp_nodes])
        weights64 = np.array([float(w) for w in mp_weights])
    return DiscreteMeasure(
        nodes=nodes64,
        weights=weights64,
        total_mass=float(weights64.sum()),
        mp_nodes=mp_nodes,
        mp_weights=mp_weights,
    )


def quadrature_from_chain(chain: ChainSpec, N: int, digits: int = DEFAULT_DIGITS) -> DiscreteMeasure:
    """N-point Gauss rule of the chain's measure: eigenvalues of the N x N
    symmetrized Jacobi truncation and squared first eigenvector components.
    Exact for the first 2N-1 moments up to arithmetic error.  A prefix-only
    chain with fewer than N rows is an InputError."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if N > chain.depth:
        raise InputError(f"{chain.label}: the {N}-point quadrature needs {N} rows of the "
                         f"Jacobi matrix, but the chain has depth {chain.depth}")
    if chain.has_killing():
        raise ChainHasKillingError(
            f"{chain.label}: quadrature is defined for honest chains"
        )
    if digits <= FLOAT_DIGITS:
        d, e = jacobi_arrays_f64(chain, N)
        nodes, weights = golub_welsch_f64(d, e)
    else:
        nodes, weights = golub_welsch_mpf(chain, N, digits)
    return _measure_from_arrays(nodes, weights)


def moment(measure: DiscreteMeasure, n: int, digits: int = DEFAULT_DIGITS) -> float:
    """n-th moment with compensated summation."""
    if measure.mp_nodes is not None and digits > FLOAT_DIGITS:
        with mp.workdps(digits):
            return float(
                mp.fsum(w * x**n for x, w in zip(measure.mp_nodes, measure.mp_weights))
            )
    return float(math.fsum(measure.weights * measure.nodes**n))


@dataclass(frozen=True)
class CnValue:
    """C_n = (negative-part n-th absolute moment) / (positive-part n-th
    moment), with both parts kept in log10."""

    n: int
    value: float
    log10_negative: float
    log10_positive: float


def _cn_parts(measure: DiscreteMeasure, n_max: int):
    """(C_n, sums, shifts, scale) for n = 0..n_max: the sum of w |x|^n over
    the negative (h = 0) and the positive (h = 1) nodes, those within
    ZERO_NODE_TOL of 0 left out, is sums[h, n] scale^n 2^-shifts[h, n].
    Running products w (|x| / scale)^n, scale the largest |x|, never
    overflow; a half whose sum falls below _TINY is rescaled by an exact
    power of two under its own shift, so neither sum underflows and only
    C_n can overflow (to inf).  ndarray.sum only, no BLAS call.
    ZeroDenominatorError when no node is positive."""
    x = measure.nodes
    neg, pos = x < -ZERO_NODE_TOL, x > ZERO_NODE_TOL
    if not np.any(pos):
        raise ZeroDenominatorError("measure has no positive nodes")
    k = int(np.count_nonzero(neg))
    a = np.abs(np.concatenate([x[neg], x[pos]]))
    scale = float(a.max())
    a /= scale
    t = np.concatenate([measure.weights[neg], measure.weights[pos]])
    halves = (t[:k], t[k:])
    sums = np.empty((2, n_max + 1))
    shifts = np.zeros((2, n_max + 1), dtype=np.int64)
    shift = [0, 0]
    for n in range(n_max + 1):
        if n:
            t *= a
        for h, part in enumerate(halves):
            s = part.sum()
            if 0 < s < _TINY:
                s, e = math.frexp(s)
                np.ldexp(part, -e, out=part)
                shift[h] -= e
            sums[h, n] = s
            shifts[h, n] = shift[h]
    with np.errstate(over="ignore"):
        return np.ldexp(sums[0] / sums[1], shifts[1] - shifts[0]), sums, shifts, scale


def compute_Cn(measure: DiscreteMeasure, n: int) -> CnValue:
    """Tail-moment ratio over the discrete measure, nodes at 0 excluded; the
    log10 parts stay finite where the value overflows or underflows."""
    cn, sums, shifts, scale = _cn_parts(measure, n)
    s, e = sums[:, n], shifts[:, n]
    logs = [math.log10(s[h]) + n * math.log10(scale) - int(e[h]) * math.log10(2)
            if s[h] else NEG_INF for h in (0, 1)]
    return CnValue(n, float(cn[n]), *logs)


def cn_series(measure: DiscreteMeasure, n_max: int) -> np.ndarray:
    """C_n for n = 0..n_max: n_max + 1 multiplies and sums over the nodes,
    memory O(nodes) (_cn_parts)."""
    return _cn_parts(measure, n_max)[0]


def L_functional(
    measure: DiscreteMeasure,
    chain: ChainSpec,
    q_coefficients,
    n: int,
) -> float:
    """L_n(f) = int x^n f dpsi / int x^n dpsi for f = sum_m c_m Q_m.

    Raises ZeroDenominatorError when the denominator is numerically zero
    (periodic chain at odd n)."""
    coeffs = list(q_coefficients)
    deg = len(coeffs) - 1
    x = measure.nodes
    w = measure.weights
    qtab = _q_table_f64(chain, deg, x)
    f = np.zeros_like(x)
    for m, c in enumerate(coeffs):
        if c != 0:
            f += float(c) * qtab[m]
    scale = np.max(np.abs(x))
    t = w * (x / scale) ** n
    den = math.fsum(t)
    num = math.fsum(t * f)
    floor = 64 * len(x) * np.finfo(float).eps * math.fsum(np.abs(t))
    if abs(den) <= floor:
        raise ZeroDenominatorError(
            f"int x^{n} dpsi vanishes numerically (periodic measure, odd power)"
        )
    return num / den


def _q_table_f64(chain: ChainSpec, deg: int, nodes) -> np.ndarray:
    """Q_0..Q_deg at the given nodes, float64 (bounded on the support)."""
    x = np.asarray(nodes)
    p, q, r, _ = chain.arrays(max(deg, 1))
    return np.array([np.ones_like(x), *_three_term(x, p, q, r, deg)])


# --- transition probabilities ---------------------------------------------------


@dataclass(frozen=True)
class TransitionQuery:
    """P_ij(n) by the spectral formula and by matrix powers."""

    i: int
    j: int
    n: int
    value_spectral: float
    value_matrix: float


def matrix_transition_vector(chain: ChainSpec, i: int, n: int, dim: int | None = None) -> np.ndarray:
    """Distribution row e_i P^n, truncated at a dimension that is exact
    because mass moves at most one state per step."""
    if dim is None:
        dim = i + n + 2
    dim = int(min(dim, chain.depth))
    p, q, r, _ = chain.arrays(dim - 1)
    v = np.zeros(dim)
    v[i] = 1.0
    for _ in range(n):
        v = _step(v, p, q, r)
    return v


def _step(v: np.ndarray, p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """v P for a distribution row v on the states 0..len(v)-1 (len(p) = len(v))."""
    nxt = r * v
    nxt[1:] += p[:-1] * v[:-1]
    nxt[:-1] += q[1:] * v[1:]
    return nxt


def spectral_transition(
    chain: ChainSpec, measure: DiscreteMeasure, i: int, j: int, n: int
) -> float:
    """pi_j int x^n Q_i Q_j dpsi over the discrete measure, with pi_j from
    the chain's float64 ln pi column."""
    qtab = _q_table_f64(chain, max(i, j, 1), measure.nodes)
    pi_j = math.exp(chain._float_columns(j)[4][j])
    return pi_j * float(math.fsum(measure.weights * measure.nodes**n * qtab[i] * qtab[j]))


def transition_probability(
    chain: ChainSpec,
    i: int,
    j: int,
    n: int,
    N: int | None = None,
    measure: DiscreteMeasure | None = None,
) -> TransitionQuery:
    """Cross-checked n-step transition probability.

    The quadrature size defaults to the smallest N integrating the
    degree-(n+i+j) integrand exactly; the quadrature is float64.  A
    prefix-only chain with fewer than N rows is an InputError."""
    if measure is None:
        if N is None:
            N = n // 2 + max(i, j) + 2
        if N > chain.depth:
            raise InputError(
                f"{chain.label}: the spectral P_{i},{j}(n) at step n = {n} needs "
                f"{N} rows of the Jacobi matrix, but the chain has depth {chain.depth}"
            )
        measure = quadrature_from_chain(chain, N, FLOAT_DIGITS)
    spect = spectral_transition(chain, measure, i, j, n)
    v = matrix_transition_vector(chain, i, n)
    matrix = float(v[j]) if j < len(v) else 0.0
    return TransitionQuery(i, j, n, spect, matrix)


def _mc_thresholds(chain: ChainSpec, size: int) -> tuple:
    """Cumulative step thresholds q, q+r, q+r+p over the states 0..size-1.
    The last is None when every q+r+p is >= 1: no uniform in [0, 1) kills."""
    p, q, r, _ = chain.arrays(size - 1)
    thr_qr = q + r
    thr_qrp = thr_qr + p
    return q, thr_qr, None if np.all(thr_qrp >= 1.0) else thr_qrp


def _mc_step(u: np.ndarray, state: np.ndarray, thresholds) -> np.ndarray | None:
    """Move the walkers in `state` (in place) by the uniforms u; returns the
    kill mask, or None when the thresholds cannot kill.  p, r >= 0 make the
    float thresholds nondecreasing, so u < q is down, q <= u < q+r hold,
    q+r <= u < q+r+p up and u >= q+r+p killed (the move of a killed walker
    is meaningless)."""
    thr_q, thr_qr, thr_qrp = thresholds
    killed = None if thr_qrp is None else u >= thr_qrp[state]
    up = u >= thr_qr[state]
    state += u >= thr_q[state]
    state += up
    state -= 1
    return killed


def _binomial_estimate(count: int, samples: int) -> tuple[float, float]:
    """Fraction count/samples with its binomial standard error, floored at
    the one-event resolution 1/samples."""
    est = count / samples
    return est, math.sqrt(max(est * (1.0 - est), 1.0 / samples) / samples)


# an appended state that holds on every uniform and never kills; killed
# walkers park there at index -1, which no target state j >= 0 equals
_SINK_THRESHOLDS = (0.0, 1.0, 1.0)

# walkers stepped together in a transition walk: their states and uniforms
# stay in cache, and the walk's memory does not grow with `samples`
_BLOCK = 2**15


def _walk_thresholds(chain: ChainSpec, start: int, steps: int, name: str) -> tuple:
    """_mc_thresholds over the states 0..start+steps-1, the ones a walk of
    `steps` steps from `start` can step from; InputError when the chain is
    shorter than that."""
    if start + steps > chain.depth:
        raise InputError(
            f"{chain.label}: a walk from state {start} with {name} = {steps} "
            f"needs the states 0..{start + steps - 1}, but the chain has depth "
            f"{chain.depth}"
        )
    return _mc_thresholds(chain, start + steps)


def _transition_walk(
    chain: ChainSpec, i: int, js, n_max: int, samples: int, seed: int
) -> np.ndarray:
    """counts[n, m]: walkers alive at js[m] after n = 0..n_max steps of one
    walk of `samples` trajectories from i.  Walker w takes uniform
    (n - 1) samples + w of the Philox stream on `seed` at step n, parked or
    not; blocks of _BLOCK walkers run all n_max steps in turn, each block
    step opening the stream at its first uniform (Philox yields four
    uniforms per counter)."""
    if samples < 10**3:
        raise ValueError("need at least 1e3 samples")
    thresholds = _walk_thresholds(chain, i, n_max, "steps")
    if thresholds[2] is not None:
        thresholds = tuple(np.append(t, h) for t, h in zip(thresholds, _SINK_THRESHOLDS))
    counts = np.zeros((n_max + 1, len(js)), dtype=np.int64)
    counts[0] = [samples if j == i else 0 for j in js]
    for lo in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - lo)
        state = np.full(size, i, dtype=np.int64)
        for n in range(1, n_max + 1):
            m = (n - 1) * samples + lo
            rng = np.random.Generator(np.random.Philox(key=seed, counter=m // 4))
            killed = _mc_step(rng.random(m % 4 + size)[m % 4:], state, thresholds)
            if killed is not None:
                state[killed] = -1
            counts[n] += [np.count_nonzero(state == j) for j in js]
    return counts


def monte_carlo_transitions(
    chain: ChainSpec, i: int, js, n_max: int, samples: int, seed: int
) -> dict[tuple[int, int], tuple[float, float]]:
    """Empirical P_ij(n), with its standard error, for every n = 0..n_max
    and j in js, keyed (n, j), from one walk of `samples` trajectories
    (Philox counter-based stream, deterministic for a given seed; killed
    walks park in a sink)."""
    counts = _transition_walk(chain, i, js, n_max, samples, seed)
    return {
        (n, j): _binomial_estimate(int(counts[n, m]), samples)
        for n in range(n_max + 1)
        for m, j in enumerate(js)
    }


def monte_carlo_transition(
    chain: ChainSpec, i: int, j: int, n: int, samples: int, seed: int
) -> tuple[float, float]:
    """Empirical P_ij(n) from `samples` trajectories: the walk of
    `monte_carlo_transitions` to n, counted at j."""
    return monte_carlo_transitions(chain, i, (j,), n, samples, seed)[n, j]


def _absorption_walk(
    chain: ChainSpec, start: int, horizons, samples: int, seed: int
) -> list[int]:
    """Walkers absorbed in the cemetery by each of the nondecreasing
    `horizons`, from one walk of `samples` trajectories from `start`.
    Every step draws the next uniforms of the stream for the live walkers,
    in walker order, and drops the absorbed ones, so the walk holds every
    live walker at once."""
    thresholds = _walk_thresholds(chain, start, horizons[-1], "horizon")
    if thresholds[2] is None:
        return [0] * len(horizons)
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = np.full(samples, start, dtype=np.int64)
    absorbed = step = 0
    tallies = []
    for horizon in horizons:
        while step < horizon and len(state):
            killed = _mc_step(rng.random(len(state)), state, thresholds)
            count = int(np.count_nonzero(killed))
            if count:
                absorbed += count
                state = state[~killed]
            step += 1
        tallies.append(absorbed)
    return tallies


def monte_carlo_absorption(
    chain: ChainSpec, start: int, horizon: int, samples: int, seed: int
) -> tuple[float, float]:
    """Fraction of trajectories absorbed in the cemetery by `horizon` steps
    (a lower estimate of the eventual absorption probability; the censoring
    bias decays with the horizon).  Deterministic for a given seed."""
    return _binomial_estimate(
        _absorption_walk(chain, start, (horizon,), samples, seed)[0], samples
    )


@dataclass(frozen=True)
class EventualAbsorption:
    """Monte Carlo estimate of the eventual absorption probability.

    Censoring at a finite horizon biases the plain absorbed fraction low,
    so the deficit is extrapolated across three geometric horizons of one
    walk: a stalling deficit means genuine survivors (transient escape), a
    deficit shrinking with ratio rho per horizon quadrupling is continued
    geometrically to zero."""

    estimate: float
    std_error: float
    horizons: tuple[int, ...]
    absorbed_fractions: tuple[float, ...]


def _deficit_extrapolation(counts, samples: int) -> tuple[float, float]:
    """Eventual survivor fraction and its standard error from the walkers
    absorbed by three nested horizons T1 < T2 < T3 of one walk.

    The fractions absorbed in (T1, T2] (X) and in (T2, T3] (Y) and the
    survivors at T3 (d3) are cells of one multinomial sample.  The deficit
    has stalled when Y is within 4 of its standard errors of 0; otherwise
    it shrinks by rho = Y / X per horizon and continues geometrically to
    d3 - Y^2 / (X - Y), whose standard error is the delta method over the
    multinomial covariance of (X, Y, d3).  The limit is not clamped at 0:
    a clamp would bias the estimate of a deficit near 0 upwards."""
    d1, d2, d3 = (1.0 - c / samples for c in counts)
    diff12, diff23 = d1 - d2, d2 - d3
    survivors_se = _binomial_estimate(counts[2], samples)[1]
    if diff23 <= 4 * math.sqrt(diff23 * (1.0 - diff23) / samples) or diff12 <= 0:
        # deficit has stalled: the survivors are genuine
        return d3, survivors_se
    rho = diff23 / diff12
    if rho >= 0.95:
        return d3, survivors_se
    stalled = d3 - diff23 * (rho / (1.0 - rho))
    gap = diff12 - diff23
    cells = (diff12, diff23, d3)
    grad = ((diff23 / gap) ** 2, -diff23 * (2 * diff12 - diff23) / gap**2, 1.0)
    mean = sum(g * c for g, c in zip(grad, cells))
    second = sum(g * g * c for g, c in zip(grad, cells))
    return stalled, math.sqrt((second - mean**2) / samples)


def monte_carlo_eventual_absorption(
    chain: ChainSpec, start: int, samples: int, seed: int
) -> EventualAbsorption:
    horizons = (2500, 4 * 2500, 16 * 2500)
    counts = _absorption_walk(chain, start, horizons, samples, seed)
    stalled, se = _deficit_extrapolation(counts, samples)
    return EventualAbsorption(
        1.0 - stalled, se, horizons, tuple(c / samples for c in counts)
    )


@dataclass(frozen=True)
class SrlpComparison:
    """Predicted strong-ratio limit of P_ij(n)/P_kl(n) with the empirical
    matrix-power ratios up to the horizon."""

    predicted: float
    ns: np.ndarray
    ratios: np.ndarray


def srlp_predicted_limit(
    chain: ChainSpec,
    i: int,
    j: int,
    k: int,
    l: int,
    eta,
    horizon: int = 200,
) -> SrlpComparison:
    """pi_j Q_i(eta) Q_j(eta) / (pi_l Q_k(eta) Q_l(eta)) and the companion
    empirical sequence, the prediction from the float64 ln pi and ln|Q| of
    polynomials._q_pi_f64.

    Raises InputError unless horizon >= 1 and i, j, k, l are states a walk
    of `horizon` steps from max(i, k) can reach within the chain's depth,
    and ZeroDenominatorError on a periodic chain (r = 0) when (j - i) -
    (l - k) is odd: P_ij(n) vanishes unless n = j - i (mod 2), so the two
    probabilities are never nonzero at the same n."""
    if horizon < 1:
        raise InputError(f"{chain.label}: srlp needs horizon >= 1, "
                         f"the run has horizon {horizon}")
    dim = int(min(max(i, k) + horizon + 2, chain.depth))
    if min(i, j, k, l) < 0 or max(i, j, k, l) >= dim:
        raise InputError(
            f"{chain.label}: srlp needs i, j, k, l in [0, {dim}), the states "
            f"{horizon} steps from max(i, k) reach within the chain's depth; "
            f"the run has (i, j, k, l) = ({i}, {j}, {k}, {l})"
        )
    if is_periodic(chain) and ((j - i) - (l - k)) % 2:
        raise ZeroDenominatorError(
            f"{chain.label}: periodic chain (r = 0) and (j - i) - (l - k) = "
            f"{(j - i) - (l - k)} is odd, so P_{i},{j}(n) / P_{k},{l}(n) is 0 or "
            "undefined at every n"
        )
    (_, _, _, _, logpi), [(sign, logq)] = _q_pi_f64(chain, max(i, j, k, l, 1), eta)
    if min(sign[i], sign[j], sign[k], sign[l]) <= 0:
        raise DivisionSentinelError(
            f"{chain.label}: Q at eta-hat = {float(eta)} vanished or went "
            "negative; the edge estimate sits below the true edge"
        )
    log_ratio = logpi[j] - logpi[l] + logq[i] + logq[j] - logq[k] - logq[l]
    with np.errstate(over="ignore"):  # a ratio past float64's range reads inf
        predicted = float(np.exp(log_ratio))
    vi = matrix_transition_vector(chain, i, 0, dim)
    vk = matrix_transition_vector(chain, k, 0, dim)
    p, q, r, _ = chain.arrays(dim - 1)
    ns = []
    ratios = []
    for n in range(1, horizon + 1):
        vi = _step(vi, p, q, r)
        vk = _step(vk, p, q, r)
        den = vk[l]
        if den > 0:
            ns.append(n)
            ratios.append(float(vi[j] / den))
    return SrlpComparison(predicted, np.asarray(ns), np.asarray(ratios))
