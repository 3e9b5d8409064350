"""From an analytic edge-weight description to a chain: discretize the
weight, run the Stieltjes/Lanczos inner-product recursion for recurrence
coefficients, and solve for one-step probabilities under p + q + r = 1.
recover_chain runs the three stages for the CLI and the conjecture pipeline.

The weight is discretized at the requested digits; the recursion runs in
float64 at every precision, without reorthogonalization, and is kept only
when a measured loss of orthogonality certifies it; otherwise it is rerun
with full reorthogonalization and a NumericalRouteWarning says so.  The
recovered coefficients are float-rounded (small dyadic Fractions), with
p_k completing each row so that p + q + r = 1 holds exactly.

Recovery failure (a negative diagonal or an infeasible p_k) is a first-class
result carrying the first failing index, so experiments can map where the
random-walk-measure condition breaks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import expressions as ex
from .chains import ChainSpec, CoeffRule, DEFAULT_DIGITS
from .errors import InputError, NumericalRouteWarning, StieltjesBreakdownError
from .measures import DiscreteMeasure, _measure_from_arrays
from .numeric import mpf_from_fraction

PANEL_ORDER = 60


@dataclass(frozen=True)
class WeightSpec:
    """Edge-power weight on (-eta, eta): density proportional to
    (eta - x)^alpha (eta + x)^beta * smooth(x), plus optional atoms.

    alpha/beta >= 0 keep the density integrable and bounded; the smooth
    factor must be positive on the closed interval.  Atom masses are raw
    and are normalized together with the density to total mass one.
    """

    label: str
    eta: Fraction
    alpha: Fraction
    beta: Fraction
    smooth: ex.Expr
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()

    def validate(self) -> None:
        if self.eta <= 0:
            raise InputError(f"{self.label}: eta must be > 0")
        if self.alpha < 0 or self.beta < 0:
            raise InputError(f"{self.label}: alpha and beta must be >= 0")
        grid = [Fraction(k, 16) * self.eta for k in range(-16, 17)]
        for xv in grid:
            if ex.eval_fraction(self.smooth, xv) <= 0:
                raise InputError(
                    f"{self.label}: smooth factor not positive at x={float(xv)}"
                )
        for loc, mass in self.atoms:
            if abs(loc) > self.eta:
                raise InputError(f"{self.label}: atom at {float(loc)} outside support")
            if mass <= 0:
                raise InputError(f"{self.label}: atom mass must be positive")


def make_weight(label, eta, alpha, beta, smooth="1", atoms=()) -> WeightSpec:
    if isinstance(smooth, str):
        smooth = ex.parse(smooth, "x")
    spec = WeightSpec(
        label,
        Fraction(eta),
        Fraction(alpha),
        Fraction(beta),
        smooth,
        tuple((Fraction(a), Fraction(m)) for a, m in atoms),
    )
    spec.validate()
    return spec


def _legendre(order: int, x):
    """P_order(x) and its derivative, from the three-term recurrence."""
    p_prev, p_cur = mp.mpf(1), x
    for m in range(2, order + 1):
        p_prev, p_cur = p_cur, ((2 * m - 1) * x * p_cur - (m - 1) * p_prev) / m
    return p_cur, order * (x * p_cur - p_prev) / (x * x - 1)


@lru_cache(maxsize=8)
def _gauss_legendre_mpf(order: int, dps: int):
    """Gauss-Legendre nodes/weights on [-1, 1] at dps digits (Newton on the
    Legendre recurrence from Chebyshev seeds)."""
    with mp.workdps(dps + 10):
        nodes = []
        weights = []
        for k in range(1, order + 1):
            x = mp.cos(mp.pi * (4 * k - 1) / (4 * order + 2))
            for _ in range(40):
                p_cur, dp = _legendre(order, x)
                dx = p_cur / dp
                x -= dx
                if abs(dx) < mp.mpf(10) ** (-(dps + 6)):
                    break
            _, dp = _legendre(order, x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


EDGE_LEVELS = 26


def _theta_panels(uniform: int, levels: int = EDGE_LEVELS):
    """Panel edges on (0, pi): `uniform` equal panels for bulk resolution,
    with the first and last replaced by geometric stacks toward the edges.

    An order-60 rule per uniform panel of width pi/U resolves orthonormal
    polynomials up to degree about 33*U; the edge stacks resolve the power
    singularities down to width 2^-levels.
    """
    h = mp.pi / uniform
    stack = [h * mp.mpf(2) ** (-k) for k in range(levels, -1, -1)]
    edges = [mp.mpf(0)] + stack  # 0, h/2^levels, ..., h
    edges += [h * k for k in range(2, uniform)]  # uniform bulk
    edges += [mp.pi - e for e in reversed([mp.mpf(0)] + stack[:-1])]
    return list(zip(edges[:-1], edges[1:]))


def grid_size_for_depth(n: int) -> int:
    """Grid size M whose bulk panels resolve recurrence depth n with margin."""
    return 2 * n + PANEL_ORDER * (2 * (EDGE_LEVELS + 1) + 10)


def discretize_weight(spec: WeightSpec, M: int, digits: int = DEFAULT_DIGITS) -> DiscreteMeasure:
    """Composite quadrature for the weight under x = eta*cos(theta), with
    panels geometrically refined toward both edges (order-60 rule per
    panel, about M nodes total); atoms appended as exact nodes.

    Recurrence coefficients extracted from the result are faithful to the
    continuous measure up to depth about 33 * (bulk panel count); use
    grid_size_for_depth when the target depth is known."""
    if M < 64:
        raise ValueError("M must be >= 64")
    spec.validate()
    uniform = max(4, round(M / PANEL_ORDER) - 2 * (EDGE_LEVELS + 1))
    with mp.workdps(digits + 10):
        nodes, weights = map(list, zip(*_density_points(spec, uniform, digits)))
        total = mp.fsum(weights)
        for loc, mass in spec.atoms:
            nodes.append(mpf_from_fraction(loc))
            weights.append(mpf_from_fraction(mass))
            total += mpf_from_fraction(mass)
        weights = [w / total for w in weights]
    return _measure_from_arrays(nodes, weights)


def _density_points(spec: WeightSpec, uniform: int, digits: int):
    """(x, w * rad * density) at every node of the composite rule on
    _theta_panels(uniform), at the caller's working precision: the
    unnormalized density times the Jacobian of x = eta*cos(theta)."""
    gl_x, gl_w = _gauss_legendre_mpf(PANEL_ORDER, digits)
    eta = mpf_from_fraction(spec.eta)
    alpha = mpf_from_fraction(spec.alpha)
    beta = mpf_from_fraction(spec.beta)
    for lo, hi in _theta_panels(uniform):
        mid = (lo + hi) / 2
        rad = (hi - lo) / 2
        for t, w in zip(gl_x, gl_w):
            theta = mid + rad * t
            sh = mp.sin(theta / 2)
            ch = mp.cos(theta / 2)
            x = eta * (ch * ch - sh * sh)
            # eta - x = 2 eta sin^2(theta/2), eta + x = 2 eta cos^2(theta/2)
            dens = (
                mp.power(2 * eta * sh * sh, alpha)
                * mp.power(2 * eta * ch * ch, beta)
                * ex.eval_mpf(spec.smooth, x)
                * eta
                * 2 * sh * ch
            )
            yield x, w * rad * dens


def raw_density_integral(spec: WeightSpec, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """Integral of the unnormalized density (excluding atoms)."""
    with mp.workdps(digits + 10):
        return mp.fsum(w for _, w in _density_points(spec, 8, digits))


# --- Stieltjes / Lanczos ------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Orthonormal three-term recurrence data: a[k-1] = a_k > 0 couples
    degrees k-1 and k, b[k] is the diagonal; round-tripping a chain gives
    a_k = sqrt(p_{k-1} q_k) and b_k = r_k."""

    a: np.ndarray
    b: np.ndarray

    @property
    def length(self) -> int:
        return len(self.b)


def stieltjes_recurrence(measure: DiscreteMeasure, n: int) -> RecurrenceCoefficients:
    """First n recurrence coefficients of the discrete measure by the
    inner-product (Stieltjes/Lanczos) recursion in float64, at every
    working precision of the measure: the coefficients are float64 arrays,
    so a recursion with more digits would round its extra digits away.

    The plain recursion runs first and is verified: the basis V is kept
    and the loss of orthogonality max|V^T V - I| is measured once.  When it
    is at most sqrt(eps) (semi-orthogonality), the plain coefficients are
    accurate to working precision (Simon 1984; Gautschi 2004, sec. 2.2)
    and are returned.  Otherwise (typically a grid too coarse for the
    depth), or when the plain recursion breaks down, the fully
    reorthogonalized recursion is rerun, its result is returned and a
    NumericalRouteWarning reports the fallback.
    """
    if not 1 <= n <= len(measure) // 2:
        raise ValueError(f"n = {n} is outside [1, half the node count {len(measure)}]")
    tol = math.sqrt(np.finfo(float).eps)
    try:
        coeffs, basis = _stieltjes_f64(measure, n, False)
    except StieltjesBreakdownError as exc:
        reason = f"the plain recursion broke down ({exc})"
    else:
        loss = _orthogonality_loss(basis)
        if loss <= tol:
            return coeffs
        reason = f"max|V^T V - I| = {loss:.3g} > sqrt(eps) = {tol:.3g}"
        del basis  # free it before the rerun builds its own
    warnings.warn(NumericalRouteWarning(
        f"Stieltjes recursion to depth {n} on {len(measure)} nodes: {reason}; "
        f"rerun with full reorthogonalization"
    ), stacklevel=2)
    return _stieltjes_f64(measure, n, True)[0]


def _orthogonality_loss(basis: np.ndarray) -> float:
    """max|V^T V - I| over the basis columns, from one BLAS-3 product."""
    gram = basis.T @ basis
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.max(np.abs(gram)))


def _stieltjes_f64(measure, n, reorth) -> tuple[RecurrenceCoefficients, np.ndarray]:
    """The float64 recursion; returns the coefficients and the orthonormal
    basis it built (n + 1 columns)."""
    x = measure.nodes
    v = np.sqrt(measure.weights)
    v = v / np.linalg.norm(v)
    basis = np.empty((len(x), n + 1))
    basis[:, 0] = v
    a = np.empty(n)
    b = np.empty(n)
    v_prev = np.zeros_like(v)
    a_prev = 0.0
    scale = np.max(np.abs(x))
    for k in range(n):
        u = x * v - a_prev * v_prev
        b[k] = v @ u
        u -= b[k] * v
        if reorth:
            u -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ u)
        norm = np.linalg.norm(u)
        if norm <= 1e3 * np.finfo(float).eps * scale:
            raise StieltjesBreakdownError(
                f"norm underflow at coefficient {k + 1}; the measure resolves "
                f"only {k} coefficients"
            )
        a[k] = norm
        v_prev, v = v, u / norm
        a_prev = norm
        basis[:, k + 1] = v
    return RecurrenceCoefficients(a, b), basis


# --- coefficients -> chain ----------------------------------------------------


@dataclass(frozen=True)
class ChainRecovery:
    """Result of solving p_{k-1} q_k = a_k^2, r_k = b_k, p+q+r = 1.

    ok=False carries the first failing index and why; that index is exactly
    the depth at which the random-walk-measure condition is violated.
    """

    ok: bool
    chain: ChainSpec | None
    fail_index: int | None
    fail_reason: str | None
    depth: int


ZERO_TOL = 1e-13


def chain_from_recurrence(
    coeffs: RecurrenceCoefficients, label: str = "recovered"
) -> ChainRecovery:
    """Prefix-only chain from recurrence coefficients.

    The coefficients are stored at the precision they carry: r_k = b_k and
    q_k = fl(a_k^2 / float(p_{k-1})) are float values kept as (dyadic)
    Fractions, and p_k = 1 - r_k - q_k is formed exactly, so every row sums
    to exactly one while numerators and denominators stay near float size
    at any depth (exact division would grow them linearly with k).

    Diagonal entries within ZERO_TOL of 0 are treated as exactly 0 (so
    symmetric measures recover periodic chains); a genuinely negative
    diagonal or an infeasible p_k reports failure at that index.
    """
    n = coeffs.length
    p: list[Fraction] = []
    q: list[Fraction] = [Fraction(0)]
    r: list[Fraction] = []
    for k in range(n):
        bk = float(coeffs.b[k])
        if bk < -ZERO_TOL:
            return ChainRecovery(
                False, None, k, f"r_{k} = {bk:.6g} < 0", k
            )
        rk = Fraction(bk) if bk > ZERO_TOL else Fraction(0)
        if k == 0:
            pk = 1 - rk
        else:
            ak = float(coeffs.a[k - 1])
            qk = Fraction(ak * ak / float(p[k - 1]))
            q.append(qk)
            pk = 1 - rk - qk
        if pk <= ZERO_TOL:
            reason = (
                f"p_{k} = {float(pk):.6g} <= 0; positivity fails at depth {k}"
            )
            return ChainRecovery(False, None, k, reason, k)
        p.append(pk)
        r.append(rk)
    chain = ChainSpec(
        label,
        p=CoeffRule(tuple(p)),
        q=CoeffRule(tuple(q[:n])),
        r=CoeffRule(tuple(r)),
        kappa=CoeffRule(tuple(Fraction(0) for _ in range(n))),
    )
    return ChainRecovery(True, chain, None, None, n)


def recover_chain(
    spec: WeightSpec, depth: int, grid: int, digits: int = DEFAULT_DIGITS
) -> tuple[DiscreteMeasure, RecurrenceCoefficients, ChainRecovery]:
    """The weight's chain to `depth`: the weight discretized at `digits` on
    `grid` nodes, its coefficients from the verified float64 Stieltjes
    recursion, and their recovery.  A depth outside [1, half the node
    count] is an InputError."""
    measure = discretize_weight(spec, grid, digits)
    if not 1 <= depth <= len(measure) // 2:
        raise InputError(f"{spec.label}: depth = {depth} must be in [1, {len(measure) // 2}], "
                         f"half the node count of grid = {grid}")
    coeffs = stieltjes_recurrence(measure, depth)
    return measure, coeffs, chain_from_recurrence(coeffs, label=spec.label + "-chain")
