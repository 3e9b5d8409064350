"""From an analytic edge-weight description to a chain: recurrence
coefficients of the weight, then one-step probabilities under p + q + r = 1.
recover_chain runs the stages for the CLI and the conjecture pipeline, on
one of two routes, which the weight picks in route_measure; `cn` on a
weight reads that function's measure too.

A weight without atoms whose smooth factor is a polynomial takes the closed
form: Jacobi's coefficients with one Christoffel step per root of the
smooth factor, in float64 (jacobi_christoffel_recurrence).  Any other
weight is discretized at FLOAT_DIGITS and goes through the Stieltjes
recursion, which runs in float64, without reorthogonalization, and is kept
only when a measured loss of orthogonality certifies it; otherwise it is
rerun with full reorthogonalization and a NumericalRouteWarning says so.
Both routes size the grid by grid_size_for_depth.  Both panel rules take
their Gauss-Legendre nodes from the Legendre chain, the mpmath one by
golub_welsch_mpf and the float64 one by golub_welsch_f64.  The recovered
coefficients are float-rounded (small dyadic Fractions), with p_k
completing each row so that p + q + r = 1 holds exactly.

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
from .chains import ChainSpec, CoeffRule, DEFAULT_DIGITS, rule
from .errors import InputError, NumericalRouteWarning, StieltjesBreakdownError
from .measures import DiscreteMeasure, _measure_from_arrays
from .numeric import mpf_from_fraction
from .tridiagonal import FLOAT_DIGITS, golub_welsch_f64, golub_welsch_mpf, jacobi_arrays_f64

PANEL_ORDER = 60
# the Legendre chain, whose measure is dx/2 on [-1, 1]
_LEGENDRE = ChainSpec("legendre", rule((), "(j + 1)/(2*j + 1)"), rule((), "j/(2*j + 1)"),
                      rule((), "0"))


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


@lru_cache(maxsize=8)
def _gauss_legendre_mpf(order: int, dps: int):
    """Gauss-Legendre nodes (descending) and weights on [-1, 1] at dps
    digits: the golub_welsch_mpf rule of _LEGENDRE."""
    nodes, weights = golub_welsch_mpf(_LEGENDRE, order, dps)
    return tuple(reversed(nodes)), tuple(mp.ldexp(w, 1) for w in reversed(weights))


@lru_cache(maxsize=1)
def _gauss_legendre_f64() -> tuple[np.ndarray, np.ndarray]:
    """Float64 Gauss-Legendre nodes (ascending) and weights on [-1, 1] of
    order PANEL_ORDER: the golub_welsch_f64 rule of _LEGENDRE."""
    nodes, weights = golub_welsch_f64(*jacobi_arrays_f64(_LEGENDRE, PANEL_ORDER))
    return nodes, 2 * weights


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
    with mp.workdps(digits + 10):
        nodes, weights = map(list, zip(*_density_points(spec, _uniform_panels(M), digits)))
        total = mp.fsum(weights)
        for loc, mass in spec.atoms:
            nodes.append(mpf_from_fraction(loc))
            weights.append(mpf_from_fraction(mass))
            total += mpf_from_fraction(mass)
        weights = [w / total for w in weights]
    return _measure_from_arrays(nodes, weights)


def _uniform_panels(M: int) -> int:
    """The bulk panel count of a rule with about M nodes."""
    return max(4, round(M / PANEL_ORDER) - 2 * (EDGE_LEVELS + 1))


def _density_points(spec: WeightSpec, uniform: int, digits: int):
    """(x, w * rad * density) at every node of the composite rule on
    _theta_panels(uniform), at the caller's working precision: the
    unnormalized density times the Jacobian of x = eta*cos(theta).  A
    density value <= 0 (a smooth factor that dips below 0 between the
    points WeightSpec.validate checks) is an InputError."""
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
            if not dens > 0:
                raise InputError(f"{spec.label}: density not positive at x={float(x):.6g}")
            yield x, w * rad * dens


def _discretize_f64(spec: WeightSpec, M: int) -> DiscreteMeasure:
    """discretize_weight's panel rule in float64 numpy, for a weight
    without atoms: the measure of the closed-form route."""
    t, w = _gauss_legendre_f64()
    panels = np.array(_theta_panels(_uniform_panels(M)), dtype=float)
    lo, hi = panels[:, :1], panels[:, 1:]
    rad = (hi - lo) / 2
    theta = ((lo + hi) / 2 + rad * t).ravel()
    sh, ch = np.sin(theta / 2), np.cos(theta / 2)
    eta, alpha, beta = float(spec.eta), float(spec.alpha), float(spec.beta)
    x = eta * (ch * ch - sh * sh)
    dens = ((rad * w).ravel() * (2 * eta * sh * sh) ** alpha * (2 * eta * ch * ch) ** beta
            * ex.eval_numpy(spec.smooth, x) * eta * 2 * sh * ch)
    return _measure_from_arrays(x, dens / math.fsum(dens))


def raw_density_integral(spec: WeightSpec, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """Integral of the unnormalized density (excluding atoms), by the panel
    rule."""
    with mp.workdps(digits + 10):
        return mp.fsum(w for _, w in _density_points(spec, 8, digits))


def density_integral(spec: WeightSpec, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """Integral of the unnormalized density (excluding atoms) at digits + 10.

    For a polynomial smooth factor s, with or without atoms, it is
    (2 eta)^(alpha+beta+1) B(alpha+1, beta+1) e_0^T s(J) e_0, with J the
    orthonormal Jacobi matrix of size deg(s) + 1, whose Gauss rule
    integrates s exactly; otherwise raw_density_integral."""
    coeffs = ex.polynomial_coefficients(spec.smooth)
    if coeffs is None:
        return raw_density_integral(spec, digits)
    with mp.workdps(digits + 10):
        a, b = _jacobi_coefficients(spec, len(coeffs), mpf_from_fraction)
        off = [mp.sqrt(v) for v in b[1:]]  # off[k] couples k and k + 1
        v = [mp.mpf(0)] * len(coeffs)
        for c in reversed(coeffs):  # Horner: v <- J v + c e_0
            w = [ak * vk for ak, vk in zip(a, v)]
            for k, e in enumerate(off):
                w[k] += e * v[k + 1]
                w[k + 1] += e * v[k]
            w[0] += mpf_from_fraction(c)
            v = w
        alpha, beta, eta = (mpf_from_fraction(f) for f in (spec.alpha, spec.beta, spec.eta))
        return (2 * eta) ** (alpha + beta + 1) * mp.beta(alpha + 1, beta + 1) * v[0]


# --- closed form for a polynomial smooth factor ----------------------------------


def _closed_form_smooth(spec: WeightSpec) -> tuple[Fraction, ...] | None:
    """The smooth factor's coefficients when the weight's chain has a closed
    form (no atoms, a polynomial smooth factor); None otherwise."""
    return None if spec.atoms else ex.polynomial_coefficients(spec.smooth)


def _jacobi_coefficients(spec: WeightSpec, n: int, num=float) -> tuple[list, list]:
    """Monic recurrence coefficients a_k (diagonal) and b_k (squared
    off-diagonal; b_0 = 0 is a placeholder) for k < n of
    (eta - x)^alpha (eta + x)^beta in the scalars num makes of Fractions:
    Jacobi's closed forms on [-1, 1], scaled to [-eta, eta]."""
    alpha, beta, eta = (num(f) for f in (spec.alpha, spec.beta, spec.eta))
    a, b = [eta * (beta - alpha) / (alpha + beta + 2)], [0 * eta]
    for k in range(1, n):
        s = 2 * k + alpha + beta
        a.append(eta * (beta * beta - alpha * alpha) / (s * (s + 2)))
        b.append(eta * eta * 4 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
                 / (s * s * (s + 1) * (s - 1)))
    return a, b


def _christoffel_step(a: list, b: list, z) -> tuple[list, list]:
    """Coefficients of (x - z) times the measure of (a, b), one fewer than
    given (Gautschi, Orthogonal Polynomials, 2004, sec. 2.4): with
    r_0 = z - a_0, t_k = b_k / r_{k-1} and r_k = z - a_k - t_k, they are
    a_k + t_k - t_{k+1} (his a_{k+1} + r_{k+1} - r_k, free of cancellation
    among the r_k, which have the size of z) and t_k r_k.  For z off the
    support the forward recursion for r_k is the stable direction."""
    t, r = [0 * z], [z - a[0]]
    for k in range(1, len(a)):
        t.append(b[k] / r[-1])
        r.append(z - a[k] - t[-1])
    return ([a[k] + t[k] - t[k + 1] for k in range(len(a) - 1)],
            [b[0]] + [t[k] * r[k] for k in range(1, len(a) - 1)])


def _smooth_roots(spec: WeightSpec, coeffs: tuple[Fraction, ...]) -> list:
    """The roots of the polynomial smooth factor, found at 24 digits with
    twice their bits as extra precision so that a multiple root comes out
    whole, and rounded to float or (one of a conjugate pair) complex.  A
    real root in [-eta, eta] (to 1e-15 relative) is an InputError."""
    if len(coeffs) <= 1:
        return []
    with mp.workdps(24):
        roots = mp.polyroots([mpf_from_fraction(c) for c in reversed(coeffs)],
                             maxsteps=100, extraprec=2 * mp.mp.prec)
    roots = [float(z) if isinstance(z, mp.mpf) else complex(z) for z in roots]
    eta = float(spec.eta)
    for z in roots:
        if abs(z.imag) <= eta * 1e-15 and abs(z.real) <= eta * (1 + 1e-15):
            raise InputError(f"{spec.label}: smooth factor vanishes at "
                             f"x={z.real:.6g} in [-eta, eta]")
    return roots


def jacobi_christoffel_recurrence(spec: WeightSpec, coeffs: tuple[Fraction, ...],
                                  n: int) -> RecurrenceCoefficients:
    """First n orthonormal recurrence coefficients of a weight without atoms
    whose smooth factor has the polynomial coefficients `coeffs`: Jacobi's
    closed forms, then one Christoffel step per root of the smooth factor,
    in float64 (a complex pair as two conjugate steps in complex128).  Each
    step consumes one extra Jacobi coefficient."""
    roots = _smooth_roots(spec, coeffs)
    a, b = _jacobi_coefficients(spec, n + 1 + len(roots))
    for z in roots:
        a, b = _christoffel_step(a, b, z)
    return RecurrenceCoefficients(np.sqrt(np.real(b[1:n + 1])), np.real(a[:n]))


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


def route_measure(spec: WeightSpec, depth: int) -> tuple[DiscreteMeasure, str]:
    """The measure that recover_chain pairs with the weight's chain to
    `depth`, on grid_size_for_depth(depth) nodes, and the route's name.

    A weight without atoms and with a polynomial smooth factor takes route
    "jacobi-christoffel", whose measure is the float64 panel rule; any other
    weight takes route "grid-stieltjes", whose measure is the weight
    discretized at FLOAT_DIGITS."""
    nodes = grid_size_for_depth(depth)
    if _closed_form_smooth(spec) is None:
        return discretize_weight(spec, nodes, FLOAT_DIGITS), "grid-stieltjes"
    return _discretize_f64(spec, nodes), "jacobi-christoffel"


def recover_chain(
    spec: WeightSpec, depth: int
) -> tuple[DiscreteMeasure, RecurrenceCoefficients, ChainRecovery, str]:
    """The weight's chain to `depth`: (measure, coefficients, recovery,
    route), with route_measure's measure and route.  The coefficients come
    from jacobi_christoffel_recurrence on the closed form, and from the
    verified Stieltjes recursion on the grid.  A depth below 1 is an
    InputError."""
    if depth < 1:
        raise InputError(f"{spec.label}: depth = {depth} must be in [1, inf)")
    measure, route = route_measure(spec, depth)
    if route == "grid-stieltjes":
        coeffs = stieltjes_recurrence(measure, depth)
    else:
        coeffs = jacobi_christoffel_recurrence(spec, _closed_form_smooth(spec), depth)
    return measure, coeffs, chain_from_recurrence(coeffs, label=spec.label + "-chain"), route
