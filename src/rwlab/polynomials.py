"""Evaluation of the chain's polynomial family and derived quantities.

The Q_n satisfy x Q_n = q_n Q_{n-1} + r_n Q_n + p_n Q_{n+1} with Q_0 = 1 and
p_0 Q_1 = x - r_0, so Q_n(1) = 1 for honest chains.  Every pass runs that
forward recurrence, the stable direction at and beyond the support edges,
on one of two backends.  The Christoffel ratio and edge-scaling passes and
the ratio-vanishing criterion run tridiagonal._three_term_f64, float64 with
a power-of-two rescale per step, at every precision, on the chain's float64
coefficients and ln pi_j, with running sums in log space; so does the Q_n(1)
growth at <= FLOAT_DIGITS.  eval_Q, christoffel, cd_identity_residual and
the Q_n(1) growth above FLOAT_DIGITS run tridiagonal._three_term in mpmath,
whose unbounded exponent absorbs the growth outside the support, at the
requested digits plus _GUARD_DIGITS, on the coefficients and ln pi_j the
chain memoizes per working precision.  Values leave as sign/log-magnitude
pairs or floats.  Support edges are float64 at every precision: Sturm-count
bisection of one fixed-point Jacobi truncation J_N to its extreme
eigenvalues.  The ends of the sign patterns of Q_1..Q_N beyond the support,
which interlacing makes the same count, are those eigenvalues moved outward
to a coarser stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .chains import DEFAULT_DIGITS, ChainSpec, _series_float, killing_sum, log_pi_mpf
from .errors import (
    IdentityMismatchError,
    InputError,
    MethodsDisagreeError,
    PrecisionExhaustedError,
    UndecidedLimitError,
)
from .limits import estimate_limit, richardson_pair
from .numeric import SignedLog, signed_log, to_mpf
from .tridiagonal import (
    FLOAT_DIGITS,
    extreme_eigen_f64,
    jacobi_arrays_f64,
    _bisect,
    _fixed_jacobi,
    _three_term,
    _three_term_f64,
)


# digits carried beyond the requested precision by every polynomial-side pass
_GUARD_DIGITS = 8


def _guarded(digits: int):
    """mpmath working-precision context at `digits` plus the guard digits."""
    return mp.workdps(digits + _GUARD_DIGITS)


def q_values(chain: ChainSpec, n: int, x) -> list:
    """Q_0(x)..Q_n(x) as mpf at the current working precision (no overflow
    possible)."""
    p, q, r, _ = chain.mpf_coefficients(max(n - 1, 0))
    return [mp.mpf(1), *_three_term(to_mpf(x), p, q, r, n)]


def _q_pi(chain: ChainSpec, n: int, x) -> tuple[list, list]:
    """Q_0(x)..Q_n(x) and pi_0..pi_n as mpf at the current working precision."""
    return q_values(chain, n, x), [mp.exp(lp) for lp in log_pi_mpf(chain, n)]


def _q_pi_f64(chain: ChainSpec, n: int, *xs) -> tuple[tuple, list]:
    """The float64 twin of _q_pi: the chain's float64 columns p, q, r, kappa
    and ln pi for j = 0..n (chains._series_float), and at each x the pair
    sign(Q_k(x)), ln|Q_k(x)| for k = 0..n (ln 0 = -inf)."""
    cols = _series_float(chain, n)
    p, q, r = (c.tolist() for c in cols[:3])
    logs = []
    for x in xs:
        m, e = np.array([(1.0, 0), *_three_term_f64(float(x), p, q, r, n)]).T
        with np.errstate(divide="ignore"):
            logs.append((np.sign(m), np.log(np.abs(m)) + e * math.log(2.0)))
    return cols, logs


@dataclass(frozen=True)
class EvalTrace:
    """Sign/log-magnitude values of Q_0..Q_n and p_0..p_n at one point."""

    values: tuple[SignedLog, ...]
    orthonormal_values: tuple[SignedLog, ...]

    def q_float(self, k: int) -> float:
        return self.values[k].value


def _agreement_failed(full, half) -> bool:
    """True when the half-precision run shares no digits with the full one,
    i.e. fewer than half the requested digits of the full run can be trusted."""
    if full == half:
        return False
    scale = max(abs(full), abs(half))
    if scale == 0:
        return False
    return abs(full - half) / scale >= mp.mpf("0.5")


def eval_Q(
    chain: ChainSpec,
    n: int,
    x,
    digits: int = DEFAULT_DIGITS,
) -> EvalTrace:
    """Forward-recurrence evaluation with sign/log representation.

    Raises PrecisionExhaustedError when a half-precision rerun disagrees
    completely with the full run (estimated error above half the requested
    digits).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with _guarded(max(digits // 2, 6)):
        half = q_values(chain, n, x)[-1]
    with _guarded(digits):
        vals, pis = _q_pi(chain, n, x)
        if n >= 1 and _agreement_failed(vals[-1], half):
            raise PrecisionExhaustedError(
                f"Q_{n}({x}) carries fewer than {digits // 2} reliable digits "
                f"at {digits}-digit working precision"
            )
        traces = tuple(signed_log(v) for v in vals)
        ortho = tuple(
            SignedLog(t.sign, float(t.log + 0.5 * mp.log(pi))) if t.sign != 0 else t
            for t, pi in zip(traces, pis)
        )
    return EvalTrace(traces, ortho)


def leading_coefficient(chain: ChainSpec, n: int) -> SignedLog:
    """gamma_n > 0 with gamma_n^-2 = prod_{i=1..n} p_{i-1} q_i, as sign/log
    from the float64 columns."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q, _, _ = chain.arrays(n)
    return SignedLog(1, float(-(np.log(p[:-1]).sum() + np.log(q[1:]).sum()) / 2))


def christoffel(chain: ChainSpec, n: int, x, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """rho_n(x) = 1 / sum_{j<n} p_j(x)^2 (strictly positive mpf)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with _guarded(digits):
        vals, pis = _q_pi(chain, n - 1, x)
        return 1 / mp.fsum(pi * v * v for pi, v in zip(pis, vals))


@dataclass(frozen=True)
class RatioSequences:
    """rho_k(-eta)/rho_k(eta) for k = 1..n_max alongside the companion
    Q_k(eta)^2/Q_k(-eta)^2 for k = 0..n_max (floats; underflow reads 0.0)."""

    eta: float
    ratios: np.ndarray
    q_sq_ratios: np.ndarray
    log10_ratios: np.ndarray


def _two_sided_log_sums(chain: ChainSpec, n_max: int, eta):
    """Sign and ln|Q_k(+-eta)| as two (sign, log) pairs, and the logs of the
    running sums sum_{j<=k} pi_j Q_j(+-eta)^2 (that is, -ln rho_{k+1}(+-eta)),
    for k = 0..n_max, from one float64 forward pass on each side."""
    (*_, logpi), (pos, neg) = _q_pi_f64(chain, n_max, eta, -float(eta))
    sums = [np.logaddexp.accumulate(logpi + 2 * logq) for _, logq in (pos, neg)]
    return pos, neg, *sums


def christoffel_ratio_sequence(chain: ChainSpec, n_max: int, eta) -> RatioSequences:
    """One float64 forward pass at +eta and -eta, at every precision.  Each
    ratio is positive but need not lie in (0, 1]: on the bundled chains a
    ratio above 1 appears for an eta below the bottom edge or of the wrong
    sign, and not for an eta just below the top edge."""
    (_, log_pos), (sign_neg, log_neg), s_pos, s_neg = _two_sided_log_sums(chain, n_max, eta)
    log_ratios = s_pos[:n_max] - s_neg[:n_max]
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(log_ratios)
        qsq = np.where(sign_neg == 0, math.inf, np.exp(2 * (log_pos - log_neg)))
    return RatioSequences(float(eta), ratios, qsq, log_ratios / math.log(10.0))


def cd_identity_residual(
    chain: ChainSpec, n: int, x, y, digits: int = DEFAULT_DIGITS
) -> float:
    """Relative residual of the kernel identity
    p_n pi_n (Q_n(x) Q_{n+1}(y) - Q_n(y) Q_{n+1}(x)) =
    (y - x) sum_{j<=n} pi_j Q_j(x) Q_j(y)."""
    if x == y:
        raise ValueError("x and y must differ")
    with _guarded(digits):
        qx, pis = _q_pi(chain, n + 1, x)
        qy = q_values(chain, n + 1, y)
        pn = chain.mpf_coefficients(n)[0][n]
        lhs = pn * pis[n] * (qx[n] * qy[n + 1] - qy[n] * qx[n + 1])
        rhs = (to_mpf(y) - to_mpf(x)) * mp.fsum(
            pis[j] * qx[j] * qy[j] for j in range(n + 1)
        )
        scale = max(abs(lhs), abs(rhs), mp.mpf(10) ** (-mp.mp.dps))
        return float(abs(lhs - rhs) / scale)


# --- support edges ------------------------------------------------------------

EDGE_TOL = 1e-6  # the one tolerance of support_edges


@dataclass(frozen=True)
class SupportEdges:
    """Estimates of the support edges of the orthogonality measure.

    eta_hat/zeta_hat are Richardson-extrapolated eigenvalue estimates.
    eta_eigen/zeta_eigen are the extreme eigenvalues of J_truncation, and
    eta_bisection/zeta_bisection the positivity ends: the same eigenvalues
    moved outward to a bisection's EDGE_TOL/8 stop.  Their gap,
    `discrepancy`, is at most EDGE_TOL/8 by construction.
    """

    eta_hat: float
    zeta_hat: float
    method: str
    truncation_size: int
    discrepancy: float
    eta_eigen: float
    eta_bisection: float
    zeta_eigen: float
    zeta_bisection: float


def support_edges(chain: ChainSpec, truncation: int = 2000) -> SupportEdges:
    """Edge estimates from the extreme eigenvalues of J_N, N = truncation,
    Richardson-extrapolated over N and N/2, in float64 at every precision:
    Sturm-count bisections of one fixed-point J_N, whose leading block is
    J_{N/2}, to adjacent doubles.  By interlacing, "Q_k(x) > 0 for all
    k <= N" is "the Sturm count of J_N at x is N", which on the doubles
    (bar one 2^-77 grid step near 0) is x > eta_eigen, and "(-1)^k Q_k(x)
    > 0 for all k <= N" is "it is 0", x <= zeta_eigen.  The positivity ends
    bisect those comparisons from 10 EDGE_TOL outside to EDGE_TOL/8.  An
    eigenvalue 10 EDGE_TOL beyond [-1, 1] raises the MalformedChainError of
    the first row of J_N that breaks ChainSpec.validate's law."""
    if truncation < 50:
        raise ValueError("truncation must be >= 50")
    d, e = jacobi_arrays_f64(chain, truncation)
    fd, fe2 = _fixed_jacobi(d, e)
    (eta_c, zeta_c), (eta_f, zeta_f) = (
        [extreme_eigen_f64(d[:n], e[:n - 1], which, (fd[:n], fe2[:n - 1]))
         for which in ("max", "min")]
        for n in (truncation // 2, truncation))
    eta_hat = richardson_pair(eta_c, eta_f, order=2)
    zeta_hat = richardson_pair(zeta_c, zeta_f, order=2)

    pad = 10 * EDGE_TOL
    top, bottom = 1.0 + pad, -1.0 - pad
    # a tail past the validated prefix may put an eigenvalue outside [-1, 1]
    if eta_f >= top or zeta_f < bottom:
        chain._check_rows(truncation)
        kind, end = (("positivity predicate false at bracket end", top) if eta_f >= top
                     else ("alternating-positivity predicate false at", bottom))
        raise MethodsDisagreeError(f"{chain.label}: {kind} {end}")
    eta_bis = _bisect(lambda x: x <= eta_f, eta_f - pad, top, EDGE_TOL / 8)[1]
    zeta_bis = _bisect(lambda x: x <= zeta_f, bottom, zeta_f + pad, EDGE_TOL / 8)[0]
    return SupportEdges(eta_hat, zeta_hat, "cross-checked", truncation,
                        max(eta_bis - eta_f, zeta_f - zeta_bis),
                        eta_f, eta_bis, zeta_f, zeta_bis)


# --- killing-side quantities ---------------------------------------------------


def q_at_one_growth(chain: ChainSpec, n: int, digits: int = DEFAULT_DIGITS) -> list[float]:
    """Q_0(1)..Q_n(1), computed by the recurrence and cross-checked against
    the killing double-sum identity; a mismatch is an arithmetic fault.
    At <= FLOAT_DIGITS both sides run in float64 log space."""
    if digits <= FLOAT_DIGITS:
        (p, _, _, kappa, logpi), ((sign, logq),) = _q_pi_f64(chain, n, 1)
        with np.errstate(divide="ignore"):
            inner = np.logaddexp.accumulate(np.log(kappa[:n]) + logpi[:n] + logq[:n])
        # ln(1 + acc_j), to be compared with ln Q_{j+1}(1); Q_k(1) >= 1 > 0
        identity = np.logaddexp(0.0, np.logaddexp.accumulate(inner - np.log(p[:n]) - logpi[:n]))
        with np.errstate(over="ignore"):
            values = sign * np.exp(logq)
            moved = np.abs(np.expm1(logq[1:] - identity))
        bad = np.flatnonzero((sign[1:] <= 0) | (moved > 10.0 ** (-(digits // 2))))
        if len(bad):
            j = bad[0]
            raise IdentityMismatchError(
                f"{chain.label}: Q_{j + 1}(1) recurrence/double-sum mismatch "
                f"{values[j + 1]} vs {np.exp(identity[j])}"
            )
        return values.tolist()
    with _guarded(digits):
        vals, pis = _q_pi(chain, n, 1)
        acc = mp.mpf(0)  # sum over j of (1/(p_j pi_j)) sum_{m<=j} kappa_m pi_m Q_m(1)
        inner = mp.mpf(0)
        tol = mp.mpf(10) ** (-(digits // 2))
        p, _, _, kappa = chain.mpf_coefficients(n)
        for j in range(n):
            inner += kappa[j] * pis[j] * vals[j]
            acc += inner / (p[j] * pis[j])
            identity = 1 + acc
            if abs(identity - vals[j + 1]) > tol * max(1, abs(identity)):
                raise IdentityMismatchError(
                    f"{chain.label}: Q_{j + 1}(1) recurrence/double-sum mismatch "
                    f"{float(vals[j + 1])} vs {float(identity)}"
                )
    return [float(v) for v in vals]


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption probabilities tau_j = 1 - Q_j(1)/Q_inf(1), with the route
    that determined Q_inf(1)."""

    tau: tuple[float, ...]
    q_infinity: float
    route: str


def absorption_probabilities(
    chain: ChainSpec, j_max: int, n_trunc: int, digits: int = DEFAULT_DIGITS
) -> AbsorptionResult:
    """tau_j for j = 0..j_max; Q_inf(1) by limit extrapolation of Q_n(1), or
    declared infinite when the killing double sum diverges (tau = 1)."""
    if not chain.has_killing():
        return AbsorptionResult(tuple(0.0 for _ in range(j_max + 1)), 1.0, "no-killing")
    verdict = killing_sum(chain, n_trunc)
    growth = q_at_one_growth(chain, max(j_max, n_trunc), digits)
    if verdict.verdict == "diverges":
        return AbsorptionResult(
            tuple(1.0 for _ in range(j_max + 1)), math.inf, "killing-sum-diverges"
        )
    if len(growth) < 16:
        raise InputError(f"{chain.label}: extrapolating Q_n(1) needs 16 terms, "
                         f"max(j_max, n_trunc) = {len(growth) - 1} gives {len(growth)}")
    est = estimate_limit(growth)
    if est.kind == "infinite":
        return AbsorptionResult(
            tuple(1.0 for _ in range(j_max + 1)), math.inf, "growth-diverges"
        )
    if est.kind != "finite" or (
        verdict.verdict == "undecided" and est.uncertainty > 1e-3 * abs(est.value)
    ):
        raise UndecidedLimitError(
            f"{chain.label}: neither Q_n(1) extrapolation nor the killing sum "
            f"decided (verdict {verdict.verdict}, estimate {est})"
        )
    qinf = est.value
    tau = tuple(min(1.0, max(0.0, 1.0 - growth[j] / qinf)) for j in range(j_max + 1))
    return AbsorptionResult(tau, qinf, "extrapolated")
