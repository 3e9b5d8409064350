"""Limit experiments: predicted values of lim C_n and of the Christoffel
ratio limit from edge data, coefficient-level sufficient conditions, edge
asymptotics with the scaling of Danka-Totik type and its derived constant,
and the consistency verdict comparing the two empirical limits.

The Christoffel ratio and edge-scaling passes and the ratio-vanishing
criterion run in float64 log space at every precision (see polynomials);
they take no working precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .chains import (
    ChainSpec,
    DivergenceVerdict,
    _double_sum_verdict,
    classify_series,
    is_periodic,
    killing_sum,
)
from .errors import InconsistentWeightError, NonpositiveQError, NumericalRouteWarning
from .limits import LimitEstimate, estimate_limit
from .measures import DiscreteMeasure, cn_series, quadrature_from_chain
from .numeric import mpf_from_fraction
from .polynomials import (
    SupportEdges,
    _q_pi_f64,
    _two_sided_log_sums,
    christoffel_ratio_sequence,
    support_edges,
)
from .recover import WeightSpec, density_integral, recover_chain
from .tridiagonal import FLOAT_DIGITS

CONSISTENCY_FLOOR = 0.02


@dataclass(frozen=True)
class EdgeExponents:
    """Edge behaviour of the measure: density ~ w(x) (eta-x)^alpha (eta+x)^beta
    with the smooth part's one-sided limits at the edges."""

    alpha: float
    beta: float
    w_at_eta: float
    w_at_minus_eta: float

    def validate(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InconsistentWeightError("edge exponents must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise InconsistentWeightError("edge exponents must be nonnegative")
        if not self.w_at_eta > 0:
            raise InconsistentWeightError("smooth part must be positive at the top edge")


def edge_exponents(spec: WeightSpec) -> EdgeExponents:
    """EdgeExponents of a weight spec, with the smooth limits normalized to
    unit total mass (the atoms share in the normalization; the density's
    integral is recover.density_integral at FLOAT_DIGITS, in closed form for
    a polynomial smooth factor; the limits are floats)."""
    from . import expressions as ex

    with mp.workdps(FLOAT_DIGITS + 10):
        integral = density_integral(spec, FLOAT_DIGITS)
        atom_mass = mp.fsum(mpf_from_fraction(m) for _, m in spec.atoms) if spec.atoms else mp.mpf(0)
        c = 1 / (integral + atom_mass)
        eta = mpf_from_fraction(spec.eta)
        w_top = float(c * ex.eval_mpf(spec.smooth, eta))
        w_bottom = float(c * ex.eval_mpf(spec.smooth, -eta))
    return EdgeExponents(float(spec.alpha), float(spec.beta), w_top, w_bottom)


def predicted_cn_limit(exps: EdgeExponents) -> float:
    """Predicted lim C_n from the edge exponents: 0 when alpha < beta,
    w(-eta+)/w(eta-) when alpha = beta.

    The admissibility conditions force 0 < alpha <= beta (a smoothly
    vanishing density with positive smooth limit at the top edge cannot
    have alpha = 0, and alpha > beta would make the limit infinite);
    inputs claiming otherwise are flagged instead of computed."""
    exps.validate()
    if exps.alpha > exps.beta:
        raise InconsistentWeightError(
            f"alpha = {exps.alpha} > beta = {exps.beta} contradicts the "
            "admissibility of the top edge"
        )
    if exps.alpha == 0:
        raise InconsistentWeightError(
            "alpha = 0 with a positive smooth limit contradicts the "
            "differentiability of the distribution function at the top edge"
        )
    if exps.alpha < exps.beta:
        return 0.0
    return exps.w_at_minus_eta / exps.w_at_eta


@dataclass(frozen=True)
class EpsWindowDiagnostic:
    """Edge-mass ratios psi([-eta, -eta+eps]) / psi([eta-eps, eta]) on a
    decreasing eps grid (the small-eps limit, when it exists, is the
    predicted lim C_n)."""

    eps: np.ndarray
    ratios: np.ndarray
    estimate: LimitEstimate


def edge_mass_ratio(measure: DiscreteMeasure, eta_hat: float, eps_grid=None) -> EpsWindowDiagnostic:
    if eps_grid is None:
        eps_grid = eta_hat * np.geomspace(0.5, 1e-3, 24)
    eps_grid = np.asarray(eps_grid, dtype=float)
    x = measure.nodes
    w = measure.weights
    ratios = np.empty(len(eps_grid))
    for k, eps in enumerate(eps_grid):
        top = w[(x >= eta_hat - eps)].sum()
        bottom = w[(x <= -eta_hat + eps)].sum()
        ratios[k] = bottom / top if top > 0 else math.inf
    finite = ratios[np.isfinite(ratios)]
    if len(finite) >= 16:
        est = estimate_limit(finite)
    else:
        tail = finite[-4:] if len(finite) >= 4 else finite
        est = LimitEstimate(
            "finite", float(np.mean(tail)), float(np.ptp(tail)) if len(tail) else math.inf,
            "tail-window", (max(0, len(finite) - 4), len(finite) - 1),
        )
    return EpsWindowDiagnostic(eps_grid, ratios, est)


# --- coefficient-level criteria -------------------------------------------------


@dataclass(frozen=True)
class RatioVanishingCriterion:
    """The sharp series criterion for the Christoffel ratio limit to vanish:
    sum_j (1/(p_j pi_j Q_j Q_{j+1}(eta))) sum_{k<=j} r_k pi_k Q_k(eta)^2,
    together with the companion series L~ (its divergence is sufficient
    when the chain is aperiodic)."""

    criterion: DivergenceVerdict
    l_tilde: DivergenceVerdict


def ratio_vanishing_criterion(chain: ChainSpec, eta, n: int) -> RatioVanishingCriterion:
    """Both series through j = n, with Q_j(eta) in float64 log space at
    every precision; raises NonpositiveQError at the first Q_j(eta) <= 0."""
    (p, _, r, _, logpi), ((sign, logq),) = _q_pi_f64(chain, n + 1, eta)
    if len(nonpositive := np.flatnonzero(sign <= 0)):
        raise NonpositiveQError(
            f"{chain.label}: Q_{nonpositive[0]}(eta) <= 0 at eta = {float(eta)}"
        )
    logpi, logq_j = logpi[: n + 1], logq[: n + 1]
    log_denom = np.log(p[: n + 1]) + logpi + logq_j + logq[1:]
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        inner = np.logaddexp.accumulate(np.log(r[: n + 1]) + logpi + 2 * logq_j)
        terms, lt_terms = np.exp(inner - log_denom), np.exp(-log_denom)
    return RatioVanishingCriterion(
        classify_series(np.cumsum(terms), terms),
        classify_series(np.cumsum(lt_terms), lt_terms),
    )


def aperiodicity_sum_terms(chain: ChainSpec, n: int) -> DivergenceVerdict:
    """The r-weighted double sum without the honesty guard (used for killed
    chains, where it enters jointly with the killing sum)."""
    return _double_sum_verdict(chain, n, "r")


def condition_bounded_variation(chain: ChainSpec, j_max: int) -> tuple[bool, float]:
    """Whether sum_j |p_j q_{j+1} - p_{j-1} q_j| converges, by Aitken
    extrapolation; holds when the extrapolated tail is below 1e-6."""
    j_max = int(min(j_max, chain.depth - 2))
    p, q, _, _ = chain.arrays(j_max + 1)
    prod = p[:-1] * q[1:]
    terms = np.abs(np.diff(prod))
    partial = np.cumsum(terms)
    verdict = classify_series(partial, terms)
    if verdict.verdict == "converges" and verdict.bound is not None:
        tail = abs(verdict.bound - partial[-1])
        return tail < 1e-6, tail
    if verdict.verdict == "diverges":
        return False, math.inf
    # undecided: fall back to the observed tail movement across the last decade
    tail = abs(partial[-1] - partial[max(0, len(partial) // 10 * 9)])
    return tail < 1e-6, tail


@dataclass(frozen=True)
class BlumenthalPrediction:
    """Edge prediction from coefficient limits: r_n -> 0 and
    p_{n-1} q_n -> beta with a convergent companion series force the edges
    to +-2 sqrt(beta)."""

    applicable: bool
    eta: float | None
    zeta: float | None
    premises: dict


def blumenthal_edges(chain: ChainSpec) -> BlumenthalPrediction:
    from . import expressions as ex

    premises: dict = {}
    if chain.r.tail is None or chain.p.tail is None or chain.q.tail is None:
        return BlumenthalPrediction(False, None, None, {"tail": "no closed form"})
    r_lim = ex.tail_limit(chain.r.tail)
    p_lim = ex.tail_limit(chain.p.tail)
    q_lim = ex.tail_limit(chain.q.tail)
    premises["r_limit"] = r_lim
    premises["pq_limit"] = None if p_lim is None or q_lim is None else p_lim * q_lim
    if r_lim is None or r_lim != 0 or premises["pq_limit"] is None:
        return BlumenthalPrediction(False, None, None, premises)
    beta = premises["pq_limit"]
    if beta <= 0:
        return BlumenthalPrediction(False, None, None, premises)
    eta = 2 * math.sqrt(beta)
    try:
        crit = ratio_vanishing_criterion(chain, eta, 2000)
        premises["l_tilde"] = crit.l_tilde.verdict
        if crit.l_tilde.verdict == "diverges":
            return BlumenthalPrediction(False, None, None, premises)
    except NonpositiveQError:
        premises["l_tilde"] = "eta prediction below true edge"
        return BlumenthalPrediction(False, None, None, premises)
    return BlumenthalPrediction(True, eta, -eta, premises)


@dataclass(frozen=True)
class RegularityResult:
    """n-th roots of the orthonormal leading coefficients, with the two
    candidate limits they are compared against: 2*eta and the capacity
    normalization 2/eta.  The candidates agree for eta = 1; both are
    reported and neither is asserted.  `matches` names the candidates within
    max(0.02, 5 uncertainties) of the estimate."""

    values: np.ndarray
    estimate: LimitEstimate
    candidate_two_eta: float
    candidate_two_over_eta: float

    def matches(self) -> str:
        hits = []
        if self.estimate.is_finite:
            for name, cand in (
                ("2*eta", self.candidate_two_eta),
                ("2/eta", self.candidate_two_over_eta),
            ):
                if abs(self.estimate.value - cand) <= max(0.02, 5 * self.estimate.uncertainty):
                    hits.append(name)
        return ",".join(hits) if hits else "neither"


def regularity_check(chain: ChainSpec, eta: float, n: int) -> RegularityResult:
    n = int(min(n, chain.depth - 1))
    p, q, _, _ = chain.arrays(n)
    logs = np.log(p[:-1] * q[1:n + 1])
    roots = np.exp(-0.5 * np.cumsum(logs) / np.arange(1, n + 1))
    return RegularityResult(
        roots, estimate_limit(roots), 2 * eta, 2 / eta
    )


# --- edge-scaled Christoffel asymptotics ---------------------------------------


@dataclass(frozen=True)
class EdgeScalingResult:
    """n^(2a+2) rho_n(eta) and n^(2b+2) rho_n(-eta) at geometrically spaced
    n, their limit estimates, and the limits edge_constant derives for the
    top and the bottom edge."""

    ns: np.ndarray
    scaled_top: np.ndarray
    scaled_bottom: np.ndarray
    limit_top: LimitEstimate
    limit_bottom: LimitEstimate
    constant_top: float
    constant_bottom: float


def edge_constant(eta: float, a: float, b: float, w: float) -> float:
    """lim n^(2a+2) rho_n(eta) for a density w (eta-x)^a (eta+x)^b near the
    edge eta of [-eta, eta] (w normalized with the measure):
    w (2 eta)^(a+b+1) Gamma(a+1) Gamma(a+2), Jacobi's endpoint Christoffel
    sum transferred to a smooth factor.  The bottom edge is the same with
    a and b swapped and w taken at -eta.  It is 3 for the semicircle, and
    invariant under scaling the support, since w scales as eta^-(a+b+1)."""
    return w * (2 * eta) ** (a + b + 1) * math.gamma(a + 1) * math.gamma(a + 2)


def edge_scaled_christoffel(
    chain: ChainSpec, exps: EdgeExponents, eta: float, n_max: int
) -> EdgeScalingResult:
    """One float64 forward pass at +eta and -eta collecting rho_n(+-eta) at
    geometrically spaced n, at every precision."""
    n_max = int(min(n_max, chain.depth - 1))
    # below n_max = 8 the grid overshoots; rho_n needs n <= n_max + 1
    marks = sorted({int(v) for v in np.geomspace(max(8, n_max // 64), n_max, 24)
                    if int(v) <= n_max + 1})
    ns = np.array(marks)
    *_, s_pos, s_neg = _two_sided_log_sums(chain, n_max, eta)
    # ln rho_n(+-eta) = -ln s_{n-1}
    with np.errstate(over="ignore", under="ignore"):
        top = np.exp((2 * exps.alpha + 2) * np.log(ns) - s_pos[ns - 1])
        bottom = np.exp((2 * exps.beta + 2) * np.log(ns) - s_neg[ns - 1])
    return EdgeScalingResult(
        ns,
        top,
        bottom,
        estimate_limit(top, min_len=min(16, len(top))),
        estimate_limit(bottom, min_len=min(16, len(bottom))),
        edge_constant(eta, exps.alpha, exps.beta, exps.w_at_eta),
        edge_constant(eta, exps.beta, exps.alpha, exps.w_at_minus_eta),
    )


# --- the consistency report -----------------------------------------------------


@dataclass
class ConjectureReport:
    """Empirical lim C_n versus empirical Christoffel ratio limit, the
    classification branch, the prediction where one applies, and the
    consistency verdict at the stated tolerance."""

    chain_label: str
    branch: str
    lim_cn: LimitEstimate | None
    lim_rho_ratio: LimitEstimate
    prediction: float | None
    prediction_source: str | None
    verdict: str
    tolerance: float
    edges: SupportEdges
    eta_spread: float
    diagnostics: dict = field(default_factory=dict)
    cn_values: np.ndarray | None = None
    ratio_values: np.ndarray | None = None


def ratio_limit_with_edge_spread(chain: ChainSpec, n_max: int, eta_hat: float):
    """Christoffel ratio sequence at eta-hat and at eta-hat*(1 +- 1e-8);
    returns (sequences at eta-hat, limit estimate, spread across the
    bracket) so edge error shows up as an explicit error bar."""
    n_max = int(min(n_max, chain.depth - 1))
    central = christoffel_ratio_sequence(chain, n_max, eta_hat)
    est = estimate_limit(central.ratios)
    values = [est.value] + [
        estimate_limit(christoffel_ratio_sequence(chain, n_max, eta_hat * bump).ratios).value
        for bump in (1 - 1e-8, 1 + 1e-8)
    ]
    return central, est, float(max(values) - min(values))


def _consistency(
    lim_cn: LimitEstimate | None,
    lim_rho: LimitEstimate,
    prediction: float | None,
) -> tuple[str, float]:
    if lim_cn is None:
        if prediction is None:
            return "inconclusive", CONSISTENCY_FLOOR
        tol = max(5 * lim_rho.uncertainty, CONSISTENCY_FLOOR)
        if not lim_rho.is_finite:
            return "inconclusive", tol
        ok = abs(lim_rho.value - prediction) <= lim_rho.uncertainty + tol
        return ("consistent" if ok else "inconsistent"), tol
    if not (lim_cn.is_finite and lim_rho.is_finite):
        return "inconclusive", CONSISTENCY_FLOOR
    combined = lim_cn.uncertainty + lim_rho.uncertainty
    tol = max(5 * combined, CONSISTENCY_FLOOR)
    ok = abs(lim_cn.value - lim_rho.value) <= combined + tol
    return ("consistent" if ok else "inconsistent"), tol


def conjecture_report(
    chain: ChainSpec | None = None,
    weight: WeightSpec | None = None,
    N: int = 400,
    n_max: int = 400,
    truncation: int = 2000,
    sum_horizon: int = 4000,
) -> ConjectureReport:
    """Full pipeline for one chain or one weight: build the measure side and
    the polynomial side, estimate both limits, classify, and compare.

    A weight's chain and measure come from recover.recover_chain, and its
    diagnostic "recovery" names the route the weight takes:
    jacobi-christoffel (closed form, for a polynomial smooth factor and no
    atoms) or grid-stieltjes.  The edge solve, the Christoffel ratio passes,
    the ratio-vanishing criterion and a chain's quadrature are float64, so
    the report takes no working precision.
    """
    if (chain is None) == (weight is None):
        raise ValueError("supply exactly one of chain, weight")
    exps = None
    measure = None
    diagnostics: dict = {}
    if weight is not None:
        measure, _, recovery, route = recover_chain(weight, n_max)
        if not recovery.ok:
            raise InconsistentWeightError(
                f"{weight.label}: not a random walk measure at index "
                f"{recovery.fail_index}: {recovery.fail_reason}"
            )
        chain = recovery.chain
        exps = edge_exponents(weight)
        diagnostics["edge_exponents"] = f"alpha={exps.alpha:g} beta={exps.beta:g}"
        diagnostics["recovery"] = route
    chain.validate()

    trunc = int(min(truncation, chain.depth))
    edges = support_edges(chain, trunc)
    eta_hat = edges.eta_hat
    diagnostics["eta_hat"] = f"{eta_hat:.12g}"

    killed = chain.has_killing()
    if measure is None and not killed:
        measure = quadrature_from_chain(chain, N, FLOAT_DIGITS)
    cn_vals = None
    lim_cn = None
    if measure is not None:
        horizon = min(2 * len(measure) - 1, max(n_max, 2 * N - 1))
        cn_vals = cn_series(measure, horizon)
        lim_cn = estimate_limit(cn_vals)
        window = edge_mass_ratio(measure, eta_hat)
        if window.estimate.is_finite:
            diagnostics["edge_mass_ratio"] = (
                f"{window.estimate.value:.4g} +- {window.estimate.uncertainty:.2g}"
            )

    ratio_seq, lim_rho_raw, spread = ratio_limit_with_edge_spread(chain, n_max, eta_hat)
    if (top := np.nanmax(ratio_seq.ratios)) > 1 + 1e-9:
        # a ratio above 1 appears for an eta_hat below the bottom edge or of
        # the wrong sign (one just below the top edge gives none); the
        # bisection end certifies positivity through the horizon
        warnings.warn(NumericalRouteWarning(
            f"{chain.label}: Christoffel ratio {top:.12g} > 1 at eta_hat = "
            f"{eta_hat:.12g}; ratio passes rerun at the bisection edge "
            f"{edges.eta_bisection:.12g}"
        ), stacklevel=2)
        eta_hat = edges.eta_bisection
        diagnostics["eta_hat"] = f"{eta_hat:.12g} (bisection fallback)"
        ratio_seq, lim_rho_raw, spread = ratio_limit_with_edge_spread(chain, n_max, eta_hat)
    lim_rho = LimitEstimate(
        lim_rho_raw.kind,
        lim_rho_raw.value,
        lim_rho_raw.uncertainty + spread,
        lim_rho_raw.method,
        lim_rho_raw.n_used,
    )

    periodic = is_periodic(chain)
    sum_n = int(min(sum_horizon, chain.depth - 2))
    prediction = None
    source = None
    if periodic:
        branch = "i"
        prediction = 1.0
        source = "periodic: both limits are 1"
    elif killed:
        r_sum = aperiodicity_sum_terms(chain, sum_n)
        k_sum = killing_sum(chain, sum_n)
        diagnostics["r_double_sum"] = r_sum.verdict
        diagnostics["killing_sum"] = k_sum.verdict
        if r_sum.verdict == "diverges" and k_sum.verdict == "converges":
            branch = "ii"
            prediction = 0.0
            source = "r-sum diverges and absorption is not certain"
        else:
            branch = "none-applicable"
    else:
        try:
            crit = ratio_vanishing_criterion(chain, eta_hat, sum_n)
            l_tilde_verdict = crit.l_tilde.verdict
            diagnostics["ratio_vanishing_sum"] = crit.criterion.verdict
        except NonpositiveQError:
            # positivity certified only through the edge-solve horizon
            l_tilde_verdict = "undecided"
            diagnostics["ratio_vanishing_sum"] = "undecided (eta below edge)"
        diagnostics["l_tilde"] = l_tilde_verdict
        ar = aperiodicity_sum_terms(chain, sum_n)
        diagnostics["aperiodicity_sum"] = ar.verdict
        cond_a, tail_a = condition_bounded_variation(chain, min(10**5, sum_n * 25))
        diagnostics["bounded_variation"] = f"{cond_a} (tail {tail_a:.2g})"
        if exps is not None and cond_a:
            branch = "iii"
            prediction = predicted_cn_limit(exps)
            source = (
                "edge exponents: 0 for alpha<beta, smooth-limit ratio for alpha=beta"
            )
        elif ar.verdict == "diverges" or l_tilde_verdict == "diverges":
            branch = "ii"
            prediction = 0.0
            source = "divergent coefficient sum forces both limits to 0"
        else:
            branch = "none-applicable"

    verdict, tol = _consistency(lim_cn, lim_rho, prediction)
    return ConjectureReport(
        chain_label=chain.label,
        branch=branch,
        lim_cn=lim_cn,
        lim_rho_ratio=lim_rho,
        prediction=prediction,
        prediction_source=source,
        verdict=verdict,
        tolerance=tol,
        edges=edges,
        eta_spread=spread,
        diagnostics=diagnostics,
        cn_values=cn_vals,
        ratio_values=ratio_seq.ratios,
    )


def sup_tail_bound_check(
    cn_values: np.ndarray, window_start: int, rho_limit: float
) -> tuple[bool, float]:
    """Finite-horizon form of the limsup bound: the largest C_n over the
    tail window must not exceed the Christoffel ratio limit plus 1e-3."""
    tail_max = float(np.max(cn_values[window_start:]))
    return tail_max <= rho_limit + 1e-3, tail_max
