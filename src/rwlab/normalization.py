"""The normalized process: rescale a chain by its top support point so the
transformed measure has largest support point 1.

With g_j = Q_{j+1}(eta)/Q_j(eta) the tilde coefficients are
p~_j = g_j p_j / eta, r~_j = r_j / eta, q~_{j+1} = q_{j+1} / (g_j eta);
the recurrence at eta makes them sum to one exactly, killing or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .chains import ChainSpec, CoeffRule, DEFAULT_DIGITS
from .errors import NonpositiveQError
from .numeric import SignedLog, signed_log, to_mpf
from .polynomials import EvalTrace, _guarded, eval_Q, q_values


def _fraction_from_mpf(x: mp.mpf) -> Fraction:
    """Exact binary value of an mpf as a Fraction."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


@dataclass(frozen=True)
class NormalizedChain:
    """Tilde chain (prefix-only) together with its provenance."""

    base_label: str
    eta_used: float
    chain: ChainSpec


def normalize(chain: ChainSpec, eta, depth: int, digits: int = DEFAULT_DIGITS) -> NormalizedChain:
    """Tilde coefficients through `depth`, computed in log-safe mpf
    arithmetic; raises NonpositiveQError when some Q_j(eta) <= 0 (the
    supplied eta sits below the true top support point)."""
    with _guarded(digits):
        qv = q_values(chain, depth + 1, eta)
        eta_m = to_mpf(eta)
        for j, v in enumerate(qv):
            if v <= 0:
                raise NonpositiveQError(
                    f"{chain.label}: Q_{j}({float(eta)}) = {float(v)} <= 0; "
                    "widen the edge bracket"
                )
        p_t: list[Fraction] = []
        q_t: list[Fraction] = [Fraction(0)]
        r_t: list[Fraction] = []
        p, q, r, _ = chain.mpf_coefficients(depth)
        for j in range(depth + 1):
            g = qv[j + 1] / qv[j]
            p_t.append(_fraction_from_mpf(g * p[j] / eta_m))
            r_t.append(_fraction_from_mpf(r[j] / eta_m))
            if j >= 1:
                g_prev = qv[j] / qv[j - 1]
                q_t.append(_fraction_from_mpf(q[j] / (g_prev * eta_m)))
    tilde = ChainSpec(
        chain.label + "~",
        p=CoeffRule(tuple(p_t)),
        q=CoeffRule(tuple(q_t)),
        r=CoeffRule(tuple(r_t)),
        kappa=CoeffRule(tuple(Fraction(0) for _ in range(depth + 1))),
    )
    return NormalizedChain(chain.label, float(eta), tilde)


@dataclass(frozen=True)
class TildeEval:
    """Tilde polynomial values by the tilde recurrence and by the quotient
    Q_n(eta x)/Q_n(eta), with their worst relative disagreement."""

    trace: EvalTrace
    quotient: tuple[SignedLog, ...]
    discrepancy: float


def tilde_polynomials(
    chain: ChainSpec, eta, n: int, x, digits: int = DEFAULT_DIGITS
) -> TildeEval:
    normalized = normalize(chain, eta, n, digits)
    trace = eval_Q(normalized.chain, n, x, digits)
    with _guarded(digits):
        eta_m = to_mpf(eta)
        scaled = q_values(chain, n, eta_m * to_mpf(x))
        at_eta = q_values(chain, n, eta_m)
        quotient = tuple(signed_log(s / e) for s, e in zip(scaled, at_eta))
        worst = 0.0
        for t, qt in zip(trace.values, quotient):
            if t.sign == 0 and qt.sign == 0:
                continue
            a = mp.mpf(t.sign) * mp.exp(t.log)
            b = mp.mpf(qt.sign) * mp.exp(qt.log)
            scale = max(abs(a), abs(b))
            if scale > 0:
                worst = max(worst, float(abs(a - b) / scale))
    return TildeEval(trace, quotient, worst)
