"""Birth-death chains with optional killing, and coefficient-level analysis.

A chain is given by its one-step transition probabilities p_j (up), q_j
(down), r_j (hold) and kappa_j (killing), as a finite prefix of exact
rationals plus a closed-form tail rule in j.  Everything that can be read
off the coefficients alone lives here: potential coefficients, the
recurrence/transience series, the asymptotic-aperiodicity and killing
double sums, and periodicity.  The four series take no working precision:
classify_series reads float64 partial sums, so they run in float64 log
space at any precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import expressions as ex
from .errors import ChainHasKillingError, MalformedChainError
from .limits import aitken
from .numeric import SignedLog, mpf_from_fraction

SUM_TOL = Fraction(1, 10**14)
DEFAULT_DIGITS = 34

ZERO = ex.Const(Fraction(0))


@dataclass(frozen=True, slots=True)
class CoeffRule:
    """One coefficient family: exact prefix values plus an optional tail
    expression in j.  tail=None means the family is undefined beyond the
    prefix (recovered, finite-depth chains)."""

    prefix: tuple[Fraction, ...]
    tail: ex.Expr | None = None

    def at(self, j: int) -> Fraction:
        if j < len(self.prefix):
            return self.prefix[j]
        if self.tail is None:
            raise MalformedChainError(
                f"coefficient requested at j={j} beyond prefix depth "
                f"{len(self.prefix)} of a tail-less chain"
            )
        try:
            return ex.eval_fraction(self.tail, j)
        except ZeroDivisionError as exc:
            raise MalformedChainError(f"tail rule pole at j={j}") from exc

    @property
    def depth(self) -> float:
        return math.inf if self.tail is not None else len(self.prefix)

    def _vanishes(self) -> bool:
        """True iff the family is zero at every index it defines (the tail
        by the grammar's decidable zero test)."""
        if any(v != 0 for v in self.prefix):
            return False
        return self.tail is None or ex.is_zero(self.tail, start=len(self.prefix))

    def array(self, n: int) -> np.ndarray:
        """float64 values for j = 0..n."""
        vals = np.empty(n + 1)
        k = min(len(self.prefix), n + 1)
        vals[:k] = [float(v) for v in self.prefix[:k]]
        if n + 1 > k:
            if self.tail is None:
                raise MalformedChainError(
                    f"coefficients requested to j={n} beyond prefix depth {k}"
                )
            vals[k:] = ex.eval_numpy(self.tail, np.arange(k, n + 1, dtype=float))
        return vals


def rule(prefix=(), tail: str | ex.Expr | None = None) -> CoeffRule:
    """Convenience constructor accepting strings and ints/floats."""
    if isinstance(tail, str):
        tail = ex.parse(tail, "j")
    return CoeffRule(tuple(Fraction(v) for v in prefix), tail)


@dataclass(frozen=True, slots=True)
class ChainSpec:
    """One-step transition parameters of a birth-death chain on 0,1,2,...

    Invariants (checked by validate on j <= 200): q_0 = 0, p_j > 0,
    q_{j+1} > 0, r_j >= 0, kappa_j >= 0 and p+q+r+kappa = 1 (exactly for
    rational tails, within 1e-14 for floating prefixes).
    """

    label: str
    p: CoeffRule
    q: CoeffRule
    r: CoeffRule
    kappa: CoeffRule = CoeffRule((), ZERO)
    # the coefficient table: mp.prec -> mpf columns p, q, r, kappa and the
    # ln pi prefix, "float64" -> the read-only float64 columns; grows on
    # demand and is invisible to ==, hash and repr
    _table: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def depth(self) -> float:
        return min(self.p.depth, self.q.depth, self.r.depth, self.kappa.depth)

    def at(self, j: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p.at(j), self.q.at(j), self.r.at(j), self.kappa.at(j))

    def _float_columns(self, n: int) -> tuple[np.ndarray, ...]:
        """Read-only float64 p, q, r, kappa and ln pi covering j = 0..n (they
        may run longer), rebuilt to exactly n when n runs past the table.  A
        p_j or q_j (j >= 1) that is not > 0 is _check_rows' MalformedChainError."""
        cols = self._table.get("float64")
        if cols is None or len(cols[0]) <= n:
            p, q, r, k = (c.array(n) for c in (self.p, self.q, self.r, self.kappa))
            if not (np.all(p > 0) and np.all(q[1:] > 0)):  # a row past validate's prefix
                self._check_rows(n + 1)
            logpi = np.zeros(n + 1)
            logpi[1:] = np.cumsum(np.log(p[:-1]) - np.log(q[1:]))
            cols = self._table["float64"] = (p, q, r, k, logpi)
            for c in cols:
                c.flags.writeable = False
        return cols

    def arrays(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only float64 p, q, r, kappa for j = 0..n."""
        return tuple(c[: n + 1] for c in self._float_columns(n)[:4])

    def _memo(self) -> tuple[list, list, list, list, list]:
        """(p, q, r, kappa, ln pi) mpf lists at the current precision."""
        memo = self._table.get(mp.mp.prec)
        if memo is None:
            memo = self._table[mp.mp.prec] = ([], [], [], [], [mp.mpf(0)])
        return memo

    def mpf_coefficients(self, n: int) -> tuple[list, list, list, list]:
        """p, q, r, kappa as mpf lists covering j = 0..n (they may run
        longer) at the current working precision.  Each coefficient is
        converted once per precision and then read from the memo."""
        cols = self._memo()[:4]
        for j in range(len(cols[0]), n + 1):
            for col, v in zip(cols, self.at(j)):
                col.append(mpf_from_fraction(v))
        return cols

    def has_killing(self) -> bool:
        return not self.kappa._vanishes()

    def _check_rows(self, rows: int) -> None:
        """validate's law (the class docstring's invariants) on rows
        0..rows-1; the MalformedChainError names the first row breaking it."""
        for j in range(rows):
            p, q, r, k = self.at(j)
            if p <= 0:
                raise MalformedChainError(f"{self.label}: p_{j} = {p} not > 0")
            if j >= 1 and q <= 0:
                raise MalformedChainError(f"{self.label}: q_{j} = {q} not > 0")
            if r < 0 or k < 0:
                raise MalformedChainError(f"{self.label}: negative r or kappa at j={j}")
            s = p + q + r + k
            if abs(s - 1) > SUM_TOL:
                raise MalformedChainError(
                    f"{self.label}: p+q+r+kappa = {float(s)} at j={j}"
                )

    def validate(self) -> None:
        if self.q.at(0) != 0:
            raise MalformedChainError(f"{self.label}: q_0 must be 0")
        depth = self.depth
        self._check_rows(int(min(201, depth)))
        # tail rules must stay evaluable far out
        if depth == math.inf:
            far = np.array([1e6])
            for name in ("p", "q", "r", "kappa"):
                tail = getattr(self, name).tail
                if tail is not None:
                    v = ex.eval_numpy(tail, far)[0]
                    if not np.isfinite(v):
                        raise MalformedChainError(
                            f"{self.label}: {name} tail not evaluable at j=1e6"
                        )


def is_periodic(chain: ChainSpec) -> bool:
    """True iff r_j = 0 for every j (decidable for supported tail forms)."""
    return chain.r._vanishes()


# --- potential coefficients --------------------------------------------------


def log_pi_mpf(chain: ChainSpec, n: int) -> list:
    """ln pi_j for j = 0..n at the current working precision (the running
    sum of ln p_j - ln q_{j+1}, memoized with the chain's mpf columns)."""
    *_, logs = chain._memo()
    if len(logs) <= n:
        p, q, _, _ = chain.mpf_coefficients(n)
        for j in range(len(logs) - 1, n):
            logs.append(logs[-1] + (mp.log(p[j]) - mp.log(q[j + 1])))
    return logs[: n + 1]


def potential_coefficients(chain: ChainSpec, n: int) -> list[SignedLog]:
    """pi_0..pi_n as sign/log pairs (pi_0 = 1, pi_{j+1} = pi_j p_j / q_{j+1})
    from the float64 ln pi column of _series_float, at every precision."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [SignedLog(1, float(lg)) for lg in _series_float(chain, n)[4]]


# --- divergence verdicts ------------------------------------------------------


@dataclass(frozen=True)
class DivergenceVerdict:
    """Trinary verdict on a nonnegative series, with its partial sums.

    verdict is 'diverges', 'converges' or 'undecided'; for 'converges' the
    extrapolated bound is attached.  tail_analysis records which rule fired.
    """

    partial_sums: np.ndarray
    verdict: str
    tail_analysis: str | None = None
    bound: float | None = None


def _aitken_last(seq: np.ndarray) -> float:
    """Last Aitken-accelerated value of a sequence (nan when shorter than
    three; the inf or nan of overflowed partial sums comes back without a
    warning)."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = aitken(seq[-3:])
    return float(acc[-1]) if len(acc) else math.nan


DIVERGENCE_BOUND = 1e8
STABILIZE_RTOL = 1e-6
SLOPE_MARGIN = 0.02


def classify_series(partial: np.ndarray, summands: np.ndarray) -> DivergenceVerdict:
    """Heuristic trinary divergence verdict.

    converges: summands identically zero, or Aitken-accelerated partial sums
    stable to STABILIZE_RTOL across two decades of indices, or a clean
    power-law summand fit with exponent <= -1 - SLOPE_MARGIN (bound then
    includes the extrapolated tail).
    diverges: partial sums (raw or accelerated) exceed DIVERGENCE_BOUND, or
    the summand tail fits c*j^s with s >= -1 + SLOPE_MARGIN.
    Everything else is undecided.
    """
    partial = np.asarray(partial, dtype=float)
    summands = np.asarray(summands, dtype=float)
    n = len(partial)
    if np.all(summands == 0.0):
        return DivergenceVerdict(partial, "converges", "all summands zero",
                                 float(partial[-1]))
    if n >= 16:
        checkpoints = sorted({n - 1, max(8, n // 10), max(4, n // 100)})
        acc = [_aitken_last(partial[: k + 1]) for k in checkpoints]
        if all(math.isfinite(a) for a in acc):
            scale = max(abs(acc[-1]), 1e-300)
            if (max(acc) - min(acc)) / scale < STABILIZE_RTOL:
                return DivergenceVerdict(
                    partial, "converges",
                    f"aitken stable at {acc[-1]:.6g} over indices {checkpoints}",
                    acc[-1],
                )
    last_acc = _aitken_last(partial)
    if partial[-1] > DIVERGENCE_BOUND or (
        math.isfinite(last_acc) and last_acc > DIVERGENCE_BOUND
    ):
        return DivergenceVerdict(
            partial, "diverges", f"partial sums exceed bound {DIVERGENCE_BOUND:g}"
        )
    # power-law fit of the summand over the last decade of indices
    j = np.arange(n, dtype=float)
    lo = max(1, n // 10)
    window = slice(lo, n)
    t = summands[window]
    if np.all(t > 0) and n - lo >= 4:
        lj = np.log(j[window])
        lt = np.log(t)
        s, intercept = np.polyfit(lj, lt, 1)
        resid = float(np.sqrt(np.mean((lt - (s * lj + intercept)) ** 2)))
        if resid < 0.2:
            if s >= -1.0 + SLOPE_MARGIN:
                return DivergenceVerdict(
                    partial, "diverges",
                    f"summand ~ j^{s:.3f} >= 1/j over j in [{lo},{n - 1}]",
                )
            if s <= -1.0 - SLOPE_MARGIN:
                c = math.exp(intercept)
                tail = c * (n - 1) ** (s + 1) / (-1.0 - s)
                return DivergenceVerdict(
                    partial, "converges",
                    f"summand ~ j^{s:.3f}, extrapolated tail {tail:.3g}",
                    float(partial[-1] + tail),
                )
    return DivergenceVerdict(partial, "undecided", "no rule fired")


def _series_float(chain: ChainSpec, n: int) -> tuple[np.ndarray, ...]:
    """float64 p, q, r, kappa and ln pi for j = 0..n, slices of the chain's
    table.  pi_j overflows float64 for transient chains, so the series stay
    in log space until their order-one summands."""
    return tuple(c[: n + 1] for c in chain._float_columns(n))


def _double_sum_verdict(chain: ChainSpec, n: int, which: str) -> DivergenceVerdict:
    """Verdict on sum_j (1/(p_j pi_j)) sum_{m<=j} w_m pi_m for j = 0..n, with
    w = r (which="r") or w = kappa (which="kappa"), summed in log space."""
    p, _, r, k, logpi = _series_float(chain, n)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        inner_log = np.logaddexp.accumulate(np.log(r if which == "r" else k) + logpi)
        term_log = inner_log - (np.log(p) + logpi)
        terms = np.exp(term_log)
    terms[np.isneginf(term_log)] = 0.0
    return classify_series(np.cumsum(terms), terms)


def series_L(chain: ChainSpec, n: int) -> DivergenceVerdict:
    """Partial sums of sum_j 1/(p_j pi_j): diverges iff the chain is recurrent."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, *_, logpi = _series_float(chain, n)
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp(-(np.log(p) + logpi))
    return classify_series(np.cumsum(terms), terms)


def asymptotic_aperiodicity_sum(chain: ChainSpec, n: int) -> DivergenceVerdict:
    """Double sum sum_j (1/(p_j pi_j)) sum_{m<=j} r_m pi_m.

    Divergence is equivalent to asymptotic aperiodicity for honest chains;
    raises ChainHasKillingError when any kappa_j > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if chain.has_killing():
        raise ChainHasKillingError(
            f"{chain.label}: aperiodicity sum is defined for honest chains only"
        )
    return _double_sum_verdict(chain, n, "r")


def rj_over_pj_sum(chain: ChainSpec, n: int) -> DivergenceVerdict:
    """Partial sums of sum_j r_j/p_j (sufficient condition, dominated by the
    aperiodicity double sum termwise)."""
    p, _, r, _ = chain.arrays(n)
    terms = r / p
    return classify_series(np.cumsum(terms), terms)


def killing_sum(chain: ChainSpec, n: int) -> DivergenceVerdict:
    """Double sum sum_j (1/(p_j pi_j)) sum_{m<=j} kappa_m pi_m.

    Divergence is equivalent to certain eventual absorption in the cemetery
    state (equivalently Q_n(1) -> infinity)."""
    return _double_sum_verdict(chain, n, "kappa")
