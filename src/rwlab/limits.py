"""Sequence limit estimation: tail windows, Aitken acceleration, Richardson.

These estimators are deliberately conservative: the uncertainty they report
is the spread actually observed in the window used, and oscillating
sequences are flagged rather than averaged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalRouteWarning

INF = float("inf")


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated limit of a real sequence.

    kind: 'finite' (value, uncertainty meaningful), 'infinite' (+inf
    sentinel), or 'none' (oscillating / no limit).
    """

    kind: str
    value: float
    uncertainty: float
    method: str
    n_used: tuple[int, int]

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def aitken(seq: np.ndarray) -> np.ndarray:
    """One Aitken delta-squared pass; output has length len(seq) - 2.

    Entries where the second difference vanishes keep the raw value.
    """
    s = np.asarray(seq, dtype=float)
    if len(s) < 3:
        return s[:0]
    d1 = s[1:] - s[:-1]
    d2 = d1[1:] - d1[:-1]
    out = s[2:].copy()
    ok = d2 != 0
    out[ok] = s[2:][ok] - d1[1:][ok] ** 2 / d2[ok]
    return out


def richardson_pair(coarse: float, fine: float, order: int = 2) -> float:
    """Eliminate the leading c/K^order error from values at K and K/2."""
    return fine + (fine - coarse) / (2.0**order - 1.0)


def _window(seq: np.ndarray) -> slice:
    n = len(seq)
    return slice(max(0, n - max(8, n // 4)), n)


def estimate_limit(seq, min_len: int = 16) -> LimitEstimate:
    """Estimate lim seq with convergence diagnostics.

    Tail-window mean; Aitken acceleration when the tail is monotone;
    'oscillating/none' when the even and odd subsequences settle at visibly
    different values; '+infinity' when the tail grows without sign changes
    past 1e12.  Non-finite entries are dropped with a NumericalRouteWarning
    that gives their count.
    """
    s = np.asarray([float(v) for v in seq], dtype=float)
    # positions in the caller's sequence of the finite entries kept, so
    # n_used indexes seq even when non-finite entries are dropped
    index = np.flatnonzero(np.isfinite(s))
    if len(index) < len(s):
        warnings.warn(NumericalRouteWarning(
            f"estimate_limit dropped {len(s) - len(index)} non-finite of "
            f"{len(s)} entries"
        ), stacklevel=2)
    s = s[index]
    if len(s) < min_len:
        raise ValueError(f"need at least {min_len} finite entries, got {len(s)}")
    n = len(s)

    def span(lo: int) -> tuple[int, int]:
        return int(index[lo]), int(index[n - 1])

    tail = s[_window(s)]
    scale = max(np.max(np.abs(tail)), 1e-300)

    # oscillation: stable but distinct even/odd tails
    ev, od = tail[::2], tail[1::2]
    if len(ev) >= 3 and len(od) >= 3:
        gap = abs(np.mean(ev) - np.mean(od))
        spread = max(np.max(ev) - np.min(ev), np.max(od) - np.min(od))
        if gap > 1e-9 * scale and gap > 8 * spread:
            return LimitEstimate("none", math.nan, math.nan, "tail-window",
                                 span(n - len(tail)))

    # divergence to +infinity
    if np.all(tail > 0) and tail[-1] > 1e12 and np.all(np.diff(tail) >= 0):
        return LimitEstimate("infinite", INF, INF, "tail-window",
                             span(n - len(tail)))

    diffs = np.diff(tail)
    monotone = np.all(diffs >= 0) or np.all(diffs <= 0)
    if monotone and len(s) >= 8 and np.max(np.abs(diffs)) > 0:
        acc = aitken(s)
        win = acc[_window(acc)]
        # acceleration can misbehave on noisy tails; accept it only when it
        # tightened the spread
        if len(win) >= 4 and np.all(np.isfinite(win)):
            raw_spread = float(np.max(tail) - np.min(tail))
            acc_spread = float(np.max(win) - np.min(win))
            if acc_spread < raw_spread:
                value = float(np.mean(win))
                unc = max(acc_spread, abs(float(win[-1]) - value))
                return LimitEstimate("finite", value, unc, "aitken",
                                     span(len(acc) - len(win) + 2))

    value = float(np.mean(tail))
    unc = float(np.max(tail) - np.min(tail))
    return LimitEstimate("finite", value, unc, "tail-window",
                         span(n - len(tail)))
