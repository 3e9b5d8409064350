"""Symmetric tridiagonal toolbox: Jacobi matrices of chains, extreme
eigenvalues, and Golub-Welsch quadrature.

Two backends share every interface: float64 (LAPACK via scipy) for
digits <= 16, and mpmath for higher working precision.  High-precision
eigenvalues come from Sturm-count bisection or Newton polishing of float64
seeds; high-precision Golub-Welsch weights use the reciprocal
sum-of-squares identity for the first eigenvector component.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

FLOAT_DIGITS = 16


def jacobi_arrays_f64(chain, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal r_0..r_{size-1} and off-diagonal sqrt(p_{j-1} q_j)."""
    p, q, r, _ = chain.arrays(size - 1)
    d = r[:size]
    e = np.sqrt(p[: size - 1] * q[1:size])
    return d, e


def jacobi_arrays_mpf(chain, size: int) -> tuple[list, list]:
    """jacobi_arrays_f64 as mpf at the current working precision."""
    p, q, r, _ = chain.mpf_coefficients(size - 1)
    return r[:size], [mp.sqrt(p[j - 1] * q[j]) for j in range(1, size)]


def _three_term(x, p, q, r, n: int):
    """Yield Q_1(x)..Q_n(x) of x Q_k = q_k Q_{k-1} + r_k Q_k + p_k Q_{k+1},
    Q_0 = 1, q_0 = 0.

    x is an mpf (iterate inside the working precision) or a float64 array
    of nodes.  With (p, q, r) = (a[1:], a, b) and a[0] = 0 this is the
    orthonormal Jacobi recurrence."""
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, ((x - r[k]) * cur - q[k] * prev) / p[k]
        yield cur


def sturm_count(d: list, e: list, x) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x."""
    count = 0
    t = d[0] - x
    tiny = mp.mpf(10) ** (-mp.mp.dps * 3)
    if t < 0:
        count += 1
    for k in range(1, len(d)):
        if t == 0:
            t = tiny
        t = d[k] - x - e[k - 1] * e[k - 1] / t
        if t < 0:
            count += 1
    return count


def extreme_eigen_f64(d: np.ndarray, e: np.ndarray, which: str) -> float:
    n = len(d)
    idx = n - 1 if which == "max" else 0
    w = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                         select_range=(idx, idx))
    return float(w[0])


def extreme_eigen_mpf(d: list, e: list, which: str, digits: int) -> mp.mpf:
    """Extreme eigenvalue by Sturm bisection at working precision."""
    n = len(d)
    radius = [abs(e[0]) if n > 1 else mp.mpf(0)]
    for k in range(1, n):
        left = abs(e[k - 1])
        right = abs(e[k]) if k < n - 1 else mp.mpf(0)
        radius.append(left + right)
    lo = min(d[k] - radius[k] for k in range(n)) - 1
    hi = max(d[k] + radius[k] for k in range(n)) + 1
    # lambda_max: largest x with at most n-1 eigenvalues below it;
    # lambda_min: largest x with no eigenvalue below it
    threshold = n - 1 if which == "max" else 0
    eps = mp.mpf(10) ** (-(digits - 2))
    while hi - lo > eps * max(1, abs(hi), abs(lo)):
        mid = (lo + hi) / 2
        if sturm_count(d, e, mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def golub_welsch_f64(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the quadrature rule of a unit-mass Jacobi matrix."""
    w, v = eigh_tridiagonal(d, e)
    return w, v[0, :] ** 2


def _char_and_derivative(a: list, b: list, x, n: int):
    """Characteristic-polynomial surrogate for the n x n truncation and its
    derivative: u = (x - b_{n-1}) p_{n-1} - a_{n-1} p_{n-2}, whose zeros are
    the eigenvalues (the final orthonormal rescaling is irrelevant)."""
    p_prev, p_cur = mp.mpf(1), (x - b[0]) / a[1]
    d_prev, d_cur = mp.mpf(0), mp.mpf(1) / a[1]
    for k in range(1, n - 1):
        p_nxt = ((x - b[k]) * p_cur - a[k] * p_prev) / a[k + 1]
        d_nxt = (p_cur + (x - b[k]) * d_cur - a[k] * d_prev) / a[k + 1]
        p_prev, p_cur = p_cur, p_nxt
        d_prev, d_cur = d_cur, d_nxt
    u = (x - b[n - 1]) * p_cur - a[n - 1] * p_prev
    du = p_cur + (x - b[n - 1]) * d_cur - a[n - 1] * d_prev
    return u, du


def golub_welsch_mpf(chain, size: int, digits: int):
    """High-precision nodes/weights: float64 seeds, Newton-polished roots of
    the degree-`size` orthonormal polynomial, weights 1/sum_{j<size} p_j^2."""
    d64, e64 = jacobi_arrays_f64(chain, size)
    seeds, _ = golub_welsch_f64(d64, e64)
    with mp.workdps(digits + 10):
        dg, eg = jacobi_arrays_mpf(chain, size)
        a = [mp.mpf(0)] + eg  # a[k], k = 1..size-1
        b = dg
        nodes = []
        weights = []
        for s in seeds:
            x = mp.mpf(float(s))
            for _ in range(4):
                u, du = _char_and_derivative(a, b, x, size)
                if du == 0:
                    break
                x = x - u / du
            vals = [mp.mpf(1), *_three_term(x, eg, a, b, size - 1)]
            weights.append(1 / mp.fsum(v * v for v in vals))
            nodes.append(x)
        order = sorted(range(size), key=lambda k: nodes[k])
        nodes = [nodes[k] for k in order]
        weights = [weights[k] for k in order]
    return nodes, weights
