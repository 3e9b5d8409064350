"""Symmetric tridiagonal toolbox: Jacobi matrices of chains, extreme
eigenvalues, and Golub-Welsch quadrature.

Extreme eigenvalues are float64 at every precision: Sturm bisection on a
fixed-point grid, on Python integers scaled by 2^F with F = 53 +
_GUARD_BITS, run until the bracket ends are adjacent doubles.  Golub-Welsch
has two backends: float64 (numpy's dense symmetric eigensolver on the
Jacobi matrix) for digits <= 16, and a high-precision one above, which
takes its Jacobi arrays as mpf.  Its nodes are Newton-polished float64
seeds, all nodes at once on numpy object arrays, in fixed point at the
working precision in bits plus _GUARD_BITS, until every step is below the
guard grid.  Each weight is 1/sum v_j^2 for the node's eigenvector v with
v_0 = 1, run forward from the first index and backward from the last and
joined where the float64 eigenvector peaks: decaying ones keep their weight.

_three_term is the one forward recurrence of the polynomial family, on mpf
or on float64 node arrays; _three_term_f64 is its scalar float64 form with a
power-of-two rescale per step, which the edge bisection at every precision
and the polynomial passes at <= 16 digits run on.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import PrecisionExhaustedError

FLOAT_DIGITS = 16
_GUARD_BITS = 24
_MAX_PASSES = 16  # Newton passes before unsettled nodes raise


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


def _three_term_f64(x: float, p: list, q: list, r: list, n: int):
    """Yield (m_k, e_k) with Q_k(x) = m_k 2^e_k for k = 1..n: _three_term on
    floats, where each step rescales Q_{k-1} and Q_k by the power of two
    that brings |m_k| into [1/2, 1), so growth outside the support never
    overflows.  sign(Q_k) = sign(m_k) and ln|Q_k| = ln|m_k| + e_k ln 2.

    The rescale is exact, so the m_k 2^e_k are the unscaled float64
    recurrence's values wherever those stay in the normal range."""
    frexp, ldexp = math.frexp, math.ldexp
    prev, cur, e = 0.0, 1.0, 0
    for k in range(n):
        prev, cur = cur, ((x - r[k]) * cur - q[k] * prev) / p[k]
        cur, shift = frexp(cur)
        if shift:
            prev, e = ldexp(prev, -shift), e + shift
        yield cur, e


def _fixed(v, bits: int) -> int:
    """round(v * 2^bits) for an mpf or float v."""
    return int(mp.nint(mp.ldexp(v, bits)))


def sturm_count(d: list, e2: list, x: int) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x.

    Fixed point: d and x are scaled by 2^F and e2 = e^2 by 2^(2F).  A zero
    pivot becomes one unit, 2^-F."""
    t = d[0] - x
    count = int(t < 0)
    for dk, ek in zip(d[1:], e2):
        t = dk - x - ek // (t or 1)
        count += t < 0
    return count


def _gershgorin(d, e):
    """An interval holding every eigenvalue of the tridiagonal (d, e),
    widened by 1 on each side."""
    n = len(d)
    radius = [abs(e[0]) if n > 1 else 0]
    for k in range(1, n):
        radius.append(abs(e[k - 1]) + (abs(e[k]) if k < n - 1 else 0))
    return (min(d[k] - radius[k] for k in range(n)) - 1,
            max(d[k] + radius[k] for k in range(n)) + 1)


def extreme_eigen_f64(d: np.ndarray, e: np.ndarray, which: str) -> float:
    """Extreme eigenvalue by Sturm bisection in float64, counted on the
    fixed-point grid 2^-F with F = 53 + _GUARD_BITS: the lower end of a
    bracket whose ends are adjacent doubles.  Doubles are finer than the
    grid only within 2^-24 of 0, where the bracket stops at the grid
    spacing.  The grid is absolute, which suits a chain's Jacobi entries
    (all at most 1)."""
    bits = 53 + _GUARD_BITS
    d, e = d.tolist(), e.tolist()
    lo, hi = _gershgorin(d, e)
    fd = [round(math.ldexp(v, bits)) for v in d]
    fe2 = [round(math.ldexp(v, bits)) ** 2 for v in e]
    threshold = len(d) - 1 if which == "max" else 0
    grid = math.ldexp(1.0, -bits)
    while hi - lo > grid and lo < (mid := (lo + hi) / 2) < hi:
        if sturm_count(fd, fe2, round(math.ldexp(mid, bits))) <= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def _eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unit eigenvectors (columns) of the
    tridiagonal (d, e), from the dense symmetric solver."""
    n = len(d)
    matrix = np.diag(d)
    matrix[np.arange(1, n), np.arange(n - 1)] = e  # eigh reads the lower triangle
    return np.linalg.eigh(matrix)


def golub_welsch_f64(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the quadrature rule of a unit-mass Jacobi matrix."""
    w, v = _eigh(d, e)
    return w, v[0, :] ** 2


def _eigenvector_sums(x, a: list, b: list, inv: list, peak, bits: int):
    """(sum_{j<peak} v_j^2 at scale 2^(2F), v_peak at scale 2^F) per node of
    v_0 = 1, v_{j+1} = ((x - b_j) v_j - a_j v_{j-1}) / a_{j+1}, row j over
    the nodes of peak > j only: a shrinking prefix once sorted by peak."""
    order = np.argsort(-peak, kind="stable")
    x, peak = x[order], peak[order]
    live = np.searchsorted(-peak, -np.arange(peak[0] + 1))  # live[j]: nodes with peak > j
    prev, cur = np.zeros(len(x), dtype=object), np.full(len(x), 1 << bits, dtype=object)
    total, at_peak = np.zeros(len(x), dtype=object), cur.copy()
    for j in range(peak[0]):
        m, ending = live[j], live[j + 1]
        cur = cur[:m]
        total[order[:m]] += cur * cur
        prev, cur = cur, ((x[:m] - b[j]) * cur - a[j] * prev[:m]) * inv[j + 1] >> 2 * bits
        at_peak[order[ending:m]] = cur[ending:]
    return total, at_peak


def golub_welsch_mpf(chain, size: int, digits: int):
    """High-precision nodes/weights: Newton passes from the float64 seeds on
    u = a_size p_size (u' too while the steps reach 2^-(prec/2)) until every
    step is below 2^(_GUARD_BITS-4) units, else PrecisionExhaustedError; weights
    from the eigenvector run forward to, and backward from the end to, its peak."""
    d64, e64 = jacobi_arrays_f64(chain, size)
    seeds, vectors = _eigh(d64, e64)
    peak = np.argmax(np.abs(vectors), axis=0)
    with mp.workdps(digits + 10):
        dg, eg = jacobi_arrays_mpf(chain, size)
        bits = mp.mp.prec + _GUARD_BITS
        b = [_fixed(v, bits) for v in dg]
        a = [0, *(_fixed(v, bits) for v in eg), 0]  # a[k], k = 1..size-1; a[size] = 0
        inv = [0, *(_fixed(1 / v, bits) for v in eg), 0]
        x = np.array([_fixed(s, bits) for s in seeds], dtype=object)
        step = fresh = 1 << bits - mp.mp.prec // 2
        for _ in range(_MAX_PASSES):
            p_prev, p, dp_prev, dp = 0, 1 << bits, 0, 0
            for k in range(size):
                xb = x - b[k]
                if step >= fresh:  # after a smaller step the last u' is exact enough
                    du = (p << bits) + xb * dp - a[k] * dp_prev
                    dp_prev, dp = dp, du * inv[k + 1] >> 2 * bits
                u = xb * p - a[k] * p_prev
                p_prev, p = p, u * inv[k + 1] >> 2 * bits
            moved = du != 0
            dx = (u[moved] << bits) // du[moved]
            x[moved] -= dx
            step = max(map(abs, dx), default=0)
            if step < 1 << _GUARD_BITS - 4:
                break
        else:
            raise PrecisionExhaustedError(
                f"Golub-Welsch at size {size}, {digits} digits: the largest Newton step is "
                f"{mp.nstr(mp.ldexp(step, -bits), 3)} after {_MAX_PASSES} passes")
        lower, fm = _eigenvector_sums(x, a, b, inv, peak, bits)
        upper, gm = _eigenvector_sums(x, a[::-1], b[::-1], inv[::-1], size - 1 - peak, bits)
        # the backward solution, rescaled to meet the forward one at the peak
        total = lower + fm * fm + upper * fm * fm // (gm * gm)
        order = sorted(range(size), key=lambda k: x[k])
        # the guard bits only absorb the loops' rounding: return the nodes on
        # the grid 2^-prec, so that a node at zero comes out as exactly 0
        x = (x + (1 << _GUARD_BITS - 1)) >> _GUARD_BITS
        nodes = [mp.ldexp(x[k], -mp.mp.prec) for k in order]
        weights = [mp.ldexp(1 / mp.mpf(total[k]), 2 * bits) for k in order]
    return nodes, weights
