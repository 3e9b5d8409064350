"""Symmetric tridiagonal toolbox: Jacobi matrices of chains, extreme
eigenvalues, and Golub-Welsch quadrature.

Extreme eigenvalues are float64 at every precision: Sturm bisection on a
fixed-point grid, on Python integers scaled by 2^F with F = 53 +
_GUARD_BITS, run by _bisect, the one scalar bisection loop, until the
bracket ends are adjacent doubles.  Golub-Welsch
has two backends, both from eigenvalues alone: no eigenvector matrix and no
BLAS call reaches their output, which is therefore the same on every BLAS
thread count.  Both run one algorithm: the twisted eigenvector at the node,
its Rayleigh correction, and the weight from its norm.  The float64 one
(digits <= 16) bisects each node with vectorized float64 Sturm counts to a
multiple of 2^-53 that the count alone fixes, from np.linalg.eigvalsh seeds,
in blocks of _BLOCK nodes.  The high-precision one above moves the float64
nodes, all at once on numpy object arrays in fixed point at the working
precision in bits plus _GUARD_BITS, by the Rayleigh steps of their
eigenvectors v, v_0 = 1, run forward from the first index and backward from
the last and joined at the twist index, until every step is below the guard
grid; decaying eigenvectors keep their weight 1/sum v_j^2.

_three_term is the one forward recurrence of the polynomial family, on mpf
or on float64 node arrays; _three_term_f64 is its scalar float64 form with a
power-of-two rescale per step, which the float64 polynomial passes run on.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import PrecisionExhaustedError

FLOAT_DIGITS = 16
_GUARD_BITS = 24
_MAX_PASSES = 16  # Rayleigh steps before unsettled nodes raise
_BLOCK = 512  # nodes per float64 work array of N x _BLOCK
# nodes per twist-index block of the high-precision rule, whose N x 64
# pivots stay below the seeds' dense matrix at N = 400
_TWIST_BLOCK = 64
_GRID = 2.0**-53  # the float64 nodes are multiples of it
_BITS = 53 + _GUARD_BITS  # the grid 2^-_BITS of the scalar Sturm bisections


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


def _fixed_jacobi(d, e) -> tuple[list, list]:
    """sturm_count's operands of the tridiagonal (d, e) on the grid 2^-F,
    F = _BITS: d scaled by 2^F and e^2 by 2^(2F)."""
    return ([round(math.ldexp(v, _BITS)) for v in d.tolist()],
            [round(math.ldexp(v, _BITS)) ** 2 for v in e.tolist()])


def _count_below(fixed: tuple[list, list], x: float) -> int:
    """sturm_count of _fixed_jacobi(d, e) at the grid point nearest x."""
    return sturm_count(*fixed, round(math.ldexp(x, _BITS)))


def _bisect(holds, lo: float, hi: float, stop: float) -> tuple[float, float]:
    """[lo, hi] of a monotone predicate that holds at lo and fails at hi,
    halved until at most `stop` wide or its ends are adjacent doubles."""
    while hi - lo > stop and lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo, hi


def extreme_eigen_f64(d: np.ndarray, e: np.ndarray, which: str, fixed=None) -> float:
    """Extreme eigenvalue by Sturm bisection in float64, counted on the
    fixed-point grid 2^-F with F = _BITS: the lower end of a bracket whose
    ends are adjacent doubles.  Doubles are finer than the grid only within
    2^-24 of 0, where the bracket stops at the grid spacing.  The grid is
    absolute, which suits a chain's Jacobi entries (all at most 1).  `fixed`
    is _fixed_jacobi(d, e) when the caller holds it already."""
    threshold = len(d) - 1 if which == "max" else 0
    fixed = fixed or _fixed_jacobi(d, e)
    return _bisect(lambda x: _count_below(fixed, x) <= threshold,
                   *_gershgorin(d.tolist(), e.tolist()), math.ldexp(1.0, -_BITS))[0]


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal (d, e) strictly below each x,
    from the float64 pivots t_k = (d_k - x) - e_k^2 / t_{k-1} counted by sign
    bit.  A zero pivot divides to an infinity and the pivot after it is
    finite again, so IEEE arithmetic needs no test, and the count is
    monotone in x (Demmel, Dhillon & Ren, ETNA 3, 1995).  e > 0.  One row
    of _BLOCK points per pivot, no BLAS call."""
    counts = np.empty(len(x), dtype=np.int64)
    for start in range(0, len(x), _BLOCK):
        t = d[:, None] - x[start : start + _BLOCK]
        rows, tmp = list(t), np.empty(t.shape[1])
        with np.errstate(divide="ignore", over="ignore"):
            for k in range(1, len(d)):
                np.divide(e2[k - 1], rows[k - 1], out=tmp)
                np.subtract(rows[k], tmp, out=rows[k])
        counts[start : start + _BLOCK] = np.signbit(t).sum(axis=0)
    return counts


def _nodes_f64(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal (d, e), |eigenvalues| < 2^10:
    node i is the largest multiple of _GRID at which _sturm_counts finds at
    most i eigenvalues.  That end point depends on the count alone, so the
    seeds (np.linalg.eigvalsh, whose rounding moves with the BLAS thread
    count) only set where the bisection starts: at seed +- 0.2 sqrt(n) eps
    |T|, |T| = |d|_inf + 2 |e|_inf, rounded up to a power of two in grid
    steps (the seeds were within 0.15 sqrt(n) eps |T| on the bundled
    chains).  Only the live brackets are bisected; an end the bisection
    never moved is counted last, and one that fails moves out by the
    bracket's width, doubled each time."""
    n = len(d)
    e2 = e * e
    matrix = np.diag(d)
    matrix[np.arange(1, n), np.arange(n - 1)] = e  # eigvalsh reads the lower triangle
    seeds = np.linalg.eigvalsh(matrix)
    del matrix
    lowest, highest = _gershgorin(d.tolist(), e.tolist())
    floor, ceil = math.floor(lowest / _GRID), math.ceil(highest / _GRID)
    norm = np.max(np.abs(d)) + 2 * np.max(np.abs(e), initial=0)
    # a power of two, so that the bisection halves every bracket to one step
    steps = 0.2 * math.sqrt(n) * np.finfo(float).eps * norm / _GRID
    width = 1 << math.ceil(math.log2(max(1.0, steps)))
    start = np.rint(seeds / _GRID).astype(np.int64)
    lo, hi = np.maximum(start - width, floor), np.minimum(start + width, ceil)
    # count(lo) <= i < count(hi) is known at the Gershgorin ends and at
    # every end the bisection moved
    lo_ok, hi_ok = lo == floor, hi == ceil
    while len(live := np.flatnonzero((hi - lo > 1) | ~lo_ok | ~hi_ok)):
        l, h = lo[live], hi[live]
        at = np.where(h - l > 1, (l + h) >> 1, np.where(lo_ok[live], h, l))
        below = _sturm_counts(d, e2, at * _GRID) <= live
        lo[live[below]], lo_ok[live[below]] = at[below], True
        hi[live[~below]], hi_ok[live[~below]] = at[~below], True
        shut = live[lo[live] == hi[live]]  # a failed end: the node lies beyond it
        if len(shut):
            width *= 2
            down, up = shut[~lo_ok[shut]], shut[~hi_ok[shut]]
            lo[down] = np.maximum(lo[down] - width, floor)
            hi[up] = np.minimum(hi[up] + width, ceil)
            lo_ok[down], hi_ok[up] = lo[down] == floor, hi[up] == ceil
    return lo * _GRID


def _pivots(d: np.ndarray, e2: np.ndarray, x: np.ndarray, below=0.0) -> np.ndarray:
    """The pivots of the top-down and the bottom-up factorization of T - s
    at one block of shifts s = x + below (a double-double when below is the
    correction of a float64 x), side by side: row k holds D+_k and
    D-_{n-1-k}, so that one pass over the rows runs both recurrences.  Each
    pivot divides as if floored at eps in magnitude (|e_k^2 / D_k| is capped
    at e_k^2 / eps), since a shift on an eigenvalue of a leading block gives
    a zero pivot."""
    pivots = np.empty((len(d), 2, len(x)))
    np.subtract(d[:, None], x, out=pivots[:, 0])
    pivots[:, 0] -= below
    pivots[:, 1] = pivots[::-1, 0]
    ratios = np.stack([e2, e2[::-1]], axis=1)[:, :, None]
    caps = ratios / np.finfo(float).eps
    rows, tmp = list(pivots), np.empty(pivots.shape[1:])
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(1, len(rows)):
            np.divide(ratios[k - 1], rows[k - 1], out=tmp)
            np.minimum(tmp, caps[k - 1], out=tmp)
            np.maximum(tmp, -caps[k - 1], out=tmp)
            np.subtract(rows[k], tmp, out=rows[k])
    return pivots


def _twist(d: np.ndarray, x: np.ndarray, pivots: np.ndarray):
    """(r, gamma_r): the twist index r = argmin_k |gamma_k| of each shift x,
    gamma_k = D+_k + D-_k - (d_k - x) (Parlett & Dhillon, Linear Algebra
    Appl. 267, 1997), and gamma there."""
    plus, minus = pivots[:, 0], pivots[::-1, 1]
    gamma = plus + minus
    gamma -= d[:, None]
    gamma += x
    r = np.argmin(np.abs(gamma, out=gamma), axis=0)
    at = np.arange(len(x))
    return r, plus[r, at] + minus[r, at] - (d[r] - x)


def _twisted_vector(e2: np.ndarray, pivots: np.ndarray, r):
    """(z_0^2, |z|^2) of the twisted factorization's eigenvector z, z_r = 1,
    z_k = -e_k z_{k+1} / D+_k above r and z_{k+1} = -e_k z_k / D-_{k+1} below
    it, with the pivots floored at eps as _pivots divides by them:
    cumulative products of the squared ratios outward from r, each a z_k^2
    and so bounded.  Overwrites pivots."""
    n = len(pivots)
    # row k: z_k^2 / z_{k+1}^2 if k < r, and z_{j+1}^2 / z_j^2 for
    # j = n-2-k if j >= r; 1 elsewhere
    ratios = pivots[:-1]
    np.square(ratios, out=ratios)
    np.maximum(ratios, np.finfo(float).eps ** 2, out=ratios)
    np.divide(np.stack([e2, e2[::-1]], axis=1)[:, :, None], ratios, out=ratios)
    k = np.arange(n - 1)[:, None]
    np.copyto(ratios[:, 0], 1.0, where=k >= r)
    np.copyto(ratios[:, 1], 1.0, where=k > n - 2 - r)
    pivots[-1] = 1.0
    # products from the last row up: z_k^2 for k < r, and z_{n-1-k}^2 for n-1-k > r
    rows = list(pivots)
    for k in range(n - 2, -1, -1):
        np.multiply(rows[k], rows[k + 1], out=rows[k])
    first = pivots[0, 0].copy()
    squares = pivots[:, 0]
    squares *= pivots[::-1, 1]  # z_k^2, as one of the two factors is 1 at every k
    return first, squares.sum(axis=0)


def golub_welsch_f64(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the quadrature rule of a unit-mass Jacobi matrix:
    _nodes_f64, and z_0^2 / |z|^2 of the twisted factorization at each node
    plus its Rayleigh correction gamma_r / |z|^2, in blocks of _BLOCK nodes.
    The correction takes the shift below the node's half-ulp rounding,
    which the weight feels as much as the pivots' own rounding."""
    nodes, e2 = _nodes_f64(d, e), e * e
    weights = []
    for start in range(0, len(nodes), _BLOCK):
        x = nodes[start : start + _BLOCK]
        pivots = _pivots(d, e2, x)
        r, gamma = _twist(d, x, pivots)
        below = gamma / _twisted_vector(e2, pivots, r)[1]
        del pivots
        first, norm = _twisted_vector(e2, _pivots(d, e2, x, below), r)
        weights.append(first / norm)
    return nodes, np.concatenate(weights)


def _eigenvector_sums(x, a, b, inv: list, join, bits: int):
    """(sum_{j<join} v_j^2 at scale 2^(2F), v_{join-1} and v_join at scale
    2^F) per node of v_0 = 1, v_{j+1} = ((x - b_j) v_j - a_j v_{j-1}) /
    a_{j+1}, row j over the nodes of join > j only: a shrinking prefix once
    sorted by join.  This is the one fixed-point loop of golub_welsch_mpf."""
    order = np.argsort(-join, kind="stable")
    x, join = x[order], join[order]
    live = np.searchsorted(-join, -np.arange(join[0] + 1))  # live[j]: nodes with join > j
    prev, cur = np.zeros(len(x), dtype=object), np.full(len(x), 1 << bits, dtype=object)
    total, before, at_join = prev.copy(), prev.copy(), cur.copy()
    for j in range(join[0]):
        m, ending = live[j], live[j + 1]
        cur = cur[:m]
        total[order[:m]] += cur * cur
        prev, cur = cur, ((x[:m] - b[j]) * cur - a[j] * prev[:m]) * inv[j + 1] >> 2 * bits
        before[order[ending:m]], at_join[order[ending:m]] = prev[ending:], cur[ending:]
    return total, before, at_join


def golub_welsch_mpf(chain, size: int, digits: int):
    """High-precision nodes/weights from the _nodes_f64 seeds, all at once:
    each pass joins at the float64 twist index r the eigenvector v run
    forward to r and backward from the end, and moves each node by the
    Rayleigh step v_r ((T - x) v)_r / |v|^2.  Once every step is below
    2^(_GUARD_BITS-4) units, the next pass gives the weights 1/|v|^2; after
    _MAX_PASSES steps without that, PrecisionExhaustedError."""
    d64, e64 = jacobi_arrays_f64(chain, size)
    seeds, e2 = _nodes_f64(d64, e64), e64 * e64
    with mp.workdps(digits + 10):
        dg, eg = jacobi_arrays_mpf(chain, size)
        bits = mp.mp.prec + _GUARD_BITS
        b = np.array([_fixed(v, bits) for v in dg], dtype=object)
        # a[k], k = 1..size-1; a[size] = 0
        a = np.array([0, *(_fixed(v, bits) for v in eg), 0], dtype=object)
        inv = [0, *(_fixed(1 / v, bits) for v in eg), 0]
        x, step = np.array([_fixed(s, bits) for s in seeds], dtype=object), 1 << bits
        for passes in range(_MAX_PASSES + 1):
            # the guard bits only absorb the loop's rounding: the nodes are
            # returned on the grid 2^-prec, so that a node at zero is exactly 0
            grid = (x + (1 << _GUARD_BITS - 1)) >> _GUARD_BITS
            at = np.array([math.ldexp(v, -mp.mp.prec) for v in grid])
            r = np.concatenate([_twist(d64, x64, _pivots(d64, e2, x64))[0]
                                for x64 in np.split(at, range(_TWIST_BLOCK, size, _TWIST_BLOCK))])
            lower, fp, fm = _eigenvector_sums(x, a, b, inv, r, bits)
            upper, gp, gm = _eigenvector_sums(x, a[::-1], b[::-1], inv[::-1], size - 1 - r, bits)
            # the backward solution, rescaled to meet the forward one at r
            total = lower + fm * fm + upper * fm * fm // (gm * gm)
            if step < 1 << _GUARD_BITS - 4:
                break
            if passes == _MAX_PASSES:
                raise PrecisionExhaustedError(
                    f"Golub-Welsch at size {size}, {digits} digits: the largest Rayleigh step "
                    f"is {mp.nstr(mp.ldexp(step, -bits), 3)} after {_MAX_PASSES} steps")
            # (T - x) v is 0 but in row r: a_r v_{r-1} + (b_r - x) v_r + a_{r+1} v_{r+1}
            dx = fm * (a[r] * fp + (b[r] - x) * fm + a[r + 1] * (gp * fm // gm)) // total
            x += dx
            step = max(map(abs, dx))
        order = sorted(range(size), key=lambda k: x[k])
        nodes = [mp.ldexp(grid[k], -mp.mp.prec) for k in order]
        weights = [mp.ldexp(1 / mp.mpf(total[k]), 2 * bits) for k in order]
    return nodes, weights
