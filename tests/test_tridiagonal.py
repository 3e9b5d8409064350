"""The tridiagonal kernels of both backends against an independent oracle
(mpmath's dense symmetric eigensolver at 60 digits), high-precision
quadrature moments against exact return probabilities, the quadrature
weights of a chain whose lowest eigenvector decays, and the high-precision
rule's output bits and Rayleigh step counts."""

import functools
import hashlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import bundled
from rwlab import tridiagonal
from rwlab.chains import ChainSpec, rule
from rwlab.errors import PrecisionExhaustedError
from rwlab.measures import quadrature_from_chain
from rwlab.polynomials import _q_pi_f64
from rwlab.recover import recover_chain
from rwlab.tridiagonal import (
    extreme_eigen_f64,
    golub_welsch_f64,
    golub_welsch_mpf,
    jacobi_arrays_f64,
    jacobi_arrays_mpf,
    sturm_count,
)

SIZE = 24
# fixed-point scale of the Sturm-count inputs; the kernel takes any scale
SCALE_BITS = 256


def _oracle(chain):
    """(d, e, eigenvalues, first eigenvector components squared) of the
    SIZE x SIZE Jacobi truncation, at 60 digits."""
    with mp.workdps(60):
        d, e = jacobi_arrays_mpf(chain, SIZE)
        matrix = mp.zeros(SIZE, SIZE)
        for k in range(SIZE):
            matrix[k, k] = d[k]
        for k in range(SIZE - 1):
            matrix[k, k + 1] = matrix[k + 1, k] = e[k]
        values, vectors = mp.eigsy(matrix)
        order = sorted(range(SIZE), key=lambda k: values[k])
        return (d, e, [values[k] for k in order],
                [vectors[0, k] ** 2 for k in order])


def _scaled(v, bits=SCALE_BITS):
    return int(mp.nint(mp.ldexp(v, bits)))


@pytest.mark.parametrize("name", ["chain_a", "chain_b", "chain_c", "chain_s"])
def test_kernels_match_dense_oracle(name, request):
    chain = request.getfixturevalue(name)
    d, e, values, weights = _oracle(chain)
    m = quadrature_from_chain(chain, SIZE, digits=34)
    with mp.workdps(60):
        for k in range(SIZE):
            assert abs(m.mp_nodes[k] - values[k]) < mp.mpf("1e-40"), (name, k)
            assert abs(m.mp_weights[k] / weights[k] - 1) < mp.mpf("1e-38"), (name, k)
        fd = [_scaled(v) for v in d]
        fe2 = [_scaled(v * v, 2 * SCALE_BITS) for v in e]
        for i, lam in enumerate(values):
            assert sturm_count(fd, fe2, _scaled(lam - mp.mpf("1e-40"))) == i
            assert sturm_count(fd, fe2, _scaled(lam + mp.mpf("1e-40"))) == i + 1
    d64, e64 = jacobi_arrays_f64(chain, SIZE)
    nodes, weights64 = golub_welsch_f64(d64, e64)
    for k in range(SIZE):
        assert abs(nodes[k] - values[k]) < 1e-15, (name, k)
        assert abs(weights64[k] / weights[k] - 1) < 1e-12, (name, k)
    tol = 4 * np.finfo(float).eps * float(max(abs(values[0]), abs(values[-1])))
    assert abs(extreme_eigen_f64(d64, e64, "max") - values[-1]) <= tol
    assert abs(extreme_eigen_f64(d64, e64, "min") - values[0]) <= tol


@pytest.mark.parametrize("entry", [0.3, -0.7, 0.0])
def test_float_extreme_eigen_of_one_entry(entry):
    # n = 1: no off-diagonal, the eigenvalue is the entry itself
    d, e = np.array([entry]), np.array([])
    assert extreme_eigen_f64(d, e, "max") == extreme_eigen_f64(d, e, "min") == entry


@functools.cache
def _return_probabilities(name, size):
    """Exact P_00(n) for n = 0..2 size - 1 from Fraction powers of the
    transition matrix on the states 0..size-1, which a walk that returns
    to 0 within 2 size - 1 steps never leaves."""
    chain = bundled(name)
    rows = (chain.at(j)[:3] for j in range(size))
    p, q, r = (np.array(col, dtype=object) for col in zip(*rows))
    v = np.array([Fraction(1)] + [Fraction(0)] * (size - 1), dtype=object)
    out = []
    for _ in range(2 * size):
        out.append(v[0])
        nxt = r * v
        nxt[1:] += p[:-1] * v[:-1]
        nxt[:-1] += q[1:] * v[1:]
        v = nxt
    return out


@pytest.mark.parametrize("digits", [20, 34, 60])
@pytest.mark.parametrize("name", ["chain_c", "chain_s"])
def test_moments_match_exact_return_probabilities(name, digits):
    # 20, 34 and 60 digits take three, three and four Rayleigh steps from
    # the float64 seeds; the N-point rule carries the moments 0..2N-1 of the
    # chain's measure
    size = 100
    m = quadrature_from_chain(bundled(name), size, digits=digits)
    with mp.workdps(digits + 10):
        tol = mp.mpf(10) ** (4 - digits)
        powers = list(m.mp_weights)
        for n, exact in enumerate(_return_probabilities(name, size)):
            got = mp.fsum(powers)
            assert abs(got - mp.mpf(exact.numerator) / exact.denominator) < tol, (n, got)
            powers = [w * x for w, x in zip(powers, m.mp_nodes)]


def test_unsettled_newton_passes_raise(monkeypatch, chain_b):
    # one Rayleigh step leaves the float64 seeds' error of about 1e-16 in the step
    monkeypatch.setattr(tridiagonal, "_MAX_PASSES", 1)
    with pytest.raises(PrecisionExhaustedError, match="size 60, 34 digits"):
        golub_welsch_mpf(chain_b, 60, 34)


OUTLIER = ChainSpec("outlier", p=rule([1], "1/10"), q=rule([0], "1/10"), r=rule([0], "4/5"))


def test_weights_of_a_decaying_eigenvector():
    # the eigenvalue -1/9 lies below the band [3/5, 1] and its eigenvector
    # decays geometrically; a forward recurrence alone loses its weight 8/9
    m = quadrature_from_chain(OUTLIER, 100, digits=34)
    with mp.workdps(50):
        tol = mp.mpf("1e-30")
        assert abs(mp.fsum(m.mp_weights) - 1) < tol
        assert abs(m.mp_nodes[0] + mp.mpf(1) / 9) < tol
        assert abs(m.mp_weights[0] - mp.mpf(8) / 9) < tol
    m = quadrature_from_chain(OUTLIER, 100, digits=15)
    assert abs(m.total_mass - 1) < 1e-15
    assert abs(m.nodes[0] + 1 / 9) < 1e-15
    assert abs(m.weights[0] - 8 / 9) < 1e-15


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", ["chain_b", "chain_s", "outlier"])
def test_high_precision_rule_does_not_depend_on_its_seeds(monkeypatch, name, sign):
    # the 34-digit rule is a function of the chain alone: float64 seeds two
    # ulps off, in alternating directions, give the same mpf nodes and weights
    chain = OUTLIER if name == "outlier" else bundled(name)
    nodes, weights = golub_welsch_mpf(chain, 60, 34)
    exact = tridiagonal._nodes_f64

    def moved(d, e):
        x = exact(d, e)
        return x + sign * 2 * np.spacing(x) * (-1) ** np.arange(len(x))

    monkeypatch.setattr(tridiagonal, "_nodes_f64", moved)
    assert golub_welsch_mpf(chain, 60, 34) == (nodes, weights)


@pytest.mark.parametrize("size, digits", [(100, 60), (400, 34)])
def test_decaying_eigenvector_at_more_digits_and_rows(size, digits):
    m = quadrature_from_chain(OUTLIER, size, digits=digits)
    with mp.workdps(digits + 10):
        tol = mp.mpf("1e-30")
        assert abs(mp.fsum(m.mp_weights) - 1) < tol
        assert abs(m.mp_weights[0] - mp.mpf(8) / 9) < tol


@pytest.mark.parametrize("digits", [20, 34])
def test_zero_node_of_a_symmetric_spectrum(chain_a, chain_c, digits):
    # r = 0 makes the spectrum symmetric, so an odd truncation has the node 0
    for chain in (chain_a, chain_c):
        m = quadrature_from_chain(chain, 61, digits=digits)
        assert m.mp_nodes[30] == 0


@pytest.mark.parametrize("size", [400, 2000])
@pytest.mark.parametrize("name", ["chain_a", "chain_b", "chain_c", "chain_s"])
def test_float_rule_has_unit_mass(name, size):
    # each weight comes from its own twisted factorization, so the edge
    # weights' rounding no longer cancels as in an orthogonal eigenvector
    # matrix; the total mass stays within 5e-14 of 1 (2.4e-14 measured)
    _, weights = golub_welsch_f64(*jacobi_arrays_f64(bundled(name), size))
    assert abs(math.fsum(weights) - 1) <= 5e-14


@functools.cache
def _edge_chain(name):
    if name == "weight_e":  # its recovered chain, one row beyond J_2000
        return recover_chain(bundled(name), 2001)[2].chain
    return bundled(name)


@pytest.mark.parametrize("size", [400, 2000])
@pytest.mark.parametrize("name", ["chain_a", "chain_b", "chain_c", "chain_k", "chain_s",
                                  "constant_killing", "weight_e"])
def test_positivity_predicates_are_the_sturm_count(name, size):
    # interlacing: Q_k(x) > 0 for every k <= N exactly where all N
    # eigenvalues of J_N lie below x, and (-1)^k Q_k(x) > 0 exactly where
    # none does; the signs of the rescaled float64 recurrence agree with
    # the fixed-point count within 1e-14 of both extreme eigenvalues
    chain = _edge_chain(name)
    d, e = jacobi_arrays_f64(chain, size)
    fixed = tridiagonal._fixed_jacobi(d, e)
    alternate = (-1.0) ** np.arange(size + 1)
    for which in ("max", "min"):
        lam = extreme_eigen_f64(d, e, which)
        for x in (lam + s * delta for delta in (1e-6, 1e-9, 1e-12, 1e-14) for s in (-1, 1)):
            ((sign, _),) = _q_pi_f64(chain, size, x)[1]
            count = tridiagonal._count_below(fixed, x)
            assert bool(np.all(sign > 0)) == (count == size), (which, x, count)
            assert bool(np.all(sign * alternate > 0)) == (count == 0), (which, x, count)


@pytest.mark.parametrize("name, size, digits, digest", [
    ("chain_b", 400, 34, "417a988decf895eda37b0bbf4ee96e559282c732f970bd18b4bba2cd631aea1e"),
    ("chain_s", 400, 34, "33dbad2dc508dbc45a1f2a634a5a310a9e133859b94167c6a0d3740d3b9a836f"),
    ("chain_c", 100, 60, "3c3d015f299684f07c87292fe25ea82dc06e2c1c8b5a0f725b9652e6e01855db"),
    ("chain_s", 200, 100, "50b4b770d3fd215dccac40ca39eda205c5aa4059372260f63ea857a085a70bb4"),
])
def test_high_precision_rule_is_pinned_bit_for_bit(name, size, digits, digest):
    # the mpf bits of every node and weight, so that a change to the
    # rule's iteration shows any output bit it moves; (400, 34) is the
    # highprec benchmark's measure job
    nodes, weights = golub_welsch_mpf(bundled(name), size, digits)
    bits = repr([v._mpf_ for v in nodes + weights]).encode()
    assert hashlib.sha256(bits).hexdigest() == digest


@pytest.mark.parametrize("digits, most", [(20, 3), (34, 3), (60, 4)])
@pytest.mark.parametrize("name", ["chain_b", "chain_c", "chain_s"])
def test_rayleigh_steps_per_rule(monkeypatch, name, digits, most):
    # each pass is one forward and one backward eigenvector run: k Rayleigh
    # steps from the float64 seeds (each at least squares the error), then
    # the weight pass at the converged nodes
    calls = []
    sums = tridiagonal._eigenvector_sums
    monkeypatch.setattr(tridiagonal, "_eigenvector_sums",
                        lambda *args: calls.append(1) or sums(*args))
    golub_welsch_mpf(bundled(name), 100, digits)
    assert len(calls) % 2 == 0 and 2 <= len(calls) // 2 - 1 <= most, len(calls)
