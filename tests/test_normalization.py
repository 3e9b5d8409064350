"""The eta-rescaled process and its transported polynomials/measure."""

import math

import numpy as np
import pytest

from conftest import bundled
from rwlab.errors import NonpositiveQError
from rwlab.limits import estimate_limit
from rwlab.measures import cn_series, quadrature_from_chain
from rwlab.normalization import normalize, tilde_polynomials
from rwlab.polynomials import christoffel_ratio_sequence, support_edges

ETA_C = 2 * math.sqrt(0.21)


def test_identity_when_eta_is_one(chain_a, chain_b):
    for chain in (chain_a, chain_b):
        norm = normalize(chain, 1, 24)
        assert all(norm.chain.at(j) == chain.at(j) for j in range(24))


def test_tilde_coefficients(chain_c):
    norm = normalize(chain_c, ETA_C, 60)
    for j in range(60):
        p, q, r, k = norm.chain.at(j)
        assert abs(p + q + r + k - 1) < 1e-30  # recurrence identity at eta
        assert k == 0
    for j in range(1, 50):
        assert float(norm.chain.p.at(j) * norm.chain.q.at(j + 1)) == pytest.approx(0.25, abs=1e-12)


def test_killed_chain_normalizes_to_honest():
    norm = normalize(bundled("chain_k"), 1, 40)
    for j in range(40):
        p, q, r, k = norm.chain.at(j)
        assert abs(p + q + r + k - 1) < 1e-30
        assert k == 0
        assert p > 0 and r >= 0


def test_nonpositive_q_error(chain_c):
    with pytest.raises(NonpositiveQError):
        normalize(chain_c, 0.8, 100)  # below the true top edge


def test_tilde_edge_is_one(chain_c):
    norm = normalize(chain_c, ETA_C, 2004, digits=15)
    e = support_edges(norm.chain, truncation=2000)
    assert e.eta_hat == pytest.approx(1.0, abs=1e-6)


def test_measure_transport(chain_c):
    N = 200
    norm = normalize(chain_c, ETA_C, N + 2, digits=15)
    base = quadrature_from_chain(chain_c, N, digits=15)
    tilde = quadrature_from_chain(norm.chain, N, digits=15)
    assert np.abs(tilde.nodes - base.nodes / ETA_C).max() < 1e-8
    assert np.abs(tilde.weights - base.weights).max() < 1e-8


def test_cn_invariance(chain_c):
    N = 200
    norm = normalize(chain_c, ETA_C, N + 2, digits=15)
    base = cn_series(quadrature_from_chain(chain_c, N, digits=15), 2 * N - 1)
    tilde = cn_series(quadrature_from_chain(norm.chain, N, digits=15), 2 * N - 1)
    assert np.abs(base - tilde).max() < 1e-8


def test_ratio_invariance(chain_c):
    norm = normalize(chain_c, ETA_C, 300, digits=15)
    base = estimate_limit(christoffel_ratio_sequence(chain_c, 250, ETA_C).ratios)
    tilde = estimate_limit(christoffel_ratio_sequence(norm.chain, 250, 1.0).ratios)
    assert abs(base.value - tilde.value) <= base.uncertainty + tilde.uncertainty + 1e-12


def test_tilde_polynomials(chain_a, chain_c):
    te = tilde_polynomials(chain_c, ETA_C, 30, 1)
    for v in te.trace.values:
        assert v.sign == 1 and abs(v.log) < 1e-10  # tilde values at 1 are 1
    te = tilde_polynomials(chain_c, ETA_C, 30, -1)
    assert te.discrepancy < 1e-10
    te = tilde_polynomials(chain_a, 1, 30, -1)
    for n, v in enumerate(te.trace.values):
        assert v.sign == (-1) ** n and abs(v.log) < 1e-12
