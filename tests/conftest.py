"""Shared fixtures: the bundled families and the expensive pipeline
artifacts (quadratures, edge solves, full weight pipelines), built once per
session."""

import time

import pytest
from hypothesis import settings

from rwlab import families
from rwlab.asymptotics import conjecture_report
from rwlab.measures import quadrature_from_chain
from rwlab.polynomials import support_edges

settings.register_profile("rwlab", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("rwlab")

SESSION_START = time.time()


@pytest.fixture(scope="session")
def chain_a():
    return families.chain_arcsine()


@pytest.fixture(scope="session")
def chain_b():
    return families.chain_shifted_arcsine()


@pytest.fixture(scope="session")
def chain_c():
    return families.chain_asymmetric()


@pytest.fixture(scope="session")
def chain_s():
    return families.chain_semicircle()


@pytest.fixture(scope="session")
def core_chains(chain_a, chain_b, chain_c, chain_s):
    return {"A": chain_a, "B": chain_b, "C": chain_c, "S": chain_s}


@pytest.fixture(scope="session")
def quad400(core_chains):
    return {
        key: quadrature_from_chain(ch, 400, digits=15)
        for key, ch in core_chains.items()
    }


@pytest.fixture(scope="session")
def edges2000(core_chains):
    out = {}
    for key, ch in core_chains.items():
        tol = 1e-4 if key == "B" else 1e-6
        out[key] = support_edges(ch, truncation=2000, tol=tol)
    return out


@pytest.fixture(scope="session")
def report_a(chain_a):
    return conjecture_report(chain=chain_a, N=400, n_max=400, truncation=2000,
                             digits=15)


@pytest.fixture(scope="session")
def report_b(chain_b):
    return conjecture_report(chain=chain_b, N=400, n_max=400, truncation=2000,
                             digits=15)


@pytest.fixture(scope="session")
def report_d():
    return conjecture_report(weight=families.weight_d(), n_max=2000,
                             truncation=2000, digits=15)


@pytest.fixture(scope="session")
def report_e():
    return conjecture_report(weight=families.weight_e(), n_max=2000,
                             truncation=2000, digits=15)


def _recovered_chain(weight):
    from rwlab.recover import (
        chain_from_recurrence,
        discretize_weight,
        grid_size_for_depth,
        stieltjes_recurrence,
    )

    m = discretize_weight(weight, grid_size_for_depth(600), digits=15)
    rec = chain_from_recurrence(stieltjes_recurrence(m, 600))
    assert rec.ok
    return rec.chain


@pytest.fixture(scope="session")
def chain_d600():
    return _recovered_chain(families.weight_d())


@pytest.fixture(scope="session")
def chain_e600():
    return _recovered_chain(families.weight_e())
