"""Shared inputs and fixtures: the bundled chains and weights, read from
their one definition in `configs/*.cfg`; four test-only chains that no
config uses, and one that breaks the law past its validated rows; and the
expensive pipeline artifacts (quadratures, edge solves, full weight
pipelines), built once per session."""

import os
import time

import pytest
from hypothesis import settings

from rwlab import fileformats as ff
from rwlab.asymptotics import conjecture_report
from rwlab.chains import ChainSpec, rule
from rwlab.measures import quadrature_from_chain
from rwlab.polynomials import support_edges

settings.register_profile("rwlab", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("rwlab")

SESSION_START = time.time()

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def bundled(name):
    """The ChainSpec or WeightSpec that `configs/<name>.cfg` defines, or the
    test-only chain of that name, built afresh on each call, so no test sees
    another's memoized columns."""
    if name in TEST_ONLY_CHAINS:
        return TEST_ONLY_CHAINS[name]()
    sections = ff.parse_file(os.path.join(CONFIGS, f"{name}.cfg"))
    if "chain" in sections:
        return ff.chain_from_sections(sections)
    return ff.weight_from_sections(sections)


def chain_transient_killing() -> ChainSpec:
    """kappa_0 = 1/4 with a transient drift-up tail: tau_0 = 2/5 exactly."""
    return ChainSpec(
        "transient-killing",
        p=rule(["3/4"], "2/3"),
        q=rule(["0"], "1/3"),
        r=rule([], "0"),
        kappa=rule(["1/4"], "0"),
    )


def chain_geometric_transient() -> ChainSpec:
    """p/q = 2 drift-up chain: p_j pi_j grows geometrically (transient)."""
    return ChainSpec(
        "geometric-transient",
        p=rule(["2/3"], "2/3"),
        q=rule(["0"], "1/3"),
        r=rule(["1/3"], "0"),
        kappa=rule([], "0"),
    )


def chain_r4_transient() -> ChainSpec:
    """Transient drift with exponentially vanishing hold: the aperiodicity
    double sum converges (asymptotically periodic)."""
    return ChainSpec(
        "r4-transient",
        p=rule(["1"], "(1 - 4^-j)*3/5"),
        q=rule(["0"], "(1 - 4^-j)*2/5"),
        r=rule(["0"], "4^-j"),
        kappa=rule([], "0"),
    )


def chain_polyhold() -> ChainSpec:
    """Hold probabilities r_j ~ 1/j^2: sum r_j/p_j converges."""
    return ChainSpec(
        "polyhold",
        p=rule(["1", "1/4"], "(1 - 1/j^2)/2"),
        q=rule(["0", "1/4"], "(1 - 1/j^2)/2"),
        r=rule(["0", "1/2"], "1/j^2"),
        kappa=rule([], "0"),
    )


def chain_negative_tail() -> ChainSpec:
    """Valid on the rows validate checks (j <= 200), but q_955 < 0: kept out
    of TEST_ONLY_CHAINS, whose chains hold the law at every row."""
    return ChainSpec(
        "neg-tail",
        p=rule([], "1/4"),
        q=rule(["0"], "1/4 - j^30/10^90"),
        r=rule(["3/4"], "1/2 + j^30/10^90"),
    )


TEST_ONLY_CHAINS = {
    make.__name__: make
    for make in (chain_transient_killing, chain_geometric_transient, chain_r4_transient,
                 chain_polyhold)
}


@pytest.fixture(scope="session")
def chain_a():
    return bundled("chain_a")


@pytest.fixture(scope="session")
def chain_b():
    return bundled("chain_b")


@pytest.fixture(scope="session")
def chain_c():
    return bundled("chain_c")


@pytest.fixture(scope="session")
def chain_s():
    return bundled("chain_s")


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
        out[key] = support_edges(ch, truncation=2000)
    return out


@pytest.fixture(scope="session")
def report_a(chain_a):
    return conjecture_report(chain=chain_a, N=400, n_max=400, truncation=2000)


@pytest.fixture(scope="session")
def report_b(chain_b):
    return conjecture_report(chain=chain_b, N=400, n_max=400, truncation=2000)


@pytest.fixture(scope="session")
def report_d():
    return conjecture_report(weight=bundled("weight_d"), n_max=2000,
                             truncation=2000)


@pytest.fixture(scope="session")
def report_e():
    return conjecture_report(weight=bundled("weight_e"), n_max=2000,
                             truncation=2000)


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
    return _recovered_chain(bundled("weight_d"))


@pytest.fixture(scope="session")
def chain_e600():
    return _recovered_chain(bundled("weight_e"))
