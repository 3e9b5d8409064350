"""Limit estimation primitives."""

import math
import warnings

import numpy as np
import pytest

from rwlab.errors import NumericalRouteWarning
from rwlab.limits import aitken, estimate_limit, richardson_pair


def test_constant():
    e = estimate_limit([1.0] * 20)
    assert e.kind == "finite" and e.value == 1.0 and e.uncertainty == 0.0


def test_geometric_tail():
    e = estimate_limit([1 / 3 + 2.0**-n for n in range(30)])
    assert abs(e.value - 1 / 3) < 1e-6
    assert e.method == "aitken"


def test_oscillation():
    assert estimate_limit([(-1.0) ** n for n in range(40)]).kind == "none"


def test_infinite():
    e = estimate_limit([float(n * n) for n in range(40)] + [1e13, 2e13, 4e13, 8e13])
    assert e.kind == "infinite" and e.value == math.inf


def test_value_within_window():
    seq = [2 + 1 / (n + 1) for n in range(64)]
    e = estimate_limit(seq)
    if e.method == "aitken":
        acc = aitken(np.asarray(seq))
        lo, hi = acc.min(), acc.max()
    else:
        lo, hi = min(seq), max(seq)
    assert lo - 1e-12 <= e.value <= hi + 1e-12
    assert e.uncertainty >= 0


def test_short_sequence_rejected():
    with pytest.raises(ValueError):
        estimate_limit([1.0, 2.0])


def test_aitken_geometric_exact():
    seq = np.array([5 + 3 * 0.5**n for n in range(10)])
    acc = aitken(seq)
    assert np.abs(acc - 5).max() < 1e-12


def test_richardson():
    # error model c/K^2: the pair eliminates it
    f = lambda k: 2 - 3 / k**2
    assert richardson_pair(f(100), f(200), order=2) == pytest.approx(2.0, abs=1e-12)


def test_n_used_indexes_caller_sequence_when_dropping_nonfinite():
    # a NaN inside the tail window is dropped; the window still ends at the
    # caller's last index and starts where the caller's sequence does
    seq = [1.0] * 40
    seq[35] = math.nan
    e = estimate_limit(seq)
    assert e.method == "tail-window" and e.value == 1.0
    assert e.n_used == (30, 39)
    geo = [1 / 3 + 2.0**-n for n in range(40)]
    geo[36] = math.nan
    e = estimate_limit(geo)
    assert e.method == "aitken"
    assert e.n_used == (30, 39)


def test_dropping_nonfinite_entries_warns_with_count():
    seq = [1.0] * 40
    seq[3] = math.nan
    seq[35] = math.inf
    with pytest.warns(NumericalRouteWarning, match="dropped 2 non-finite of 40 entries"):
        assert estimate_limit(seq).value == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_limit([1.0] * 40).value == 1.0
