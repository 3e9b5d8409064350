"""The one bundled chain that the benchmark's own tests import by name.

Every bundled chain and weight is defined once, in `configs/*.cfg`; this
module only reads `configs/chain_c.cfg` from the source checkout. It can go
once `benchmark/test_benchmark.py` builds chain_c from its own workloads."""

from __future__ import annotations

import os

from .chains import ChainSpec
from .fileformats import chain_from_sections, parse_file

CHAIN_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
                       "configs", "chain_c.cfg")


def chain_asymmetric() -> ChainSpec:
    """p_0 = 1, p = 7/10, q = 3/10: the chain `configs/chain_c.cfg` defines."""
    return chain_from_sections(parse_file(CHAIN_C))
