"""Coverage of the Monte Carlo eventual-absorption standard error on chain_k.

    python3 tools/mc_coverage.py [--first SEED] [--count N] [--samples S]

Runs `monte_carlo_eventual_absorption` on chain_k from state 0 (true
eventual absorption probability 1: the chain is recurrent and kills at
state 0) once per seed in FIRST .. FIRST + COUNT - 1, with S walkers each
(default: seeds 100-179, 10^5 walkers).  Prints one line per seed and then
the distance of the mean estimate from 1 in standard errors of the mean,
the largest |estimate - 1| / std_error and the number of seeds beyond 2 and
4 standard errors.  An unbiased estimate puts the mean within about 2
standard errors of 1; a standard error that covers puts about 5% of the
seeds beyond 2 and none beyond 4.

Run from the repository root, or with the repository's `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rwlab import fileformats as ff  # noqa: E402
from rwlab.measures import monte_carlo_eventual_absorption  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=100, help="first seed")
    parser.add_argument("--count", type=int, default=80, help="number of seeds")
    parser.add_argument("--samples", type=int, default=10**5, help="walkers per seed")
    args = parser.parse_args(argv)
    chain = ff.chain_from_sections(ff.parse_file(os.path.join(ROOT, "configs", "chain_k.cfg")))
    started = time.perf_counter()
    sigmas = []
    estimates = []
    errors = []
    for seed in range(args.first, args.first + args.count):
        res = monte_carlo_eventual_absorption(chain, 0, args.samples, seed)
        sigma = abs(res.estimate - 1.0) / res.std_error
        sigmas.append(sigma)
        estimates.append(res.estimate)
        errors.append(res.std_error)
        print(f"seed {seed}: estimate {res.estimate:.6f} +- {res.std_error:.2e} "
              f"({sigma:.2f} sigma)", flush=True)
    n = len(sigmas)
    mean = sum(estimates) / n
    spread = (sum((e - mean) ** 2 for e in estimates) / max(n - 1, 1)) ** 0.5
    print(f"{n} seeds ({args.first}-{args.first + n - 1}), {args.samples} walkers, "
          f"{time.perf_counter() - started:.0f} s")
    print(f"estimate mean {mean:.6f}, sd {spread:.2e}; mean std_error {sum(errors) / n:.2e}")
    print(f"mean - 1 = {(mean - 1.0) / (spread / n ** 0.5):+.2f} standard errors of the mean")
    print(f"max |estimate - 1| / se = {max(sigmas):.2f}")
    print(f"beyond 2 sigma: {sum(s > 2 for s in sigmas)} of {n}")
    print(f"beyond 4 sigma: {sum(s > 4 for s in sigmas)} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
