"""One job in a fresh process, optionally traced.

    python3 jobproc.py [--trace SPANS_FILE JOB_ID] cli SUBCOMMAND ARGS...
    python3 jobproc.py [--trace SPANS_FILE JOB_ID] eventual CONFIG START SAMPLES SEED OUT_DIR

`cli` calls `rwlab.cli.main(argv)`, exactly what `python -m rwlab.cli` runs.
`eventual` calls `monte_carlo_eventual_absorption` on the config's chain and
writes `eventual.json` to OUT_DIR.  With `--trace`, the import of rwlab and
every call into its layers' public functions are recorded as spans, which
are written to SPANS_FILE as JSON lines when the job ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


def run_eventual(config: str, start: str, samples: str, seed: str, out_dir: str) -> int:
    from rwlab import fileformats, measures

    chain = fileformats.chain_from_sections(fileformats.parse_file(config))
    res = measures.monte_carlo_eventual_absorption(chain, int(start), int(samples), int(seed))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "eventual.json"), "w", encoding="utf-8") as fh:
        json.dump({"estimate": res.estimate, "std_error": res.std_error,
                   "horizons": list(res.horizons),
                   "absorbed_fractions": list(res.absorbed_fractions)}, fh, sort_keys=True)
        fh.write("\n")
    return 0


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        import rwlab.cli
        return rwlab.cli.main(args)
    if kind == "eventual":
        return run_eventual(*args)
    raise SystemExit(f"unknown job kind {kind!r}")


def recovered_chain_stats(rec) -> None:
    """Size of the recovered chain's coefficients and the cost of one hash
    of it, measured after the job so they add nothing to its spans."""
    chain = rec.captured.get("recovered_chain")
    if chain is None:
        return
    bits = 0
    for rule in (chain.p, chain.q, chain.r, chain.kappa):
        for v in rule.prefix:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    rec.counters["recover.coeff_max_bits"] = bits
    t0 = time.perf_counter()
    hash(chain)
    rec.counters["recover.chain_hash_s"] = time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace"]:
        return run(argv[0], argv[1:])
    spans_path, job_id, kind, args = argv[1], argv[2], argv[3], argv[4:]
    import spans

    rec = spans.Recorder(job_id)
    idx = rec.begin("cli.import")
    import rwlab.cli  # noqa: F401  (imports every layer)
    rec.end(idx)
    spans.install(rec)
    try:
        rc = run(kind, args)
    finally:
        recovered_chain_stats(rec)
        rec.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
