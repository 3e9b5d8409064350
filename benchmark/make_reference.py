"""Write reference.json: what the program printed for the bundled chains.

    python3 benchmark/make_reference.py

The chain checks compare each run against these values within the
uncertainties both outputs print.  The committed file was written at the
commit that introduced the benchmark; rewrite it only on purpose, since a
rewritten reference accepts whatever the current code prints.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    work = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    runner = run.Runner(work, time.monotonic() + 3600)
    jobs = []
    for name in workloads.CHAINS:
        config = workloads.chain_config(name, 0)
        jobs.append(workloads.Job(f"conjecture-{name}", "cli", ("conjecture",), config, ""))
        if name in ("chain_k", "constant_killing"):
            jobs.append(workloads.Job(f"absorb-{name}", "cli", ("absorb",), config, ""))
        if name in workloads.CORE_CHAINS:
            jobs.append(workloads.Job(f"christoffel-{name}", "cli",
                                      ("christoffel", "--precision", "34"), config, ""))
    try:
        results = runner.run_pass(jobs, "ref").results
        ref = {"conjecture": {}, "absorb": {}, "christoffel": {}}
        keys = ("branch", "verdict", "prediction", "cn_limit", "cn_uncertainty",
                "rho_ratio_limit", "rho_ratio_uncertainty")
        for job in jobs:
            proc, out = results[job.name]
            kind, name = job.name.split("-", 1)
            if kind == "conjecture":
                kv = checks.read_keyvalue(os.path.join(out, "conjecture.txt"))
                ref[kind][name] = {"rc": proc.rc, **{k: kv[k] for k in keys if k in kv}}
            elif proc.rc != 0:
                print(f"{job.name}: exit code {proc.rc}\n{proc.stderr}", file=sys.stderr)
                return 1
            elif kind == "absorb":
                rows = checks.read_csv(os.path.join(out, "absorption.csv"))
                kv = checks.read_keyvalue(os.path.join(out, "absorption.txt"))
                ref[kind][name] = {"tau": [float(r["tau"]) for r in rows], "route": kv["route"]}
            else:
                kv = checks.read_keyvalue(os.path.join(out, "christoffel_limit.txt"))
                rows = checks.read_csv(os.path.join(out, "christoffel.csv"))
                ref[kind][name] = {"limit": kv["limit"], "uncertainty": kv["uncertainty"],
                                   "rows": len(rows)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
