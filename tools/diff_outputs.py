"""Compare the CLI outputs of two rwlab source trees, byte for byte.

    python3 tools/diff_outputs.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are checkouts of the repository (or their `src`
directories).  A fixed matrix of `rwlab` subcommands runs in fresh
processes against each tree: every subcommand on every bundled config in
this repository's `configs/` that has the section it needs, plus `edges`,
`measure` and `christoffel` at `--precision 34` on chain_b and chain_s
(`measure` at truncation 60 and at the benchmark's 400), `edges
--precision 15 --truncation 2000` on chain_a, chain_c, chain_k and
constant_killing for the edge solve at N = 2000 on chains, `edges
--precision 15 --truncation 4000` on chain_b, whose bottom eigenvalue lies
where the fixed-point grid is coarser than the doubles, `measure` and
`edges` at `--precision 60` on chain_c for a second fixed-point width,
`measure --truncation 400` at `--precision 20` on chain_b and at
`--precision 60` on chain_s, and `measure --precision 100 --truncation
200` on chain_s, so that the high-precision Golub-Welsch runs three, four
and five Rayleigh steps, the first two at the benchmark's size,
`chain-info`, `polys` and `absorb` at `--precision 34` for the
coefficient-level series, polynomial and absorption paths at the default
working precision, `measure --precision 15 --truncation 1000` on chain_b
and chain_s and `--truncation 2000` on chain_b for float64 Golub-Welsch
above the configs' truncation 400, and
`recover` and `dt-check --horizon 64` at `--precision 34` on weight_d and
weight_e for the closed-form weight-to-chain recovery, `normalize`
and `srlp` at `--precision 34` on chain_b and chain_s for the two other
subcommands that solve the support edges, `conjecture` at
`--precision 34` on chain_b, chain_k and chain_recovered for the Christoffel
ratio passes and the ratio-vanishing criterion above 16 digits, and
`conjecture` at `--precision 34` on weight_d and weight_e for the
closed-form route and `edge_exponents`, and the same three subcommands on
weight_rational for the grid + Stieltjes route, and `cn` at
`--precision 34` on weight_e and weight_rational for the measure of each
route, which `cn` on a weight reads.  The weight-to-chain path takes no
working precision, so these weight jobs show that `--precision` moves
nothing there.
The base and change runs of one job go side by side (two processes at a
time).

Every output file, the exit code and stderr are compared byte for byte.
Each differing file is printed with its first differing line, the number
of lines that differ, and the largest absolute and relative difference
between the numeric fields of those lines (fields split at commas, `=` and
whitespace; a field that does not parse as a float on both sides is
skipped).  The exit status is 1 on any difference and 0 when everything is
identical.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

# subcommand -> the config sections it runs on
ACCEPTS = {
    **dict.fromkeys(("chain-info", "polys", "edges", "christoffel", "normalize",
                     "srlp", "absorb", "mc"), {"chain"}),
    **dict.fromkeys(("recover", "dt-check"), {"weight"}),
    **dict.fromkeys(("measure", "cn", "conjecture"), {"chain", "weight"}),
}

EXTRA = [
    (sub, name, ("--precision", digits, *flags))
    for sub, names, digits, flags in (
        ("edges", ("chain_b", "chain_s"), "34", ("--truncation", "1000")),
        ("edges", ("chain_a", "chain_c", "chain_k", "constant_killing"), "15",
         ("--truncation", "2000")),
        ("edges", ("chain_b",), "15", ("--truncation", "4000")),
        ("measure", ("chain_b", "chain_s"), "34", ("--truncation", "60")),
        ("measure", ("chain_b", "chain_s"), "34", ("--truncation", "400")),
        ("measure", ("chain_c",), "60", ("--truncation", "100")),
        ("measure", ("chain_b",), "20", ("--truncation", "400")),
        ("measure", ("chain_s",), "60", ("--truncation", "400")),
        ("measure", ("chain_s",), "100", ("--truncation", "200")),
        ("edges", ("chain_c",), "60", ("--truncation", "200")),
        ("christoffel", ("chain_b", "chain_s"), "34",
         ("--truncation", "200", "--horizon", "200")),
        ("chain-info", ("chain_a", "chain_b", "chain_c", "chain_k", "chain_s",
                        "constant_killing", "chain_recovered"), "34", ("--horizon", "400")),
        ("polys", ("chain_s",), "34", ()),
        ("absorb", ("chain_k", "constant_killing"), "34", ("--horizon", "400")),
        ("measure", ("chain_b", "chain_s"), "15", ("--truncation", "1000")),
        ("measure", ("chain_b",), "15", ("--truncation", "2000")),
        ("recover", ("weight_d", "weight_e"), "34", ()),
        ("dt-check", ("weight_d", "weight_e"), "34", ("--horizon", "64")),
        ("normalize", ("chain_b", "chain_s"), "34", ()),
        ("srlp", ("chain_b", "chain_s"), "34", ()),
        ("conjecture", ("chain_b", "chain_k", "chain_recovered"), "34", ()),
        ("conjecture", ("weight_d", "weight_e"), "34", ()),
        ("recover", ("weight_rational",), "34", ()),
        ("dt-check", ("weight_rational",), "34", ("--horizon", "64")),
        ("conjecture", ("weight_rational",), "34", ()),
        ("cn", ("weight_e", "weight_rational"), "34", ()),
    )
    for name in names
]


def _sections(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {line.strip()[1:-1] for line in fh if line.strip().startswith("[")}


def job_matrix() -> list[tuple[str, str, tuple[str, ...]]]:
    """(subcommand, config name, extra flags) for every job, in a fixed order."""
    jobs = []
    for cfg in sorted(f[:-4] for f in os.listdir(CONFIGS) if f.endswith(".cfg")):
        have = _sections(os.path.join(CONFIGS, cfg + ".cfg"))
        jobs += [(sub, cfg, ()) for sub, sections in ACCEPTS.items() if sections & have]
    return jobs + EXTRA


def _src(tree: str) -> str:
    tree = os.path.abspath(tree)
    return os.path.join(tree, "src") if os.path.isdir(os.path.join(tree, "src", "rwlab")) else tree


def _start(src: str, workdir: str, job) -> subprocess.Popen:
    sub, cfg, extra = job
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "rwlab.cli", sub,
            "--config", os.path.join(CONFIGS, cfg + ".cfg"), "--out", "out", *extra]
    return subprocess.Popen(argv, cwd=workdir, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _files(workdir: str) -> dict[str, bytes]:
    out = os.path.join(workdir, "out")
    found = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = fh.read()
    return found


def _first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {k + 1}:\n    base:   {x}\n    change: {y}"
    k = min(len(la), len(lb))
    return (f"line {k + 1}: one side ends "
            f"(base {len(la)} lines, change {len(lb)} lines)")


def _numeric_moves(a: bytes, b: bytes) -> str:
    """How many lines differ, and the largest absolute and relative
    difference between the numeric fields of the differing lines."""
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    pairs = [(x, y) for x, y in zip(la, lb) if x != y]
    largest_abs = largest_rel = 0.0
    for x, y in pairs:
        for u, v in zip(re.split(r"[,=\s]+", x), re.split(r"[,=\s]+", y)):
            try:
                fu, fv = float(u), float(v)
            except ValueError:
                continue
            if fu == fv or math.isnan(fu) or math.isnan(fv):
                continue
            move = abs(fu - fv)
            largest_abs = max(largest_abs, move)
            largest_rel = max(largest_rel, move / max(abs(fu), abs(fv))
                              if math.isfinite(move) else math.inf)
    return (f"{len(pairs) + abs(len(la) - len(lb))} lines differ, largest numeric move "
            f"{largest_abs:.3g} absolute, {largest_rel:.3g} relative")


def compare(job, base: tuple, change: tuple) -> list[str]:
    """Differences between the (exit code, stderr, files) of the two runs."""
    label = " ".join((job[0], job[1]) + job[2])
    (rc_a, err_a, files_a), (rc_b, err_b, files_b) = base, change
    diffs = []
    if rc_a != rc_b:
        diffs.append(f"{label}: exit code {rc_a} -> {rc_b}")
    if err_a != err_b:
        diffs.append(f"{label}: stderr differs at {_first_difference(err_a, err_b)}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            side = "base" if name in files_a else "change"
            diffs.append(f"{label}: {name} written by {side} only")
        elif files_a[name] != files_b[name]:
            diffs.append(f"{label}: {name} differs ("
                         f"{_numeric_moves(files_a[name], files_b[name])}) at "
                         f"{_first_difference(files_a[name], files_b[name])}")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    srcs = [_src(t) for t in argv]
    jobs = job_matrix()
    differences = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rwlab-diff-") as tmp:
        for k, job in enumerate(jobs):
            dirs = [os.path.join(tmp, side, str(k)) for side in ("base", "change")]
            procs = [_start(src, d, job) for src, d in zip(srcs, dirs)]
            results = []
            for proc, d in zip(procs, dirs):
                _, err = proc.communicate()
                results.append((proc.returncode, err, _files(d)))
            diffs = compare(job, *results)
            differences += diffs
            status = "DIFFERS" if diffs else "same"
            print(f"[{k + 1}/{len(jobs)}] {' '.join((job[0], job[1]) + job[2])}: "
                  f"{status} (exit {results[0][0]}, {len(results[0][2])} files)",
                  flush=True)
    print(f"{len(jobs)} jobs in {time.perf_counter() - started:.0f} s")
    for line in differences:
        print(line)
    if differences:
        print(f"{len(differences)} differences")
        return 1
    print("all outputs, exit codes and stderr byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
