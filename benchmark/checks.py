"""Correctness checks of job outputs against independent references.

Every checker takes the job's expectations and its parsed outputs and
returns (problems, limit errors): a list of human-readable problems (empty
when the job passed) and the |empirical - predicted| values of the limits
it saw next to a printed prediction.

The references are closed forms (the weight family's predicted limits),
matrix powers of the chain's exact rational coefficients in integer fixed
point, and the values the seed commit printed for the bundled chains
(reference.json).
"""

from __future__ import annotations

import csv
import json
import os
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
FIX_BITS = 256  # fixed-point grid 2^-256: rounding far below the 1e-30 checks


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- parsing --------------------------------------------------------------------


def read_keyvalue(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if " = " in line:
                key, value = line.rstrip("\n").split(" = ", 1)
                out[key] = value
    return out


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# --- exact references -------------------------------------------------------------


def _fixed(x: Fraction) -> int:
    return (x.numerator << FIX_BITS) // x.denominator


def transition_rows(chain: workloads.Chain, start: int, steps: int, dim: int) -> list[list[int]]:
    """Distributions e_start P^n for n = 0..steps on states 0..dim-1, in
    fixed point (integers scaled by 2^FIX_BITS) from the exact coefficients.

    Mass moves one state per step and mass pushed past state dim-1 is
    dropped, so P_start,j(n) is exact while the walk cannot reach dim and
    come back: callers pick dim accordingly.  Killed mass leaves too."""
    p = [_fixed(chain.p(j)) for j in range(dim)]
    q = [_fixed(chain.q(j)) for j in range(dim)]
    r = [_fixed(chain.r(j)) for j in range(dim)]
    v = [0] * dim
    v[start] = 1 << FIX_BITS
    rows = [v]
    for _ in range(steps):
        nxt = [r[j] * v[j] for j in range(dim)]
        for j in range(dim - 1):
            nxt[j + 1] += p[j] * v[j]
            nxt[j] += q[j + 1] * v[j + 1]
        v = [x >> FIX_BITS for x in nxt]
        rows.append(v)
    return rows


def return_probabilities(chain: workloads.Chain, n_max: int) -> list[Fraction]:
    """P_00(n) for n = 0..n_max (exact to far below 1e-60)."""
    rows = transition_rows(chain, 0, n_max, n_max // 2 + 2)
    return [Fraction(v[0], 1 << FIX_BITS) for v in rows]


def moments(nodes: list[str], weights: list[str], n_max: int) -> list[Fraction]:
    """sum_k w_k x_k^n for n = 0..n_max of the printed decimals, in fixed point."""
    xs = [_fixed(Fraction(x)) for x in nodes]
    pw = [_fixed(Fraction(w)) for w in weights]
    out = []
    for _ in range(n_max + 1):
        out.append(Fraction(sum(pw), 1 << FIX_BITS))
        pw = [(a * x) >> FIX_BITS for a, x in zip(pw, xs)]
    return out


# --- checkers ---------------------------------------------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol + 1e-12 * max(abs(a), abs(b))


def check_weight(expect: dict, rc: int, kv: dict) -> tuple[list[str], list[float]]:
    """Weight conjecture: branch, `consistent`, the printed prediction equal
    to the closed form, and both limits within the printed tolerance."""
    problems = []
    if rc != 0:
        return [f"exit code {rc}, expected 0"], []
    if kv.get("branch") != expect["branch"]:
        problems.append(f"branch {kv.get('branch')}, expected {expect['branch']}")
    if kv.get("verdict") != "consistent":
        problems.append(f"verdict {kv.get('verdict')}, expected consistent")
    pred = expect["prediction"]
    if "prediction" not in kv or not _close(float(kv["prediction"]), pred, 1e-12):
        problems.append(f"prediction {kv.get('prediction')}, closed form {pred!r}")
    tol = float(kv.get("tolerance", "nan"))
    errs = []
    for key in ("cn_limit", "rho_ratio_limit"):
        if key not in kv:
            problems.append(f"{key} missing")
            continue
        err = abs(float(kv[key]) - pred)
        errs.append(err)
        if not err <= tol:
            problems.append(f"|{key} - prediction| = {err:.3g} > tolerance {tol:g}")
    return problems, errs


def check_conjecture_reference(ref: dict, rc: int, kv: dict) -> tuple[list[str], list[float]]:
    """Chain conjecture against the seed commit: exit code, branch, verdict
    and prediction equal; each limit within the two printed uncertainties."""
    problems = []
    if rc != ref["rc"]:
        return [f"exit code {rc}, expected {ref['rc']}"], []
    for key in ("branch", "verdict", "prediction"):
        if kv.get(key) != ref.get(key):
            problems.append(f"{key} {kv.get(key)}, reference {ref.get(key)}")
    errs = []
    for key, unc_key in (("cn_limit", "cn_uncertainty"), ("rho_ratio_limit", "rho_ratio_uncertainty")):
        if (key in kv) != (key in ref):
            problems.append(f"{key} presence differs from the reference")
            continue
        if key not in kv:
            continue
        value = float(kv[key])
        tol = float(kv[unc_key]) + float(ref[unc_key])
        if not _close(value, float(ref[key]), tol):
            problems.append(f"{key} {value!r}, reference {ref[key]} (+- {tol:.3g})")
        if "prediction" in kv:
            errs.append(abs(value - float(kv["prediction"])))
    return problems, errs


def check_absorb_reference(ref: dict, rc: int, taus: list[float], kv: dict) -> list[str]:
    """Absorption probabilities equal the seed commit's (they print no
    uncertainty; 1e-9 allows last-digit movement only)."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems = []
    if kv.get("route") != ref["route"]:
        problems.append(f"route {kv.get('route')}, reference {ref['route']}")
    if len(taus) != len(ref["tau"]):
        return problems + [f"{len(taus)} tau values, reference {len(ref['tau'])}"]
    for j, (t, t_ref) in enumerate(zip(taus, ref["tau"])):
        if not _close(t, t_ref, 1e-9):
            problems.append(f"tau_{j} {t!r}, reference {t_ref!r}")
    return problems


def check_christoffel_reference(ref: dict, rc: int, kv: dict, rows: int) -> list[str]:
    """34-digit Christoffel ratio limit against the seed commit within the
    two printed uncertainties."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems = []
    if rows != ref["rows"]:
        problems.append(f"{rows} ratio rows, reference {ref['rows']}")
    tol = float(kv["uncertainty"]) + float(ref["uncertainty"])
    if not _close(float(kv["limit"]), float(ref["limit"]), tol):
        problems.append(f"limit {kv['limit']}, reference {ref['limit']} (+- {tol:.3g})")
    return problems


def check_fails_at_index(expect: dict, rc: int, stderr: str) -> list[str]:
    """A weight that is not a random walk measure: exit code and index."""
    problems = []
    if rc != expect["rc"]:
        problems.append(f"exit code {rc}, expected {expect['rc']}")
    if f"index {expect['index']}" not in stderr:
        problems.append(f"stderr does not name index {expect['index']}")
    return problems


def check_measure(chain: workloads.Chain, N: int, rc: int, rows: list[dict]) -> list[str]:
    """34-digit quadrature: N nodes, unit mass within 1e-30, and moments
    0..2N-1 equal to the exact return probabilities P_00(n) within 1e-30."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if len(rows) != N:
        return [f"{len(rows)} nodes, expected {N}"]
    tol = Fraction(1, 10**30)
    m = moments([r["node"] for r in rows], [r["weight"] for r in rows], 2 * N - 1)
    problems = []
    if abs(m[0] - 1) > tol:
        problems.append(f"weights sum to 1 {float(m[0] - 1):+.3g}")
    exact = return_probabilities(chain, 2 * N - 1)
    bad = [n for n in range(1, 2 * N) if abs(m[n] - exact[n]) > tol]
    if bad:
        n = bad[0]
        problems.append(
            f"{len(bad)} moments differ from P_00(n) by more than 1e-30, first n = {n}: "
            f"{float(m[n] - exact[n]):.3g}"
        )
    return problems


EDGE_KEYS = ("eta_hat", "zeta_hat", "eta_eigen", "eta_bisection", "zeta_eigen", "zeta_bisection")


def check_edges(tol: float, rc: int, kv: dict, kv15: dict) -> list[str]:
    """34-digit edges agree with the 15-digit edges within tol."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems = []
    for key in EDGE_KEYS:
        a, b = float(kv[key]), float(kv15[key])
        if not abs(a - b) <= tol:
            problems.append(f"{key} {a!r} vs 15-digit {b!r}")
    return problems


def check_mc(chain: workloads.Chain, steps: int, rc: int, rows: list[dict]) -> list[str]:
    """Monte Carlo within 5 standard errors of the matrix value, spectral
    within 1e-10 of it, and the matrix value equal to the exact one."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if len(rows) != 3 * steps:
        return [f"{len(rows)} rows, expected {3 * steps}"]
    exact = {i: transition_rows(chain, i, steps, i + steps + 2) for i in (0, 1)}
    problems = []
    for row in rows:
        i, j, n = int(row["i"]), int(row["j"]), int(row["n"])
        matrix, spectral = float(row["matrix"]), float(row["spectral"])
        est, se = float(row["mc_est"]), float(row["mc_se"])
        ref = exact[i][n][j] / 2**FIX_BITS
        where = f"P_{i}{j}({n})"
        if abs(est - matrix) > 5 * se:
            problems.append(f"{where}: mc {est!r} vs matrix {matrix!r} (se {se:.2g})")
        if abs(spectral - matrix) > 1e-10:
            problems.append(f"{where}: spectral {spectral!r} vs matrix {matrix!r}")
        if abs(matrix - ref) > 1e-12:
            problems.append(f"{where}: matrix {matrix!r} vs exact {ref!r}")
    return problems


def check_eventual(tau: float, rc: int, result: dict) -> list[str]:
    """Eventual absorption within 4 standard errors of the polynomial tau_0."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    est, se = result["estimate"], result["std_error"]
    if abs(est - tau) > 4 * se:
        return [f"estimate {est!r} vs polynomial tau {tau!r} (se {se:.2g})"]
    return []


def check_job(job: workloads.Job, rc: int, out: str, stderr: str,
              reference: dict, outputs: dict) -> tuple[list[str], list[float]]:
    """Dispatch on job.check; `outputs` maps job names to their output
    directories (for checks that compare two jobs).  A missing or malformed
    output file is a problem, never an exception."""
    e = job.expect

    def path(name):
        return os.path.join(out, name)

    try:
        if job.check == "weight":
            kv = read_keyvalue(path("conjecture.txt")) if rc == 0 else {}
            return check_weight(e, rc, kv)
        if job.check == "fails_at_index":
            return check_fails_at_index(e, rc, stderr), []
        if job.check == "reference":
            ref = reference[e["output"]][e["chain"]]
            if e["output"] == "conjecture":
                kv = read_keyvalue(path("conjecture.txt")) if rc == ref["rc"] else {}
                return check_conjecture_reference(ref, rc, kv)
            if e["output"] == "absorb":
                taus = [float(r["tau"]) for r in read_csv(path("absorption.csv"))] if rc == 0 else []
                kv = read_keyvalue(path("absorption.txt")) if rc == 0 else {}
                return check_absorb_reference(ref, rc, taus, kv), []
            kv = read_keyvalue(path("christoffel_limit.txt")) if rc == 0 else {}
            rows = len(read_csv(path("christoffel.csv"))) if rc == 0 else 0
            return check_christoffel_reference(ref, rc, kv, rows), []
        chain = workloads.CHAINS.get(e.get("chain", ""))
        if job.check == "measure":
            rows = read_csv(path("measure.csv")) if rc == 0 else []
            return check_measure(chain, e["N"], rc, rows), []
        if job.check == "edges":
            kv = read_keyvalue(path("edges.txt")) if rc == 0 else {}
            kv15 = read_keyvalue(os.path.join(outputs[e["against"]], "edges.txt"))
            return check_edges(e["tol"], rc, kv, kv15), []
        if job.check == "mc":
            rows = read_csv(path("mc.csv")) if rc == 0 else []
            return check_mc(chain, e["steps"], rc, rows), []
        if job.check == "eventual":
            with open(path("eventual.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            tau = reference["absorb"][e["chain"]]["tau"][0]
            return check_eventual(tau, rc, result), []
        if job.check == "none":
            return ([] if rc == 0 else [f"exit code {rc}"]), []
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], []
    return [f"unknown check {job.check!r}"], []


def same_outputs(out_a: str, out_b: str) -> list[str]:
    """Differences between two jobs' output directories (file names and bytes)."""
    def files(d):
        return sorted(f for f in os.listdir(d) if not f.startswith(".")) if os.path.isdir(d) else []
    fa, fb = files(out_a), files(out_b)
    if fa != fb:
        return [f"output files differ: {fa} vs {fb}"]
    problems = []
    for name in fa:
        with open(os.path.join(out_a, name), "rb") as a, open(os.path.join(out_b, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"{name} differs")
    return problems

