"""rwlab benchmark: end-to-end CLI runs on three workloads, with a traced
mode that reports per-layer metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One benchmark process starts the jobs of the
workload one after another, each a fresh process (a closed loop with one
client), and waits for each to end.  The job list is run once and then
again while another pass fits in S seconds; the metrics are medians over
the passes.  Every job's outputs are checked (checks.py); a failed check
counts in `failed` and never stops the run.

--trace 0 prints the end-to-end metrics; --trace 1 runs the job list once
untraced and once traced (jobproc.py, spans.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170.0  # a run ends (killing a late job) before 180 s
SETUP_PROBES = 5

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "pass_frac": "frac"}


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


def spawn(cmd: list[str], stderr_path: str, deadline: float) -> Proc:
    """Run one process to its end and return its exit code, wall time and
    its own CPU time and peak RSS (from wait4).  A process still running at
    the deadline is killed and reported with exit code -9."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no job behind
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, text)


def job_command(job: workloads.Job, cfg: str, out: str, trace: tuple | None) -> list[str]:
    if job.kind == "cli":
        argv = [job.args[0], "--config", cfg, "--out", out, *job.args[1:]]
    else:
        argv = [cfg, *map(str, job.args), out]
    if trace is None and job.kind == "cli":
        return [sys.executable, "-m", "rwlab.cli", *argv]
    prefix = [] if trace is None else ["--trace", *trace]
    return [sys.executable, os.path.join(HERE, "jobproc.py"), *prefix, job.kind, *argv]


@dataclass
class Pass:
    wall: float
    results: dict  # job name -> (Proc, out dir)


class Runner:
    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.configs: dict[str, str] = {}

    def config_path(self, job: workloads.Job) -> str:
        if job.name not in self.configs:
            path = os.path.join(self.work, "configs", job.name + ".cfg")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job.config)
            self.configs[job.name] = path
        return self.configs[job.name]

    def run_job(self, job: workloads.Job, tag: str, traced: bool = False) -> tuple[Proc, str]:
        out = os.path.join(self.work, tag, job.name)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        if time.monotonic() >= self.deadline:
            return Proc(-9, 0.0, 0.0, 0.0, "not started: run out of time"), out
        trace = (out + ".spans", job.name) if traced else None
        proc = spawn(job_command(job, self.config_path(job), out, trace), out + ".stderr",
                     self.deadline)
        print(f"# {tag} {job.name}: exit {proc.rc}, {proc.wall:.3f} s wall, "
              f"{proc.cpu:.3f} s cpu, {proc.rss_mb:.0f} MB", file=sys.stderr)
        return proc, out

    def run_pass(self, jobs, tag: str) -> Pass:
        t0 = time.perf_counter()
        results = {job.name: self.run_job(job, tag) for job in jobs}
        return Pass(time.perf_counter() - t0, results)

    def setup_times(self) -> list[Proc]:
        cmd = [sys.executable, "-m", "rwlab.cli", "--help"]
        return [spawn(cmd, os.path.join(self.work, f"setup{k}.stderr"), self.deadline)
                for k in range(SETUP_PROBES)]


def check_pass(jobs, p: Pass, refs: dict, reference: dict) -> tuple[int, list[str], list[float]]:
    """(failed jobs, problem lines, limit errors) of one pass."""
    outputs = {name: out for name, (_, out) in refs.items()}
    failed, lines, errs = 0, [], []
    for job in jobs:
        proc, out = p.results[job.name]
        problems, job_errs = checks.check_job(job, proc.rc, out, proc.stderr, reference, outputs)
        errs += job_errs
        if problems:
            failed += 1
            lines += [f"{job.name}: {msg}" for msg in problems]
    return failed, lines, errs


def end_to_end(jobs, runner: Runner, seconds: float, refs_jobs, reference) -> dict:
    start = time.monotonic()
    probes = runner.setup_times()
    passes = []
    while True:
        passes.append(runner.run_pass(jobs, f"pass{len(passes)}"))
        elapsed = time.monotonic() - start
        if elapsed + passes[-1].wall > seconds or time.monotonic() >= runner.deadline:
            break
    refs = runner.run_pass(refs_jobs, "refs").results
    attempted = len(probes) + len(jobs) * len(passes)
    failed = sum(1 for pr in probes if pr.rc != 0)
    problems = [f"setup probe: exit code {pr.rc}" for pr in probes if pr.rc != 0]
    for p in passes:
        f, lines, _ = check_pass(jobs, p, refs, reference)
        failed += f
        problems += lines
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(sum(pr.cpu for pr, _ in p.results.values()) for p in passes),
        "setup_s": statistics.median(pr.wall for pr in probes),
        "peak_rss_mb": statistics.median(max(pr.rss_mb for pr, _ in p.results.values()) for p in passes),
        "pass_frac": 1.0 - failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "passes": len(passes),
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


# per-layer metrics: self time of these spans, in seconds
SELF_TIME = {
    "recover.discretize_weight_s": "recover.discretize_weight",
    "recover.stieltjes_recurrence_s": "recover.stieltjes_recurrence",
    "recover.chain_from_recurrence_s": "recover.chain_from_recurrence",
    "polynomials.support_edges_s": "polynomials.support_edges",
    "polynomials.christoffel_ratio_sequence_s": "polynomials.christoffel_ratio_sequence",
    "polynomials.q_values_s": "polynomials.q_values",
    "polynomials.absorption_probabilities_s": "polynomials.absorption_probabilities",
    "tridiagonal.golub_welsch_mpf_s": "tridiagonal.golub_welsch_mpf",
    "tridiagonal.extreme_eigen_mpf_s": "tridiagonal.extreme_eigen_mpf",
    "tridiagonal.sturm_count_s": "tridiagonal.sturm_count",
    "tridiagonal.jacobi_arrays_mpf_s": "tridiagonal.jacobi_arrays_mpf",
    "tridiagonal.golub_welsch_f64_s": "tridiagonal.golub_welsch_f64",
    "tridiagonal.extreme_eigen_f64_s": "tridiagonal.extreme_eigen_f64",
    "measures.quadrature_from_chain_s": "measures.quadrature_from_chain",
    "measures.cn_series_s": "measures.cn_series",
    "measures.transition_probability_s": "measures.transition_probability",
    "measures.monte_carlo_transition_s": "measures.monte_carlo_transition",
    "measures.monte_carlo_absorption_s": "measures.monte_carlo_absorption",
    "measures.monte_carlo_eventual_absorption_s": "measures.monte_carlo_eventual_absorption",
    "chains.killing_sum_s": "chains.killing_sum",
    "chains.log_pi_mpf_s": "chains.log_pi_mpf",
    "asymptotics.conjecture_report_self_s": "asymptotics.conjecture_report",
    "asymptotics.ratio_vanishing_criterion_s": "asymptotics.ratio_vanishing_criterion",
    "asymptotics.condition_bounded_variation_s": "asymptotics.condition_bounded_variation",
    "asymptotics.aperiodicity_sum_terms_s": "asymptotics.aperiodicity_sum_terms",
    "asymptotics.edge_exponents_s": "asymptotics.edge_exponents",
    "limits.estimate_limit_s": "limits.estimate_limit",
    "cli.import_s": "cli.import",
    "cli.load_config_s": "cli.load_config",
    "fileformats.atomic_write_s": "fileformats.atomic_write",
}

# per-layer metrics read from the recorded counters: name -> (counter, unit)
COUNTERS = {
    "recover.grid_nodes": ("recover.grid_nodes", "count"),
    "recover.coeff_max_bits": ("recover.coeff_max_bits", "bits"),
    "recover.chain_hash_s": ("recover.chain_hash_s", "s"),
    "polynomials.support_edges_calls": ("polynomials.support_edges.calls", "count"),
    "polynomials.edges_cross_checked": ("polynomials.edges_cross_checked", "count"),
    "polynomials.christoffel_ratio_sequence_calls": ("polynomials.christoffel_ratio_sequence.calls", "count"),
    "polynomials.q_values_calls": ("polynomials.q_values.calls", "count"),
    "tridiagonal.sturm_count_calls": ("tridiagonal.sturm_count.calls", "count"),
    "measures.cn_terms": ("measures.cn_terms", "count"),
    "measures.mc_walker_steps": ("measures.mc_walker_steps", "count"),
    "chains.log_pi_mpf_calls": ("chains.log_pi_mpf.calls", "count"),
    "limits.estimate_limit_calls": ("limits.estimate_limit.calls", "count"),
    "fileformats.bytes_written": ("fileformats.bytes_written", "bytes"),
}

MC_KERNELS = ("measures.monte_carlo_transition", "measures.monte_carlo_absorption",
              "measures.monte_carlo_eventual_absorption")


def layer_metrics(traced: Pass, untraced: Pass, limit_errs: list[float]) -> dict:
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    covered = job_wall = 0.0
    useful = attempted_passes = 0
    for name, (proc, out) in traced.results.items():
        path = out + ".spans"
        if not os.path.exists(path):
            continue
        job_spans, job_counters = spans.read_spans(path)
        for s, t in zip(job_spans, spans.self_times(job_spans)):
            self_s[s["name"]] = self_s.get(s["name"], 0.0) + t
        for key, value in job_counters.items():
            counters[key] = counters.get(key, 0) + value
        covered += spans.top_level_cover(job_spans)
        job_wall += proc.wall
        u, a = spans.ratio_passes(job_spans)
        useful += u
        attempted_passes += a
    out = {k: (self_s.get(v, 0.0), "s") for k, v in SELF_TIME.items()}
    out.update({k: (counters.get(c, 0), unit) for k, (c, unit) in COUNTERS.items()})
    mc_s = sum(self_s.get(k, 0.0) for k in MC_KERNELS)
    steps = counters.get("measures.mc_walker_steps", 0)
    out["measures.mc_walker_steps_per_s"] = (steps / mc_s if mc_s > 0 else 0.0, "1/s")
    # no ratio pass ran: nothing was wasted
    out["asymptotics.ratio_pass_useful_frac"] = (
        useful / attempted_passes if attempted_passes else 1.0, "frac")
    out["asymptotics.limit_err"] = (max(limit_errs) if limit_errs else 0.0, "1")
    out["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    out["trace.covered_frac"] = (covered / job_wall if job_wall > 0 else 0.0, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def traced_run(jobs, runner: Runner, refs_jobs, reference) -> dict:
    """Each job untraced and then traced, back to back, so that drift of the
    machine between the two shows up in neither."""
    untraced, traced = Pass(0.0, {}), Pass(0.0, {})
    for job in jobs:
        for p, tag, on in ((untraced, "untraced", False), (traced, "traced", True)):
            p.results[job.name] = runner.run_job(job, tag, on)
            p.wall += p.results[job.name][0].wall
    refs = runner.run_pass(refs_jobs, "refs").results
    failed, problems, errs = check_pass(jobs, untraced, refs, reference)
    for job in jobs:
        (p_u, out_u), (p_t, out_t) = untraced.results[job.name], traced.results[job.name]
        diffs = checks.same_outputs(out_u, out_t)
        if p_u.rc != p_t.rc:
            diffs.append(f"exit code {p_t.rc} traced, {p_u.rc} untraced")
        if diffs:
            failed += 1
            problems += [f"{job.name} (traced): {d}" for d in diffs]
    return {"attempted": 2 * len(jobs), "failed": failed,
            "problems": problems, "passes": 1,
            "metrics": layer_metrics(traced, untraced, errs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rwlab", "cli.py")):
        print(f"benchmark: no rwlab sources under {ROOT}; run it from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs, refs_jobs = workloads.generate(args.workload, args.seed)
    reference = checks.load_reference()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(work, deadline)
        if args.trace:
            res = traced_run(jobs, runner, refs_jobs, reference)
        else:
            res = end_to_end(jobs, runner, args.seconds, refs_jobs, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in res["problems"]:
        print("FAILED " + line, file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} jobs={len(jobs)} passes={res['passes']}")
    for name, m in res["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
