"""Input generator: a workload name and a seed give the list of jobs.

Each job is one fresh process: either `python -m rwlab.cli <subcommand>` on
a generated config, or the benchmark's own eventual-absorption job.  The
same (workload, seed) always gives the same jobs, configs and order.

The chains are the bundled example chains, written out here so that the
benchmark's inputs do not move when the repository's config files do.  Each
chain also carries its coefficients as exact Fractions, which the checks use
for their independent matrix-power references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORKLOADS = ("weight_pipeline", "chain_pipeline", "highprec")


@dataclass(frozen=True)
class Chain:
    name: str
    section: str  # the [chain] section of a config file
    p: object  # j -> Fraction
    q: object
    r: object
    kappa: object = lambda j: F(0)


def _section(label, p_prefix, p_tail, q_tail, r_prefix="", r_tail="0",
             kappa_prefix="", kappa_tail="0"):
    return (
        "[chain]\n"
        f"label = {label}\n"
        f"p_prefix = {p_prefix}\np_tail = {p_tail}\n"
        f"q_prefix = {'' if p_prefix == '' else '0'}\nq_tail = {q_tail}\n"
        f"r_prefix = {r_prefix}\nr_tail = {r_tail}\n"
        f"kappa_prefix = {kappa_prefix}\nkappa_tail = {kappa_tail}\n"
    )


def _const(prefix0, tail):
    return lambda j: F(prefix0) if j == 0 else F(tail)


def _down(tail):
    return lambda j: F(0) if j == 0 else F(tail)


CHAINS = {
    "chain_a": Chain(
        "chain_a", _section("arcsine", "1", "1/2", "1/2"),
        _const(1, "1/2"), _down("1/2"), lambda j: F(0)),
    "chain_b": Chain(
        "chain_b", _section("shifted-arcsine", "1/2", "1/4", "1/4", r_tail="1/2"),
        _const("1/2", "1/4"), _down("1/4"), lambda j: F(1, 2)),
    "chain_c": Chain(
        "chain_c", _section("asymmetric", "1", "7/10", "3/10"),
        _const(1, "7/10"), _down("3/10"), lambda j: F(0)),
    "chain_s": Chain(
        "chain_s",
        _section("semicircle", "", "(j + 2)/(2*(j + 1))", "j/(2*(j + 1))"),
        lambda j: F(j + 2, 2 * (j + 1)), lambda j: F(j, 2 * (j + 1)), lambda j: F(0)),
    "chain_k": Chain(
        "chain_k",
        _section("chain-k", "1/2", "1/4", "1/4", r_prefix="1/4", r_tail="1/2",
                 kappa_prefix="1/4"),
        _const("1/2", "1/4"), _down("1/4"), _const("1/4", "1/2"), _const("1/4", 0)),
    "constant_killing": Chain(
        "constant_killing",
        _section("constant-killing", "9/10", "9/20", "9/20", kappa_tail="1/10"),
        _const("9/10", "9/20"), _down("9/20"), lambda j: F(0), lambda j: F(1, 10)),
}

# honest chains with closed-form tails: the chains a quadrature exists for
CORE_CHAINS = ("chain_a", "chain_b", "chain_c", "chain_s")

# [run] sections of the bundled configs, used by the chain_pipeline jobs
CHAIN_RUN = {
    "chain_a": (400, 400, {}),
    "chain_b": (400, 400, {}),
    "chain_c": (400, 400, {}),
    "chain_s": (400, 400, {}),
    "chain_k": (200, 2000, {"j_max": 6}),
    "constant_killing": (200, 1000, {"j_max": 6}),
}

NEGATIVE_MEAN = (
    "[weight]\nlabel = negative-mean\neta = 1\nalpha = 1/2\nbeta = 0\n"
    "smooth = 1\natoms = none\n"
)

# the generated weight family (1-x)^alpha (1+x)^beta smooth(x) on [-1, 1]
ALPHAS = (F(1, 2), F(3, 2))
BETA_OFFSETS = (F(0), F(1))
SMOOTH_CONSTANTS = (None, 2, 3, 4)  # None: smooth = 1, else smooth = c + x

MC_SAMPLES = 10**6
MC_STEPS = 8
EVENTUAL_SAMPLES = 10**5


@dataclass(frozen=True)
class Job:
    """One process of a workload.

    kind "cli" runs `rwlab <args[0]> --config <config> --out <dir> args[1:]`;
    kind "eventual" runs jobproc.py's eventual absorption on the config's
    chain with args = (start, samples, seed).  `check` names the checker and
    `expect` holds what it compares against.
    """

    name: str
    kind: str
    args: tuple
    config: str
    check: str
    expect: dict = field(default_factory=dict)


def _run_section(precision, truncation, horizon, seed, extra=()):
    lines = [f"precision = {precision}", f"truncation = {truncation}",
             f"horizon = {horizon}", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in extra]
    return "\n[run]\n" + "\n".join(lines) + "\n"


def _fmt(frac: F) -> str:
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def weight_member(alpha: F, beta: F, smooth_c):
    """Config section and closed-form prediction for one family member.

    Returns (section text, expected branch, predicted limit)."""
    smooth = "1" if smooth_c is None else f"{smooth_c} + x"
    label = f"w-a{_fmt(alpha)}-b{_fmt(beta)}-s{'1' if smooth_c is None else smooth_c}"
    section = (
        f"[weight]\nlabel = {label.replace('/', '_')}\neta = 1\n"
        f"alpha = {_fmt(alpha)}\nbeta = {_fmt(beta)}\nsmooth = {smooth}\natoms = none\n"
    )
    if alpha < beta:
        return section, "iii", F(0)
    if smooth_c is None:
        # symmetric density: the recovered chain has r = 0, the periodic branch
        return section, "i", F(1)
    return section, "iii", F(smooth_c - 1, smooth_c + 1)


def weight_members():
    for alpha in ALPHAS:
        for off in BETA_OFFSETS:
            for c in SMOOTH_CONSTANTS:
                yield alpha, alpha + off, c


def _weight_pipeline(rng: random.Random):
    alpha, beta, c = rng.choice(list(weight_members()))
    section, branch, prediction = weight_member(alpha, beta, c)
    config = section + _run_section(15, 2000, 2000, rng.randrange(10**6))
    job = Job("conjecture-weight", "cli", ("conjecture",), config, "weight",
              {"branch": branch, "prediction": float(prediction)})
    return [job], []


def chain_config(name, seed, extra=()):
    """A bundled chain with its bundled [run] section and the given seed."""
    truncation, horizon, opts = CHAIN_RUN[name]
    return CHAINS[name].section + _run_section(
        15, truncation, horizon, seed, tuple(opts.items()) + tuple(extra))


def _chain_pipeline(rng: random.Random):
    seed = rng.randrange(10**6)
    jobs = [
        Job(f"conjecture-{name}", "cli", ("conjecture",), chain_config(name, seed),
            "reference", {"chain": name, "output": "conjecture"})
        for name in CHAINS
    ]
    jobs.append(Job(
        "conjecture-negative_mean", "cli", ("conjecture",),
        NEGATIVE_MEAN + _run_section(15, 100, 100, seed, (("depth", 10),)),
        "fails_at_index", {"rc": 3, "index": 0}))
    for name in ("chain_k", "constant_killing"):
        jobs.append(Job(f"absorb-{name}", "cli", ("absorb",), chain_config(name, seed),
                        "reference", {"chain": name, "output": "absorb"}))
    mc_chain = rng.choice(CORE_CHAINS)
    jobs.append(Job(
        f"mc-{mc_chain}", "cli", ("mc",),
        chain_config(mc_chain, rng.randrange(10**6),
                      (("samples", MC_SAMPLES), ("steps", MC_STEPS))),
        "mc", {"chain": mc_chain, "steps": MC_STEPS}))
    jobs.append(Job(
        "eventual-chain_k", "eventual",
        (0, EVENTUAL_SAMPLES, rng.randrange(10**6)), chain_config("chain_k", seed),
        "eventual",
        {"chain": "chain_k"}))
    rng.shuffle(jobs)
    return jobs, []


# highprec draws its chain from the two core chains whose 34-digit work
# costs the same (within 5% at the seed commit).  chain_a costs 0.75x and
# chain_c 1.25x as much, so drawing from all four spreads wall_s over seeds
# by about 20%.  All four run at 15 digits in chain_pipeline.
HIGHPREC_CHAINS = ("chain_b", "chain_s")


def _highprec(rng: random.Random):
    name = rng.choice(HIGHPREC_CHAINS)
    config = chain_config(name, rng.randrange(10**6))
    jobs = [
        Job(f"measure-{name}", "cli", ("measure", "--precision", "34", "--truncation", "400"),
            config, "measure", {"chain": name, "N": 400}),
        Job(f"edges-{name}", "cli", ("edges", "--precision", "34", "--truncation", "1000"),
            config, "edges", {"chain": name, "tol": 1e-6, "against": f"edges15-{name}"}),
        Job(f"christoffel-{name}", "cli", ("christoffel", "--precision", "34"),
            config, "reference", {"chain": name, "output": "christoffel"}),
    ]
    rng.shuffle(jobs)
    # the 15-digit edges the 34-digit ones are checked against; run untimed
    refs = [Job(f"edges15-{name}", "cli",
                ("edges", "--precision", "15", "--truncation", "1000"), config, "none")]
    return jobs, refs


def generate(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """(timed jobs, untimed reference jobs) of one workload for one seed."""
    makers = {
        "weight_pipeline": _weight_pipeline,
        "chain_pipeline": _chain_pipeline,
        "highprec": _highprec,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return makers[workload](random.Random(f"{workload}:{seed}"))
