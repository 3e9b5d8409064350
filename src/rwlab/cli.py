"""Batch experiment runner.

Every pipeline is a subcommand taking a config file (the same structured
dialect as chain/weight files; one file may hold [chain], [weight] and
[run] together).  Outputs are CSV and flat key-value text files, written
atomically and byte-identical across runs for a fixed config.

Exit codes: 0 success, 2 consistency verdict "inconsistent", 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import fileformats as ff
from .asymptotics import (
    conjecture_report,
    edge_exponents,
    edge_scaled_christoffel,
    ratio_limit_with_edge_spread,
)
from .chains import (
    ChainSpec,
    asymptotic_aperiodicity_sum,
    is_periodic,
    killing_sum,
    potential_coefficients,
    rj_over_pj_sum,
    series_L,
)
from .errors import InputError, RwlabError
from .fileformats import atomic_write, csv_text, keyvalue_text
from .measures import (
    cn_series,
    monte_carlo_transitions,
    quadrature_from_chain,
    srlp_predicted_limit,
    transition_probability,
)
from .normalization import normalize
from .polynomials import absorption_probabilities, eval_Q, support_edges
from .recover import (WeightSpec, discretize_weight, grid_size_for_depth, recover_chain,
                      route_measure)

@dataclass
class ExperimentConfig:
    """Validated run parameters assembled from the config file and flags."""

    chain: ChainSpec | None
    weight: WeightSpec | None
    precision: int
    truncation: int
    horizon: int
    seed: int
    out: str
    options: dict

    def require_chain(self) -> ChainSpec:
        if self.chain is None:
            raise InputError("this subcommand needs a [chain] section")
        return self.chain

    def require_weight(self) -> WeightSpec:
        if self.weight is None:
            raise InputError("this subcommand needs a [weight] section")
        return self.weight


def _diagnostic(level: str, code: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"level": level, "code": code, "message": message}, sort_keys=True
    ) + "\n")


def _warning_diagnostic(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning replacement: one JSON warning record on stderr."""
    _diagnostic("warning", category.__name__, str(message))


def load_config(args) -> ExperimentConfig:
    sections = ff.parse_file(args.config) if args.config else {}
    run = sections.get("run", {})
    chain = ff.chain_from_sections(sections) if "chain" in sections else None
    weight = ff.weight_from_sections(sections) if "weight" in sections else None

    def pick(flag, key, default):
        return flag if flag is not None else _opt(run, key, default)

    precision = pick(args.precision, "precision", 34)
    truncation = pick(args.truncation, "truncation", 400)
    if truncation < 2:
        raise InputError("truncation must be >= 2")
    horizon = pick(args.horizon, "horizon", 2 * truncation - 1)
    if horizon < 0:
        raise InputError("horizon must be >= 0")
    seed = pick(args.seed, "seed", 1234)
    out = args.out or run.get("out") or "out"
    options = {k: v for k, v in run.items()}
    return ExperimentConfig(chain, weight, precision, truncation, horizon, seed, out, options)


def _opt(options: dict, key: str, default: int, least: int | None = None) -> int:
    """options[key] as an int, or default when the key is absent; a value
    below `least` is an input error."""
    try:
        value = int(options[key]) if key in options else default
    except ValueError:
        raise InputError(f"[run] {key} must be an integer, not {options[key]!r}") from None
    if least is not None and value < least:
        raise InputError(f"[run] {key} must be >= {least}, the run has {key} = {value}")
    return value


def _digits(cfg: ExperimentConfig) -> int:
    """cfg.precision for a subcommand that reads it; below 15 is an input error."""
    if cfg.precision < 15:
        raise InputError("precision must be >= 15 digits")
    return cfg.precision


def _path(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


# --- subcommand handlers --------------------------------------------------------


def cmd_chain_info(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    n = int(min(cfg.horizon, chain.depth - 2))
    if n < 1:
        raise InputError(f"{chain.label}: chain-info needs horizon >= 1 and depth >= 3")
    rows = [("label", chain.label), ("periodic", is_periodic(chain)),
            ("has_killing", chain.has_killing())]
    recurrence = series_L(chain, n)
    rows.append(("recurrence_series", recurrence.verdict))
    rows.append(("recurrence_detail", recurrence.tail_analysis))
    if not chain.has_killing():
        ar = asymptotic_aperiodicity_sum(chain, n)
        rows.append(("aperiodicity_sum", ar.verdict))
        rows.append(("aperiodicity_detail", ar.tail_analysis))
    rp = rj_over_pj_sum(chain, n)
    rows.append(("hold_over_up_sum", rp.verdict))
    ks = killing_sum(chain, n)
    rows.append(("killing_sum", ks.verdict))
    pis = potential_coefficients(chain, min(n, 64))
    atomic_write(_path(cfg, "chain_info.txt"), keyvalue_text(rows))
    atomic_write(
        _path(cfg, "potential_coefficients.csv"),
        csv_text(["j", "log10_pi", "pi"], (
            (j, v.log10, v.value) for j, v in enumerate(pis)
        )),
    )
    return 0


def cmd_polys(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    text = cfg.options.get("x", "1/2")
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"[run] x must be a rational number, not {text!r}") from None
    n = _opt(cfg.options, "depth", int(min(64, chain.depth - 1)), least=0)
    trace = eval_Q(chain, n, x, _digits(cfg))
    rows = []
    for k in range(n + 1):
        qv = trace.values[k]
        pv = trace.orthonormal_values[k]
        rows.append((k, qv.sign, qv.log10, pv.sign, pv.log10))
    atomic_write(
        _path(cfg, "polys.csv"),
        csv_text(["n", "sign_Q", "log10_abs_Q", "sign_p", "log10_abs_p"], rows),
    )
    return 0


def _require_edge_depth(label: str, depth) -> None:
    """The edge solve needs 50 coefficients: refuse a shorter chain."""
    if depth < 50:
        raise InputError(f"{label}: the edge solve needs depth >= 50, "
                         f"the chain has depth {depth}")


def _require_limit_horizon(label: str, horizon: int) -> None:
    """The Christoffel-ratio limit needs 16 terms (estimate_limit's
    min_len): refuse a shorter horizon."""
    if horizon < 16:
        raise InputError(f"{label}: the ratio limit needs horizon >= 16, "
                         f"the run has horizon {horizon}")


def _edges_for(cfg: ExperimentConfig, chain: ChainSpec):
    """support_edges with the truncation clamped to [50, chain depth]; a
    prefix-only chain needs depth >= 50."""
    _require_edge_depth(chain.label, chain.depth)
    return support_edges(chain, int(min(max(50, cfg.truncation), chain.depth)))


def cmd_edges(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    e = _edges_for(cfg, chain)
    atomic_write(_path(cfg, "edges.txt"), keyvalue_text([
        ("eta_hat", e.eta_hat), ("zeta_hat", e.zeta_hat), ("method", e.method),
        ("truncation_size", e.truncation_size), ("discrepancy", e.discrepancy),
        ("eta_eigen", e.eta_eigen), ("eta_bisection", e.eta_bisection),
        ("zeta_eigen", e.zeta_eigen), ("zeta_bisection", e.zeta_bisection),
        ("eta_richardson_step", abs(e.eta_hat - e.eta_eigen)),
        ("zeta_richardson_step", abs(e.zeta_hat - e.zeta_eigen)),
    ]))
    return 0


def _chain_measure(cfg: ExperimentConfig):
    return quadrature_from_chain(cfg.require_chain(), cfg.truncation, _digits(cfg))


def cmd_measure(cfg: ExperimentConfig) -> int:
    if cfg.weight is not None:
        m = discretize_weight(cfg.weight, grid_size_for_depth(cfg.horizon), _digits(cfg))
    else:
        m = _chain_measure(cfg)
    if m.mp_nodes is not None:
        rows = (
            (ff.format_number(x, cfg.precision + 2), ff.format_number(w, cfg.precision + 2))
            for x, w in zip(m.mp_nodes, m.mp_weights)
        )
    else:
        rows = zip(m.nodes, m.weights)
    atomic_write(_path(cfg, "measure.csv"), csv_text(["node", "weight"], rows))
    return 0


def cmd_cn(cfg: ExperimentConfig) -> int:
    if cfg.weight is not None:
        # the measure conjecture reads, so both print the same C_n
        m = route_measure(cfg.weight, cfg.horizon)[0]
    else:
        m = _chain_measure(cfg)
    horizon = min(cfg.horizon, 2 * len(m) - 1)
    values = cn_series(m, horizon)
    atomic_write(
        _path(cfg, "cn.csv"),
        csv_text(["n", "C_n"], ((n, v) for n, v in enumerate(values))),
    )
    return 0


def cmd_christoffel(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    _require_limit_horizon(chain.label, cfg.horizon)
    e = _edges_for(cfg, chain)
    n_max = int(min(cfg.horizon, chain.depth - 1))
    seq, est, spread = ratio_limit_with_edge_spread(chain, n_max, e.eta_hat)
    atomic_write(
        _path(cfg, "christoffel.csv"),
        csv_text(
            ["k", "rho_ratio", "log10_rho_ratio", "q_sq_ratio"],
            (
                (k + 1, seq.ratios[k], seq.log10_ratios[k], seq.q_sq_ratios[k + 1])
                for k in range(len(seq.ratios))
            ),
        ),
    )
    atomic_write(_path(cfg, "christoffel_limit.txt"), keyvalue_text([
        ("eta_hat", e.eta_hat), ("limit", est.value), ("uncertainty", est.uncertainty),
        ("edge_spread", spread), ("method", est.method),
    ]))
    return 0


def cmd_normalize(cfg: ExperimentConfig) -> int:
    digits, chain = _digits(cfg), cfg.require_chain()
    e = _edges_for(cfg, chain)
    depth = _opt(cfg.options, "depth", int(min(256, chain.depth - 2)), least=0)
    norm = normalize(chain, e.eta_hat, depth, digits)
    text = ff.chain_to_text(
        norm.chain,
        comment=f"normalized from {norm.base_label} at eta = {norm.eta_used!r}",
    )
    atomic_write(_path(cfg, "normalized_chain.txt"), text)
    return 0


def _not_a_random_walk_measure(weight: WeightSpec, recovery) -> int:
    """The error record of a weight whose recovery failed; exit code 3."""
    _diagnostic("error", "not-a-random-walk-measure",
                f"{weight.label}: {recovery.fail_reason} (index {recovery.fail_index})")
    return 3


def cmd_recover(cfg: ExperimentConfig) -> int:
    weight = cfg.require_weight()
    _, coeffs, recovery, _ = recover_chain(weight, _opt(cfg.options, "depth", 64))
    atomic_write(
        _path(cfg, "recurrence.csv"),
        csv_text(["k", "a", "b"], (
            (k + 1, coeffs.a[k], coeffs.b[k]) for k in range(coeffs.length)
        )),
    )
    if not recovery.ok:
        return _not_a_random_walk_measure(weight, recovery)
    atomic_write(_path(cfg, "recovered_chain.txt"),
                 ff.chain_to_text(recovery.chain, comment=f"recovered from {weight.label}"))
    return 0


def cmd_srlp(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    e = _edges_for(cfg, chain)
    i = _opt(cfg.options, "i", 0)
    j = _opt(cfg.options, "j", 1)
    k = _opt(cfg.options, "k", 0)
    l = _opt(cfg.options, "l", 0)
    cmp_ = srlp_predicted_limit(chain, i, j, k, l, e.eta_hat, horizon=min(cfg.horizon, 400))
    atomic_write(
        _path(cfg, "srlp.csv"),
        csv_text(["n", "empirical_ratio", "predicted"], (
            (int(n), r, cmp_.predicted) for n, r in zip(cmp_.ns, cmp_.ratios)
        )),
    )
    return 0


def cmd_conjecture(cfg: ExperimentConfig) -> int:
    if cfg.chain is None and cfg.weight is None:
        raise InputError("conjecture needs a [chain] or [weight] section")
    if cfg.weight is not None:
        # the chain recovered from the weight has depth = horizon
        _require_edge_depth(f"{cfg.weight.label} at horizon {cfg.horizon}", cfg.horizon)
    else:
        _require_edge_depth(cfg.chain.label, cfg.chain.depth)
        _require_limit_horizon(cfg.chain.label, cfg.horizon)
        if not cfg.chain.has_killing() and cfg.truncation < 8:
            # the C_n series has 2 * truncation terms; its limit needs 16
            raise InputError(f"{cfg.chain.label}: the C_n limit needs truncation >= 8, "
                             f"the run has truncation {cfg.truncation}")
    rep = conjecture_report(
        chain=cfg.chain if cfg.weight is None else None,
        weight=cfg.weight,
        N=cfg.truncation,
        n_max=cfg.horizon,
        truncation=max(200, cfg.truncation),
    )
    pairs = [
        ("label", rep.chain_label),
        ("branch", rep.branch),
        ("verdict", rep.verdict),
        ("tolerance", rep.tolerance),
        ("rho_ratio_limit", rep.lim_rho_ratio.value),
        ("rho_ratio_uncertainty", rep.lim_rho_ratio.uncertainty),
        ("eta_hat", rep.edges.eta_hat),
        ("eta_spread", rep.eta_spread),
    ]
    if rep.lim_cn is not None:
        pairs.insert(4, ("cn_limit", rep.lim_cn.value))
        pairs.insert(5, ("cn_uncertainty", rep.lim_cn.uncertainty))
    if rep.prediction is not None:
        pairs.append(("prediction", rep.prediction))
        pairs.append(("prediction_source", rep.prediction_source))
    for key, value in sorted(rep.diagnostics.items()):
        pairs.append((f"diag_{key}", value))
    atomic_write(_path(cfg, "conjecture.txt"), keyvalue_text(pairs))
    n_rows = len(rep.ratio_values)
    cn = rep.cn_values
    atomic_write(
        _path(cfg, "conjecture_series.csv"),
        csv_text(["n", "C_n", "rho_ratio"], (
            (
                k + 1,
                cn[k + 1] if cn is not None and k + 1 < len(cn) else math.nan,
                rep.ratio_values[k],
            )
            for k in range(n_rows)
        )),
    )
    return 0 if rep.verdict != "inconsistent" else 2


def cmd_dt_check(cfg: ExperimentConfig) -> int:
    weight = cfg.require_weight()
    n_max = cfg.horizon
    _require_edge_depth(f"{weight.label} at horizon {n_max}", n_max)
    recovery = recover_chain(weight, n_max)[2]
    if not recovery.ok:
        return _not_a_random_walk_measure(weight, recovery)
    exps = edge_exponents(weight)
    e = _edges_for(cfg, recovery.chain)
    result = edge_scaled_christoffel(recovery.chain, exps, e.eta_hat, n_max)
    atomic_write(
        _path(cfg, "dt_scaled.csv"),
        csv_text(["n", "scaled_top", "scaled_bottom"], (
            (int(n), t, b)
            for n, t, b in zip(result.ns, result.scaled_top, result.scaled_bottom)
        )),
    )
    atomic_write(_path(cfg, "dt_constants.txt"), keyvalue_text([
        ("limit_top", result.limit_top.value),
        ("limit_bottom", result.limit_bottom.value),
        ("constant_top", result.constant_top),
        ("constant_bottom", result.constant_bottom),
    ]))
    return 0


def cmd_absorb(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    j_max = _opt(cfg.options, "j_max", 8, least=0)
    res = absorption_probabilities(chain, j_max, cfg.horizon, _digits(cfg))
    atomic_write(
        _path(cfg, "absorption.csv"),
        csv_text(["j", "tau"], ((j, t) for j, t in enumerate(res.tau))),
    )
    atomic_write(_path(cfg, "absorption.txt"), keyvalue_text([
        ("q_infinity", res.q_infinity), ("route", res.route),
    ]))
    return 0


def cmd_mc(cfg: ExperimentConfig) -> int:
    chain = cfg.require_chain()
    samples = _opt(cfg.options, "samples", 10**5)
    steps = _opt(cfg.options, "steps", 4, least=1)
    if samples < 10**3:
        raise InputError(f"mc needs samples >= 1000, the run has samples = {samples}")
    if cfg.seed < 0:
        raise InputError(f"the seed must be >= 0, the run has seed = {cfg.seed}")
    if cfg.seed + 1 >= 2**128:
        raise InputError(f"the seed must be <= 2**128 - 2, since the walk from state 1 "
                         f"keys Philox on seed + 1; the run has seed = {cfg.seed}")
    # one walk per start state i, on seed + i, counted at every (n, j); the
    # walks run first, so a chain too short for them fails with their record
    walks = {
        i: monte_carlo_transitions(chain, i, js, steps, samples, cfg.seed + i)
        for i, js in ((0, (0, 1)), (1, (1,)))
    }
    queries = [
        transition_probability(chain, i, j, n)
        for i, j in ((0, 0), (0, 1), (1, 1))
        for n in range(1, steps + 1)
    ]
    rows = (
        (tq.i, tq.j, tq.n, tq.value_spectral, tq.value_matrix, *walks[tq.i][tq.n, tq.j])
        for tq in queries
    )
    atomic_write(
        _path(cfg, "mc.csv"),
        csv_text(["i", "j", "n", "spectral", "matrix", "mc_est", "mc_se"], rows),
    )
    return 0


HANDLERS = {
    "chain-info": cmd_chain_info,
    "polys": cmd_polys,
    "edges": cmd_edges,
    "measure": cmd_measure,
    "cn": cmd_cn,
    "christoffel": cmd_christoffel,
    "normalize": cmd_normalize,
    "recover": cmd_recover,
    "srlp": cmd_srlp,
    "conjecture": cmd_conjecture,
    "dt-check": cmd_dt_check,
    "absorb": cmd_absorb,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwlab",
        description="birth-death chain / orthogonal polynomial laboratory",
    )
    parser.add_argument("subcommand", choices=sorted(HANDLERS))
    parser.add_argument("--config", help="structured config file")
    parser.add_argument("--precision", type=int, help="working decimal digits")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--truncation", type=int, help="quadrature / operator size")
    parser.add_argument("--horizon", type=int, help="maximal sequence index")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_diagnostic
        try:
            cfg = load_config(args)
            return HANDLERS[args.subcommand](cfg)
        except InputError as exc:
            _diagnostic("error", "input", str(exc))
            return 3
        except RwlabError as exc:
            _diagnostic("error", type(exc).__name__, str(exc))
            return 3


if __name__ == "__main__":
    sys.exit(main())
