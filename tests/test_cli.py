"""CLI subcommands: outputs, exit codes, determinism, file round-trips."""

import filecmp
import json
import os
import subprocess
import sys
import warnings

import pytest

import rwlab
from conftest import CONFIGS, bundled, chain_negative_tail
from rwlab import fileformats as ff
from rwlab import asymptotics
from rwlab.chains import ChainSpec, CoeffRule, rule
from rwlab.cli import main
from rwlab.measures import monte_carlo_transition
from rwlab.polynomials import support_edges


def cfg(name):
    return os.path.join(CONFIGS, name)


def run(*args):
    return main(list(args))


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_import_leaves_scipy_unloaded():
    # the CLI pays no scipy import: a fresh interpreter that imports it has
    # no scipy module loaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwlab.__file__)))
    code = ("import sys, rwlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("name, digits, truncation", [
    ("chain_b", "15", "2000"), ("chain_s", "15", "2000"), ("chain_b", "34", "400")])
def test_measure_is_the_same_on_every_blas_thread_count(tmp_path, name, digits, truncation):
    # OpenBLAS reads its thread count when numpy loads, so each count runs
    # in a fresh process; measure.csv must not depend on it
    src = os.path.dirname(os.path.dirname(os.path.abspath(rwlab.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "rwlab.cli", "measure", "--config", cfg(f"{name}.cfg"),
                "--out", str(tmp_path / threads), "--precision", digits,
                "--truncation", truncation]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(read(str(tmp_path / threads / "measure.csv")))
    assert outputs[0] == outputs[1]


def test_chain_file_roundtrip(tmp_path, chain_s):
    text = ff.chain_to_text(chain_s)
    parsed = ff.chain_from_sections(ff.parse_sections(text))
    assert parsed == chain_s
    assert ff.chain_to_text(parsed) == text


def test_weight_file_roundtrip():
    spec = bundled("weight_e")
    text = ff.weight_to_text(spec)
    assert ff.weight_from_sections(ff.parse_sections(text)) == spec


def test_conjecture_subcommand(tmp_path):
    out = str(tmp_path / "a")
    rc = run("conjecture", "--config", cfg("chain_a.cfg"), "--out", out)
    assert rc == 0
    text = read(os.path.join(out, "conjecture.txt"))
    assert "branch = i" in text
    assert "verdict = consistent" in text
    assert os.path.exists(os.path.join(out, "conjecture_series.csv"))


def test_cn_zeros_for_shifted(tmp_path):
    out = str(tmp_path / "b")
    rc = run("cn", "--config", cfg("chain_b.cfg"), "--out", out, "--horizon", "100")
    assert rc == 0
    lines = read(os.path.join(out, "cn.csv")).splitlines()
    assert lines[0] == "n,C_n"
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_recover_failure_exit_code(tmp_path, capsys):
    out = str(tmp_path / "neg")
    rc = run("recover", "--config", cfg("negative_mean.cfg"), "--out", out)
    assert rc == 3
    err = capsys.readouterr().err
    assert "not-a-random-walk-measure" in err
    assert "index 0" in err or "r_0" in err


@pytest.mark.parametrize("family, depth, code", [
    ("semicircle_weight", 300, 0),
    ("weight_d", 600, 3),  # the reorthogonalized chain fails at index 130
])
def test_recover_reports_stieltjes_fallback(tmp_path, capsys, monkeypatch, family, depth,
                                            code):
    # the family's exponents with a non-polynomial smooth factor of the same
    # parity take the grid route; a grid of 64 gives 3,360 nodes, too few
    # for the depth: the Stieltjes check trips and the fallback is reported
    # as one JSON warning record
    from rwlab import recover

    monkeypatch.setattr(recover, "grid_size_for_depth", lambda n: 64)
    smooth = "1/(3 + x^2)" if family == "semicircle_weight" else "1/(3 + x)"
    config = tmp_path / "w.cfg"
    config.write_text(ff.weight_to_text(bundled(family)).replace("smooth = 1", f"smooth = {smooth}")
                      + f"\n[run]\nprecision = 15\ndepth = {depth}\n")
    out = str(tmp_path / "o")
    assert run("recover", "--config", str(config), "--out", out) == code
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    warned = [r for r in records if r["level"] == "warning"]
    assert len(warned) == 1
    assert warned[0]["code"] == "NumericalRouteWarning"
    assert "reorthogonalization" in warned[0]["message"]
    assert os.path.exists(os.path.join(out, "recovered_chain.txt")) == (code == 0)
    assert len([r for r in records if r["level"] == "error"]) == (code != 0)


def test_recover_depth_zero_is_an_input_error(tmp_path, capsys):
    config = tmp_path / "w.cfg"
    config.write_text(ff.weight_to_text(bundled("weight_e"))
                      + "\n[run]\nprecision = 15\nhorizon = 64\ndepth = 0\n")
    out = str(tmp_path / "o")
    assert run("recover", "--config", str(config), "--out", out) == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(records) == 1
    assert records[0]["code"] == "input"
    assert "depth = 0 must be in [1, " in records[0]["message"]
    assert not os.path.exists(out)


def test_recover_and_dt_check_write_one_failure_record(tmp_path, capsys):
    # both subcommands name the weight and the failing index
    records = []
    for sub in ("recover", "dt-check"):
        assert run(sub, "--config", cfg("negative_mean.cfg"), "--out", str(tmp_path / sub)) == 3
        records.append([json.loads(line) for line in capsys.readouterr().err.splitlines()])
    assert records[0] == records[1] == [{
        "code": "not-a-random-walk-measure", "level": "error",
        "message": "negative-mean: r_0 = -0.2 < 0 (index 0)"}]


@pytest.mark.parametrize("sub, family, run_options, flags, message", [
    ("edges", "chain_b", "truncation = abc", (),
     "[run] truncation must be an integer, not 'abc'"),
    ("mc", "chain_b", "samples = 999", (),
     "mc needs samples >= 1000, the run has samples = 999"),
    ("mc", "chain_b", "seed = -1", (), "the seed must be >= 0, the run has seed = -1"),
    ("mc", "chain_b", "", ("--seed", "-5"), "the seed must be >= 0"),
    ("cn", "chain_b", "", ("--horizon", "-3"), "horizon must be >= 0"),
    ("chain-info", "chain_b", "", ("--horizon", "0"),
     "chain-info needs horizon >= 1"),
    ("absorb", "chain_k", "j_max = 6", ("--horizon", "0"),
     "extrapolating Q_n(1) needs 16 terms, max(j_max, n_trunc) = 6 gives 7"),
    ("srlp", "chain_b", "i = -1", (),
     "srlp needs i, j, k, l in [0, 402)"),
    ("srlp", "chain_b", "l = 5000", (),
     "the run has (i, j, k, l) = (0, 1, 0, 5000)"),
    ("absorb", "chain_k", "j_max = -1", (), "[run] j_max must be >= 0, the run has j_max = -1"),
    ("polys", "chain_b", "depth = -2", (),
     "[run] depth must be >= 0, the run has depth = -2"),
    ("normalize", "chain_a", "depth = -2", (),
     "[run] depth must be >= 0, the run has depth = -2"),
    ("mc", "chain_b", "steps = -1", (),
     "[run] steps must be >= 1, the run has steps = -1"),
    ("mc", "chain_b", "", ("--seed", str(2**128 - 1)),
     "the seed must be <= 2**128 - 2"),
    ("polys", "chain_b", "x = abc", (), "[run] x must be a rational number, not 'abc'"),
    ("polys", "chain_b", "x = 1/0", (), "[run] x must be a rational number, not '1/0'"),
    ("srlp", "chain_b", "", ("--horizon", "0"), "srlp needs horizon >= 1, the run has horizon 0"),
    ("conjecture", "chain_a", "truncation = 7\nhorizon = 100", (),
     "arcsine: the C_n limit needs truncation >= 8, the run has truncation 7"),
], ids=["non-integer", "samples", "seed", "seed-flag", "negative-horizon",
        "chain-info-horizon", "absorb-horizon", "srlp-negative-index", "srlp-unreachable-state",
        "absorb-j-max", "polys-depth", "normalize-depth", "mc-steps", "mc-seed-key",
        "polys-x-not-rational", "polys-x-zero-denominator", "srlp-horizon",
        "conjecture-truncation"])
def test_bad_run_values_are_input_errors(tmp_path, capsys, sub, family, run_options, flags,
                                         message):
    config = tmp_path / "c.cfg"
    config.write_text(ff.chain_to_text(bundled(family))
                      + f"\n[run]\nprecision = 15\n{run_options}\n")
    out = str(tmp_path / "o")
    assert run(sub, "--config", str(config), "--out", out, *flags) == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(records) == 1
    assert records[0]["code"] == "input"
    assert message in records[0]["message"]
    assert not os.path.exists(out)


def test_conjecture_analyses_the_chain_recover_writes(tmp_path, monkeypatch):
    # one weight-to-chain path: conjecture_report runs its edge solve on
    # exactly the chain that `rwlab recover` writes
    config = tmp_path / "e.cfg"
    config.write_text(ff.weight_to_text(bundled("weight_e")) + "\n[run]\ndepth = 64\n")
    out = str(tmp_path / "o")
    assert run("recover", "--config", str(config), "--out", out) == 0
    written = ff.chain_from_sections(ff.parse_file(os.path.join(out, "recovered_chain.txt")))
    seen = []

    def spy(chain, *args, **kwargs):
        seen.append(chain)
        return support_edges(chain, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "support_edges", spy)
    asymptotics.conjecture_report(weight=bundled("weight_e"), n_max=64)
    assert len(seen) == 1
    for name in ("p", "q", "r", "kappa"):
        analysed, recovered = getattr(seen[0], name).prefix, getattr(written, name).prefix
        assert len(analysed) == len(recovered) == 64
        for k, (x, y) in enumerate(zip(analysed, recovered)):
            assert x == y, (name, k)


def test_missing_section_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nprecision = 15\n")
    rc = run("conjecture", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 3


def test_determinism(tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    for out in (out1, out2):
        assert run("mc", "--config", cfg("chain_b.cfg"), "--out", out) == 0
        assert run("chain-info", "--config", cfg("chain_b.cfg"), "--out", out,
                   "--horizon", "500") == 0
    for name in ("mc.csv", "chain_info.txt", "potential_coefficients.csv"):
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                           shallow=False), name


def test_edges_richardson_step_covers_zeta_hat_of_chain_b(tmp_path):
    # chain_b's bottom edge is 0: the step Richardson took from the raw
    # eigenvalue exceeds zeta_hat's distance from the true edge
    out = str(tmp_path / "b")
    assert run("edges", "--config", cfg("chain_b.cfg"), "--out", out) == 0
    kv = dict(line.split(" = ") for line in read(os.path.join(out, "edges.txt")).splitlines())
    assert float(kv["zeta_richardson_step"]) >= abs(float(kv["zeta_hat"]) - 0.0)
    assert float(kv["eta_richardson_step"]) == abs(
        float(kv["eta_hat"]) - float(kv["eta_eigen"]))


def test_mc_rows_come_from_one_walk_per_start_state(tmp_path):
    # seed map: every row from start state i reads the walk on seed + i
    out = str(tmp_path / "mc")
    assert run("mc", "--config", cfg("chain_b.cfg"), "--out", out, "--seed", "40") == 0
    lines = read(os.path.join(out, "mc.csv")).splitlines()
    assert lines[0] == "i,j,n,spectral,matrix,mc_est,mc_se"
    assert len(lines) == 1 + 3 * 4
    chain = bundled("chain_b")
    for line in lines[1:]:
        i, j, n = (int(v) for v in line.split(",")[:3])
        est, se = monte_carlo_transition(chain, i, j, n, 10**5, seed=40 + i)
        assert line.split(",")[5:] == [repr(est), repr(se)]


def test_mc_walks_only_the_states_a_finite_chain_has(tmp_path, capsys):
    # a depth-3 prefix-only chain, the shape `recover` writes: the walk from
    # state i steps only from the states 0..i + steps - 1
    chain = ChainSpec("three-state", rule(("1/2",) * 3), rule((0, "1/4", "1/4")),
                      rule(("1/2", "1/4", "1/4")), rule((0, 0, 0)))
    config = tmp_path / "c.cfg"
    for steps, code in ((1, 0), (4, 3), (2, 3)):
        config.write_text(ff.chain_to_text(chain) + f"\n[run]\nsteps = {steps}\n")
        assert run("mc", "--config", str(config), "--out", str(tmp_path / str(steps))) == code
    assert os.path.exists(tmp_path / "1" / "mc.csv")
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["code"] for r in records] == ["input", "input"]
    assert records[0]["message"].startswith(
        "three-state: a walk from state 0 with steps = 4 needs the states 0..3")
    # the walks fit at steps = 2, but the spectral route's quadrature needs
    # 2 // 2 + 1 + 2 = 4 rows of the depth-3 chain
    assert records[1]["message"] == (
        "three-state: the spectral P_0,1(n) at step n = 2 needs 4 rows of the "
        "Jacobi matrix, but the chain has depth 3")


@pytest.mark.parametrize("sub, name, flags", [
    pytest.param("edges", "chain_b", ("--truncation", "1000"), id="chain_b"),
    pytest.param("edges", "chain_s", ("--truncation", "1000"), id="chain_s"),
    pytest.param("christoffel", "chain_b", ("--truncation", "200", "--horizon", "200"),
                 id="christoffel-chain_b"),
    pytest.param("srlp", "chain_recovered", (), id="srlp-chain_recovered"),
    *(pytest.param("conjecture", name, (), id=f"conjecture-{name}")
      for name in ("chain_b", "chain_k", "chain_recovered")),
    *(pytest.param(sub, name, (), id=f"{sub}-{name}")
      for sub in ("recover", "conjecture") for name in ("weight_d", "weight_e")),
    pytest.param("dt-check", "weight_d", (), id="dt-check-weight_d"),
    *(pytest.param(sub, "weight_rational", ("--horizon", "100"), id=f"{sub}-weight_rational")
      for sub in ("recover", "dt-check", "conjecture")),
])
def test_edges_do_not_depend_on_the_precision(tmp_path, sub, name, flags):
    # one float64 edge solve, Christoffel ratio pass, strong-ratio
    # prediction and ratio-vanishing criterion at every working precision,
    # and one float64 closed-form weight-to-chain route
    outputs = []
    for digits in ("15", "34"):
        out = tmp_path / digits
        assert run(sub, "--config", cfg(f"{name}.cfg"), "--out", str(out),
                   "--precision", digits, *flags) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_recover_takes_any_precision(tmp_path):
    # recover, and cn on a weight, read no working precision, so
    # --precision 10 runs them as 15 does
    for sub in ("recover", "cn"):
        outputs = []
        for digits in ("15", "10"):
            out = tmp_path / sub / digits
            assert run(sub, "--config", cfg("weight_e.cfg"), "--out", str(out),
                       "--precision", digits) == 0, sub
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1], sub


@pytest.mark.parametrize("name", ["chain_c", "chain_s"])
def test_chain_info_takes_any_precision(tmp_path, name):
    # the four series and the potential coefficients read the chain's
    # float64 columns, so --precision 10 and 34 run chain-info as 15 does
    outputs = []
    for digits in ("10", "15", "34"):
        out = tmp_path / digits
        assert run("chain-info", "--config", cfg(f"{name}.cfg"), "--out", str(out),
                   "--precision", digits) == 0, digits
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert set(outputs[0]) == {"chain_info.txt", "potential_coefficients.csv"}
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("name", ["weight_e", "weight_rational"])
def test_cn_and_conjecture_print_one_C_n(tmp_path, name):
    # cn on a weight reads the measure recover_chain pairs with the chain
    # (closed form on weight_e, the grid on weight_rational), so the C_n of
    # cn.csv and conjecture_series.csv agree on every n both print
    out = str(tmp_path / "o")
    for sub in ("cn", "conjecture"):
        assert run(sub, "--config", cfg(f"{name}.cfg"), "--out", out,
                   "--horizon", "300", "--truncation", "150") == 0
    cn, series = (dict(line.split(",")[:2] for line in read(os.path.join(out, f)).splitlines()[1:])
                  for f in ("cn.csv", "conjecture_series.csv"))
    shared = cn.keys() & series.keys()
    assert len(shared) == 299  # n = 1..299: the ratio column ends at horizon - 1
    assert all(cn[n] == series[n] for n in shared)


def test_cn_on_a_weight_at_horizon_0(tmp_path):
    # recover_chain's depth >= 1 check stays out of the measure cn reads
    out = tmp_path / "o"
    assert run("cn", "--config", cfg("weight_e.cfg"), "--out", str(out), "--horizon", "0") == 0
    header, row = read(str(out / "cn.csv")).splitlines()
    assert header == "n,C_n" and row.startswith("0,")


def test_measure_refuses_precision_below_15(tmp_path, capsys):
    out = tmp_path / "measure"
    assert run("measure", "--config", cfg("chain_b.cfg"), "--out", str(out),
               "--precision", "10") == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert records == [{"level": "error", "code": "input",
                        "message": "precision must be >= 15 digits"}]
    assert not out.exists()


def test_edges_and_polys(tmp_path):
    out = str(tmp_path / "c")
    assert run("edges", "--config", cfg("chain_c.cfg"), "--out", out,
               "--truncation", "400") == 0
    text = read(os.path.join(out, "edges.txt"))
    assert "eta_hat = 0.91651" in text
    assert run("polys", "--config", cfg("chain_a.cfg"), "--out", out) == 0
    lines = read(os.path.join(out, "polys.csv")).splitlines()
    assert lines[0] == "n,sign_Q,log10_abs_Q,sign_p,log10_abs_p"
    assert lines[1].startswith("0,1,0.0")


def test_normalize_output_parses(tmp_path):
    out = str(tmp_path / "n")
    assert run("normalize", "--config", cfg("chain_c.cfg"), "--out", out,
               "--truncation", "400") == 0
    text = read(os.path.join(out, "normalized_chain.txt"))
    chain = ff.chain_from_sections(ff.parse_sections(text))
    assert chain.label == "asymmetric~"
    p1 = float(chain.p.at(1) * chain.q.at(2))
    assert p1 == pytest.approx(0.25, abs=1e-6)


def test_absorb_divergence_route(tmp_path):
    out = str(tmp_path / "k")
    assert run("absorb", "--config", cfg("constant_killing.cfg"), "--out", out) == 0
    text = read(os.path.join(out, "absorption.txt"))
    assert "route = killing-sum-diverges" in text
    lines = read(os.path.join(out, "absorption.csv")).splitlines()
    assert all(line.endswith(",1.0") for line in lines[1:])


def test_measure_and_christoffel(tmp_path):
    out = str(tmp_path / "m")
    assert run("measure", "--config", cfg("chain_a.cfg"), "--out", out,
               "--truncation", "16") == 0
    lines = read(os.path.join(out, "measure.csv")).splitlines()
    assert lines[0] == "node,weight" and len(lines) == 17
    assert run("christoffel", "--config", cfg("chain_b.cfg"), "--out", out,
               "--truncation", "200", "--horizon", "60") == 0
    text = read(os.path.join(out, "christoffel_limit.txt"))
    assert "limit = " in text


def test_srlp_subcommand(tmp_path):
    out = str(tmp_path / "s")
    assert run("srlp", "--config", cfg("chain_b.cfg"), "--out", out,
               "--truncation", "200", "--horizon", "200") == 0
    lines = read(os.path.join(out, "srlp.csv")).splitlines()
    assert lines[0] == "n,empirical_ratio,predicted"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(2.0, rel=0.02)


def test_srlp_on_periodic_chain_names_the_parity(tmp_path, capsys):
    # chain_a has r = 0 and the default (i, j, k, l) = (0, 1, 0, 0): P_01(n)
    # and P_00(n) are never nonzero at the same n
    out = str(tmp_path / "a")
    assert run("srlp", "--config", cfg("chain_a.cfg"), "--out", out) == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(records) == 1
    assert records[0]["code"] == "ZeroDenominatorError"
    assert "is odd" in records[0]["message"]
    assert not os.path.exists(os.path.join(out, "srlp.csv"))


def test_edge_subcommands_on_prefix_only_chains(tmp_path, capsys):
    # chain_recovered.cfg holds a recovered chain of depth 64: the truncation
    # is clamped to the depth
    out = str(tmp_path / "r")
    assert run("edges", "--config", cfg("chain_recovered.cfg"), "--out", out,
               "--truncation", "400") == 0
    assert "truncation_size = 64" in read(os.path.join(out, "edges.txt"))
    # cut to depth 40, the chain is too short for the edge solve
    chain = bundled("chain_recovered")
    short = ChainSpec(chain.label, *(CoeffRule(col.prefix[:40])
                                     for col in (chain.p, chain.q, chain.r, chain.kappa)))
    config = tmp_path / "short.cfg"
    config.write_text(ff.chain_to_text(short) + "\n[run]\nprecision = 15\n")
    for sub in ("edges", "christoffel", "conjecture"):
        assert run(sub, "--config", str(config), "--out", out) == 3
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert len(records) == 1
        assert records[0]["code"] == "input"
        assert "depth 40" in records[0]["message"]


@pytest.mark.parametrize("sub", ["measure", "cn", "conjecture"])
def test_quadrature_past_the_depth_of_a_prefix_only_chain(tmp_path, capsys, sub):
    # the N-point rule needs N rows: the refusal names the chain and its depth
    assert run(sub, "--config", cfg("chain_recovered.cfg"), "--out", str(tmp_path / "r"),
               "--truncation", "500") == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(records) == 1
    assert records[0]["code"] == "input"
    assert "weight-e-chain" in records[0]["message"]
    assert "depth 64" in records[0]["message"]


@pytest.mark.parametrize("sub", ["edges", "measure"])
def test_a_row_past_the_validated_prefix_is_one_record(tmp_path, capsys, sub):
    # q_955 < 0 lies past the rows validate checks (j <= 200)
    config = tmp_path / "neg.cfg"
    config.write_text(ff.chain_to_text(chain_negative_tail()) + "\n[run]\nprecision = 15\n")
    assert run(sub, "--config", str(config), "--out", str(tmp_path / "o"),
               "--truncation", "2000") == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(records) == 1
    assert records[0]["code"] == "MalformedChainError"
    assert records[0]["message"].startswith("neg-tail: q_955 = -")


def test_weight_smooth_factor_takes_integer_powers(tmp_path):
    # x^2 goes through the same evaluator as x*x: recover and conjecture
    # succeed and write the same bytes for both spellings of the smooth factor
    outs = {}
    for name, smooth in (("power", "2 + x^2"), ("product", "2 + x*x")):
        config = tmp_path / f"{name}.cfg"
        config.write_text("[weight]\nlabel = w\neta = 1\nalpha = 1/2\nbeta = 1/2\n"
                          f"smooth = {smooth}\natoms = none\n\n"
                          "[run]\nprecision = 15\ntruncation = 200\nhorizon = 200\n")
        outs[name] = str(tmp_path / name)
        for sub in ("recover", "conjecture"):
            assert run(sub, "--config", str(config), "--out", outs[name]) == 0
    for name in ("recovered_chain.txt", "recurrence.csv", "conjecture.txt"):
        assert filecmp.cmp(os.path.join(outs["power"], name),
                           os.path.join(outs["product"], name), shallow=False), name


def test_weight_subcommands_refuse_short_horizons(tmp_path, capsys):
    # the chain recovered from a weight has depth = horizon, and the edge
    # solve needs 50 coefficients
    out = str(tmp_path / "e")
    for sub in ("dt-check", "conjecture"):
        assert run(sub, "--config", cfg("weight_e.cfg"), "--out", out,
                   "--horizon", "40") == 3
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert len(records) == 1
        assert records[0]["code"] == "input"
        assert "needs depth >= 50" in records[0]["message"]
        assert "horizon 40" in records[0]["message"]
    assert not os.path.exists(out)
    # a truncation below 50 is clamped to 50, as for the chain subcommands
    assert run("dt-check", "--config", cfg("weight_e.cfg"), "--out", out,
               "--horizon", "60", "--truncation", "40") == 0
    assert capsys.readouterr().err == ""


def test_ratio_limit_subcommands_refuse_short_horizons(tmp_path, capsys):
    # the Christoffel-ratio limit extrapolates from at least 16 terms
    out = str(tmp_path / "h")
    for sub, horizon in (("conjecture", "15"), ("christoffel", "10")):
        assert run(sub, "--config", cfg("chain_b.cfg"), "--out", out,
                   "--horizon", horizon) == 3
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert len(records) == 1
        assert records[0]["code"] == "input"
        assert f"needs horizon >= 16, the run has horizon {horizon}" in records[0]["message"]
    assert not os.path.exists(out)
    assert run("christoffel", "--config", cfg("chain_b.cfg"), "--out", out,
               "--horizon", "16") == 0


def test_chain_info_on_overflowing_series_is_quiet(tmp_path, capsys):
    # p = 3/10 < q = 7/10 drifts to 0: 1/(p_j pi_j) overflows float64 and
    # the partial sums reach inf, which reads as divergence without warnings
    chain = ChainSpec("drift-to-zero", p=rule([1], "3/10"), q=rule([0], "7/10"),
                      r=rule([0], "0"))
    config = tmp_path / "drift.cfg"
    config.write_text(ff.chain_to_text(chain) + "\n[run]\nprecision = 15\nhorizon = 4000\n")
    out = str(tmp_path / "d")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run("chain-info", "--config", str(config), "--out", out) == 0
    assert capsys.readouterr().err == ""
    text = read(os.path.join(out, "chain_info.txt"))
    assert "recurrence_series = diverges" in text
    assert "recurrence_detail = partial sums exceed bound 1e+08" in text


DIP = "(32*x - 1)^2 - 1/4"  # negative on (1/64, 3/64), between validation's points


@pytest.mark.parametrize("sub, divisor", [
    ("conjecture", ""), ("recover", ""), ("dt-check", ""),  # closed form: a root
    ("recover", "/(3 + x)"), ("measure", ""),  # the grid: a density value
])
def test_smooth_factor_below_zero_is_an_input_error(tmp_path, capsys, sub, divisor):
    config = tmp_path / "w.cfg"
    config.write_text(ff.weight_to_text(bundled("weight_d"))
                      .replace("smooth = 1", f"smooth = ({DIP}){divisor}")
                      + "\n[run]\nprecision = 15\nhorizon = 100\n")
    out = str(tmp_path / "o")
    assert run(sub, "--config", str(config), "--out", out) == 3
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(records) == 1
    assert records[0]["code"] == "input"
    assert "at x=0.0" in records[0]["message"]


def test_polynomial_weights_skip_the_grid(tmp_path, monkeypatch):
    # no atoms, a polynomial smooth factor and no grid: nothing on the way
    # to the chain, C_n or the normalization touches the mpmath grid
    from rwlab import recover

    def refuse(*args, **kwargs):
        raise AssertionError("the grid route ran")

    for name in ("discretize_weight", "stieltjes_recurrence", "_gauss_legendre_mpf",
                 "raw_density_integral"):
        monkeypatch.setattr(recover, name, refuse)
    for name in ("weight_d", "weight_e", "weight_power", "weight_half"):
        out = str(tmp_path / name)
        for sub in ("conjecture", "recover", "dt-check", "cn"):
            assert run(sub, "--config", cfg(f"{name}.cfg"), "--out", out,
                       "--horizon", "100", "--truncation", "100") == 0, (name, sub)
        assert "diag_recovery = jacobi-christoffel" in read(os.path.join(out, "conjecture.txt"))


@pytest.mark.parametrize("weight", [
    "[weight]\nlabel = atomic\neta = 1\nalpha = 1/2\nbeta = 3/2\nsmooth = 1\n"
    "atoms = 1/2:1/4\n",
    ff.weight_to_text(bundled("weight_rational")),
], ids=["atoms", "non-polynomial"])
def test_atoms_and_non_polynomial_smooth_factors_take_the_grid(tmp_path, monkeypatch, weight):
    from rwlab import recover

    calls = []
    discretize = recover.discretize_weight
    monkeypatch.setattr(recover, "discretize_weight",
                        lambda *args: calls.append(args) or discretize(*args))
    config = tmp_path / "w.cfg"
    config.write_text(weight + "\n[run]\nprecision = 15\ntruncation = 100\nhorizon = 100\n")
    out = str(tmp_path / "o")
    run("recover", "--config", str(config), "--out", out)  # atoms: not a random walk measure
    assert len(calls) == 1
    if "atoms = none" in weight:
        assert run("conjecture", "--config", str(config), "--out", out) == 0
        assert "diag_recovery = grid-stieltjes" in read(os.path.join(out, "conjecture.txt"))
