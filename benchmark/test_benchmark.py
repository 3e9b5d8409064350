"""Tests of the benchmark's own code.

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    configs = {tuple(j.config for j in workloads.generate(workload, s)[0]) for s in range(8)}
    assert len(configs) > 1


def test_chain_sections_match_coefficients():
    from rwlab import fileformats

    for name, chain in workloads.CHAINS.items():
        spec = fileformats.chain_from_sections(fileformats.parse_sections(chain.section))
        for j in range(6):
            assert spec.at(j) == (chain.p(j), chain.q(j), chain.r(j), chain.kappa(j)), (name, j)


GOOD_WEIGHT = {
    "branch": "iii", "verdict": "consistent", "tolerance": "0.02",
    "cn_limit": "0.33342919132751064", "rho_ratio_limit": "0.3334984898670547",
    "prediction": "0.33333333333333337",
}


def test_weight_check_accepts_and_rejects():
    expect = {"branch": "iii", "prediction": 1 / 3}
    problems, errs = checks.check_weight(expect, 0, GOOD_WEIGHT)
    assert problems == [] and max(errs) < 2e-4
    off = dict(GOOD_WEIGHT, rho_ratio_limit=str(float(GOOD_WEIGHT["rho_ratio_limit"]) + 0.05))
    assert checks.check_weight(expect, 0, off)[0]
    assert checks.check_weight(expect, 0, dict(GOOD_WEIGHT, branch="ii"))[0]
    assert checks.check_weight(expect, 2, GOOD_WEIGHT)[0]


def test_reference_check_rejects_perturbed_limit_and_branch():
    ref = {"rc": 0, **GOOD_WEIGHT, "cn_uncertainty": "3e-05", "rho_ratio_uncertainty": "6e-05"}
    kv = dict(ref)
    assert checks.check_conjecture_reference(ref, 0, kv)[0] == []
    assert checks.check_conjecture_reference(ref, 0, dict(kv, cn_limit="0.38342919132751064"))[0]
    assert checks.check_conjecture_reference(ref, 0, dict(kv, branch="i"))[0]


def _measure_rows(N):
    from rwlab import fileformats as ff
    from rwlab.families import chain_asymmetric
    from rwlab.measures import quadrature_from_chain

    m = quadrature_from_chain(chain_asymmetric(), N, 34)
    return [{"node": ff.format_number(x, 36), "weight": ff.format_number(w, 36)}
            for x, w in zip(m.mp_nodes, m.mp_weights)]


def test_measure_check_rejects_a_moment_off_by_1e20():
    chain = workloads.CHAINS["chain_c"]
    rows = _measure_rows(12)
    assert checks.check_measure(chain, 12, 0, rows) == []
    from fractions import Fraction

    bad = [dict(r) for r in rows]
    bad[3]["weight"] = str(Fraction(bad[3]["weight"]) + Fraction(1, 10**20))
    assert checks.check_measure(chain, 12, 0, bad)


def test_return_probabilities_match_closed_form():
    # simple walk reflected at 0 (p_0 = 1): P_00(2m) = C(2m-1, m) / 2^(2m-1)
    from fractions import Fraction
    from math import comb

    probs = checks.return_probabilities(workloads.CHAINS["chain_a"], 12)
    for m in range(1, 7):
        assert abs(probs[2 * m] - Fraction(comb(2 * m - 1, m), 2 ** (2 * m - 1))) < Fraction(1, 10**60)
        assert abs(probs[2 * m - 1]) < Fraction(1, 10**60)


def test_self_time_on_nested_calls():
    toy = [
        {"name": "outer", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "mid", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "leaf", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "mid2", "start": 5.0, "end": 6.5, "parent": 0},
        {"name": "second", "start": 11.0, "end": 12.0, "parent": -1},
    ]
    assert spans.self_times(toy) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    assert spans.top_level_cover(toy) == pytest.approx(11.0)


def test_recorder_nests_spans():
    rec = spans.Recorder("job")
    a = rec.begin("a")
    b = rec.begin("b")
    rec.end(b)
    rec.end(a)
    assert [s[3] for s in rec.spans] == [-1, 0]


def test_wrappers_leave_chain_a_outputs_byte_identical(tmp_path):
    cfg = tmp_path / "chain_a.cfg"
    cfg.write_text(workloads.chain_config("chain_a", 1), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    argv = ["conjecture", "--config", str(cfg), "--out"]
    subprocess.run([sys.executable, "-m", "rwlab.cli", *argv, str(plain)],
                   env=env, check=True, cwd=ROOT)
    span_file = tmp_path / "spans.jsonl"
    subprocess.run([sys.executable, os.path.join(HERE, "jobproc.py"), "--trace", str(span_file),
                    "chain_a", "cli", *argv, str(traced)], env=env, check=True, cwd=ROOT)
    assert checks.same_outputs(str(plain), str(traced)) == []
    recorded, counters = spans.read_spans(str(span_file))
    names = {s["name"] for s in recorded}
    assert {"cli.import", "cli.cmd_conjecture", "asymptotics.conjecture_report",
            "polynomials.support_edges", "polynomials.christoffel_ratio_sequence"} <= names
    assert counters["polynomials.christoffel_ratio_sequence.calls"] >= 3
    useful, attempted = spans.ratio_passes(recorded)
    assert 0 < useful <= attempted


def test_printed_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    empty = run.Pass(0.0, {})
    printed = run.layer_metrics(empty, empty, [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in printed.items()}
