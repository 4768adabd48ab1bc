import argparse
import csv
import hashlib
import io
import json
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secondlook import (
    ALPHA,
    BETA,
    ConfigError,
    InformationStructure,
    PayoffStructure,
    RunConfig,
    case_thresholds,
    classify_case,
    classify_pair,
    cli,
    incentives,
    model,
    sets,
)
from secondlook.cli import main
from secondlook.config import DEFAULT_CONFIG, render_table
from secondlook.incentives import _case, willingness_to_pay


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# SHA-256 of stdout: a change that moves one byte of these outputs fails here.
# The partition, polarize, sets and wtp digests are the ones perfbench records.
STDOUT_SHA256 = {
    ("partition",): "c5e1a6ae9c782488ff527c2d32933de6caf0cb80f4071caa0846d02eae18e38b",
    ("polarize",): "4cf2cfd35af52ca984dac122805693c8934e842ebad0f29e5e2856062c23d699",
    ("example",): "6abe555eaa68b4eeba85c4d3f113daed0bc01bcef50bbd3941bccf43017af9a4",
    ("sets", "--grid", "9", "--costs", "0.05,0.1,0.2"): (
        "1c785154067d327e63004451d9b63e6906a225b3a7a7b22d3093b8a71a469d45"
    ),
    ("wtp", "--grid", "101", "--format", "json"): (
        "a63800661d47b4f6021314ca89dbee34f161c091e51ebc4d24b4f5bae7ac0815"
    ),
    ("partition", "--format", "json"): (
        "20ed7ae57e9f79276a69e7f55c6b79ccca677224ed9a5527a37ee99984328486"
    ),
    ("polarize", "--format", "json"): (
        "c48e37964b505bcf27599ef2b0cb3cb46737c6635210c0327de9be8305b25b37"
    ),
    ("simulate", "--draws", "1000"): (
        "7ec9f796ba8fc6b1595469bfbd3e15eff563acd9d5bbb555ae24d08a31215714"
    ),
    ("simulate", "--pattern", "CB", "--draws", "1000"): (
        "c188b88e5e879f8ce7798f08e67323a7af590b276ea541eff5c1976d12157489"
    ),
    ("simulate", "--pattern", "DB", "--draws", "1000"): (
        "8476ed4c33a425c495df2f36f208ad46ba76e492b6d7fedfe670993634524e0f"
    ),
    ("simulate", "--pattern", "UR", "--draws", "1000"): (
        "57c518c8644447dafc21479d53f0f66dd23576844e72e727f3490544f11f37d2"
    ),
    ("simulate", "--pattern", "OR", "--draws", "1000"): (
        "8eebbebfc5347367a2ec7e850e1dc522134f97277d8fc0a4244685aefaac75b0"
    ),
    ("simulate", "--draws", "1000", "--format", "json"): (
        "a0194114779db6d31152d973c795adbb4c77b68fc03c3e830fd0b001d8f30be3"
    ),
    ("sets", "--grid", "9", "--costs", "0.05,0.1,0.2", "--format", "json"): (
        "14ea9b7b472114308118b4b56ddb13f249efa94633c932827d5890b03af49c0a"
    ),
    # 60,903 rows: 15 chunks of the CSV render.
    ("sets", "--grid", "201", "--costs", "0.05,0.1,0.2"): (
        "6b028b0c1ca3724e8e9e04000409d9207a7321243cd088313ad14c405b4dde59"
    ),
    # The cost column prints -0, then 0: one float key, two texts.
    ("sets", "--grid", "3", "--costs=-0.0,0.0"): (
        "b8dc1933bfa0d7c02bbb4ba3ab85801e5b26fad57409302ff218c3a6e77f0767"
    ),
    # Case runs of length 1.
    ("wtp", "--grid", "2"): (
        "7e8a8da8b5afb76c5f5463925b24fe23273c14b11e60745ad91a67bc4c66ebbd"
    ),
    ("wtp", "--grid", "1001", "--theta1", "0.9", "--theta2", "0.95"): (
        "528505fd7ca6c0143620469a9a40268832162b5212b933f4617d400c1339cad0"
    ),
    # theta2 < theta1.
    ("wtp", "--grid", "1001", "--theta1", "0.95", "--theta2", "0.55", "--format", "json"): (
        "69e1840139e70eefea603ec5a78ff048bb8d00dae683ef5f7c5350ab7a4b29b4"
    ),
}


@pytest.mark.parametrize("args", STDOUT_SHA256, ids=" ".join)
def test_stdout_is_byte_identical(capsys, args):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[args]


def test_wtp_sweep_reference_rows(capsys):
    code, out, _ = run_cli(capsys, "wtp", "--grid", "11")
    assert code == 0
    rows = {row["p"]: row for row in read_csv(out)}
    assert float(rows["0.4"]["wtp_alpha"]) == pytest.approx(0.3, abs=1e-9)
    assert float(rows["0.5"]["wtp_alpha"]) == pytest.approx(0.2, abs=1e-9)
    assert float(rows["0.5"]["wtp_beta"]) == pytest.approx(0.2, abs=1e-9)
    assert rows["0.4"]["case_alpha"] == "2"  # boundary tie takes the lower number
    assert rows["0.1"]["case_beta"] == "5"


_precisions = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


@settings(deadline=None)
@given(t1=_precisions, t2=_precisions, n=st.integers(2, 5000), ties=st.booleans())
# theta1 one ulp below 1: unclamped, round-off put a threshold at 1 + 2 ulps.
@example(t1=0.9999999999999998, t2=0.708720987951346, n=2, ties=True)
def test_wtp_case_runs_match_the_per_prior_rule(t1, t2, n, ties):
    info = InformationStructure(t1, t2)
    grid = np.linspace(0.0, 1.0, n).tolist()
    if ties:  # the thresholds themselves, where the tie rule decides
        grid = sorted(grid + [*case_thresholds(info, ALPHA), *case_thresholds(info, BETA)])
    for s1 in (ALPHA, BETA):
        column = _case(np.array(grid), info, s1).tolist()
        assert column == [classify_case(p, info, s1) for p in grid]
        assert all(type(case) is int for case in column)  # cells read 2, not 2.0


def test_wtp_json_matches_csv(capsys):
    code, out_csv, _ = run_cli(capsys, "wtp", "--grid", "5")
    assert code == 0
    code, out_json, _ = run_cli(capsys, "wtp", "--grid", "5", "--format", "json")
    assert code == 0
    csv_rows = read_csv(out_csv)
    json_rows = json.loads(out_json)
    assert len(csv_rows) == len(json_rows) == 5
    for c_row, j_row in zip(csv_rows, json_rows):
        assert float(c_row["wtp_alpha"]) == j_row["wtp_alpha"]
        assert int(c_row["case_alpha"]) == j_row["case_alpha"]


@pytest.mark.parametrize(
    "command",
    [["wtp", "--grid", "11"], ["sets", "--grid", "5"], ["partition"], ["polarize"],
     ["simulate", "--draws", "1000"]],
    ids=lambda command: command[0],
)
def test_json_tables_are_indented_dumps(capsys, command):
    code, out, _ = run_cli(capsys, *command, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_partition_reference_intervals(capsys):
    code, out, _ = run_cli(capsys, "partition")
    assert code == 0
    rows = {row["case"]: row for row in read_csv(out)}
    assert len(rows) == 8
    assert float(rows["2"]["lower"]) == pytest.approx(0.4, abs=1e-9)
    assert float(rows["2"]["upper"]) == pytest.approx(8 / 11, abs=1e-9)
    assert float(rows["6"]["lower"]) == pytest.approx(3 / 11, abs=1e-9)
    assert float(rows["6"]["upper"]) == pytest.approx(0.6, abs=1e-9)
    # adjacent cases share endpoints
    assert rows["1"]["lower"] == rows["2"]["upper"]
    assert rows["4"]["upper"] == rows["3"]["lower"]


def test_sets_reference_memberships(capsys):
    code, out, _ = run_cli(capsys, "sets", "--grid", "11", "--costs", "0.1,0.31")
    assert code == 0
    rows = read_csv(out)
    by_key = {(r["p_low"], r["p_high"], r["cost"]): r for r in rows}
    golden = by_key[("0.3", "0.7", "0.1")]
    assert golden["b_low_alpha"] == "true"
    assert golden["b_high_beta"] == "true"
    assert golden["b_high_alpha"] == "false"
    diagonal = by_key[("0.5", "0.5", "0.1")]
    assert all(
        diagonal[k] == "false" for k in diagonal if k.startswith(("b_", "v_"))
    )
    # beyond the willingness peak nobody acquires
    above = by_key[("0.3", "0.7", "0.31")]
    assert all(above[k] == "false" for k in above if k.startswith("b_"))


SETS_GRID = 21


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("payoff", [(1.0, 0.0), (2.0, 0.5)], ids=str)
@pytest.mark.parametrize("theta", [(0.6, 0.8), (0.8, 0.6), (0.7, 0.7)], ids=str)
def test_sets_matches_per_pair_classification(capsys, theta, payoff, fmt):
    # The row sweep must print exactly what one classify_pair call per pair
    # gives; a numpy bool cell would print "True" in CSV and break json.dumps.
    info, payoffs = InformationStructure(*theta), PayoffStructure(*payoff)
    grid = [float(p) for p in np.linspace(0.0, 1.0, SETS_GRID)]
    tie = max(willingness_to_pay(p, info, payoffs, ALPHA) for p in grid)  # an exact tie
    assert tie > 0.0
    costs = (0.0, tie, 0.31)
    code, out, _ = run_cli(
        capsys, "sets", "--grid", str(SETS_GRID), "--format", fmt,
        "--theta1", str(theta[0]), "--theta2", str(theta[1]),
        "--u-correct", str(payoff[0]), "--u-wrong", str(payoff[1]),
        "--costs", ",".join(map(repr, costs)),
    )
    assert code == 0
    columns = ["p_low", "p_high", "cost", "b_low_alpha", "b_high_beta", "b_high_alpha",
               "b_low_beta", "v_low_alpha", "v_high_beta", "v_high_alpha", "v_low_beta"]
    rows = [
        (p_low, p_high, cost, *vars(classify_pair(p_low, p_high, cost, info, payoffs)).values())
        for cost in costs
        for i, p_low in enumerate(grid)
        for p_high in grid[i:]
    ]
    table = {column: [row[k] for row in rows] for k, column in enumerate(columns)}
    assert out == render_table(table, fmt)


def test_example_reference_run(capsys):
    code, out, _ = run_cli(capsys, "example")
    assert code == 0
    assert "all reference checks passed" in out


def test_example_mismatch_exits_two(capsys, monkeypatch):
    # the reference values are two-decimal roundings, so a far tighter
    # tolerance must report mismatches and exit with the violation code
    monkeypatch.setattr(cli, "EXAMPLE_TOLERANCE", 1e-6)
    code, out, _ = run_cli(capsys, "example")
    assert code == 2
    assert "FAIL" in out


def test_example_with_high_cost_override(capsys):
    code, out, _ = run_cli(capsys, "example", "--cost", "0.25")
    assert code == 0
    assert "reference checks skipped" in out
    assert "high prior skips after beta" in out
    assert "low prior skips after beta" in out


def test_example_reference_checks_ignore_fields_the_example_does_not_read(capsys):
    code, out, _ = run_cli(
        capsys, "example", "--seed", "7", "--grid", "11", "--subjective-p", "0.3"
    )
    assert code == 0
    assert "all reference checks passed" in out


@pytest.mark.parametrize(
    "args", [("--u-correct", "2", "--u-wrong", "0.5"), ("--priors", "0.3,0.8")], ids=" ".join
)
def test_example_off_the_reference_scenario_skips_the_checks(capsys, args):
    code, out, _ = run_cli(capsys, "example", *args)
    assert code == 0
    assert out.endswith("\nnon-reference parameters: reference checks skipped\n")


def test_example_with_weaker_second_component(capsys):
    code, out, _ = run_cli(capsys, "example", "--theta1", "0.8", "--theta2", "0.6")
    assert code == 0
    assert "polarized: False" in out


def test_polarize_reference_pair(capsys):
    code, out, _ = run_cli(capsys, "polarize")
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    by_signal = {(r["sigma1"], r["sigma2"]): r for r in rows}
    assert by_signal[("alpha", "beta")]["polarized"] == "true"
    assert by_signal[("beta", "alpha")]["polarized"] == "true"
    assert by_signal[("alpha", "alpha")]["polarized"] == "false"
    assert float(rows[0]["probability"]) == pytest.approx(0.5, abs=1e-9)
    assert rows[0]["feasible"] == "true"


def test_polarize_crossing_pair_prints_all_routes_probability(capsys):
    # (alpha, beta) polarizes this pair only by crossing; the probability
    # column counts it, so the row marked polarized does not read 0
    code, out, _ = run_cli(capsys, "polarize", "--priors", "0.125,0.2", "--cost", "0.05")
    assert code == 0
    by_signal = {(r["sigma1"], r["sigma2"]): r for r in read_csv(out)}
    assert by_signal[("alpha", "beta")]["polarized"] == "true"
    assert by_signal[("alpha", "beta")]["via_alpha_swap"] == "true"
    assert {r["probability"] for r in by_signal.values()} == {"0.25"}


def test_simulate_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "simulate", "--draws", "20000")
    assert code == 0
    code, second, _ = run_cli(capsys, "simulate", "--draws", "20000")
    assert first == second
    code, reseeded, _ = run_cli(capsys, "simulate", "--draws", "20000", "--seed", "1")
    assert reseeded != first
    row = read_csv(first)[0]
    assert row["within_3se"] == "true"
    assert float(row["analytic"]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "args, line",
    [
        (["--pattern", "PB"],
         "PB,1000003,42,0.500060499819,0.000499999246341,0.5,6.04998185005e-05,true"),
        (["--pattern", "CB"],
         "CB,1000003,42,0.219576341271,0.00041395900466,0.22,0.000423658729024,true"),
        (["--pattern", "UR"],
         "UR,1000003,42,0.280871157387,0.000449424014032,0.28,0.000871157386528,true"),
        (["--pattern", "UR", "--theta1", "0.8", "--theta2", "0.6"],
         "UR,1000003,42,0.560939317182,0.000496271760998,0.56,0.000939317182049,true"),
    ],
    ids=["PB", "CB", "UR", "UR-weaker-second"],
)
def test_simulate_golden_rows(capsys, args, line):
    # Recorded from whole-array draws; the streamed sampler must reproduce
    # every digit, across a draw count that is not a multiple of its block.
    code, out, _ = run_cli(capsys, "simulate", *args, "--draws", "1000003", "--seed", "42")
    assert code == 0
    assert out.splitlines()[1] == line


def test_simulate_single_pattern(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--pattern", "UR", "--priors", "0.7",
        "--subjective-p", "0.7", "--draws", "50000",
    )
    assert code == 0
    row = read_csv(out)[0]
    assert float(row["analytic"]) == pytest.approx(0.36, abs=1e-9)
    assert row["within_3se"] == "true"


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "21", "--draws", "20000")
    assert code == 0
    assert "verification passed" in out


def test_verify_simulation_counts_crossing_routes(capsys):
    # this pair polarizes only by crossing: the in-order closed form gives 0,
    # all routes give 1/4, and the simulation draws all routes
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "11", "--priors", "0.125,0.2",
        "--cost", "0.05", "--subjective-p", "0.5",
    )
    assert code == 0
    assert "vs analytic 0.250000 -> ok" in out


def test_verify_passes_at_equal_precisions(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "21", "--theta1", "0.7", "--theta2", "0.7"
    )
    assert code == 0
    assert "verification passed" in out


def test_verify_counts_suite_violations_into_the_total(capsys, monkeypatch):
    # round-off between the closed form and the enumeration exceeds 1e-30 at
    # 89 of the 202 prior and component points
    monkeypatch.setattr(cli, "VOI_TOLERANCE", 1e-30)
    code, out, _ = run_cli(capsys, "verify", "--grid", "11")
    assert code == 2
    lines = out.splitlines()
    assert "value-of-information agreement: 89 violations" in lines
    assert any(line.startswith("verification FAILED (89 violations, ") for line in lines)


@pytest.mark.parametrize("law", ["full posterior", "marginal"])
def test_updating_identity_suite_flags_a_perturbed_law(monkeypatch, law):
    # A full posterior 1e-9 off breaks the chain at every draw, and a marginal
    # 1e-9 off the martingale, so the row suite counts all 2,000 draws.
    if law == "full posterior":
        def perturbed(p, info, s1, s2=None):
            return model._posterior(p, info, s1, s2) + (0.0 if s2 is None else 1e-9)

        monkeypatch.setattr(cli, "_posterior", perturbed)
    else:
        monkeypatch.setattr(cli, "_marginal", lambda *args: model._marginal(*args) + 1e-9)
    counts = dict(cli._verify_invariants(DEFAULT_CONFIG))
    assert counts["updating identities"] == 2000


def test_pair_suite_counts_what_classify_pair_counts(monkeypatch):
    # A B law loosened by 0.01 breaks the implication for some pairs.  The row
    # suite must flag exactly the pairs that one classify_pair call per pair
    # flags, on the same seeded draws.
    def loose_b(wtp_low, wtp_high, c):
        (alpha_i, beta_i), (alpha_j, beta_j) = wtp_low, wtp_high
        return (
            (c <= alpha_i + 0.01) & (alpha_j < c),
            (c <= beta_j) & (beta_i < c - 0.01),
            (c <= alpha_j + 0.01) & (alpha_i < c),
            (c <= beta_i) & (beta_j < c),
        )

    monkeypatch.setattr(cli, "b_memberships", loose_b)
    monkeypatch.setattr(sets, "b_memberships", loose_b)
    info, payoffs = DEFAULT_CONFIG.info(), DEFAULT_CONFIG.payoffs()
    ceiling = cli.max_willingness_to_pay(info, payoffs)
    rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    rng.random(2000 + 100)  # the draws of the updating and inversion suites
    expected = 0
    for _ in range(2000):
        p_i, p_j = sorted(rng.random(2).tolist())
        pair = classify_pair(p_i, p_j, float(rng.uniform(0.0, ceiling)), info, payoffs)
        memberships = list(vars(pair).values())
        expected += any(b and not v for b, v in zip(memberships[:4], memberships[4:]))
    counts = dict(cli._verify_invariants(DEFAULT_CONFIG))
    assert counts["one-sided acquisition implies willingness ordering"] == expected > 0


def test_sweeps_call_willingness_through_the_incentives_name(capsys, monkeypatch):
    # A tracer that rebinds incentives.willingness_to_pay, keyed on its four
    # positional arguments, sees every call of the sweeps: wtp makes one per
    # prior and component, no two alike.
    calls = []
    original = incentives.willingness_to_pay

    def recording(p, info, payoffs, s1, /):
        calls.append((p, info, payoffs, s1))
        return original(p, info, payoffs, s1)

    monkeypatch.setattr(incentives, "willingness_to_pay", recording)
    assert run_cli(capsys, "wtp", "--grid", "11")[0] == 0
    assert len(calls) == len(set(calls)) == 22
    for args in (("sets", "--grid", "5"), ("verify", "--grid", "7", "--draws", "1000")):
        calls.clear()
        assert run_cli(capsys, *args)[0] == 0
        assert calls, args


@pytest.mark.parametrize("flag", ["none", "None", "NONE"])
def test_subjective_p_none_flag_drops_the_simulation(tmp_path, capsys, flag):
    config = tmp_path / "run.cfg"
    config.write_text("subjective_p = 0.3\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "11", "--config", str(config), "--subjective-p", flag
    )
    assert code == 0
    assert "simulation agreement" not in out
    assert out.splitlines()[-1].startswith("verification passed")


def test_config_file_and_output_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("theta1 = 0.55\ntheta2 = 0.9\ngrid = 7\n", encoding="utf-8")
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "wtp", "--config", str(config), "--out", str(out_path)
    )
    assert code == 0
    rows = read_csv(out_path.read_text(encoding="utf-8"))
    assert len(rows) == 7
    peak_row = rows[3]  # p = 0.5 > 1 - theta1 = 0.45, case 2
    assert peak_row["case_alpha"] == "2"


@pytest.mark.parametrize("target", ["missing/table.csv", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_one_without_traceback(tmp_path, capsys, target):
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, "partition", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {out_path}: cannot write output: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_unwritable_output_exits_one_before_the_compute(capsys, monkeypatch):
    def compute(*args, **kwargs):
        raise AssertionError("the grid checks ran before the output was opened")

    monkeypatch.setattr(cli, "grid_theorem_check", compute)
    code, out, err = run_cli(capsys, "verify", "--out", "/nonexistent/x.txt")
    assert code == 1
    assert out == ""
    assert err.startswith("error: /nonexistent/x.txt: cannot write output: ")
    assert len(err.splitlines()) == 1


def test_failed_run_leaves_an_existing_output_file_unchanged(tmp_path, capsys):
    out_path = tmp_path / "existing.csv"
    out_path.write_bytes(b"earlier output\n")
    code, _, err = run_cli(capsys, "polarize", "--priors", "0.3", "--out", str(out_path))
    assert code == 1
    assert err == "error: the polarize command needs two priors (low, high)\n"
    assert out_path.read_bytes() == b"earlier output\n"
    # A later run replaces the whole file, however long the earlier text.
    out_path.write_bytes(b"x" * 100_000)
    code, _, _ = run_cli(capsys, "partition", "--out", str(out_path))
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == STDOUT_SHA256[("partition",)]


def test_output_to_a_device_is_written_without_truncating(capsys):
    code, out, err = run_cli(capsys, "partition", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


def test_invalid_config_exits_one(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("theta2 = 0.4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "wtp", "--config", str(config))
    assert code == 1
    assert "theta2" in err
    config.write_text("seed = -1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 1
    assert err.startswith("error: ") and "seed" in err


def test_invalid_override_exits_one(capsys):
    code, _, err = run_cli(capsys, "wtp", "--theta2", "0.4")
    assert code == 1
    assert "theta2" in err
    code, _, err = run_cli(capsys, "simulate", "--seed", "-1")
    assert code == 1
    assert err.startswith("error: ") and "seed" in err
    # An infinite premium, u_correct - u_wrong overflowing, is no premium either.
    premium = ("--u-correct=1e308", "--u-wrong=-1e308")
    for args in (("wtp", *premium), ("verify", "--grid", "5", *premium, "--subjective-p", "none")):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


def test_each_command_takes_exactly_its_flags():
    # The common flags, one override per run setting, and the command's own:
    # a knob that nothing else sets cannot come back unnoticed.
    common = {"-h", "--help", "--config", "--format", "--out"}
    common |= {"--" + f.name.replace("_", "-") for f in fields(RunConfig)}
    own = {"simulate": {"--pattern", "--draws"}, "verify": {"--draws"}}
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(cli._COMMANDS)
    for name, sub in commands.choices.items():
        options = sorted(s for action in sub._actions for s in action.option_strings)
        assert options == sorted(common | own.get(name, set())), name


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["wtp", "--format", "xml"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--grid", "401", "--draws", "0"),
        ("verify", "--draws", "-3", "--subjective-p", "none"),
    ],
    ids=["before-the-grid-checks", "when-nothing-samples"],
)
def test_draw_count_below_one_is_a_usage_error(capsys, args):
    # Checked as it is parsed: no command runs, not even one that never samples.
    with pytest.raises(SystemExit) as excinfo:
        main(list(args))
    captured = capsys.readouterr()
    assert excinfo.value.code == 1
    assert captured.out == ""
    assert "argument --draws" in captured.err


def test_polarize_requires_subjective_prior(tmp_path, capsys):
    config = tmp_path / "nosubj.cfg"
    config.write_text("subjective_p = none\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "polarize", "--config", str(config))
    assert code == 1
    assert "needs subjective_p" in err


def test_polarize_rejects_subjective_p_none_flag(capsys):
    code, _, err = run_cli(capsys, "polarize", "--subjective-p", "none")
    assert code == 1
    assert "needs subjective_p" in err


def test_subjective_p_flag_rejects_other_words(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["polarize", "--subjective-p", "nan-ish"])
    assert excinfo.value.code == 1
    assert "expected a number or 'none'" in capsys.readouterr().err


def test_simulate_requires_subjective_prior(capsys):
    # Not defaulted to the first prior: that would print the row of another input.
    code, out, err = run_cli(capsys, "simulate", "--pattern", "CB", "--subjective-p", "none")
    assert code == 1 and out == ""
    assert "the simulate command needs subjective_p" in err


def test_empty_cost_list_is_rejected_on_every_path(tmp_path, capsys):
    # An empty list once ran verify's grid checks over no cost and passed them.
    for args in (["verify", "--grid", "11", "--costs", ""], ["sets", "--costs", ""]):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert "'costs' needs at least one value" in err
    config = tmp_path / "run.cfg"
    config.write_text("costs =\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--grid", "11", "--config", str(config))
    assert code == 1 and "verification passed" not in out
    assert "'costs' needs at least one value" in err
    with pytest.raises(ConfigError, match="'costs' needs at least one value"):
        RunConfig(costs=()).validate()


#: A valid text for each RunConfig field, off its default.
VALID_TEXT = {
    "theta1": "0.7",
    "theta2": "0.9",
    "u_correct": "2",
    "u_wrong": "0.5",
    "cost": "0.2",
    "priors": "0.2, 0.9",
    "subjective_p": "0.4",
    "seed": "7",
    "grid": "11",
    "costs": "0.05,0.2",
}


def _config_or_error(capsys, argv):
    """The effective config of a command line, or the error it exits 1 with."""
    try:
        return cli._effective_config(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 1
        return capsys.readouterr().err
    except ConfigError as exc:  # main prints it and returns 1
        return str(exc)


@pytest.mark.parametrize("kind", ["valid", "none", "empty", "junk"])
@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_flag_and_config_line_take_the_same_text(tmp_path, capsys, key, kind):
    text = {"valid": VALID_TEXT[key], "none": "none", "empty": "", "junk": "junk"}[kind]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n", encoding="utf-8")
    by_flag = _config_or_error(capsys, ["wtp", "--" + key.replace("_", "-"), text])
    by_file = _config_or_error(capsys, ["wtp", "--config", str(config)])
    if isinstance(by_flag, RunConfig) or isinstance(by_file, RunConfig):
        assert by_flag == by_file
    else:
        assert repr(key) in by_flag and repr(key) in by_file
    if kind == "valid":
        assert by_flag != DEFAULT_CONFIG
