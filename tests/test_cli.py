import csv
import hashlib
import io
import json

import numpy as np
import pytest

from secondlook import ALPHA, InformationStructure, PayoffStructure, classify_pair
from secondlook.cli import main
from secondlook.config import render_table
from secondlook.incentives import willingness_to_pay


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
    assert out == render_table(columns, rows, fmt)


def test_example_reference_run(capsys):
    code, out, _ = run_cli(capsys, "example")
    assert code == 0
    assert "all reference checks passed" in out


def test_example_mismatch_exits_two(capsys):
    # the reference values are two-decimal roundings, so a far tighter
    # tolerance must report mismatches and exit with the violation code
    code, out, _ = run_cli(capsys, "example", "--tolerance", "1e-6")
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


def test_verify_counts_suite_violations_into_the_total(capsys):
    # round-off between the closed form and the enumeration exceeds 1e-30 at
    # 89 of the 202 prior and component points
    code, out, _ = run_cli(capsys, "verify", "--grid", "11", "--tolerance", "1e-30")
    assert code == 2
    lines = out.splitlines()
    assert "value-of-information agreement: 89 violations" in lines
    assert any(line.startswith("verification FAILED (89 violations, ") for line in lines)


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


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["wtp", "--format", "xml"])
    assert excinfo.value.code == 1


def test_polarize_requires_subjective_prior(tmp_path, capsys):
    config = tmp_path / "nosubj.cfg"
    config.write_text("subjective_p = none\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "polarize", "--config", str(config))
    assert code == 1
    assert "subjective_p" in err
