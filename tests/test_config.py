import json

import pytest

from secondlook import ConfigError, DEFAULT_CONFIG, RunConfig, dump_config, parse_config
from secondlook.config import render_csv, render_json, render_table

SAMPLE = """
# reference scenario
theta1 = 0.6
theta2 = 0.8
u_correct = 1
u_wrong = 0
cost = 0.1
priors = 0.3, 0.7
subjective_p = 0.5
seed = 42
grid = 101
"""


def test_parse_sample_config():
    config = parse_config(SAMPLE, source="sample.cfg")
    assert config.theta1 == 0.6
    assert config.priors == (0.3, 0.7)
    assert config.subjective_p == 0.5
    assert config.grid == 101
    assert config.costs is None
    assert config.cost_list() == (0.1,)


def test_defaults_are_the_reference_scenario():
    assert DEFAULT_CONFIG.theta1 == 0.6
    assert DEFAULT_CONFIG.theta2 == 0.8
    assert DEFAULT_CONFIG.cost == 0.1
    assert DEFAULT_CONFIG.priors == (0.3, 0.7)


def test_round_trip_is_value_identical():
    config = RunConfig(
        theta1=0.55,
        theta2=0.9,
        u_correct=2.5,
        u_wrong=-1.25,
        cost=0.125,
        priors=(0.2, 0.8),
        subjective_p=None,
        seed=7,
        grid=51,
        costs=(0.05, 0.1, 0.2),
    )
    assert parse_config(dump_config(config)) == config
    assert parse_config(dump_config(DEFAULT_CONFIG)) == DEFAULT_CONFIG


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("theta1 = 0.6\nbogus = 1\n", source="x.cfg")
    assert "x.cfg:2" in str(excinfo.value)
    assert "bogus" in str(excinfo.value)


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("theta1 = 0.6\ncost = abc\n", source="x.cfg")
    assert "x.cfg:2" in str(excinfo.value)


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("theta1 0.6\n", source="x.cfg")
    assert "x.cfg:1" in str(excinfo.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("cost = 0.1\ncost = 0.2\n")
    assert "duplicate" in str(excinfo.value)


def test_semantic_validation_wrapped_as_config_error():
    with pytest.raises(ConfigError):
        parse_config("theta2 = 0.4\n")
    with pytest.raises(ConfigError):
        parse_config("priors = 0.7, 0.3\n")
    with pytest.raises(ConfigError):
        parse_config("cost = -1\n")
    with pytest.raises(ConfigError):
        parse_config("grid = 1\n")
    with pytest.raises(ConfigError):
        parse_config("subjective_p = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("costs = 0.1, nan\n")


@pytest.mark.parametrize(
    "override",
    [
        {"subjective_p": True},
        {"subjective_p": float("nan")},
        {"costs": (0.1, float("inf"))},
        {"costs": (True,)},
        {"cost": "0.1"},
    ],
)
def test_validate_rejects_non_numbers(override):
    with pytest.raises(ConfigError):
        RunConfig(**override).validate()


def test_optional_none_values():
    config = parse_config("subjective_p = none\ncosts = none\n")
    assert config.subjective_p is None
    assert config.costs is None


def test_csv_and_json_emitters_agree():
    columns = ["name", "value", "flag", "count"]
    rows = [("a", 1 / 3, True, 2), ("b", 0.30000000000000004, False, 5)]
    csv_text = render_csv(columns, rows)
    json_rows = json.loads(render_json(columns, rows))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,value,flag,count"
    decoded = []
    for line in lines[1:]:
        name, value, flag, count = line.split(",")
        decoded.append(
            {"name": name, "value": float(value), "flag": flag == "true", "count": int(count)}
        )
    assert decoded == json_rows


def test_render_table_dispatch():
    with pytest.raises(ConfigError):
        render_table(["a"], [(1,)], "xml")
