import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    with pytest.raises(ConfigError):
        parse_config("seed = -1\n")


@pytest.mark.parametrize(
    "override",
    [
        {"subjective_p": True},
        {"subjective_p": float("nan")},
        {"costs": (0.1, float("inf"))},
        {"costs": (True,)},
        {"cost": "0.1"},
        {"seed": True},
        {"seed": 1.5},
        {"grid": 2.5},
        {"grid": "3"},
        {"grid": None},
        {"grid": True},
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


def indented_dumps(columns, rows):
    """The JSON table as first defined: records through json.dumps(indent=2)."""
    records = [
        {c: (float("%.12g" % v) if isinstance(v, float) else v) for c, v in zip(columns, row)}
        for row in rows
    ]
    return json.dumps(records, indent=2) + "\n"


# %.12g and repr print 1.23456789012e12 differently, so a cell must round-trip
# through float; 5e-324 and 2.5e-310 are subnormal.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16,
               1.23456789012e12, 1 / 3, 0.30000000000000004, -2.5, 1e-7]


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["p", "q"], []),
        (["x"], [(v,) for v in EDGE_FLOATS]),
        (["x"], [(np.float64(v),) for v in EDGE_FLOATS]),
        (
            ["n", 'say "hi"', "{x}", "}{0}", "back\\slash", "pr\u00efor"],
            [
                (0, True, None, "plain", 1 / 3, np.float64(0.1) * 3),
                (-7, False, 2**70, 'quote " and \\ backslash', math.nan, "tab\tnew\nline\x00"),
                (1, None, "\u00e9\u03b8\U0001f600", "{}{0}}", -0.0, 12),
            ],
        ),
    ],
)
def test_render_json_matches_indented_dumps(columns, rows):
    assert render_json(columns, rows) == indented_dumps(columns, rows)


_cells = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
)


@given(
    st.lists(st.text(), min_size=1, max_size=4, unique=True).flatmap(
        lambda columns: st.tuples(
            st.just(columns),
            st.lists(st.tuples(*[_cells] * len(columns)), max_size=5),
        )
    )
)
def test_render_json_matches_indented_dumps_property(table):
    columns, rows = table
    assert render_json(columns, rows) == indented_dumps(columns, rows)


def test_render_json_rejects_cells_json_cannot_encode():
    rows = [(0.5, np.bool_(True))]
    with pytest.raises(TypeError):
        indented_dumps(["p", "flag"], rows)
    with pytest.raises(TypeError):
        render_json(["p", "flag"], rows)


def test_render_table_dispatch():
    with pytest.raises(ConfigError):
        render_table(["a"], [(1,)], "xml")
