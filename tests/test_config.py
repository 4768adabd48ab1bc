import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secondlook import ConfigError, DEFAULT_CONFIG, RunConfig, load_config, parse_config
from secondlook.config import (
    _format_value,
    _json_cell,
    render_csv,
    render_json,
    render_table,
)

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


@pytest.mark.parametrize(
    "encoded",
    [b"\xef\xbb\xbf" + SAMPLE.encode(), SAMPLE.replace("\n", "\r\n").encode()],
    ids=["byte-order-mark", "crlf"],
)
def test_config_file_with_bom_or_crlf_parses(tmp_path, encoded):
    path = tmp_path / "run.cfg"
    path.write_bytes(encoded)
    assert load_config(path) == parse_config(SAMPLE, source="sample.cfg")


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("theta1 = 0.6  # café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def test_defaults_are_the_reference_scenario():
    assert DEFAULT_CONFIG.theta1 == 0.6
    assert DEFAULT_CONFIG.theta2 == 0.8
    assert DEFAULT_CONFIG.cost == 0.1
    assert DEFAULT_CONFIG.priors == (0.3, 0.7)


def test_every_key_parses_to_its_value():
    text = """
theta1 = 0.55
theta2 = 0.9
u_correct = 2.5
u_wrong = -1.25
cost = 0.125
priors = 0.2, 0.8
subjective_p = none
seed = 7
grid = 51
costs = 0.05, 0.1, 0.2
"""
    config = parse_config(text)
    assert config == RunConfig(
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
    # Every key is set away from its default, so each one's parse is seen.
    assert all(getattr(config, f.name) != getattr(DEFAULT_CONFIG, f.name) for f in fields(config))


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
        {"priors": 0.3},
        {"costs": 0.1},
        {"costs": "0.1"},
    ],
)
def test_validate_rejects_non_numbers(override):
    (key,) = override
    with pytest.raises(ConfigError, match=key) as excinfo:
        RunConfig(**override).validate()
    # A string is one value, not a list of its characters.
    assert "'0'" not in str(excinfo.value)


def test_optional_none_values():
    config = parse_config("subjective_p = none\ncosts = none\n")
    assert config.subjective_p is None
    assert config.costs is None


def test_csv_and_json_emitters_agree():
    columns = ["name", "value", "flag", "count"]
    rows = [("a", 1 / 3, True, 2), ("b", 0.30000000000000004, False, 5)]
    csv_text = render_csv(table_of(columns, rows))
    json_rows = json.loads(render_json(table_of(columns, rows)))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,value,flag,count"
    decoded = []
    for line in lines[1:]:
        name, value, flag, count = line.split(",")
        decoded.append(
            {"name": name, "value": float(value), "flag": flag == "true", "count": int(count)}
        )
    assert decoded == json_rows


def table_of(columns, rows):
    """The rows as a table; unlike ``zip(*rows)`` it keeps the columns of no rows."""
    return {column: [row[k] for row in rows] for k, column in enumerate(columns)}


def indented_dumps(columns, rows):
    """The JSON table as first defined: records through json.dumps(indent=2)."""
    records = [
        {c: (float("%.12g" % v) if isinstance(v, float) else v) for c, v in zip(columns, row)}
        for row in rows
    ]
    return json.dumps(records, indent=2) + "\n"


# %.12g and repr print 1.23456789012e12 differently, so a cell must round-trip
# through float; 5e-324 and 2.5e-310 are subnormal.  The fixed-notation fast
# path ends at 1e-4 and below 1e12: 9.9999999999995e-05 rounds up into it and
# 999999999999.5 rounds out of it, to 1e+12.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16,
               1.23456789012e12, 1 / 3, 0.30000000000000004, -2.5, 1e-7,
               1e-4, 9.9999999999995e-05, 9.99999999999e-05, 999999999999.4,
               999999999999.5, 1e11, -3.0]


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["p", "q"], []),
        (["x"], [(v,) for v in EDGE_FLOATS]),
        (["x"], [(np.float64(v),) for v in EDGE_FLOATS]),
        (
            ["n", 'say "hi"', "{x}", "}{0}", "back\\slash", "pr\u00efor", "100%", "%s"],
            [
                (0, True, None, "plain", 1 / 3, np.float64(0.1) * 3, 0.5, "%d"),
                (-7, False, 2**70, 'quote " and \\ backslash', math.nan, "tab\tnew\nline\x00",
                 "%s", 100),
                (1, None, "\u00e9\u03b8\U0001f600", "{}{0}}", -0.0, 12, "%%", None),
            ],
        ),
    ],
)
def test_render_json_matches_indented_dumps(columns, rows):
    assert render_json(table_of(columns, rows)) == indented_dumps(columns, rows)


_cells = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
)
_tables = st.lists(st.text(), min_size=1, max_size=4, unique=True).flatmap(
    lambda columns: st.tuples(
        st.just(columns),
        st.lists(st.tuples(*[_cells] * len(columns)), max_size=5),
    )
)


@given(_tables)
def test_render_json_matches_indented_dumps_property(table):
    columns, rows = table
    assert render_json(table_of(columns, rows)) == indented_dumps(columns, rows)


def per_cell_csv(columns, rows):
    """The CSV table as first defined: each cell through _format_value, row by row."""
    return ",".join(columns) + "\n" + "".join(
        ",".join(map(_format_value, row)) + "\n" for row in rows
    )


def _signed_zeros(n, start):
    """n rows of (float, int, bool) whose floats run 0.0, -0.0, ... from row start on."""
    return [
        (0.25 if i < start else (-0.0 if (i - start) % 2 else 0.0), i, i % 3 == 0)
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["p", "q"], []),
        (["x"], [(v,) for v in EDGE_FLOATS]),
        (["x"], [(v,) for v in [True, 1, 1.0, 0, False, 0.0, -0.0] * 3]),
        (
            ["f", "b", "none", "s"],
            [(np.float64(v), np.bool_(i % 2), None, f"s{i}") for i, v in enumerate(EDGE_FLOATS)],
        ),
        # Chunk edges, with the signed zeros running across the one at 4,096.
        (["z", "n", "flag"], _signed_zeros(4095, 4000)),
        (["z", "n", "flag"], _signed_zeros(4096, 4000)),
        (["z", "n", "flag"], _signed_zeros(4097, 4000)),
        (["z", "n", "flag"], _signed_zeros(9000, 4000)),
    ],
    ids=["empty", "edge-floats", "mixed", "other-types", "4095", "4096", "4097", "9000"],
)
def test_render_csv_matches_per_cell(columns, rows):
    assert render_csv(table_of(columns, rows)) == per_cell_csv(columns, rows)


@given(_tables)
def test_render_csv_matches_per_cell_property(table):
    columns, rows = table
    assert render_csv(table_of(columns, rows)) == per_cell_csv(columns, rows)


def test_json_cell_is_the_repr_of_the_rounded_float():
    # Mantissas of about 1 to 17 significant digits, half over decimal
    # exponents -320 to 308 and half around the fixed-notation window of %.12g.
    rng = np.random.default_rng(13)
    n = 100_000
    scale = 10.0 ** rng.integers(0, 17, n)
    mantissas = np.round(rng.uniform(1, 10, n) * scale) / scale
    exponents = np.where(rng.random(n) < 0.5, rng.integers(-320, 309, n), rng.integers(-6, 14, n))
    with np.errstate(over="ignore"):
        values = rng.choice([-1.0, 1.0], n) * mantissas * 10.0 ** exponents
    values = values[np.isfinite(values)].tolist()
    assert len(values) > 99_000
    assert [_json_cell(v) for v in values] == [repr(float("%.12g" % v)) for v in values]


def test_render_json_rejects_cells_json_cannot_encode():
    rows = [(0.5, np.bool_(True))]
    with pytest.raises(TypeError):
        indented_dumps(["p", "flag"], rows)
    with pytest.raises(TypeError):
        render_json(table_of(["p", "flag"], rows))


def test_render_table_dispatch():
    with pytest.raises(ConfigError):
        render_table({"a": [1]}, "xml")
