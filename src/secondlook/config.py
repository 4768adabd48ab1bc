"""Run configuration files and tabular output.

The configuration format is a flat UTF-8 ``key = value`` file: one setting
per line, ``#`` comments, lists comma-separated, read by :func:`parse_setting`
for a file line and a command-line flag alike.  Unknown keys are rejected; a
parse error names the file and line, a validation error the file.

A table is a ``dict`` from each column name, in column order, to its list of
cells, one per row.

Tables are emitted as CSV with a header row or as a JSON array of flat
records.  Floats are printed with 12 significant digits in both formats so
the two decode to identical records.  CSV is rendered by column, in chunks of
rows: a column of one exact type (``bool``, ``int`` or ``float``) is turned
into texts by a C-level map, each distinct float formatted once per chunk, and
any other column cell by cell, with the same text for every cell.  The JSON
layout is the one ``json.dumps(records, indent=2)`` gives: one record per
block, indented by two spaces and its fields by four; each finite float is the
shortest repr of its 12-significant-digit value, and a non-finite one is
written as ``json.dumps`` writes it (``NaN``, ``Infinity``, ``-Infinity``).  Where ``%.12g`` writes a
value in fixed notation (decimal exponent -4 to 11) its text, with ``.0``
added to a whole number, already is that repr, since two different decimals
of at most 12 significant digits never round to the same double.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ModelError
from .model import (
    InformationStructure,
    PayoffStructure,
    check_cost,
    check_count,
    check_probability,
    check_values,
)

_FLOAT_FORMAT = "%.12g"
_BOOL_TEXT = {True: "true", False: "false"}
#: Rows per CSV render pass.
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model parameters, priors, seed, grid size."""

    theta1: float = 0.6
    theta2: float = 0.8
    u_correct: float = 1.0
    u_wrong: float = 0.0
    cost: float = 0.1
    priors: tuple[float, ...] = (0.3, 0.7)
    subjective_p: float | None = 0.5
    seed: int = 42
    grid: int = 101
    costs: tuple[float, ...] | None = None

    def info(self) -> InformationStructure:
        return InformationStructure(self.theta1, self.theta2)

    def payoffs(self) -> PayoffStructure:
        return PayoffStructure(self.u_correct, self.u_wrong)

    def cost_list(self) -> tuple[float, ...]:
        return self.costs if self.costs is not None else (self.cost,)

    def validate(self, source: str = "<config>") -> "RunConfig":
        """Re-run all underlying type constraints; raise ConfigError on failure."""
        try:
            self.info()
            self.payoffs()
            check_cost(self.cost, "processing cost")
            priors = check_values(self.priors, "priors", lambda p: check_probability(p, "prior"))
            if len(priors) > 2 or priors != sorted(priors):
                raise ModelError(
                    f"'priors' must be one prior or a pair ordered low <= high, got {self.priors}"
                )
            if self.subjective_p is not None:
                check_probability(self.subjective_p, "subjective_p")
            check_count(self.grid, "grid", 2)
            check_count(self.seed, "seed", 0)
            check_values(self.cost_list(), "costs", lambda c: check_cost(c, "costs"))
        except ModelError as exc:
            raise ConfigError(str(exc), source=source) from exc
        return self


DEFAULT_CONFIG = RunConfig()

_LIST_KEYS = ("priors", "costs")
_INT_KEYS = {"seed", "grid"}
_OPTIONAL_KEYS = {"subjective_p", "costs"}
_ALL_KEYS = {f.name for f in fields(RunConfig)}


def parse_setting(key: str, text: str, source: str | None = None, line: int | None = None):
    """One setting's text as its value; :meth:`RunConfig.validate` checks ranges.

    ``none``, in any case, unsets an optional key.
    """
    if key not in _ALL_KEYS:
        raise ConfigError(f"unknown key {key!r}", source=source, line=line)
    text = text.strip()
    if key in _OPTIONAL_KEYS and text.lower() == "none":
        return None
    caster = int if key in _INT_KEYS else float

    def cast(part: str):
        try:
            return caster(part)
        except ValueError:
            kind = "an integer" if caster is int else "a number"
            if key in _OPTIONAL_KEYS:
                kind += " or 'none'"
            raise ConfigError(
                f"expected {kind} for {key!r}, got {part.strip()!r}", source=source, line=line
            ) from None

    if key in _LIST_KEYS:
        return tuple(cast(part) for part in text.split(",") if part.strip())
    return cast(text)


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a flat key-value configuration; parse errors carry line numbers."""
    values: dict = {}
    seen_lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected 'key = value', got {raw.strip()!r}",
                source=source,
                line=lineno,
            )
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key in seen_lines:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen_lines[key]})",
                source=source,
                line=lineno,
            )
        values[key] = parse_setting(key, value_text, source, lineno)
        seen_lines[key] = lineno
    return replace(DEFAULT_CONFIG, **values).validate(source)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as handle:  # drops a byte-order mark
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", source=str(path)) from exc
    return parse_config(text, source=str(path))


def _format_value(value) -> str:
    """Render one CSV table cell."""
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    if isinstance(value, float):
        return _FLOAT_FORMAT % value
    return str(value)


def _csv_texts(column: list) -> Iterator[str]:
    """``map(_format_value, column)``, at C speed for a column of one exact type."""
    kinds = set(map(type, column))
    if kinds == {bool}:
        return map(_BOOL_TEXT.__getitem__, column)
    if kinds == {int}:
        return map(str, column)
    if kinds == {float}:
        # Each distinct value is formatted once; a NaN key is found by identity.
        texts = {v: _FLOAT_FORMAT % v for v in set(column)}
        if 0.0 in texts:
            # 0.0 and -0.0 are one key but print as "0" and "-0".
            return (texts[v] if v else _FLOAT_FORMAT % v for v in column)
        return map(texts.__getitem__, column)
    return map(_format_value, column)


def render_csv(table: dict[str, list]) -> str:
    # By column, in chunks of rows, so that the cell texts of one chunk at a
    # time are live.
    out = [",".join(table) + "\n"]
    columns = list(table.values())
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        texts = [_csv_texts(column[start : start + _CHUNK_ROWS]) for column in columns]
        out.append("\n".join(map(",".join, zip(*texts))) + "\n")
    return "".join(out)


def _json_cell(value) -> str:
    """One JSON cell, as ``json.dumps`` writes the value rounded to 12 digits."""
    if isinstance(value, float):
        text = _FLOAT_FORMAT % value
        # Without an "e" (exponent form) or an "n" (inf, nan) the text is in
        # fixed notation, where repr writes the same digits: no other decimal
        # of at most 12 significant digits rounds to the same double.
        if "e" not in text and "n" not in text:
            return text if "." in text else text + ".0"
        value = float(text)
        return repr(value) if math.isfinite(value) else json.dumps(value)
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def render_json(table: dict[str, list]) -> str:
    columns = list(table.values())
    if not columns[0]:
        return "[]\n"
    # One %-template per record: json.dumps with an indent runs CPython's
    # pure-Python encoder, several times slower on large tables.  The cells
    # stay lazy maps, so each cell string is freed once its record is built.
    lines = ",\n".join("    " + json.dumps(c).replace("%", "%%") + ": %s" for c in table)
    template = "  {\n" + lines + "\n  }"
    cells = [map(_json_cell, column) for column in columns]
    return "[\n" + ",\n".join(map(template.__mod__, zip(*cells))) + "\n]\n"


def render_table(table: dict[str, list], fmt: str) -> str:
    """Render a table as CSV or JSON.

    A table maps each column name, in column order, to its list of cells, one
    per row; every column has the same length.
    """
    if fmt == "csv":
        return render_csv(table)
    if fmt == "json":
        return render_json(table)
    raise ConfigError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")
