"""Run configuration files and tabular output.

The configuration format is a flat UTF-8 ``key = value`` file: one setting
per line, ``#`` comments, lists comma-separated.  Unknown keys are rejected
and every parse or validation error names the file and line.  A config
serialized with :func:`dump_config` parses back to an identical value.

Tables are emitted as CSV with a header row or as a JSON array of flat
records.  Floats are printed with 12 significant digits in both formats so
the two decode to identical records.  The JSON layout is the one
``json.dumps(records, indent=2)`` gives: one record per block, indented by two
spaces and its fields by four; each finite float is the shortest repr of its
12-significant-digit value, and a non-finite one is written as ``json.dumps``
writes it (``NaN``, ``Infinity``, ``-Infinity``).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ModelError
from .model import (
    InformationStructure,
    PayoffStructure,
    Scenario,
    check_cost,
    check_count,
    check_probability,
)

_FLOAT_FORMAT = "%.12g"


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

    def scenario(self) -> Scenario:
        return Scenario(self.info(), self.payoffs(), self.cost, self.priors)

    def cost_list(self) -> tuple[float, ...]:
        return self.costs if self.costs is not None else (self.cost,)

    def validate(self, source: str = "<config>") -> "RunConfig":
        """Re-run all underlying type constraints; raise ConfigError on failure."""
        try:
            self.scenario()
            if self.subjective_p is not None:
                check_probability(self.subjective_p, "subjective_p")
            check_count(self.grid, "grid", 2)
            check_count(self.seed, "seed", 0)
            for c in self.cost_list():
                check_cost(c, "costs")
        except ModelError as exc:
            raise ConfigError(str(exc), source=source) from exc
        return self


DEFAULT_CONFIG = RunConfig()

_LIST_KEYS = {"priors", "costs"}
_INT_KEYS = {"seed", "grid"}
_OPTIONAL_KEYS = {"subjective_p", "costs"}
_ALL_KEYS = {f.name for f in fields(RunConfig)}


def _parse_scalar(key: str, text: str, source: str, line: int):
    caster = int if key in _INT_KEYS else float
    try:
        return caster(text)
    except ValueError:
        kind = "an integer" if caster is int else "a number"
        raise ConfigError(
            f"expected {kind} for {key!r}, got {text!r}", source=source, line=line
        ) from None


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a flat key-value configuration; errors carry line numbers."""
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
        key, value_text = key.strip(), value_text.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", source=source, line=lineno)
        if key in seen_lines:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen_lines[key]})",
                source=source,
                line=lineno,
            )
        seen_lines[key] = lineno
        if key in _OPTIONAL_KEYS and value_text.lower() == "none":
            values[key] = None
        elif key in _LIST_KEYS:
            parts = [part.strip() for part in value_text.split(",") if part.strip()]
            if not parts:
                raise ConfigError(
                    f"{key!r} needs at least one value", source=source, line=lineno
                )
            values[key] = tuple(_parse_scalar(key, part, source, lineno) for part in parts)
        else:
            values[key] = _parse_scalar(key, value_text, source, lineno)
    return replace(DEFAULT_CONFIG, **values).validate(source)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=str(path)) from exc
    return parse_config(text, source=str(path))


def _format_value(value) -> str:
    """Render one config value or table cell the same way for CSV and JSON."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FORMAT % value
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def dump_config(config: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def render_csv(columns: list[str], rows: list[tuple]) -> str:
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(map(_format_value, row)) + "\n")
    return out.getvalue()


def _json_cell(value) -> str:
    """One JSON cell, as ``json.dumps`` writes the value rounded to 12 digits."""
    if isinstance(value, float):
        value = float(_FLOAT_FORMAT % value)
        return repr(value) if math.isfinite(value) else json.dumps(value)
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def render_json(columns: list[str], rows: list[tuple]) -> str:
    if not rows:
        return "[]\n"
    # One str.format template per record: json.dumps with an indent runs
    # CPython's pure-Python encoder, several times slower on large tables.
    # The cells stay lazy maps, so each cell string is freed once its record is built.
    lines = ",\n".join(
        "    " + json.dumps(c).replace("{", "{{").replace("}", "}}") + ": {}" for c in columns
    )
    template = "  {{\n" + lines + "\n  }}"
    cells = [map(_json_cell, column) for column in zip(*rows)]
    return "[\n" + ",\n".join(map(template.format, *cells)) + "\n]\n"


def render_table(columns: list[str], rows: list[tuple], fmt: str) -> str:
    """Render rows, each a sequence of cells in column order, as CSV or JSON."""
    if fmt == "csv":
        return render_csv(columns, rows)
    if fmt == "json":
        return render_json(columns, rows)
    raise ConfigError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")
