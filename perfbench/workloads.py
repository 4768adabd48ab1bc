"""The four benchmark workloads: the CLI invocations of one round and their checks.

Every workload is a closed loop with one client: a round is a fixed list of
CLI invocations, each started after the previous one exits.  The workload
seed is passed to every invocation as ``--seed``.  ``full`` is the size the
benchmark measures; ``tiny`` is a seconds-long input for the benchmark's own
test.  The SHA-256 digests were recorded at the commit that added the
benchmark: CLI output must stay byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: ``secondlook verify`` runs these six grid checks, three of them pairwise,
#: each over its 3 default precision pairs x 3 default costs.
VERIFY_CHECKS = (
    "polarization",
    "disconfirmation",
    "confirmation",
    "reaction",
    "one_sided_updating",
    "ordered_gap_contraction",
)
VERIFY_PAIRWISE_CHECKS = 3
VERIFY_THETA_COST_POINTS = 9

SIMULATE_PATTERNS = ("PB", "CB", "DB", "UR", "OR")
#: A correct simulator misses this many analytic standard errors with
#: probability 6e-7 per row, so a failed run points at the program.
SIMULATE_MAX_SE = 5.0
SETS_COSTS = "0.05,0.1,0.2"

SIZES = {
    "verify-grid": {
        "full": {"grid": 61},
        "tiny": {"grid": 7},
    },
    "sets-sweep": {
        "full": {"grid": 201, "sha256": "6b028b0c1ca3724e8e9e04000409d9207a7321243cd088313ad14c405b4dde59"},
        "tiny": {"grid": 9, "sha256": "1c785154067d327e63004451d9b63e6906a225b3a7a7b22d3093b8a71a469d45"},
    },
    "wtp-sweep": {
        "full": {"grid": 100001, "sha256": "b6b893e7bf6d3a8d6988957adb2df336a54b47dd4de5eeca9a898e7104bdc1b7"},
        "tiny": {"grid": 101, "sha256": "a63800661d47b4f6021314ca89dbee34f161c091e51ebc4d24b4f5bae7ac0815"},
    },
    "point-queries": {
        "full": {"draws": 10_000_000},
        "tiny": {"draws": 1000},
    },
}
#: ``partition`` and ``polarize`` print the reference scenario, whatever the seed.
POINT_QUERY_SHA256 = {
    "partition": "c5e1a6ae9c782488ff527c2d32933de6caf0cb80f4071caa0846d02eae18e38b",
    "polarize": "4cf2cfd35af52ca984dac122805693c8934e842ebad0f29e5e2856062c23d699",
}


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """What one CLI invocation returned."""

    args: tuple[str, ...]
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of its output.

    ``check(outcome, memo)`` returns why the output is wrong, or None.  ``memo``
    lives for one benchmark run, so checks can compare reruns.
    """

    args: tuple[str, ...]
    check: Callable[[Outcome, dict], str | None]
    items: int = 0  # work items the invocation does, the unit of items_per_s


@dataclass(frozen=True)
class Round:
    calls: list[Call]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[dict, int, Path], Round]  # (size, seed, work dir) -> Round
    layers: tuple[str, ...]  # layers the traced run must see doing work
    sizes: dict  # "full" and "tiny" -> size parameters

    def round(self, size: str, seed: int, work: Path) -> Round:
        return self.build(self.sizes[size], seed, work)


def _exit_zero(outcome: Outcome) -> str | None:
    if outcome.code != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {outcome.code}: {last[0]}"
    return None


def _check_verify(outcome: Outcome, memo: dict) -> str | None:
    if failure := _exit_zero(outcome):
        return failure
    lines = outcome.stdout.splitlines()
    missing = [check for check in VERIFY_CHECKS if f"{check}: ok" not in lines]
    if missing:
        return f"checks not ok: {', '.join(missing)}"
    if not lines or not lines[-1].startswith("verification passed"):
        return "no 'verification passed' line"
    not_ok = [line for line in lines[:-1] if not line.endswith("ok")]
    return f"lines not ok: {not_ok}" if not_ok else None


def _check_file(path: Path, digest: str) -> Callable[[Outcome, dict], str | None]:
    def check(outcome: Outcome, memo: dict) -> str | None:
        if failure := _exit_zero(outcome):
            return failure
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no output file: {exc}"
        finally:
            path.unlink(missing_ok=True)
        actual = sha256_hex(data)
        return None if actual == digest else f"{path.name}: sha256 {actual} != {digest}"

    return check


def _check_stdout(digest: str) -> Callable[[Outcome, dict], str | None]:
    def check(outcome: Outcome, memo: dict) -> str | None:
        if failure := _exit_zero(outcome):
            return failure
        actual = sha256_hex(outcome.stdout.encode("utf-8"))
        return None if actual == digest else f"stdout sha256 {actual} != {digest}"

    return check


def _check_example(outcome: Outcome, memo: dict) -> str | None:
    if failure := _exit_zero(outcome):
        return failure
    if "all reference checks passed" not in outcome.stdout.splitlines():
        return "reference checks did not pass"
    return None


def _check_simulate(pattern: str, draws: int, seed: int):
    def check(outcome: Outcome, memo: dict) -> str | None:
        if failure := _exit_zero(outcome):
            return failure
        rows = list(csv.DictReader(io.StringIO(outcome.stdout)))
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        if (row["pattern"], row["draws"], row["seed"]) != (pattern, str(draws), str(seed)):
            return f"row is for {row['pattern']}, {row['draws']} draws, seed {row['seed']}"
        frequency, analytic = float(row["frequency"]), float(row["analytic"])
        if analytic in (0.0, 1.0):
            if frequency != analytic:
                return f"{pattern}: frequency {frequency} but analytic {analytic}"
        else:
            se = math.sqrt(analytic * (1.0 - analytic) / draws)
            if abs(frequency - analytic) > SIMULATE_MAX_SE * se:
                return f"{pattern}: frequency {frequency} vs analytic {analytic} (se {se:.3g})"
        if row["within_3se"] != "true":
            memo["within_3se_misses"] = memo.get("within_3se_misses", 0) + 1
        first = memo.setdefault(("simulate", pattern), row["frequency"])
        if row["frequency"] != first:
            return f"{pattern}: rerun with seed {seed} gave {row['frequency']}, first {first}"
        return None

    return check


def _seeded(seed: int, *args: str) -> tuple[str, ...]:
    return (*args, "--seed", str(seed))


def _verify_grid(size: dict, seed: int, work: Path) -> Round:
    grid = size["grid"]
    pairs = grid * (grid - 1) // 2
    items = VERIFY_PAIRWISE_CHECKS * VERIFY_THETA_COST_POINTS * pairs
    return Round([Call(_seeded(seed, "verify", "--grid", str(grid)), _check_verify, items)])


def _sets_sweep(size: dict, seed: int, work: Path) -> Round:
    grid, out = size["grid"], work / "sets.csv"
    args = _seeded(seed, "sets", "--grid", str(grid), "--costs", SETS_COSTS, "--out", str(out))
    rows = len(SETS_COSTS.split(",")) * grid * (grid + 1) // 2
    return Round([Call(args, _check_file(out, size["sha256"]), rows)])


def _wtp_sweep(size: dict, seed: int, work: Path) -> Round:
    grid, out = size["grid"], work / "wtp.json"
    args = _seeded(seed, "wtp", "--grid", str(grid), "--format", "json", "--out", str(out))
    return Round([Call(args, _check_file(out, size["sha256"]), grid)])


def _point_queries(size: dict, seed: int, work: Path) -> Round:
    draws = size["draws"]
    calls = [
        Call(_seeded(seed, "example"), _check_example),
        Call(_seeded(seed, "polarize"), _check_stdout(POINT_QUERY_SHA256["polarize"])),
        Call(_seeded(seed, "partition"), _check_stdout(POINT_QUERY_SHA256["partition"])),
    ]
    for pattern in SIMULATE_PATTERNS:
        args = _seeded(seed, "simulate", "--pattern", pattern, "--draws", str(draws))
        calls.append(Call(args, _check_simulate(pattern, draws, seed), draws))
    return Round(calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-grid",
            "O(n^2) prior pairs through oracle, patterns, incentives and model with "
            "heavy per-prior reuse and tiny output: where an array-native layer shows",
            _verify_grid,
            ("model", "incentives", "sets", "patterns", "oracle", "cli"),
            SIZES["verify-grid"],
        ),
        Workload(
            "sets-sweep",
            "the same per-prior reuse through sets and incentives, plus a large CSV "
            "render in config; patterns and the grid oracle do no work",
            _sets_sweep,
            ("model", "incentives", "sets", "config", "cli"),
            SIZES["sets-sweep"],
        ),
        Workload(
            "wtp-sweep",
            "one willingness_to_pay call per distinct prior, so no reuse, and the only "
            "JSON render: a cache that helps the grids and costs here shows here",
            _wtp_sweep,
            ("model", "incentives", "config", "cli"),
            SIZES["wtp-sweep"],
        ),
        Workload(
            "point-queries",
            "short interactive commands: mostly start-up plus numpy Monte Carlo, no "
            "grid loops, so import-time or sampling changes show and grid ones do not",
            _point_queries,
            ("model", "incentives", "sets", "patterns", "oracle", "config", "cli"),
            SIZES["point-queries"],
        ),
    )
}
