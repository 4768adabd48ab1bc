"""Command-line interface: sweeps, the worked example, pair reports, verification.

Subcommands
-----------
wtp        willingness-to-pay of both first-component values over a prior grid
partition  the eight case intervals implied by the precisions
sets       pairwise acquisition-asymmetry memberships over a prior-pair grid
example    replay the built-in worked example and check its reference values
polarize   full polarization report for one pair of priors
simulate   seeded Monte Carlo frequency of a belief pattern vs its closed form
verify     grid checks plus invariant and simulation suites

Exit codes: 0 success, 1 configuration or usage error, 2 verification
violations (including worked-example mismatches).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from dataclasses import fields, replace
from functools import partial
from itertools import repeat

import numpy as np

from . import __version__
from .config import (
    DEFAULT_CONFIG,
    RunConfig,
    load_config,
    parse_setting,
    render_table,
)
from .errors import ConfigError, ModelError
from .incentives import (
    _case,
    _willingness_rows,
    case_interval,
    max_willingness_to_pay,
    willingness_to_pay,
)
from .model import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    InformationStructure,
    Signal,
    check_count,
    _marginal,
    _posterior,
    posterior_after_both,
    posterior_after_first,
)
from .oracle import (
    ALL_CHECKS,
    DEFAULT_COSTS,
    DEFAULT_THETAS,
    PATTERN_IDS,
    _enumerated_willingness,
    default_prior_grid,
    grid_theorem_check,
    mc_pattern_frequency,
    pattern_probability,
)
from .patterns import (
    PolarizationFeasibility,
    confirmation_report,
    pairwise_outcome,
    polarization_feasible,
    reaction_report,
)
from .sets import PairClass, b_memberships, inversion_thresholds, v_memberships

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2

#: How far ``example`` lets a quantity sit from its two-decimal reference value:
#: half a unit of the second decimal.
EXAMPLE_TOLERANCE = 0.005
#: How far ``verify`` lets the closed-form willingness to pay sit from the enumeration.
VOI_TOLERANCE = 1e-10

#: The worked example's reference values at ``DEFAULT_CONFIG``: quantities
#: rounded to two decimals, checked within ``EXAMPLE_TOLERANCE``, then exact verdicts.
REFERENCE_CHECKS = (
    ("posterior_high_after_alpha", 0.78),
    ("posterior_low_after_alpha", 0.39),
    ("wtp_high_alpha", 0.02),
    ("wtp_low_alpha", 0.19),
    ("posterior_low_after_alpha_beta", 0.14),
    ("posterior_high_after_alpha_alpha", 0.93),
    ("wtp_high_beta", 0.19),
    ("wtp_low_beta", 0.02),
    ("polarized_alpha_beta", True),
    ("confirmatory_high_alpha_beta", True),
    ("underreaction_high_alpha_alpha", True),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # verification violations here, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _common_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="run configuration file")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="table output format"
    )
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    override = parser.add_argument_group(
        "parameter overrides", "each flag takes what its config key takes"
    )
    for field in fields(RunConfig):
        # SUPPRESS leaves a flag that was not given out of the namespace.
        override.add_argument(
            "--" + field.name.replace("_", "-"),
            type=partial(_parse_flag, field.name),
            default=argparse.SUPPRESS,
        )


def _parse_flag(key: str, text: str):
    """An override flag's value, by the config file's rule for ``key``."""
    try:
        return parse_setting(key, text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _draw_count(text: str) -> int:
    """``--draws``, by the sampler's rule, so a bad count fails before any command runs."""
    try:
        return check_count(int(text), "draws", 1)
    except ValueError:  # int's, or check_count's ParameterError
        raise argparse.ArgumentTypeError(f"draws must be an integer >= 1, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secondlook", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"secondlook {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("wtp", "willingness-to-pay sweep over a prior grid"),
        ("partition", "the eight case intervals"),
        ("sets", "pairwise B/V membership sweep"),
        ("example", "replay and check the built-in worked example"),
        ("polarize", "polarization report for a pair of priors"),
        ("simulate", "Monte Carlo frequency of a belief pattern"),
        ("verify", "run the verification suites"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _common_flags(cmd)
        if name == "simulate":
            cmd.add_argument(
                "--pattern",
                default="PB",
                choices=PATTERN_IDS,
                help="belief pattern to estimate",
            )
        if name in ("simulate", "verify"):
            cmd.add_argument(
                "--draws", type=_draw_count, default=100_000, help="Monte Carlo sample size"
            )
    return parser


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    given = vars(args)
    overrides = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
    if overrides:
        config = replace(config, **overrides).validate("<overrides>")
    return config


def _open_output(path: str):
    """Open the ``--out`` file before the command computes, so a bad path fails at once.

    It is opened to append, not truncated: a run that fails before
    :func:`_emit` leaves an existing file's bytes as they were.
    """
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", source=path) from exc


def _emit(text: str, args) -> None:
    handle = args.output
    if handle is None:
        sys.stdout.write(text)
        return
    try:
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # a device cannot truncate
            handle.truncate(0)
        handle.write(text)
        handle.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", source=args.out) from exc


def cmd_wtp(config: RunConfig, args) -> int:
    info, payoffs = config.info(), config.payoffs()
    row = np.linspace(0.0, 1.0, config.grid)
    grid = row.tolist()
    wtp_alpha, wtp_beta = _willingness_rows(grid, info, payoffs)
    table = {
        "p": grid,
        "wtp_alpha": wtp_alpha,
        "wtp_beta": wtp_beta,
        "case_alpha": _case(row, info, ALPHA).tolist(),
        "case_beta": _case(row, info, BETA).tolist(),
    }
    _emit(render_table(table, args.format), args)
    return EXIT_OK


def cmd_partition(config: RunConfig, args) -> int:
    info = config.info()
    cases = range(1, 9)
    intervals = [case_interval(case, info) for case in cases]
    table = {
        "case": list(cases),
        "first_component": ["alpha" if case <= 4 else "beta" for case in cases],
        "lower": [lower for lower, _ in intervals],
        "upper": [upper for _, upper in intervals],
    }
    _emit(render_table(table, args.format), args)
    return EXIT_OK


def cmd_sets(config: RunConfig, args) -> int:
    info, payoffs = config.info(), config.payoffs()
    grid = np.linspace(0.0, 1.0, config.grid).tolist()
    # Each prior's willingness, and each low prior's row of all priors from it
    # on with its V memberships, once per run; tolist() keeps cells Python bools.
    wtp = _willingness_rows(grid, info, payoffs)
    lows = list(zip(*wtp))
    alpha, beta = np.array(wtp)
    highs = [(alpha[i:], beta[i:]) for i in range(len(grid))]
    v_rows = [v_memberships(low, high) for low, high in zip(lows, highs)]
    names = ["p_low", "p_high", "cost"] + [f.name.removeprefix("in_") for f in fields(PairClass)]
    table = {name: [] for name in names}
    for cost in config.cost_list():
        for i, p_low in enumerate(grid):
            members = b_memberships(lows[i], highs[i], cost) + v_rows[i]
            width = len(grid) - i
            parts = [repeat(p_low, width), grid[i:], repeat(cost, width)]
            parts += (m.tolist() for m in members)
            for column, part in zip(table.values(), parts):
                column.extend(part)
    _emit(render_table(table, args.format), args)
    return EXIT_OK


def cmd_example(config: RunConfig, args) -> int:
    """Replay the worked example; check reference values when parameters match."""
    p_low, p_high = _prior_pair(config, "the worked example")
    info, payoffs = config.info(), config.payoffs()
    cost = config.cost

    outcome_ab = pairwise_outcome(p_low, p_high, info, payoffs, cost, Signal(ALPHA, BETA))
    outcome_ba = pairwise_outcome(p_low, p_high, info, payoffs, cost, Signal(BETA, ALPHA))
    reaction_aa = reaction_report(p_high, info, payoffs, cost, Signal(ALPHA, ALPHA))
    values = {
        "posterior_high_after_alpha": posterior_after_first(p_high, info, ALPHA),
        "posterior_low_after_alpha": posterior_after_first(p_low, info, ALPHA),
        "wtp_high_alpha": willingness_to_pay(p_high, info, payoffs, ALPHA),
        "wtp_low_alpha": willingness_to_pay(p_low, info, payoffs, ALPHA),
        "posterior_low_after_alpha_beta": posterior_after_both(p_low, info, ALPHA, BETA),
        "posterior_high_after_alpha_alpha": reaction_aa.full_posterior,
        "wtp_high_beta": willingness_to_pay(p_high, info, payoffs, BETA),
        "wtp_low_beta": willingness_to_pay(p_low, info, payoffs, BETA),
        "polarized_alpha_beta": outcome_ab.polarized,
        "confirmatory_high_alpha_beta": confirmation_report(
            p_high, info, payoffs, cost, Signal(ALPHA, BETA)
        ).confirmatory,
        "underreaction_high_alpha_alpha": reaction_aa.underreaction,
    }
    reference_mode = all(
        getattr(config, name) == getattr(DEFAULT_CONFIG, name)
        for name in ("theta1", "theta2", "u_correct", "u_wrong", "cost", "priors")
    )

    lines = []
    lines.append(f"worked example: priors ({p_low}, {p_high}), "
                 f"precisions ({info.theta1}, {info.theta2}), cost {cost}")
    lines.append("")
    lines.append("after first component = alpha:")
    low_ab, high_ab = outcome_ab.acquisitions
    for tag, prior, action in (("high", p_high, high_ab), ("low", p_low, low_ab)):
        post, wtp = values[f"posterior_{tag}_after_alpha"], values[f"wtp_{tag}_alpha"]
        lines.append(
            f"  {tag} prior {prior:.4g}: posterior {post:.4f}, "
            f"willingness to pay {wtp:.4f}, {action.value}s"
        )
    lines.append(
        f"  full posterior after (alpha, beta) at the low prior: "
        f"{values['posterior_low_after_alpha_beta']:.4f}"
    )
    lines.append(
        f"  divergence {outcome_ab.divergence:.4f}, inversion {outcome_ab.inversion:.4f}, "
        f"polarized: {outcome_ab.polarized}"
    )
    lines.append("")
    lines.append("after first component = beta (willingness swaps):")
    lines.append(
        f"  high prior {values['wtp_high_beta']:.4f}, "
        f"low prior {values['wtp_low_beta']:.4f}"
    )
    low_ba, high_ba = outcome_ba.acquisitions
    for tag, action in (("high", high_ba), ("low", low_ba)):
        lines.append(f"  {tag} prior {action.value}s after beta")
    lines.append("")
    lines.append(
        f"high prior at signal (alpha, beta): confirmatory pattern = "
        f"{values['confirmatory_high_alpha_beta']}"
    )
    lines.append(
        f"high prior at signal (alpha, alpha): realized belief {reaction_aa.realized:.4f}, "
        f"full posterior {values['posterior_high_after_alpha_alpha']:.4f}; "
        f"underreaction = {values['underreaction_high_alpha_alpha']}"
    )
    lines.append("")

    failures = 0
    if reference_mode:
        lines.append(f"reference checks (tolerance {EXAMPLE_TOLERANCE:g}):")
        for name, expected in REFERENCE_CHECKS:
            actual = values[name]
            if isinstance(expected, bool):
                ok, shown = actual == expected, f"{actual} vs {expected}"
            else:
                ok = abs(actual - expected) <= EXAMPLE_TOLERANCE
                shown = f"{actual:.4f} vs {expected:.2f}"
            failures += 0 if ok else 1
            lines.append(f"  {'ok  ' if ok else 'FAIL'} {name}: {shown}")
        lines.append("")
        lines.append(
            "all reference checks passed" if failures == 0 else f"{failures} check(s) FAILED"
        )
    else:
        lines.append("non-reference parameters: reference checks skipped")

    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if failures == 0 else EXIT_VIOLATIONS


def _subjective_prior(config: RunConfig, command: str) -> float:
    if config.subjective_p is None:
        raise ConfigError(
            f"the {command} command needs subjective_p; the subjective prior is "
            "a free input and is never defaulted"
        )
    return config.subjective_p


def _prior_pair(config: RunConfig, user: str) -> tuple[float, float]:
    if len(config.priors) != 2:
        raise ConfigError(f"{user} needs two priors (low, high)")
    return config.priors


def cmd_polarize(config: RunConfig, args) -> int:
    p_low, p_high = _prior_pair(config, "the polarize command")
    subjective = _subjective_prior(config, "polarize")
    info, payoffs = config.info(), config.payoffs()
    cost = config.cost
    feas = polarization_feasible(p_low, p_high, info, payoffs, cost)
    # Over every route, so it is the probability of the rows marked polarized.
    probability = pattern_probability("PB", subjective, p_low, info, payoffs, cost, p_j=p_high)
    outcomes = [
        pairwise_outcome(p_low, p_high, info, payoffs, cost, signal) for signal in ALL_SIGNALS
    ]
    rows = len(outcomes)
    table = {
        "sigma1": [signal.first.value for signal in ALL_SIGNALS],
        "sigma2": [signal.second.value for signal in ALL_SIGNALS],
        "divergence": [outcome.divergence for outcome in outcomes],
        "inversion": [outcome.inversion for outcome in outcomes],
        "polarized": [outcome.polarized for outcome in outcomes],
        "realized_low": [outcome.realized_posteriors[0] for outcome in outcomes],
        "realized_high": [outcome.realized_posteriors[1] for outcome in outcomes],
        "action_low": [outcome.acquisitions[0].value for outcome in outcomes],
        "action_high": [outcome.acquisitions[1].value for outcome in outcomes],
    }
    for field in fields(PolarizationFeasibility):
        table[field.name] = [getattr(feas, field.name)] * rows
    table["probability"] = [probability] * rows
    _emit(render_table(table, args.format), args)
    return EXIT_OK


def _simulated_pattern(config: RunConfig, pattern: str, subjective: float, draws: int):
    """Seeded Monte Carlo estimate of a pattern and its exact enumeration.

    Both read the signal law :mod:`secondlook.oracle` assigns the pattern.
    """
    p_j = _prior_pair(config, "pattern 'PB'")[1] if pattern == "PB" else None
    model = (config.priors[0], config.info(), config.payoffs(), config.cost)
    estimate = mc_pattern_frequency(pattern, subjective, *model, draws, config.seed, p_j=p_j)
    return estimate, pattern_probability(pattern, subjective, *model, p_j=p_j)


def cmd_simulate(config: RunConfig, args) -> int:
    pattern = args.pattern
    subjective = _subjective_prior(config, "simulate")
    estimate, analytic = _simulated_pattern(config, pattern, subjective, args.draws)
    table = {
        "pattern": [pattern],
        "draws": [estimate.draws],
        "seed": [estimate.seed],
        "frequency": [estimate.frequency],
        "standard_error": [estimate.standard_error],
        "analytic": [analytic],
        "abs_error": [abs(estimate.frequency - analytic)],
        "within_3se": [estimate.within(analytic)],
    }
    _emit(render_table(table, args.format), args)
    return EXIT_OK


def _status(violations: int) -> str:
    return "ok" if violations == 0 else f"{violations} violations"


def _verify_invariants(config: RunConfig):
    """Sampled invariant suites: yield each suite's label and violation count.

    The suites share one seeded rng, so they must run in this order.
    """
    info, payoffs = config.info(), config.payoffs()
    rng = np.random.default_rng(config.seed)

    # Updating identities on one row of random priors, through the updating
    # step and the marginal the scalar functions apply to one prior.  The
    # second link of the chain is a single-component update at the second
    # component's precision.
    second_step = InformationStructure(info.theta2, info.theta2)
    p = rng.random(2000)
    chained = _posterior(_posterior(p, info, ALPHA), second_step, BETA)
    direct = _posterior(p, info, ALPHA, BETA)
    mart = sum(_marginal(p, info.theta1, s) * _posterior(p, info, s) for s in (ALPHA, BETA))
    broken = (abs(chained - direct) > 1e-12, abs(mart - p) > 1e-12)
    yield "updating identities", sum(int(np.count_nonzero(x)) for x in broken)

    # Closed-form willingness to pay against the grid checks' enumerated rows.
    grid = default_prior_grid(101)
    closed = np.array(_willingness_rows(grid.tolist(), info, payoffs))
    gaps = abs(closed - _enumerated_willingness(grid, info, payoffs))
    yield "value-of-information agreement", int(np.count_nonzero(gaps > VOI_TOLERANCE))

    # Acquisition-interval endpoints invert the cost function.
    inv_bad = 0
    ceiling = max_willingness_to_pay(info, payoffs)
    for _ in range(100):
        c = float(rng.uniform(0.0, ceiling))
        for s1 in (ALPHA, BETA):
            for q in inversion_thresholds(c, info, payoffs, s1):
                if abs(willingness_to_pay(q, info, payoffs, s1) - c) > 1e-9:
                    inv_bad += 1
    yield "threshold inversion", inv_bad

    # One-sided acquisition at a cost implies the strict willingness ordering.
    # Each row holds one pair's two priors and its cost draw: the doubles of a
    # random(2) then a uniform(0, ceiling), which numpy draws as 0 + ceiling * u.
    draws = rng.random((2000, 3))
    low, high = (
        np.array(_willingness_rows(column, info, payoffs))
        for column in np.sort(draws[:, :2], axis=1).T.tolist()
    )
    b_sets = b_memberships(low, high, ceiling * draws[:, 2])
    broken = np.any([b & ~v for b, v in zip(b_sets, v_memberships(low, high))], axis=0)
    yield "one-sided acquisition implies willingness ordering", int(broken.sum())


def cmd_verify(config: RunConfig, args) -> int:
    started = time.perf_counter()
    lines = []
    violations = []
    total = 0
    thetas = list(DEFAULT_THETAS)
    if (config.theta1, config.theta2) not in thetas:
        thetas.append((config.theta1, config.theta2))
    priors = default_prior_grid(config.grid)
    costs = config.costs if config.costs is not None else DEFAULT_COSTS
    for check in ALL_CHECKS:
        found = grid_theorem_check(
            check, priors=priors, thetas=thetas, costs=costs, payoffs=config.payoffs()
        )
        violations.extend(found)
        total += len(found)
        lines.append(f"{check}: {_status(len(found))}")
    for label, bad in _verify_invariants(config):
        total += bad
        lines.append(f"{label}: {_status(bad)}")

    # Monte Carlo section: seeded, deterministic for a fixed seed.
    if len(config.priors) == 2 and config.subjective_p is not None:
        estimate, analytic = _simulated_pattern(config, "PB", config.subjective_p, args.draws)
        ok = estimate.within(analytic, 4.0)
        total += 0 if ok else 1
        lines.append(
            f"simulation agreement (PB, {args.draws} draws, seed {config.seed}): "
            f"frequency {estimate.frequency:.6f} vs analytic {analytic:.6f} "
            f"-> {'ok' if ok else 'VIOLATION'}"
        )

    elapsed = time.perf_counter() - started
    lines.append(f"verification {'passed' if total == 0 else 'FAILED'} "
                 f"({total} violations, {elapsed:.1f}s)")
    for violation in violations[:20]:
        lines.append(f"  {violation}")
    if len(violations) > 20:
        lines.append(f"  ... and {len(violations) - 20} more")
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if total == 0 else EXIT_VIOLATIONS


_COMMANDS = {
    "wtp": cmd_wtp,
    "partition": cmd_partition,
    "sets": cmd_sets,
    "example": cmd_example,
    "polarize": cmd_polarize,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
        args.output = _open_output(args.out) if args.out else None
        try:
            return _COMMANDS[args.command](config, args)
        finally:
            if args.output is not None:
                args.output.close()
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
