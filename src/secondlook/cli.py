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
import sys
import time
from dataclasses import fields, replace
from itertools import repeat

import numpy as np

from . import __version__
from .config import (
    DEFAULT_CONFIG,
    RunConfig,
    load_config,
    render_table,
)
from .errors import ConfigError, ModelError
from .incentives import (
    case_interval,
    classify_case,
    max_willingness_to_pay,
    willingness_to_pay,
)
from .model import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    InformationStructure,
    Signal,
    marginal_first,
    posterior_after_both,
    posterior_after_first,
)
from .oracle import (
    ALL_CHECKS,
    DEFAULT_COSTS,
    DEFAULT_THETAS,
    PATTERN_IDS,
    brute_force_voi,
    default_prior_grid,
    grid_theorem_check,
    mc_pattern_frequency,
    pattern_probability,
)
from .patterns import (
    confirmation_report,
    pairwise_outcome,
    polarization_feasible,
    reaction_report,
)
from .sets import PairClass, b_memberships, classify_pair, inversion_thresholds, v_memberships

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2

#: The worked example's reference values at ``DEFAULT_CONFIG``: quantities
#: rounded to two decimals, checked within the tolerance, then exact verdicts.
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
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="table output format"
    )
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    parser.add_argument(
        "--tolerance",
        type=float,
        help="override the command's default numeric tolerance",
    )
    override = parser.add_argument_group("parameter overrides")
    override.add_argument("--theta1", type=float)
    override.add_argument("--theta2", type=float)
    override.add_argument("--u-correct", type=float, dest="u_correct")
    override.add_argument("--u-wrong", type=float, dest="u_wrong")
    override.add_argument("--cost", type=float)
    override.add_argument("--priors", type=_float_list)
    override.add_argument("--costs", type=_float_list)
    override.add_argument("--subjective-p", type=float, dest="subjective_p")
    override.add_argument("--grid", type=int)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


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
                "--draws", type=int, default=100_000, help="Monte Carlo sample size"
            )
    return parser


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    overrides = {}
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    if overrides:
        config = replace(config, **overrides).validate("<overrides>")
    return config


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_wtp(config: RunConfig, args) -> int:
    info, payoffs = config.info(), config.payoffs()
    columns = ["p", "wtp_alpha", "wtp_beta", "case_alpha", "case_beta"]
    rows = [
        (
            p,
            willingness_to_pay(p, info, payoffs, ALPHA),
            willingness_to_pay(p, info, payoffs, BETA),
            classify_case(p, info, ALPHA),
            classify_case(p, info, BETA),
        )
        for p in np.linspace(0.0, 1.0, config.grid).tolist()
    ]
    _emit(render_table(columns, rows, args.format), args)
    return EXIT_OK


def cmd_partition(config: RunConfig, args) -> int:
    info = config.info()
    columns = ["case", "first_component", "lower", "upper"]
    rows = []
    for case in range(1, 9):
        lower, upper = case_interval(case, info)
        rows.append((case, "alpha" if case <= 4 else "beta", lower, upper))
    _emit(render_table(columns, rows, args.format), args)
    return EXIT_OK


def cmd_sets(config: RunConfig, args) -> int:
    info, payoffs = config.info(), config.payoffs()
    grid = np.linspace(0.0, 1.0, config.grid).tolist()
    # Each prior's willingness, and each low prior's row of all priors from it
    # on with its V memberships, once per run; tolist() keeps cells Python bools.
    wtp = [tuple(willingness_to_pay(p, info, payoffs, s1) for s1 in (ALPHA, BETA)) for p in grid]
    alpha, beta = np.array(wtp).T
    highs = [(alpha[i:], beta[i:]) for i in range(len(grid))]
    v_rows = [v_memberships(low, high) for low, high in zip(wtp, highs)]
    columns = ["p_low", "p_high", "cost"]
    columns += [f.name.removeprefix("in_") for f in fields(PairClass)]
    rows = []
    for cost in config.cost_list():
        for i, p_low in enumerate(grid):
            members = b_memberships(wtp[i], highs[i], cost) + v_rows[i]
            rows.extend(zip(repeat(p_low), grid[i:], repeat(cost), *(m.tolist() for m in members)))
    _emit(render_table(columns, rows, args.format), args)
    return EXIT_OK


def cmd_example(config: RunConfig, args) -> int:
    """Replay the worked example; check reference values when parameters match."""
    if len(config.priors) != 2:
        raise ConfigError("the worked example needs two priors (low, high)")
    info, payoffs = config.info(), config.payoffs()
    cost = config.cost
    p_low, p_high = config.priors
    tolerance = args.tolerance if args.tolerance is not None else 0.005

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
        lines.append(f"reference checks (tolerance {tolerance:g}):")
        for name, expected in REFERENCE_CHECKS:
            actual = values[name]
            if isinstance(expected, bool):
                ok, shown = actual == expected, f"{actual} vs {expected}"
            else:
                ok, shown = abs(actual - expected) <= tolerance, f"{actual:.4f} vs {expected:.2f}"
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


def cmd_polarize(config: RunConfig, args) -> int:
    if len(config.priors) != 2:
        raise ConfigError("the polarize command needs two priors (low, high)")
    if config.subjective_p is None:
        raise ConfigError(
            "the polarize command needs subjective_p; the subjective prior is "
            "a free input and is never defaulted"
        )
    info, payoffs = config.info(), config.payoffs()
    cost = config.cost
    p_low, p_high = config.priors
    feas = polarization_feasible(p_low, p_high, info, payoffs, cost)
    # Over every route, so it is the probability of the rows marked polarized.
    probability = pattern_probability(
        "PB", config.subjective_p, p_low, info, payoffs, cost, p_j=p_high
    )
    columns = [
        "sigma1",
        "sigma2",
        "divergence",
        "inversion",
        "polarized",
        "realized_low",
        "realized_high",
        "action_low",
        "action_high",
        "feasible",
        "via_alpha",
        "via_beta",
        "via_alpha_swap",
        "via_beta_swap",
        "probability",
    ]
    rows = []
    for signal in ALL_SIGNALS:
        outcome = pairwise_outcome(p_low, p_high, info, payoffs, cost, signal)
        rows.append(
            (
                signal.first.value,
                signal.second.value,
                outcome.divergence,
                outcome.inversion,
                outcome.polarized,
                *outcome.realized_posteriors,
                *(action.value for action in outcome.acquisitions),
                feas.feasible,
                feas.via_alpha,
                feas.via_beta,
                feas.via_alpha_swap,
                feas.via_beta_swap,
                probability,
            )
        )
    _emit(render_table(columns, rows, args.format), args)
    return EXIT_OK


def _simulated_pattern(config: RunConfig, pattern: str, subjective: float, draws: int):
    """Seeded Monte Carlo estimate of a pattern and its exact enumeration.

    Both read the signal law :mod:`secondlook.oracle` assigns the pattern.
    """
    p_j = None
    if pattern == "PB":
        if len(config.priors) != 2:
            raise ConfigError("pattern 'PB' needs two priors (low, high)")
        p_j = config.priors[1]
    model = (config.priors[0], config.info(), config.payoffs(), config.cost)
    estimate = mc_pattern_frequency(pattern, subjective, *model, draws, config.seed, p_j=p_j)
    return estimate, pattern_probability(pattern, subjective, *model, p_j=p_j)


def cmd_simulate(config: RunConfig, args) -> int:
    pattern = args.pattern
    subjective = config.subjective_p if config.subjective_p is not None else config.priors[0]
    estimate, analytic = _simulated_pattern(config, pattern, subjective, args.draws)
    columns = [
        "pattern",
        "draws",
        "seed",
        "frequency",
        "standard_error",
        "analytic",
        "abs_error",
        "within_3se",
    ]
    rows = [
        (
            pattern,
            estimate.draws,
            estimate.seed,
            estimate.frequency,
            estimate.standard_error,
            analytic,
            abs(estimate.frequency - analytic),
            estimate.within(analytic),
        )
    ]
    _emit(render_table(columns, rows, args.format), args)
    return EXIT_OK


def _status(violations: int) -> str:
    return "ok" if violations == 0 else f"{violations} violations"


def _verify_invariants(config: RunConfig, tolerance: float):
    """Sampled invariant suites: yield each suite's label and violation count.

    The suites share one seeded rng, so they must run in this order.
    """
    info, payoffs = config.info(), config.payoffs()
    rng = np.random.default_rng(config.seed)
    bad = 0

    # Updating identities on random inputs.  The second link of the chain is a
    # single-component update at the second component's precision.
    second_step = InformationStructure(info.theta2, info.theta2)
    for _ in range(2000):
        p = float(rng.random())
        chained = posterior_after_first(posterior_after_first(p, info, ALPHA), second_step, BETA)
        direct = posterior_after_both(p, info, ALPHA, BETA)
        if abs(chained - direct) > 1e-12:
            bad += 1
        mart = sum(
            marginal_first(p, info, s) * posterior_after_first(p, info, s)
            for s in (ALPHA, BETA)
        )
        if abs(mart - p) > 1e-12:
            bad += 1
    yield "updating identities", bad

    # Closed-form willingness to pay against the brute-force enumeration.
    gaps = (
        abs(willingness_to_pay(p, info, payoffs, s1) - brute_force_voi(p, info, payoffs, s1))
        for p in default_prior_grid(101).tolist()
        for s1 in (ALPHA, BETA)
    )
    yield "value-of-information agreement", sum(gap > tolerance for gap in gaps)

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
    pair_bad = 0
    for _ in range(2000):
        p_i, p_j = sorted(rng.random(2))
        c = float(rng.uniform(0.0, ceiling))
        pair = classify_pair(float(p_i), float(p_j), c, info, payoffs)
        implied = (
            (not pair.in_b_low_alpha or pair.in_v_low_alpha)
            and (not pair.in_b_high_beta or pair.in_v_high_beta)
            and (not pair.in_b_high_alpha or pair.in_v_high_alpha)
            and (not pair.in_b_low_beta or pair.in_v_low_beta)
        )
        if not implied:
            pair_bad += 1
    yield "one-sided acquisition implies willingness ordering", pair_bad


def cmd_verify(config: RunConfig, args) -> int:
    started = time.perf_counter()
    tolerance = args.tolerance if args.tolerance is not None else 1e-10
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
    for label, bad in _verify_invariants(config, tolerance):
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
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
