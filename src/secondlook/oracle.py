"""Ground-truth machinery: brute-force value of information, Monte Carlo, grid checks.

Nothing here consults the eight-case classification or the piecewise cost
formulas when producing reference values.  The value of information is
recomputed by enumerating every (state, second component) contingency and
taking expected-utility-optimal guesses branch by branch, so agreement with
:func:`secondlook.incentives.willingness_to_pay` is a genuine two-route
check rather than the same algebra twice.

The grid checkers replay the package's own predicate functions across prior,
precision, and cost grids and compare them against independently coded
characterizations (conditions on the signal realization, the cost, and the
relative precisions).  Grid points within a small band of a case boundary,
an inversion threshold, or an exact cost tie are skipped: there the floating
point sign of a strict inequality is not meaningful.  A ``wtp_offset``
lets tests deliberately break the characterization side to confirm the
checkers actually catch disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnknownPatternError
from .incentives import case_thresholds, willingness_to_pay
from .model import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    Signal,
    SignalComponentValue,
    StateOfWorld,
    check_probability,
    conditional_second,
    marginal_first,
    posterior_after_first,
    sample_signal_batch,
)
from .patterns import (
    confirmation_report,
    disconfirmation_report,
    pairwise_outcome,
    polarization_feasible,
    reaction_report,
)
from .sets import extreme_sets, inversion_thresholds

PATTERN_IDS = ("PB", "CB", "DB", "UR", "OR")

#: Checks of claims that hold; ``secondlook verify`` runs exactly these.
ALL_CHECKS = (
    "polarization",
    "disconfirmation",
    "confirmation",
    "reaction",
    "one_sided_updating",
    "ordered_gap_contraction",
)

#: Also accepted by :func:`grid_theorem_check`: the stricter absolute-gap
#: variant of the contraction claim, which is false in two ways.  With
#: ``theta2 > theta1`` crossing pairs polarize and widen the gap; with
#: ``theta2 < theta1`` both beliefs can move the same way and still drift
#: apart, unpolarized.  Kept as a diagnostic; it is expected to report
#: violations of both kinds.
EXTRA_CHECKS = ("mirrored_no_divergence",)


@dataclass(frozen=True)
class OutcomeEntry:
    """One (state, second component) contingency conditional on the first."""

    state: StateOfWorld
    second: SignalComponentValue
    joint: float
    utility_acquire: float
    utility_skip: float


@dataclass(frozen=True)
class OutcomeTable:
    """Full enumeration behind the acquire-versus-skip comparison."""

    entries: tuple[OutcomeEntry, ...]

    def __post_init__(self):
        total = sum(entry.joint for entry in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"joint probabilities sum to {total}, not 1")


def _interim(p: float, theta1: float, s1: SignalComponentValue) -> float:
    # Bayes on the first component from raw likelihoods, kept local so this
    # module does not depend on the updating helpers it is meant to check.
    like_a = theta1 if s1 is ALPHA else 1.0 - theta1
    like_b = 1.0 - like_a
    return like_a * p / (like_a * p + like_b * (1.0 - p))


def outcome_table(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> OutcomeTable:
    """Enumerate states and second-component values given the observed first.

    Each entry carries the joint probability of the contingency, the utility
    earned there under the acquire-then-guess-optimally plan (gross of the
    processing cost), and under the guess-now plan.
    """
    p = check_probability(p)
    q = _interim(p, info.theta1, s1)
    guess_skip_a = q >= 0.5
    # Branch-optimal guesses after each second-component value.
    branch_guess_a = {}
    for s2 in (ALPHA, BETA):
        prob_s2 = q * _like2(info, s2, StateOfWorld.A) + (1.0 - q) * _like2(
            info, s2, StateOfWorld.B
        )
        post = q * _like2(info, s2, StateOfWorld.A) / prob_s2
        branch_guess_a[s2] = post >= 0.5
    entries = []
    for state in (StateOfWorld.A, StateOfWorld.B):
        prob_state = q if state is StateOfWorld.A else 1.0 - q
        for s2 in (ALPHA, BETA):
            joint = prob_state * _like2(info, s2, state)
            correct_acquire = branch_guess_a[s2] == (state is StateOfWorld.A)
            correct_skip = guess_skip_a == (state is StateOfWorld.A)
            entries.append(
                OutcomeEntry(
                    state=state,
                    second=s2,
                    joint=joint,
                    utility_acquire=payoffs.u_correct
                    if correct_acquire
                    else payoffs.u_wrong,
                    utility_skip=payoffs.u_correct
                    if correct_skip
                    else payoffs.u_wrong,
                )
            )
    return OutcomeTable(entries=tuple(entries))


def _like2(
    info: InformationStructure, s2: SignalComponentValue, state: StateOfWorld
) -> float:
    matches = (s2 is ALPHA) == (state is StateOfWorld.A)
    return info.theta2 if matches else 1.0 - info.theta2


def brute_force_voi(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> float:
    """Expected-utility gain from observing the second component before guessing.

    Computed purely from the outcome enumeration; never negative.
    """
    table = outcome_table(p, info, payoffs, s1)
    gain = sum(e.joint * (e.utility_acquire - e.utility_skip) for e in table.entries)
    return max(0.0, gain)


@dataclass(frozen=True)
class MonteCarloEstimate:
    frequency: float
    standard_error: float
    draws: int
    seed: int

    def within(self, value: float, n_se: float = 3.0) -> bool:
        # The standard error of ``value`` itself: the estimate's own is zero
        # when there are no hits, which would reject any positive value.
        return abs(self.frequency - value) <= n_se * math.sqrt(
            value * (1.0 - value) / self.draws
        )


def _pattern_indicator(
    pattern: str,
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    signal: Signal,
    p_j: float | None,
) -> bool:
    if pattern == "PB":
        return pairwise_outcome(p, p_j, info, payoffs, cost, signal).polarized
    if pattern in ("CB", "DB"):
        report = confirmation_report(p, info, payoffs, cost, signal)
        return report.confirmatory if pattern == "CB" else report.disproving
    report = reaction_report(p, info, payoffs, cost, signal)
    return report.underreaction if pattern == "UR" else report.overreaction


def _check_pattern(pattern: str, p_j: float | None) -> None:
    if pattern not in PATTERN_IDS:
        raise UnknownPatternError(
            f"unknown pattern {pattern!r}; expected one of {', '.join(PATTERN_IDS)}"
        )
    if pattern == "PB" and p_j is None:
        raise ParameterError("pattern 'PB' needs the second prior p_j")


def pattern_probability(
    pattern: str,
    p_subjective: float,
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    p_j: float | None = None,
) -> float:
    """Exact probability of a pattern by enumerating the four signal values.

    Single-decision-maker patterns weight each signal by the state-coupled
    law: the first component's marginal times the second's probability given
    the first.  The pairwise polarization pattern instead multiplies the two
    components' unconditional marginals, matching the probability model of
    the closed form it mirrors (see ``polarization_probability``).
    """
    p_subjective = check_probability(p_subjective, "p_subjective")
    _check_pattern(pattern, p_j)
    total = 0.0
    for signal in ALL_SIGNALS:
        if pattern == "PB":
            w1 = marginal_first(p_subjective, info, signal.first)
            w2 = p_subjective * _like2(info, signal.second, StateOfWorld.A) + (
                1.0 - p_subjective
            ) * _like2(info, signal.second, StateOfWorld.B)
            weight = w1 * w2
        else:
            interim = posterior_after_first(p_subjective, info, signal.first)
            weight = marginal_first(p_subjective, info, signal.first) * (
                conditional_second(interim, info, signal.second)
            )
        if weight > 0.0 and _pattern_indicator(
            pattern, p, info, payoffs, cost, signal, p_j
        ):
            total += weight
    return total


def mc_pattern_frequency(
    pattern: str,
    p_subjective: float,
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    draws: int,
    seed: int,
    p_j: float | None = None,
) -> MonteCarloEstimate:
    """Seeded Monte Carlo frequency of a belief pattern.

    Signals are drawn under the subjective prior ``p_subjective`` and the
    deterministic predicate is evaluated per draw.  Sampling laws match
    :func:`pattern_probability`: the state-coupled process for single
    decision-maker patterns, independent component marginals for pairwise
    polarization.  Identical seeds give identical estimates bit for bit.
    """
    p_subjective = check_probability(p_subjective, "p_subjective")
    _check_pattern(pattern, p_j)
    if draws < 1:
        raise ParameterError(f"need at least one draw, got {draws}")
    rng = np.random.default_rng(seed)
    if pattern == "PB":
        prob1 = marginal_first(p_subjective, info, ALPHA)
        prob2 = p_subjective * info.theta2 + (1.0 - p_subjective) * (1.0 - info.theta2)
        first_a = rng.random(draws) < prob1
        second_a = rng.random(draws) < prob2
    else:
        _, first_a, second_a = sample_signal_batch(p_subjective, info, draws, rng)
    hits = 0
    for signal in ALL_SIGNALS:
        mask = (first_a == (signal.first is ALPHA)) & (
            second_a == (signal.second is ALPHA)
        )
        count = int(np.count_nonzero(mask))
        if count and _pattern_indicator(pattern, p, info, payoffs, cost, signal, p_j):
            hits += count
    freq = hits / draws
    return MonteCarloEstimate(
        frequency=freq,
        standard_error=math.sqrt(freq * (1.0 - freq) / draws),
        draws=draws,
        seed=seed,
    )


@dataclass(frozen=True)
class Violation:
    """One disagreement found by a grid check, with everything needed to replay it."""

    check: str
    params: tuple
    detail: str

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"[{self.check}] {rendered}: {self.detail}"


DEFAULT_THETAS = ((0.6, 0.8), (0.55, 0.9), (0.8, 0.6))
DEFAULT_COSTS = (0.05, 0.15, 0.25)
#: Offset keeping verification grids away from the degenerate priors 0 and 1.
GRID_MARGIN = 1e-7


def default_prior_grid(n: int = 101) -> np.ndarray:
    """Evenly spaced priors with the endpoints pulled just inside (0, 1)."""
    grid = np.linspace(0.0, 1.0, n)
    grid[0] = GRID_MARGIN
    grid[-1] = 1.0 - GRID_MARGIN
    return grid


def _critical_priors(
    info: InformationStructure, payoffs: PayoffStructure, cost: float
) -> list[float]:
    values = list(case_thresholds(info, ALPHA)) + list(case_thresholds(info, BETA))
    ceiling = payoffs.delta_u * (info.theta2 - 0.5)
    if 0.0 <= cost < ceiling:
        values += list(inversion_thresholds(cost, info, payoffs, ALPHA))
        values += list(inversion_thresholds(cost, info, payoffs, BETA))
    return values


def _excluded(p: float, critical: list[float], eps: float) -> bool:
    return any(abs(p - v) <= eps for v in critical)


def _cost_tied(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    eps: float,
) -> bool:
    return (
        abs(willingness_to_pay(p, info, payoffs, ALPHA) - cost) <= eps
        or abs(willingness_to_pay(p, info, payoffs, BETA) - cost) <= eps
    )


def grid_theorem_check(
    check: str,
    priors=None,
    thetas=DEFAULT_THETAS,
    costs=DEFAULT_COSTS,
    payoffs: PayoffStructure | None = None,
    boundary_eps: float = 1e-9,
    tol: float = 1e-12,
    wtp_offset: float = 0.0,
) -> list[Violation]:
    """Machine-check one of the package's equivalence or sign claims on a grid.

    Supported checks:

    ``polarization``
        pair feasibility at a cost holds iff some signal realization yields
        a polarized outcome;
    ``disconfirmation``
        the willingness/decision definitions match the characterization via
        the non-extreme set and the cost window;
    ``confirmation``
        the posterior-ordering definitions of confirmatory/disproving
        patterns match the signal-and-cost characterization;
    ``reaction``
        likewise for under-/over-reaction;
    ``one_sided_updating``
        two decision-makers taking the same acquisition action never update
        in opposite directions;
    ``ordered_gap_contraction``
        with a strictly more informative second component, the mirrored
        acquisition asymmetries (high prior alone acquiring after alpha,
        low alone after beta) never grow the signed ordered gap (high-prior
        belief minus low-prior belief) at the opposing-components signal:
        those pairs polarize only by crossing;
    ``mirrored_no_divergence``
        the stricter absolute-gap variant of the previous claim, with no
        precision restriction.  False in general, in two ways: with
        ``theta2 > theta1`` a crossing pair's absolute gap can widen (a
        polarization), and with ``theta2 < theta1`` both beliefs can move
        the same way while the gap widens (no polarization).  Available as
        a diagnostic; not part of :data:`ALL_CHECKS`.

    Returns an empty list when the claim holds everywhere on the grid.
    """
    if check not in ALL_CHECKS + EXTRA_CHECKS:
        raise ParameterError(
            f"unknown check {check!r}; expected one of {ALL_CHECKS + EXTRA_CHECKS}"
        )
    if priors is None:
        priors = default_prior_grid()
    if payoffs is None:
        payoffs = PayoffStructure(1.0, 0.0)
    violations: list[Violation] = []
    pairwise = check in (
        "polarization",
        "one_sided_updating",
        "ordered_gap_contraction",
        "mirrored_no_divergence",
    )
    for theta1, theta2 in thetas:
        info = InformationStructure(theta1, theta2)
        for cost in costs:
            critical = _critical_priors(info, payoffs, cost)
            keep = [
                p
                for p in priors
                if not _excluded(p, critical, boundary_eps)
                and not _cost_tied(p, info, payoffs, cost, boundary_eps)
            ]
            if pairwise:
                _check_pairwise(
                    check, keep, info, payoffs, cost, tol, wtp_offset, violations
                )
            else:
                _check_single(
                    check, keep, info, payoffs, cost, boundary_eps, wtp_offset, violations
                )
    return violations


def _char_feasible(
    p_i, p_j, info, payoffs, cost, wtp_offset
) -> bool:
    # Characterization side with an optional deliberate perturbation; with a
    # zero offset this is exactly the public feasibility predicate.
    if wtp_offset == 0.0:
        return polarization_feasible(p_i, p_j, info, payoffs, cost).feasible
    if not info.theta2 > info.theta1:
        return False
    wtp = lambda p, s1: willingness_to_pay(p, info, payoffs, s1) + wtp_offset
    via_alpha = wtp(p_i, ALPHA) > cost >= wtp(p_j, ALPHA)
    via_beta = wtp(p_j, BETA) > cost >= wtp(p_i, BETA)
    return via_alpha or via_beta


def _check_pairwise(check, keep, info, payoffs, cost, tol, wtp_offset, violations):
    base = (("theta1", info.theta1), ("theta2", info.theta2), ("cost", cost))
    for a, p_i in enumerate(keep):
        for p_j in keep[a + 1 :]:
            outcomes = {
                signal: pairwise_outcome(p_i, p_j, info, payoffs, cost, signal)
                for signal in ALL_SIGNALS
            }
            params = base + (("p_i", p_i), ("p_j", p_j))
            if check == "polarization":
                feasible = _char_feasible(p_i, p_j, info, payoffs, cost, wtp_offset)
                realized = any(o.polarized for o in outcomes.values())
                if feasible != realized:
                    violations.append(
                        Violation(
                            check,
                            params,
                            f"feasible={feasible} but realized={realized}",
                        )
                    )
            elif check == "one_sided_updating":
                for signal, outcome in outcomes.items():
                    same = outcome.acquisitions[0] is outcome.acquisitions[1]
                    if same and outcome.inversion < -tol:
                        violations.append(
                            Violation(
                                check,
                                params + (("signal", signal.label()),),
                                f"same action but inversion={outcome.inversion}",
                            )
                        )
            else:  # ordered_gap_contraction / mirrored_no_divergence
                wtp_i_a = willingness_to_pay(p_i, info, payoffs, ALPHA)
                wtp_j_a = willingness_to_pay(p_j, info, payoffs, ALPHA)
                wtp_i_b = willingness_to_pay(p_i, info, payoffs, BETA)
                wtp_j_b = willingness_to_pay(p_j, info, payoffs, BETA)
                mirrored = []
                if wtp_j_a > cost >= wtp_i_a:  # high prior alone acquires after alpha
                    mirrored.append(Signal(ALPHA, BETA))
                if wtp_i_b > cost >= wtp_j_b:  # low prior alone acquires after beta
                    mirrored.append(Signal(BETA, ALPHA))
                for signal in mirrored:
                    outcome = outcomes[signal]
                    if check == "ordered_gap_contraction":
                        if not info.theta2 > info.theta1:
                            continue
                        low, high = outcome.realized_posteriors
                        growth = (high - low) - (p_j - p_i)
                        if growth > tol:
                            violations.append(
                                Violation(
                                    check,
                                    params + (("signal", signal.label()),),
                                    f"ordered gap grew by {growth}",
                                )
                            )
                    elif outcome.divergence < -tol:
                        violations.append(
                            Violation(
                                check,
                                params + (("signal", signal.label()),),
                                f"absolute gap widened: divergence={outcome.divergence}",
                            )
                        )


def _check_single(check, keep, info, payoffs, cost, boundary_eps, wtp_offset, violations):
    base = (("theta1", info.theta1), ("theta2", info.theta2), ("cost", cost))
    theta_up = info.theta2 > info.theta1
    theta_down = info.theta2 < info.theta1
    sets = extreme_sets(info)
    for p in keep:
        params = base + (("p", p),)
        wtp_a = willingness_to_pay(p, info, payoffs, ALPHA) + wtp_offset
        wtp_b = willingness_to_pay(p, info, payoffs, BETA) + wtp_offset
        if check == "disconfirmation":
            report = disconfirmation_report(p, info, payoffs, cost)
            char_tendency = p != 0.5 and not sets.is_extreme(p)
            if p > 0.5:
                char_exhibits = wtp_b > cost > wtp_a
            elif p < 0.5:
                char_exhibits = wtp_a > cost > wtp_b
            else:
                char_exhibits = False
            if report.tendency != char_tendency:
                violations.append(
                    Violation(
                        check,
                        params,
                        f"tendency={report.tendency} vs characterization={char_tendency}",
                    )
                )
            if report.exhibits != char_exhibits:
                violations.append(
                    Violation(
                        check,
                        params,
                        f"exhibits={report.exhibits} vs characterization={char_exhibits}",
                    )
                )
            continue
        for signal in ALL_SIGNALS:
            wtp_first = wtp_a if signal.first is ALPHA else wtp_b
            skips = cost > wtp_first
            sig_params = params + (("signal", signal.label()),)
            if check == "confirmation":
                if abs(p - 0.5) <= boundary_eps:
                    break  # no favored state; the definition does not apply
                report = confirmation_report(p, info, payoffs, cost, signal)
                contrary_pattern = (
                    Signal(ALPHA, BETA) if p > 0.5 else Signal(BETA, ALPHA)
                )
                supportive_pattern = (
                    Signal(BETA, ALPHA) if p > 0.5 else Signal(ALPHA, BETA)
                )
                char_cb = theta_up and skips and signal == contrary_pattern
                char_db = theta_up and skips and signal == supportive_pattern
                if report.confirmatory != char_cb or report.disproving != char_db:
                    violations.append(
                        Violation(
                            check,
                            sig_params,
                            f"(CB, DB)=({report.confirmatory}, {report.disproving}) "
                            f"vs characterization ({char_cb}, {char_db})",
                        )
                    )
            else:  # reaction
                report = reaction_report(p, info, payoffs, cost, signal)
                char_ur = skips and signal.first is signal.second
                char_or = skips and signal.first is not signal.second and theta_down
                if report.underreaction != char_ur or report.overreaction != char_or:
                    violations.append(
                        Violation(
                            check,
                            sig_params,
                            f"(UR, OR)=({report.underreaction}, {report.overreaction}) "
                            f"vs characterization ({char_ur}, {char_or})",
                        )
                    )
