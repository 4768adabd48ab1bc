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
relative precisions).  Both sides read one acquisition rule, ties acquire,
so exact cost ties are evaluated like any other point.  Grid points within a
small band of a case boundary or an inversion threshold are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderingError, ParameterError, UnknownPatternError
from .incentives import (
    AcquisitionAction,
    case_thresholds,
    max_willingness_to_pay,
    willingness_to_pay,
)
from .model import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    Signal,
    SignalComponentValue,
    StateOfWorld,
    check_cost,
    check_count,
    check_probability,
    conditional_second,
    marginal_first,
    posterior_after_both,
    posterior_after_first,
    signal_law,
)
from .patterns import (
    confirmation_report,
    disconfirmation_report,
    pairwise_outcome,
    polarization_routes,
    polarization_verdict,
    reaction_report,
    realized_posterior,
)
from .sets import b_memberships, extreme_sets, inversion_thresholds

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


def _law_of(pattern: str) -> str:
    # Pairwise polarization samples the product law of its closed form,
    # ``polarization_probability``; every other pattern the model's own law.
    return "product" if pattern == "PB" else "coupled"


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

    Each signal is weighted by :func:`secondlook.model.signal_law` under the
    pattern's law (see ``_law_of``).  For "PB" the sum runs over every
    polarizing signal, crossing routes included.
    """
    p_subjective = check_probability(p_subjective, "p_subjective")
    _check_pattern(pattern, p_j)
    total = 0.0
    weights = signal_law(p_subjective, info, _law_of(pattern))
    for signal, weight in zip(ALL_SIGNALS, weights):
        if weight > 0.0 and _pattern_indicator(
            pattern, p, info, payoffs, cost, signal, p_j
        ):
            total += weight
    return total


#: Draws per block of the Monte Carlo: memory is O(block), whatever ``draws``.
_MC_BLOCK = 1 << 16


def _signal_counts(thresholds: tuple[float, ...], draws: int, seed: int) -> tuple[int, ...]:
    """Counts of the four signals, in ``ALL_SIGNALS`` order, over ``draws`` draws.

    With three thresholds ``(p, theta1, theta2)`` the state is A when its
    uniform is below ``p`` and each component matches the state when its
    uniform is below its precision (the state-coupled law).  With two,
    ``(prob1, prob2)``, each component is alpha when its uniform is below its
    marginal (the product of marginals).

    Uniform j comes from stream j: the seeded ``PCG64`` advanced by
    ``j * draws`` doubles.  The streams are read in blocks of ``_MC_BLOCK``,
    and each yields exactly the doubles of the j-th ``random(draws)`` call on
    ``default_rng(seed)``, so the counts equal those of whole-array draws.
    """
    streams = [
        np.random.Generator(np.random.PCG64(seed).advance(j * draws))
        for j in range(len(thresholds))
    ]
    n_first = n_second = n_both = 0
    for start in range(0, draws, _MC_BLOCK):
        size = min(_MC_BLOCK, draws - start)
        below = [gen.random(size) < t for gen, t in zip(streams, thresholds)]
        if len(below) == 3:
            state_a, match1, match2 = below
            first_a, second_a = state_a == match1, state_a == match2
        else:
            first_a, second_a = below
        n_first += int(np.count_nonzero(first_a))
        n_second += int(np.count_nonzero(second_a))
        n_both += int(np.count_nonzero(first_a & second_a))
    return (
        n_both,
        n_first - n_both,
        n_second - n_both,
        draws - n_first - n_second + n_both,
    )


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
    deterministic predicate is evaluated once per signal that was drawn.
    Each pattern is sampled from the :func:`secondlook.model.signal_law`
    that :func:`pattern_probability` weights it by.  Identical seeds give
    identical estimates bit for bit; memory stays O(block) at any ``draws``.
    """
    p_subjective = check_probability(p_subjective, "p_subjective")
    _check_pattern(pattern, p_j)
    draws = check_count(draws, "draws", 1)
    seed = check_count(seed, "seed", 0)
    if _law_of(pattern) == "product":
        thresholds = (
            marginal_first(p_subjective, info, ALPHA),
            conditional_second(p_subjective, info, ALPHA),
        )
    else:
        thresholds = (p_subjective, info.theta1, info.theta2)
    hits = 0
    for signal, count in zip(ALL_SIGNALS, _signal_counts(thresholds, draws, seed)):
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
#: Half-width of the band the grid checks skip around case boundaries and
#: inversion thresholds.  ``ALL_CHECKS`` find nothing without it too; only
#: ``mirrored_no_divergence`` moves, from 1,070 to 1,122 violations at grid
#: 101, a count the benchmark guard (``perfbench/guard.py``) pins.
BOUNDARY_EPS = 1e-9


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
    if cost < max_willingness_to_pay(info, payoffs):
        values += list(inversion_thresholds(cost, info, payoffs, ALPHA))
        values += list(inversion_thresholds(cost, info, payoffs, BETA))
    return values


def _near(x: float, values) -> bool:
    return any(abs(x - v) <= BOUNDARY_EPS for v in values)


def _wtp_by_first(
    p: float, info: InformationStructure, payoffs: PayoffStructure
) -> dict[SignalComponentValue, float]:
    return {s1: willingness_to_pay(p, info, payoffs, s1) for s1 in (ALPHA, BETA)}


# Each claim below walks one (theta, cost) slice of kept priors, each with its
# willingness to pay by first component, and yields ``(params, detail)`` per
# violation; ``grid_theorem_check`` prefixes theta1, theta2 and cost to the
# params.
#
# The pairwise claims take each prior's values from the scalar API once per
# slice, then compare one low prior with all higher ones at a time as numpy
# rows of the pair triangle, in ``combinations`` order and O(n) memory.  The
# rows go through the pair laws the scalar API applies to one pair
# (``b_memberships``, ``polarization_verdict``, ``polarization_routes``).


def _wtp_rows(keep):
    return np.array([[w[ALPHA] for _, w in keep], [w[BETA] for _, w in keep]])


def _pair_rows(keep, info, payoffs, cost, strict):
    # Yields (a, low, high): the index of the low prior, and the values of
    # that prior and of all priors after it, priors along the last axis:
    # prior, willingness (alpha, beta), the realized belief and acquisition at
    # each signal of ALL_SIGNALS, and the interim and full belief at
    # (alpha, beta), then the full and interim belief at (beta, alpha).  The
    # low prior's values are numpy scalars, which compare faster than rows.
    p = np.array([prior for prior, _ in keep])
    steps = np.diff(p)
    backward = np.flatnonzero(steps <= 0.0 if strict else steps < 0.0)
    if backward.size:
        k = backward[0]
        raise OrderingError(
            f"pairwise checks need priors in increasing order, got {p[k]} before {p[k + 1]}"
        )
    wtp = _wtp_rows(keep)
    realized = [
        [realized_posterior(prior, info, payoffs, cost, signal) for signal in ALL_SIGNALS]
        for prior, _ in keep
    ]
    belief = np.array([[post for post, _ in row] for row in realized]).T
    acquires = np.array([[a is AcquisitionAction.ACQUIRE for _, a in row] for row in realized]).T
    crossing = np.array(
        [
            [
                posterior_after_first(prior, info, ALPHA),
                posterior_after_both(prior, info, ALPHA, BETA),
                posterior_after_both(prior, info, BETA, ALPHA),
                posterior_after_first(prior, info, BETA),
            ]
            for prior, _ in keep
        ]
    ).T
    arrays = (p, wtp, belief, acquires, crossing)
    for a in range(len(p) - 1):
        yield a, [x[..., a] for x in arrays], [x[..., a + 1 :] for x in arrays]


def _polarization(keep, info, payoffs, cost):
    more_informative = info.theta2 > info.theta1
    rows = _pair_rows(keep, info, payoffs, cost, strict=True)
    for a, (p_i, wtp_i, post_i, _, cross_i), (p_j, wtp_j, post_j, _, cross_j) in rows:
        polarized = polarization_verdict(p_i, p_j, post_i[:, None], post_j)[2].any(axis=0)
        one_sided = b_memberships(wtp_i, wtp_j, cost)
        crossing = (cross_i[0], cross_j[1], cross_i[2], cross_j[3])
        routes = polarization_routes(more_informative, p_i, p_j, one_sided, crossing)
        feasible = routes[0] | routes[1] | routes[2] | routes[3]
        for k in np.flatnonzero(feasible != polarized):
            yield (("p_i", keep[a][0]), ("p_j", keep[a + 1 + k][0])), (
                f"feasible={bool(feasible[k])} but realized={bool(polarized[k])}"
            )


def _one_sided_updating(keep, info, payoffs, cost):
    rows = _pair_rows(keep, info, payoffs, cost, strict=False)
    for a, (p_i, _, post_i, acq_i, _), (p_j, _, post_j, acq_j, _) in rows:
        inversion = polarization_verdict(p_i, p_j, post_i[:, None], post_j)[1]
        opposite = (acq_i[:, None] == acq_j) & (inversion < 0.0)
        # Transposed to (pair, signal): pairs in order, signals in ALL_SIGNALS order.
        for k, s in zip(*np.nonzero(opposite.T)):
            yield (
                ("p_i", keep[a][0]),
                ("p_j", keep[a + 1 + k][0]),
                ("signal", ALL_SIGNALS[s].label()),
            ), f"same action but inversion={float(inversion[s, k])}"


def _mirrored(keep, info, payoffs, cost):
    # Pairs where the high prior alone acquires after alpha, or the low one
    # after beta, in ``combinations`` order, with the signal where it shows.
    wtp = _wtp_rows(keep)
    for a, (p_i, w) in enumerate(keep[:-1]):
        _, _, high_alpha, low_beta = b_memberships((w[ALPHA], w[BETA]), wtp[:, a + 1 :], cost)
        for k in np.flatnonzero(high_alpha | low_beta):
            p_j = keep[a + 1 + k][0]
            if high_alpha[k]:
                yield p_i, p_j, Signal(ALPHA, BETA)
            if low_beta[k]:
                yield p_i, p_j, Signal(BETA, ALPHA)


def _ordered_gap_contraction(keep, info, payoffs, cost):
    if not info.theta2 > info.theta1:
        return
    for p_i, p_j, signal in _mirrored(keep, info, payoffs, cost):
        outcome = pairwise_outcome(p_i, p_j, info, payoffs, cost, signal)
        low, high = outcome.realized_posteriors
        growth = (high - low) - (p_j - p_i)
        if growth > 0.0:
            yield (("p_i", p_i), ("p_j", p_j), ("signal", signal.label())), (
                f"ordered gap grew by {growth}"
            )


def _mirrored_no_divergence(keep, info, payoffs, cost):
    for p_i, p_j, signal in _mirrored(keep, info, payoffs, cost):
        outcome = pairwise_outcome(p_i, p_j, info, payoffs, cost, signal)
        if outcome.divergence < 0.0:
            yield (("p_i", p_i), ("p_j", p_j), ("signal", signal.label())), (
                f"absolute gap widened: divergence={outcome.divergence}"
            )


def _disconfirmation(keep, info, payoffs, cost):
    sets = extreme_sets(info)
    for p, wtp in keep:
        report = disconfirmation_report(p, info, payoffs, cost)
        char_tendency = p != 0.5 and not sets.is_extreme(p)
        # Exhibits: acquires after the component contradicting the favored
        # state and skips after the supporting one.
        contrary, supportive = (BETA, ALPHA) if p > 0.5 else (ALPHA, BETA)
        char_exhibits = p != 0.5 and wtp[contrary] >= cost > wtp[supportive]
        if report.tendency != char_tendency:
            yield (("p", p),), (
                f"tendency={report.tendency} vs characterization={char_tendency}"
            )
        if report.exhibits != char_exhibits:
            yield (("p", p),), (
                f"exhibits={report.exhibits} vs characterization={char_exhibits}"
            )


def _confirmation(keep, info, payoffs, cost):
    theta_up = info.theta2 > info.theta1
    for p, wtp in keep:
        if p == 0.5:
            continue  # no favored state; the definition does not apply
        contrary_pattern = Signal(ALPHA, BETA) if p > 0.5 else Signal(BETA, ALPHA)
        supportive_pattern = Signal(BETA, ALPHA) if p > 0.5 else Signal(ALPHA, BETA)
        for signal in ALL_SIGNALS:
            report = confirmation_report(p, info, payoffs, cost, signal)
            skips = cost > wtp[signal.first]
            char_cb = theta_up and skips and signal == contrary_pattern
            char_db = theta_up and skips and signal == supportive_pattern
            if report.confirmatory != char_cb or report.disproving != char_db:
                yield (("p", p), ("signal", signal.label())), (
                    f"(CB, DB)=({report.confirmatory}, {report.disproving}) "
                    f"vs characterization ({char_cb}, {char_db})"
                )


def _reaction(keep, info, payoffs, cost):
    theta_down = info.theta2 < info.theta1
    for p, wtp in keep:
        for signal in ALL_SIGNALS:
            report = reaction_report(p, info, payoffs, cost, signal)
            skips = cost > wtp[signal.first]
            char_ur = skips and signal.first is signal.second
            char_or = skips and signal.first is not signal.second and theta_down
            if report.underreaction != char_ur or report.overreaction != char_or:
                yield (("p", p), ("signal", signal.label())), (
                    f"(UR, OR)=({report.underreaction}, {report.overreaction}) "
                    f"vs characterization ({char_ur}, {char_or})"
                )


_CLAIMS = {
    "polarization": _polarization,
    "disconfirmation": _disconfirmation,
    "confirmation": _confirmation,
    "reaction": _reaction,
    "one_sided_updating": _one_sided_updating,
    "ordered_gap_contraction": _ordered_gap_contraction,
    "mirrored_no_divergence": _mirrored_no_divergence,
}


def grid_theorem_check(
    check: str,
    priors=None,
    thetas=DEFAULT_THETAS,
    costs=DEFAULT_COSTS,
    payoffs: PayoffStructure | None = None,
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

    Returns an empty list when the claim holds everywhere on the grid.  An
    invalid prior raises :class:`InvalidProbabilityError` and an invalid cost
    :class:`ParameterError`, both on entry; the pairwise claims raise
    :class:`OrderingError` for priors out of increasing order.
    """
    if check not in ALL_CHECKS + EXTRA_CHECKS:
        raise ParameterError(
            f"unknown check {check!r}; expected one of {ALL_CHECKS + EXTRA_CHECKS}"
        )
    claim = _CLAIMS[check]
    if priors is None:
        priors = default_prior_grid()
    # Validated once, here; the claims then see plain floats.
    priors = [check_probability(p, "prior") for p in priors]
    costs = [check_cost(c) for c in costs]
    if payoffs is None:
        payoffs = PayoffStructure(1.0, 0.0)
    violations: list[Violation] = []
    for theta1, theta2 in thetas:
        info = InformationStructure(theta1, theta2)
        wtps = [(p, _wtp_by_first(p, info, payoffs)) for p in priors]
        for cost in costs:
            critical = _critical_priors(info, payoffs, cost)
            keep = [(p, wtp) for p, wtp in wtps if not _near(p, critical)]
            base = (("theta1", info.theta1), ("theta2", info.theta2), ("cost", cost))
            violations.extend(
                Violation(check, base + params, detail)
                for params, detail in claim(keep, info, payoffs, cost)
            )
    return violations
