"""Ground-truth machinery: brute-force value of information, Monte Carlo, grid checks.

Nothing here consults the eight-case classification, the piecewise cost
formulas or the extreme sets when producing reference values.  The value of
information is recomputed by enumerating every (state, second component)
contingency and taking expected-utility-optimal guesses branch by branch, so
agreement with :func:`secondlook.incentives.willingness_to_pay` is a genuine
two-route check rather than the same algebra twice.  The enumeration is one
private function of plain numbers: :func:`brute_force_voi` validates one
prior and feeds it a float, the grid checks feed it a numpy row of priors,
and ``Fraction`` inputs give the exact value.

The grid checkers replay the package's own predicate functions across prior,
precision, and cost grids and compare them against independently coded
characterizations (conditions on the signal realization, the cost, the
relative precisions and the enumerated willingness).  Both sides read one
acquisition rule, ties acquire, so exact cost ties are evaluated like any
other point.  Grid points within a small band of a case boundary or an
inversion threshold are skipped.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import OrderingError, ParameterError, UnknownPatternError
from .incentives import case_thresholds, max_willingness_to_pay
from .model import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    SignalComponentValue,
    check_component,
    check_cost,
    check_count,
    check_probability,
    check_values,
    conditional_second,
    marginal_first,
    signal_law,
)
from .patterns import (
    confirmation_report,
    confirmation_verdict,
    disconfirmation_verdict,
    pairwise_outcome,
    polarization_routes,
    polarization_verdict,
    reaction_report,
    reaction_verdict,
    realized_rows,
)
from .sets import b_memberships, inversion_thresholds

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


def _voi(p, theta1, theta2, u_correct, u_wrong, s1):
    # Expected-utility gain of observing the second component after ``s1``,
    # unclamped, from plain numbers: a float, a numpy row of priors or
    # ``Fraction`` values, with only + - * /, comparisons and integer
    # literals, so a ``Fraction`` input gives the exact gain.  Bayes on the
    # first component from raw likelihoods, kept local so this module does not
    # depend on the updating helpers it is meant to check.
    like_a = theta1 if s1 is ALPHA else 1 - theta1
    q = like_a * p / (like_a * p + (1 - like_a) * (1 - p))
    # Joint probability of each (state, second component): A then B, and
    # alpha then beta within a state.
    joint = ((q * theta2, q * (1 - theta2)), ((1 - q) * (1 - theta2), (1 - q) * theta2))
    # Guess A (1) or B (0) now and after each second component; a posterior
    # of 1/2 guesses A.
    now = 1 * (2 * q >= 1)
    after = [1 * (2 * (a / (a + b)) >= 1) for a, b in zip(*joint)]
    # Each contingency gains the utility of the acquiring plan's guess less
    # that of the guess now: delta_u times (guess - now) in state A, where
    # guessing A is right, and times (now - guess) in state B.
    delta = u_correct - u_wrong
    gain = 0
    for in_state, sign in ((joint[0], 1), (joint[1], -1)):
        for j, guess in zip(in_state, after):
            gain = gain + j * (delta * (sign * (guess - now)))
    return gain


def brute_force_voi(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> float:
    """Expected-utility gain from observing the second component before guessing.

    Computed purely by enumerating the (state, second component)
    contingencies; never negative.
    """
    p = check_probability(p)
    s1 = check_component(s1)
    gain = _voi(p, info.theta1, info.theta2, payoffs.u_correct, payoffs.u_wrong, s1)
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


def _pattern_weight(pattern, weights, total, p, info, payoffs, cost, p_j):
    # ``total`` (0.0 for a probability, 0 for a count of draws) plus the weight
    # of each signal, in ``ALL_SIGNALS`` order, that shows the pattern; a signal
    # of zero weight is not evaluated.
    for signal, weight in zip(ALL_SIGNALS, weights):
        if not weight > 0:
            continue
        if pattern == "PB":
            shows = pairwise_outcome(p, p_j, info, payoffs, cost, signal).polarized
        elif pattern in ("CB", "DB"):
            report = confirmation_report(p, info, payoffs, cost, signal)
            shows = report.confirmatory if pattern == "CB" else report.disproving
        else:
            report = reaction_report(p, info, payoffs, cost, signal)
            shows = report.underreaction if pattern == "UR" else report.overreaction
        if shows:
            total += weight
    return total


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
    weights = signal_law(p_subjective, info, _law_of(pattern))
    return _pattern_weight(pattern, weights, 0.0, p, info, payoffs, cost, p_j)


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
    counts = _signal_counts(thresholds, draws, seed)
    freq = _pattern_weight(pattern, counts, 0, p, info, payoffs, cost, p_j) / draws
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
    grid = np.linspace(0.0, 1.0, check_count(n, "n", 2))
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


# Each claim below walks one (theta, cost) slice: the kept priors, as Python
# floats, and their enumerated willingness to pay, a 2 x n row (after alpha,
# then after beta), and yields ``(params, detail)`` per violation;
# ``grid_theorem_check`` prefixes theta1, theta2 and cost to the params.
#
# The five row claims read one row builder, ``_rows``, once per slice, and
# compare its rows through the verdicts and pair laws the scalar API applies
# to one prior or pair.  ``disconfirmation``, ``confirmation`` and
# ``reaction`` read ``np.nonzero`` on the transpose of their verdict rows, so
# violations come in prior order, then tendency before exhibits or in signal
# order.
#
# The four pairwise claims walk the pair triangle one way, ``_pair_blocks``:
# per-prior rows compared in 2-D blocks of whole rows (low priors by all later
# priors, masked to ``j > i``) of at most ``_PAIR_BLOCK`` cells, or one row
# when a row alone is wider, so memory is O(block).  ``np.nonzero`` reads a
# block in row-major order, so violations come in ``combinations`` order, then
# in signal order.  ``polarization`` and ``one_sided_updating`` block
# ``_rows``; the mirrored claims select their pairs on blocks of willingness
# and evaluate each with ``pairwise_outcome``.

#: Pair cells per block of the pair triangle.
_PAIR_BLOCK = 1 << 16


def _enumerated_willingness(p, info, payoffs):
    # The characterizations' willingness of a numpy row of priors, after alpha
    # then after beta: the enumerated gain, clamped as in brute_force_voi.
    gain = np.array([
        _voi(p, info.theta1, info.theta2, payoffs.u_correct, payoffs.u_wrong, s1)
        for s1 in (ALPHA, BETA)
    ])
    return np.where(gain > 0.0, gain, 0.0)


_Rows = namedtuple("_Rows", "p wtp skips belief acquires crossing full closed_wtp")


def _rows(priors, wtp, info, payoffs, cost):
    # Per kept prior, on the last axis: the prior, the enumerated willingness
    # and, per signal, whether the prior skips by it, counted only inside
    # (0, 1), since a belief at 0 or 1 never moves; then ``realized_rows``.
    p = np.array(priors)
    skips = cost > wtp[[0 if s.first is ALPHA else 1 for s in ALL_SIGNALS]]
    return _Rows(p, wtp, skips & (0.0 < p) & (p < 1.0), *realized_rows(p, info, payoffs, cost))


def _triangle_blocks(n):
    # (rows, cols) slices covering the pairs i < j of n priors in row-major
    # order: runs of whole rows of at most _PAIR_BLOCK cells, or one row.
    a = 0
    while a < n - 1:
        stop = min(a + max(_PAIR_BLOCK // (n - 1 - a), 1), n - 1)
        yield slice(a, stop), slice(a + 1, n)
        a = stop


def _pair_blocks(arrays):
    # Yields (a, b, in_triangle, low, high) per block: the index of its first
    # low and first high prior, the mask of its pairs (j > i), and each array
    # (priors on its last axis) at its low priors (axis -2) and high (axis -1).
    index = np.arange(arrays[0].shape[-1])
    for rows, cols in _triangle_blocks(len(index)):
        in_triangle = index[rows, None] < index[None, cols]
        low = [x[..., rows, None] for x in arrays]
        high = [x[..., None, cols] for x in arrays]
        yield rows.start, cols.start, in_triangle, low, high


def _polarization(priors, wtp, info, payoffs, cost):
    more_informative = info.theta2 > info.theta1
    rows = _rows(priors, wtp, info, payoffs, cost)
    blocks = _pair_blocks((rows.p, rows.wtp, rows.belief, rows.crossing))
    for a, b, in_triangle, low, high in blocks:
        (p_i, wtp_i, post_i, cross_i), (p_j, wtp_j, post_j, cross_j) = low, high
        polarized = polarization_verdict(p_i, p_j, post_i, post_j)[2].any(axis=0)
        one_sided = b_memberships(wtp_i, wtp_j, cost)
        crossing = (cross_i[0], cross_j[1], cross_i[2], cross_j[3])
        routes = polarization_routes(more_informative, p_i, p_j, one_sided, crossing)
        feasible = routes[0] | routes[1] | routes[2] | routes[3]
        for i, j in zip(*np.nonzero(in_triangle & (feasible != polarized))):
            yield (("p_i", priors[a + i]), ("p_j", priors[b + j])), (
                f"feasible={bool(feasible[i, j])} but realized={bool(polarized[i, j])}"
            )


def _one_sided_updating(priors, wtp, info, payoffs, cost):
    rows = _rows(priors, wtp, info, payoffs, cost)
    for a, b, in_triangle, low, high in _pair_blocks((rows.p, rows.belief, rows.acquires)):
        (p_i, post_i, acq_i), (p_j, post_j, acq_j) = low, high
        inversion = polarization_verdict(p_i, p_j, post_i, post_j)[1]
        opposite = in_triangle & (acq_i == acq_j) & (inversion < 0.0)
        # Signals moved last: pairs in order, signals in ALL_SIGNALS order.
        for i, j, s in zip(*np.nonzero(opposite.transpose(1, 2, 0))):
            yield (
                ("p_i", priors[a + i]),
                ("p_j", priors[b + j]),
                ("signal", ALL_SIGNALS[s].label()),
            ), f"same action but inversion={float(inversion[s, i, j])}"


def _mirrored(priors, wtp, cost):
    # Pairs where the high prior alone acquires after alpha, or the low one
    # after beta, in ``combinations`` order, with the signal where it shows.
    for a, b, in_triangle, (wtp_i,), (wtp_j,) in _pair_blocks((wtp,)):
        _, _, high_alpha, low_beta = b_memberships(wtp_i, wtp_j, cost)
        cells = np.nonzero(in_triangle & (high_alpha | low_beta))
        # Lists, read once per block: indexing numpy scalars per pair is slower.
        selected = (*cells, high_alpha[cells], low_beta[cells])
        for i, j, alpha, beta in zip(*(x.tolist() for x in selected)):
            p_i, p_j = priors[a + i], priors[b + j]
            if alpha:
                yield p_i, p_j, ALL_SIGNALS[1]  # (alpha, beta)
            if beta:
                yield p_i, p_j, ALL_SIGNALS[2]  # (beta, alpha)


def _ordered_gap_contraction(priors, wtp, info, payoffs, cost):
    if not info.theta2 > info.theta1:
        return
    for p_i, p_j, signal in _mirrored(priors, wtp, cost):
        outcome = pairwise_outcome(p_i, p_j, info, payoffs, cost, signal)
        low, high = outcome.realized_posteriors
        growth = (high - low) - (p_j - p_i)
        if growth > 0.0:
            yield (("p_i", p_i), ("p_j", p_j), ("signal", signal.label())), (
                f"ordered gap grew by {growth}"
            )


def _mirrored_no_divergence(priors, wtp, info, payoffs, cost):
    for p_i, p_j, signal in _mirrored(priors, wtp, cost):
        outcome = pairwise_outcome(p_i, p_j, info, payoffs, cost, signal)
        if outcome.divergence < 0.0:
            yield (("p_i", p_i), ("p_j", p_j), ("signal", signal.label())), (
                f"absolute gap widened: divergence={outcome.divergence}"
            )


def _disconfirmation(priors, wtp, info, payoffs, cost):
    rows = _rows(priors, wtp, info, payoffs, cost)
    verdict = disconfirmation_verdict(rows.p, *rows.closed_wtp, cost)
    # Tendency: the prior favors a state and is not extreme, that is, a second
    # look is worth something after at least one first component.
    favored = rows.p != 0.5
    char_tendency = favored & ((wtp[0] > 0.0) | (wtp[1] > 0.0))
    # Exhibits: acquires after the component contradicting the favored state
    # and skips after the supporting one.
    contrary, supportive = np.where(rows.p > 0.5, wtp[::-1], wtp)
    characterization = (char_tendency, favored & (contrary >= cost) & (cost > supportive))
    for k, n in zip(*np.nonzero(np.not_equal(verdict, characterization).T)):
        yield (("p", priors[k]),), (
            f"{('tendency', 'exhibits')[n]}={bool(verdict[n][k])} "
            f"vs characterization={bool(characterization[n][k])}"
        )


def _signal_violations(priors, names, verdict, characterization):
    # One violation per (prior, signal) where either verdict row differs from
    # its characterization, in prior, then signal order.
    flagged = (verdict[0] != characterization[0]) | (verdict[1] != characterization[1])
    for k, s in zip(*np.nonzero(flagged.T)):
        got, expected = (
            ", ".join(str(bool(row[s, k])) for row in rows) for rows in (verdict, characterization)
        )
        yield (("p", priors[k]), ("signal", ALL_SIGNALS[s].label())), (
            f"({names})=({got}) vs characterization ({expected})"
        )


def _confirmation(priors, wtp, info, payoffs, cost):
    rows = _rows(priors, wtp, info, payoffs, cost)
    verdict = confirmation_verdict(rows.p, rows.belief, rows.full)
    # The contrary pattern is (alpha, beta) above 1/2 and (beta, alpha) below;
    # the supportive one is the other.  At 1/2 no state is favored.
    skips = (info.theta2 > info.theta1) & rows.skips
    high, low, neither = rows.p > 0.5, rows.p < 0.5, np.zeros(len(priors), dtype=bool)
    char_cb = skips & np.array([neither, high, low, neither])
    char_db = skips & np.array([neither, low, high, neither])
    yield from _signal_violations(priors, "CB, DB", verdict, (char_cb, char_db))


def _reaction(priors, wtp, info, payoffs, cost):
    rows = _rows(priors, wtp, info, payoffs, cost)
    verdict = reaction_verdict(rows.p, rows.belief, rows.full)
    agreeing = np.array([[s.first is s.second] for s in ALL_SIGNALS])
    char_ur = rows.skips & agreeing
    char_or = rows.skips & ~agreeing & (info.theta2 < info.theta1)
    yield from _signal_violations(priors, "UR, OR", verdict, (char_ur, char_or))


_CLAIMS = {
    "polarization": _polarization,
    "disconfirmation": _disconfirmation,
    "confirmation": _confirmation,
    "reaction": _reaction,
    "one_sided_updating": _one_sided_updating,
    "ordered_gap_contraction": _ordered_gap_contraction,
    "mirrored_no_divergence": _mirrored_no_divergence,
}


#: The claims about pairs of priors, which need the priors in increasing order.
_PAIRWISE_CHECKS = (
    "polarization", "one_sided_updating", "ordered_gap_contraction", "mirrored_no_divergence"
)


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
        the non-extreme set (a positive enumerated willingness after either
        first component) and the cost window;
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

    Returns an empty list when the claim holds everywhere on the grid.  On
    entry, an invalid prior raises :class:`InvalidProbabilityError`; an
    invalid cost or precision, a ``thetas`` that is not pairs, and an empty or
    non-sequence ``priors``, ``thetas`` or ``costs`` raise :class:`ParameterError`;
    and the four pairwise claims raise :class:`OrderingError` for priors out of
    increasing order, ``polarization`` also for a repeated prior.
    """
    if check not in ALL_CHECKS + EXTRA_CHECKS:
        raise ParameterError(
            f"unknown check {check!r}; expected one of {ALL_CHECKS + EXTRA_CHECKS}"
        )
    claim = _CLAIMS[check]
    if priors is None:
        priors = default_prior_grid()
    # Validated once, here; the claims then see plain floats.
    priors = check_values(priors, "priors", lambda p: check_probability(p, "prior"))
    costs = check_values(costs, "costs", check_cost)
    try:
        infos = check_values(thetas, "thetas", lambda pair: InformationStructure(*pair))
    except TypeError:
        raise ParameterError(f"thetas must be (theta1, theta2) pairs, got {thetas!r}") from None
    if check in _PAIRWISE_CHECKS:
        # model.check_pair on the row: strict for polarization, weak for the rest.
        steps = np.diff(priors)
        backward = np.flatnonzero(steps <= 0.0 if check == "polarization" else steps < 0.0)
        if backward.size:
            k = backward[0]
            raise OrderingError(
                f"pairwise checks need priors in increasing order, "
                f"got {priors[k]} before {priors[k + 1]}"
            )
    if payoffs is None:
        payoffs = PayoffStructure(1.0, 0.0)
    row = np.array(priors)
    violations: list[Violation] = []
    for info in infos:
        wtp = _enumerated_willingness(row, info, payoffs)
        for cost in costs:
            critical = _critical_priors(info, payoffs, cost)
            kept = ~np.any(abs(row[:, None] - critical) <= BOUNDARY_EPS, axis=1)
            base = (("theta1", info.theta1), ("theta2", info.theta2), ("cost", cost))
            violations.extend(
                Violation(check, base + params, detail)
                for params, detail in claim(row[kept].tolist(), wtp[:, kept], info, payoffs, cost)
            )
    return violations
