"""Belief patterns under optimal acquisition: polarization, confirmation, reaction.

A decision-maker who skips the second component walks away with the interim
posterior; one who acquires holds the full posterior.  Comparing these
realized beliefs across two decision-makers, or against the full-information
benchmark for a single one, produces the patterns this module quantifies:

* divergence D: prior gap minus realized-posterior gap (negative = farther
  apart);
* inversion I: product of the two belief changes (negative = opposite
  directions);
* polarization: D < 0 and I < 0 simultaneously, both strict;
* disconfirmation: a higher willingness to scrutinize (or actual scrutiny
  of) evidence against one's favored state;
* confirmatory / disproving patterns: the realized belief moves toward
  (away from) the favored state while the full-information posterior moves
  the other way;
* under- / over-reaction: the realized belief stops short of, or overshoots,
  the full-information posterior.

Pairwise feasibility and probability take the asymmetric-acquisition sets
from :mod:`secondlook.sets` as inputs.  The pair outcome and the four
feasibility routes are each stated once, in :func:`polarization_verdict` and
:func:`polarization_routes`, with operators that work on floats and numpy
rows alike: the scalar API feeds them one validated pair, the grid checks of
:mod:`secondlook.oracle` whole rows.  The probability formula reads the
product :func:`secondlook.model.signal_law` at a caller-supplied subjective
prior; that prior is deliberately never defaulted, because nothing in the
model pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndifferentPriorError, OrderingError
from .incentives import AcquisitionAction, willingness_to_pay
from .model import (
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    Signal,
    check_cost,
    check_probability,
    posterior_after_both,
    posterior_after_first,
    signal_law,
)
from .sets import b_memberships, v_memberships


def realized_posterior(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    signal: Signal,
) -> tuple[float, AcquisitionAction]:
    """Belief actually held after optimally deciding whether to acquire.

    Returns the interim posterior with SKIP, or the full posterior with
    ACQUIRE, for the given signal realization.
    """
    p = check_probability(p)
    cost = check_cost(cost)
    if cost <= willingness_to_pay(p, info, payoffs, signal.first):  # ties acquire
        return (
            posterior_after_both(p, info, signal.first, signal.second),
            AcquisitionAction.ACQUIRE,
        )
    return posterior_after_first(p, info, signal.first), AcquisitionAction.SKIP


@dataclass(frozen=True)
class PairwiseOutcome:
    """Realized beliefs of an ordered pair and the divergence/inversion verdict."""

    divergence: float
    inversion: float
    polarized: bool
    realized_posteriors: tuple[float, float]
    acquisitions: tuple[AcquisitionAction, AcquisitionAction]


def polarization_verdict(p_i, p_j, post_i, post_j):
    """Divergence, inversion and polarized, from priors and realized beliefs.

    Floats give two floats and a bool; numpy rows give rows.
    """
    divergence = abs(p_i - p_j) - abs(post_i - post_j)
    inversion = (p_i - post_i) * (p_j - post_j)
    return divergence, inversion, (divergence < 0.0) & (inversion < 0.0)


def pairwise_outcome(
    p_i: float,
    p_j: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    signal: Signal,
) -> PairwiseOutcome:
    """Evaluate one signal realization for a pair of priors ``p_i <= p_j``."""
    p_i = check_probability(p_i, "p_i")
    p_j = check_probability(p_j, "p_j")
    if p_i > p_j:
        raise OrderingError(f"pair priors must satisfy p_i <= p_j, got ({p_i}, {p_j})")
    post_i, act_i = realized_posterior(p_i, info, payoffs, cost, signal)
    post_j, act_j = realized_posterior(p_j, info, payoffs, cost, signal)
    return PairwiseOutcome(
        *polarization_verdict(p_i, p_j, post_i, post_j),
        realized_posteriors=(post_i, post_j),
        acquisitions=(act_i, act_j),
    )


@dataclass(frozen=True)
class PolarizationFeasibility:
    """Whether a pair can polarize, and through which acquisition asymmetry.

    The two ``via`` routes keep the priors in order: the realized beliefs
    move apart without crossing.  The two ``swap`` routes polarize by
    crossing: the acquirer's belief jumps past the other's, and the new gap
    exceeds the old one.
    """

    feasible: bool
    via_alpha: bool
    via_beta: bool
    via_alpha_swap: bool
    via_beta_swap: bool

    def __bool__(self) -> bool:
        return self.feasible


def polarization_routes(more_informative, p_i, p_j, one_sided, crossing):
    """The four routes of :func:`polarization_feasible`, on floats or numpy rows.

    ``one_sided`` holds the low-alpha, high-beta, high-alpha and low-beta B
    (at a cost) or V memberships.  ``crossing`` holds the low prior's interim
    and the high prior's full belief at (alpha, beta), then the low prior's
    full and the high prior's interim belief at (beta, alpha).
    """
    low_alpha, high_beta, high_alpha, low_beta = one_sided
    interim_alpha_i, full_alpha_j, full_beta_i, interim_beta_j = crossing
    gap = p_j - p_i
    swap_gap_alpha = (interim_alpha_i - full_alpha_j) - gap
    swap_gap_beta = (full_beta_i - interim_beta_j) - gap
    return (
        more_informative & low_alpha,
        more_informative & high_beta,
        more_informative & (p_i > 0.0) & high_alpha & (swap_gap_alpha > 0.0),
        more_informative & (p_j < 1.0) & low_beta & (swap_gap_beta > 0.0),
    )


def polarization_feasible(
    p_i: float,
    p_j: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    c: float | None = None,
) -> PolarizationFeasibility:
    """Can these two priors end up polarized with positive probability?

    Polarization requires a strictly more informative second component and
    one-sided acquisition: at the opposing-components signal the lone
    acquirer follows the second component while the other follows the
    first.  Four routes, two per first-component value:

    * low prior alone acquires after alpha (or high alone after beta): the
      beliefs move apart in order, and that is already enough;
    * high prior alone acquires after alpha (or low alone after beta): the
      beliefs cross, which polarizes exactly when the crossed gap exceeds
      the prior gap and the non-acquirer's belief actually moves (interior
      prior).

    Without a cost the one-sided-acquisition conditions are read as strict
    willingness-to-pay orderings (some cost would separate the decisions);
    with a cost they are the acquisition outcomes at that cost.
    """
    p_i = check_probability(p_i, "p_i")
    p_j = check_probability(p_j, "p_j")
    if not p_i < p_j:
        raise OrderingError(f"pair priors must satisfy p_i < p_j, got ({p_i}, {p_j})")
    if c is not None:
        c = check_cost(c)
    theta_ok = info.theta2 > info.theta1
    wtp_i, wtp_j = (
        tuple(willingness_to_pay(p, info, payoffs, s1) for s1 in (ALPHA, BETA)) for p in (p_i, p_j)
    )
    one_sided = v_memberships(wtp_i, wtp_j) if c is None else b_memberships(wtp_i, wtp_j, c)
    crossing = (
        posterior_after_first(p_i, info, ALPHA),
        posterior_after_both(p_j, info, ALPHA, BETA),
        posterior_after_both(p_i, info, BETA, ALPHA),
        posterior_after_first(p_j, info, BETA),
    )
    routes = polarization_routes(theta_ok, p_i, p_j, one_sided, crossing)
    return PolarizationFeasibility(any(routes), *routes)


def polarization_probability(
    p_subjective: float,
    p_i: float,
    p_j: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    c: float,
) -> float:
    """Ex-ante probability of polarization at cost ``c`` under a subjective prior.

    The paper's closed form: each in-order route of
    :func:`polarization_feasible` contributes the ``"product"``
    :func:`secondlook.model.signal_law` weight of its opposing signal,
    (alpha, beta) when the low prior alone acquires after alpha and
    (beta, alpha) when the high prior alone acquires after beta.  The result
    never exceeds 1/2.  Pairs that polarize only by crossing get zero here;
    ``pattern_probability("PB", ...)`` counts every route.
    """
    p_subjective = check_probability(p_subjective, "p_subjective")
    feas = polarization_feasible(p_i, p_j, info, payoffs, check_cost(c))
    _, alpha_beta, beta_alpha, _ = signal_law(p_subjective, info, "product")
    return (alpha_beta if feas.via_alpha else 0.0) + (beta_alpha if feas.via_beta else 0.0)


@dataclass(frozen=True)
class DisconfirmationReport:
    """Whether contrary evidence attracts more scrutiny, in will and in deed."""

    tendency: bool
    exhibits: bool
    wtp_alpha: float
    wtp_beta: float


def disconfirmation_report(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
) -> DisconfirmationReport:
    """Willingness and acquisition asymmetry across the two first components.

    A prior above 1/2 favors A, so beta is the contrary evidence; the
    tendency holds when the willingness to pay after beta strictly exceeds
    the one after alpha, and it is exhibited when the cost separates the two
    acquisition decisions in that direction.  The prior exactly at 1/2
    favors neither state and reports false on both counts.
    """
    p = check_probability(p)
    cost = check_cost(cost)
    wtp_a = willingness_to_pay(p, info, payoffs, ALPHA)
    wtp_b = willingness_to_pay(p, info, payoffs, BETA)
    contrary, supportive = (wtp_b, wtp_a) if p > 0.5 else (wtp_a, wtp_b)
    # Ties acquire, so a cost equal to the contrary willingness still exhibits.
    tendency = p != 0.5 and contrary > supportive
    exhibits = p != 0.5 and supportive < cost <= contrary
    return DisconfirmationReport(
        tendency=tendency, exhibits=exhibits, wtp_alpha=wtp_a, wtp_beta=wtp_b
    )


@dataclass(frozen=True)
class ConfirmationReport:
    """Confirmatory vs disproving verdict for one signal realization."""

    confirmatory: bool
    disproving: bool
    full_posterior: float
    realized: float
    acquired: bool


def confirmation_report(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    signal: Signal,
) -> ConfirmationReport:
    """Compare the realized belief with the full-information posterior.

    With the prior favoring A (p > 1/2), the pattern is confirmatory when
    the realized belief rises above the prior while the full posterior falls
    below it, and disproving in the mirrored ordering; priors below 1/2 swap
    the roles.  The prior exactly at 1/2 favors no state and is rejected.
    """
    p = check_probability(p)
    if p == 0.5:
        raise IndifferentPriorError(
            "confirmatory/disproving patterns need a favored state; p=1/2 has none"
        )
    realized, action = realized_posterior(p, info, payoffs, cost, signal)
    full = posterior_after_both(p, info, signal.first, signal.second)
    toward = full < p < realized  # realized moved toward the favored state A
    away = realized < p < full
    if p > 0.5:
        confirmatory, disproving = toward, away
    else:
        confirmatory, disproving = away, toward
    return ConfirmationReport(
        confirmatory=confirmatory,
        disproving=disproving,
        full_posterior=full,
        realized=realized,
        acquired=action is AcquisitionAction.ACQUIRE,
    )


@dataclass(frozen=True)
class ReactionReport:
    """Under- or over-reaction relative to the full-information posterior."""

    underreaction: bool
    overreaction: bool
    full_posterior: float
    realized: float


def reaction_report(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    cost: float,
    signal: Signal,
) -> ReactionReport:
    """Order the prior, realized belief, and full posterior.

    Underreaction places the realized belief strictly between prior and full
    posterior; overreaction places the full posterior strictly between prior
    and realized belief.  Both require a skipped second component, since
    acquiring makes realized and full posteriors coincide.
    """
    p = check_probability(p)
    realized, _ = realized_posterior(p, info, payoffs, cost, signal)
    full = posterior_after_both(p, info, signal.first, signal.second)
    under = p < realized < full or full < realized < p
    over = p < full < realized or realized < full < p
    return ReactionReport(
        underreaction=under,
        overreaction=over,
        full_posterior=full,
        realized=realized,
    )
