"""Incentives for paying to observe the signal's second component.

After seeing the free first component, a decision-maker either guesses the
state right away or pays the processing cost to see the second component
first.  Which choice is optimal depends on whether the second component could
flip the optimal guess.  Ordering the three relevant posteriors (interim,
after a confirming second component, after a contradicting one) against 1/2
splits the prior line into eight cases, four per first-component value:

    first = alpha:  case 4 | case 3 | case 2 | case 1      (p increasing)
    first = beta:   case 5 | case 6 | case 7 | case 8      (p increasing)

In the outer cases (1, 4, 5, 8) no second-component realization can change
the guess, so the willingness to pay is zero.  In the inner cases it is a
strictly positive rational function of the prior, continuous across case
boundaries and peaking where the interim posterior is exactly 1/2 (prior
1 - theta1 after alpha, theta1 after beta) with value delta_u * (theta2 - 1/2).

Boundary conventions, chosen once and kept everywhere:

* adjacent case intervals share closed endpoints; classification returns the
  lower case number there (the cost function is continuous, so the value is
  unaffected);
* acquisition at exact indifference (cost == willingness to pay) acquires;
* a posterior of exactly 1/2 guesses A.  Any fixed rule is payoff-equivalent;
  a deterministic one keeps reference values stable.  This is the single
  point where the A/B symmetry of the model is broken.
"""

from __future__ import annotations

from enum import Enum

from .errors import ParameterError
from .model import (
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    Scenario,
    SignalComponentValue,
    check_count,
    check_probability,
)


class AcquisitionAction(Enum):
    ACQUIRE = "acquire"
    SKIP = "skip"


def case_thresholds(info: InformationStructure, s1: SignalComponentValue) -> tuple[float, float, float]:
    """Interior case boundaries for one first-component value, in increasing order.

    For alpha the boundaries separate cases (4|3), (3|2), (2|1); for beta,
    cases (5|6), (6|7), (7|8).  The middle one is where the willingness to pay peaks.
    """
    t1, t2 = info.theta1, info.theta2
    same = 1.0 - t1 - t2 + 2.0 * t1 * t2  # P(components agree | either state)
    diff = t1 + t2 - 2.0 * t1 * t2  # P(components disagree | either state)
    if s1 is ALPHA:
        return ((1.0 - t1) * (1.0 - t2) / same, 1.0 - t1, t2 * (1.0 - t1) / diff)
    return (t1 * (1.0 - t2) / diff, t1, t1 * t2 / same)


def case_interval(case: int, info: InformationStructure) -> tuple[float, float]:
    """Closed prior interval for one of the eight cases."""
    lo_a, mid_a, hi_a = case_thresholds(info, ALPHA)
    lo_b, mid_b, hi_b = case_thresholds(info, BETA)
    intervals = {
        1: (hi_a, 1.0),
        2: (mid_a, hi_a),
        3: (lo_a, mid_a),
        4: (0.0, lo_a),
        5: (0.0, lo_b),
        6: (lo_b, mid_b),
        7: (mid_b, hi_b),
        8: (hi_b, 1.0),
    }
    try:
        return intervals[check_count(case, "case", 1)]
    except KeyError:
        raise ParameterError(f"case must be in 1..8, got {case}") from None


def classify_case(
    p: float, info: InformationStructure, s1: SignalComponentValue
) -> int:
    """Case number (1..8) of a prior given the observed first component.

    Ties at shared interval endpoints resolve to the lower case number.
    """
    return _case(check_probability(p), info, s1)


def _case(p: float, info: InformationStructure, s1: SignalComponentValue) -> int:
    # classify_case for a prior already through check_probability.
    lo, mid, hi = case_thresholds(info, s1)
    if s1 is ALPHA:
        if p >= hi:
            return 1
        if p >= mid:
            return 2
        if p >= lo:
            return 3
        return 4
    if p <= lo:
        return 5
    if p <= mid:
        return 6
    if p <= hi:
        return 7
    return 8


def willingness_to_pay(
    p: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> float:
    """Largest processing cost worth paying after observing ``s1``.

    Piecewise over the eight cases; zero on the outer cases, and on the inner
    ones equal to delta_u times the chance the second component flips the
    optimal guess times the decisiveness of the flipped posterior.  Clamped at
    zero from below to absorb round-off at interval endpoints.
    """
    p = check_probability(p)
    t1, t2 = info.theta1, info.theta2
    case = _case(p, info, s1)
    if case in (1, 4, 5, 8):
        return 0.0
    q = 1.0 - p
    if case == 2:
        value = (t2 * q - t1 * p - t1 * t2 * (1.0 - 2.0 * p)) / (t1 * p + (1.0 - t1) * q)
    elif case == 3:
        value = (t1 * t2 * p - (1.0 - t1) * (1.0 - t2) * q) / (t1 * p + (1.0 - t1) * q)
    elif case == 6:
        value = ((1.0 - t1) * t2 * p - t1 * (1.0 - t2) * q) / ((1.0 - t1) * p + t1 * q)
    else:  # case 7
        value = (t1 * t2 * q - (1.0 - t1) * (1.0 - t2) * p) / ((1.0 - t1) * p + t1 * q)
    return max(0.0, payoffs.delta_u * value)


def max_willingness_to_pay(
    info: InformationStructure, payoffs: PayoffStructure
) -> float:
    """Global maximum of the willingness to pay, the same for both components."""
    return payoffs.delta_u * (info.theta2 - 0.5)


def acquisition_decision(
    p: float, scenario: Scenario, s1: SignalComponentValue
) -> AcquisitionAction:
    """Optimal acquisition choice: acquire iff cost <= willingness to pay.

    The inequality is weak, so an exactly indifferent decision-maker acquires.
    A zero cost is allowed as a diagnostic and is always acquired.
    """
    wtp = willingness_to_pay(p, scenario.info, scenario.payoffs, s1)
    return AcquisitionAction.ACQUIRE if scenario.cost <= wtp else AcquisitionAction.SKIP
