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

The case thresholds depend only on the precisions, so they are computed once
per precision pair and first component and then read from a small cache.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import ParameterError
from .model import (
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    SignalComponentValue,
    check_component,
    check_count,
    check_probability,
)


class AcquisitionAction(Enum):
    ACQUIRE = "acquire"
    SKIP = "skip"


_THRESHOLD_CACHE_SIZE = 256  # entries, one per (theta1, theta2, first component)


def case_thresholds(info: InformationStructure, s1: SignalComponentValue) -> tuple[float, float, float]:
    """Interior case boundaries for one first-component value, in increasing order.

    For alpha the boundaries separate cases (4|3), (3|2), (2|1); for beta,
    cases (5|6), (6|7), (7|8).  The middle one is where the willingness to pay peaks.
    """
    check_component(s1)  # the one check for classify_case and willingness_to_pay too
    return _thresholds(info.theta1, info.theta2, s1 is ALPHA)


@lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def _thresholds(t1: float, t2: float, after_alpha: bool) -> tuple[float, float, float]:
    # Keyed on floats and a bool, which hash in C; info and the enum hash in Python.
    same = 1.0 - t1 - t2 + 2.0 * t1 * t2  # P(components agree | either state)
    diff = t1 + t2 - 2.0 * t1 * t2  # P(components disagree | either state)
    if after_alpha:
        lo, mid, hi = (1.0 - t1) * (1.0 - t2) / same, 1.0 - t1, t2 * (1.0 - t1) / diff
    else:
        lo, mid, hi = t1 * (1.0 - t2) / diff, t1, t1 * t2 / same
    # With a precision a few ulps below 1, round-off can put an end past the
    # middle or past 1; clamped, as in inversion_thresholds.  Else a no-op.
    return min(lo, mid), mid, min(max(hi, mid), 1.0)


def case_interval(case: int, info: InformationStructure) -> tuple[float, float]:
    """Closed prior interval for one of the eight cases: the inverse of :func:`_case`.

    A prior past ``k`` of its component's thresholds ``(lo, mid, hi)`` is in
    case ``4 - k`` after alpha and ``5 + k`` after beta, so the case runs from
    ``ends[k]`` to ``ends[k + 1]`` of ``ends = (0, lo, mid, hi, 1)``.
    """
    case = check_count(case, "case", 1)
    if case > 8:
        raise ParameterError(f"case must be in 1..8, got {case}")
    k = 4 - case if case <= 4 else case - 5
    ends = (0.0, *case_thresholds(info, ALPHA if case <= 4 else BETA), 1.0)
    return ends[k], ends[k + 1]


def classify_case(
    p: float, info: InformationStructure, s1: SignalComponentValue
) -> int:
    """Case number (1..8) of a prior given the observed first component.

    Ties at shared interval endpoints resolve to the lower case number.
    """
    return _case(check_probability(p), info, s1)


def _case(p, info: InformationStructure, s1: SignalComponentValue):
    # classify_case for a prior already through check_probability, or for a
    # numpy row of them: a float gives an int, a row an int row.  Each
    # threshold the prior has passed moves it one case on, down from 4 after
    # alpha and up from 5 after beta.  A prior on a threshold counts as past
    # it after alpha and short of it after beta: the lower case number.
    lo, mid, hi = case_thresholds(info, s1)
    if s1 is ALPHA:
        return 4 - (p >= lo) - (p >= mid) - (p >= hi)
    return 5 + (p > lo) + (p > mid) + (p > hi)


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
    value *= payoffs.delta_u
    return value if value > 0.0 else 0.0  # as max(0.0, value): -0.0 and NaN give 0.0


def _willingness_rows(priors, info: InformationStructure, payoffs: PayoffStructure):
    # Each prior's willingness after alpha, then after beta, as two lists: one
    # positional call per prior and component through this module's name at
    # call time, so whoever rebinds incentives.willingness_to_pay sees each.
    return tuple(
        [willingness_to_pay(p, info, payoffs, s1) for p in priors] for s1 in (ALPHA, BETA)
    )


def max_willingness_to_pay(
    info: InformationStructure, payoffs: PayoffStructure
) -> float:
    """Global maximum of the willingness to pay, the same for both components."""
    return payoffs.delta_u * (info.theta2 - 0.5)

