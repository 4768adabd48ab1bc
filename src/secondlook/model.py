"""Primitive types and Bayesian updating for a binary state and a two-component signal.

The world is in one of two states, A or B.  A decision-maker holds a prior
probability p that the state is A and observes a signal with two components.
Each component takes the value alpha (evidence for A) or beta (evidence for
B) and matches the true state with a per-component precision:

    P(component j = alpha | A) = P(component j = beta | B) = theta_j,

with theta_j strictly between 1/2 and 1.  The two components are independent
conditional on the state.  The first component is free; observing the second
costs a processing fee, which is what the rest of the package is about.

Everything here is a pure function of its inputs; all value types are
immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidProbabilityError, ModelError, OrderingError, ParameterError


class SignalComponentValue(Enum):
    ALPHA = "alpha"
    BETA = "beta"


ALPHA = SignalComponentValue.ALPHA
BETA = SignalComponentValue.BETA


def check_component(value) -> SignalComponentValue:
    """Validate a signal component; anything but ``ALPHA`` would otherwise read as ``BETA``."""
    if value is ALPHA or value is BETA:
        return value
    raise ParameterError(f"a signal component must be ALPHA or BETA, got {value!r}")


@dataclass(frozen=True)
class Signal:
    """One realization of the two-component signal."""

    first: SignalComponentValue
    second: SignalComponentValue

    def __post_init__(self):
        check_component(self.first)
        check_component(self.second)

    def label(self) -> str:
        return f"({self.first.value}, {self.second.value})"


#: The four possible signal realizations in a fixed, deterministic order.
ALL_SIGNALS = (
    Signal(ALPHA, ALPHA),
    Signal(ALPHA, BETA),
    Signal(BETA, ALPHA),
    Signal(BETA, BETA),
)


@dataclass(frozen=True)
class InformationStructure:
    """Per-component precisions, each strictly inside (1/2, 1).

    The boundaries are rejected: at 1/2 a component is pure noise and at 1
    several case intervals of the incentive analysis degenerate.
    """

    theta1: float
    theta2: float

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            value = _check_real(getattr(self, name), name)
            if not 0.5 < value < 1.0:
                raise ParameterError(
                    f"{name} must lie strictly between 1/2 and 1, got {value}"
                )
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PayoffStructure:
    """Utility of a correct guess, utility of a wrong one, and their gap."""

    u_correct: float
    u_wrong: float

    def __post_init__(self):
        for name in ("u_correct", "u_wrong"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        if not 0 < self.u_correct - self.u_wrong < math.inf:
            raise ParameterError(
                "the premium for guessing correctly must be positive and finite "
                f"(u_correct={self.u_correct}, u_wrong={self.u_wrong})"
            )

    @property
    def delta_u(self) -> float:
        return self.u_correct - self.u_wrong


def _check_real(value, name: str, error: type[ModelError] = ParameterError) -> float:
    # The one number rule at the API boundary: a finite numbers.Real (numpy
    # scalars too, Decimal not), as a float; bools are ints but not numbers here.
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and math.isfinite(value)
    ):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_cost(c: float, name: str = "cost") -> float:
    """Validate a processing cost: a finite number >= 0; NaN, inf and bools raise."""
    # The grid checks make millions of calls: settle a plain float first.
    if type(c) is float and 0.0 <= c < math.inf:
        return c
    value = _check_real(c, name)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {c!r}")
    return value


def check_values(values, name: str, check) -> list:
    """Validate a list argument: one or more values, each by ``check``, as a list."""
    # Any iterable but a str or bytes, which would pass as a list of characters.
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ParameterError(f"{name!r} must be a list of values, got {values!r}")
    checked = [check(value) for value in values]
    if not checked:
        raise ParameterError(f"{name!r} needs at least one value")
    return checked


def check_pair(p_i: float, p_j: float, strict: bool = False) -> tuple[float, float]:
    """Validate a pair of priors in order: ``p_i <= p_j``, or ``p_i < p_j`` if ``strict``."""
    p_i, p_j = check_probability(p_i, "p_i"), check_probability(p_j, "p_j")
    if p_i > p_j or (strict and p_i == p_j):
        order = "<" if strict else "<="
        raise OrderingError(f"pair priors must satisfy p_i {order} p_j, got ({p_i}, {p_j})")
    return p_i, p_j


def check_count(n: int, name: str, minimum: int) -> int:
    """Validate a count such as a draw count or a seed: an integer >= ``minimum``.

    numpy integers are accepted; floats, strings and bools raise.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {n!r}")
    return int(n)


def check_probability(p: float, name: str = "p") -> float:
    """Validate a probability; NaN, bools, strings and out-of-range values raise."""
    if type(p) is float and 0.0 <= p <= 1.0:  # the fast path, as in check_cost
        return p
    value = _check_real(p, name, InvalidProbabilityError)
    if not 0.0 <= value <= 1.0:
        raise InvalidProbabilityError(f"{name} must lie in [0, 1], got {p!r}")
    return value


def _likelihoods(theta: float, value: SignalComponentValue) -> tuple[float, float]:
    # (P(value | A), P(value | B)) for a symmetric binary component: the one
    # statement of the component law.
    return (theta, 1.0 - theta) if value is ALPHA else (1.0 - theta, theta)


def _posterior(p, info: InformationStructure, s1: SignalComponentValue, s2=None):
    # Bayes' rule after the first component, or after both when ``s2`` is
    # given.  ``p`` is a validated float or a numpy row of them, and the
    # result is the same: the one statement of the updating step.
    la, lb = _likelihoods(info.theta1, s1)
    if s2 is not None:
        la2, lb2 = _likelihoods(info.theta2, s2)
        la, lb = la * la2, lb * lb2
        if la == lb:  # uninformative, e.g. opposing components at equal precisions
            return p
    num = la * p
    return num / (num + lb * (1.0 - p))


def posterior_after_first(
    p: float, info: InformationStructure, s1: SignalComponentValue
) -> float:
    """Belief in state A after observing only the first component.

    Monotone increasing in the prior; degenerate priors 0 and 1 are absorbing.
    """
    return _posterior(check_probability(p), info, check_component(s1))


def posterior_after_both(
    p: float,
    info: InformationStructure,
    s1: SignalComponentValue,
    s2: SignalComponentValue,
) -> float:
    """Belief in state A after observing both components.

    Equals two chained single-component updates, first with theta1 then with
    theta2, because the components are conditionally independent.
    """
    return _posterior(check_probability(p), info, check_component(s1), check_component(s2))


def _marginal(p, theta: float, value: SignalComponentValue):
    # Probability that a component of precision ``theta`` takes ``value`` at
    # belief ``p``, a validated float or a numpy row of them: the one
    # statement of a component's marginal.
    like_a, like_b = _likelihoods(theta, value)
    return p * like_a + (1.0 - p) * like_b


def marginal_first(
    p: float, info: InformationStructure, s1: SignalComponentValue
) -> float:
    """Unconditional probability that the first component takes value ``s1``."""
    return _marginal(check_probability(p), info.theta1, check_component(s1))


def conditional_second(
    p_after_first: float, info: InformationStructure, s2: SignalComponentValue
) -> float:
    """Probability of the second component's value given the interim belief.

    The interim posterior is a sufficient statistic for the first component,
    so this is just the second-component marginal evaluated at that belief.
    """
    q = check_probability(p_after_first, "p_after_first")
    return _marginal(q, info.theta2, check_component(s2))


def signal_law(
    p: float, info: InformationStructure, law: str
) -> tuple[float, float, float, float]:
    """Probabilities of the four signals, in ``ALL_SIGNALS`` order, under prior ``p``.

    Each is the first component's marginal times the second's probability at
    a belief: the interim posterior after the first for ``law="coupled"``,
    the model's law, where both components track the same state; ``p``
    itself for ``law="product"``, the law of the paper's polarization closed
    form, which multiplies the two components' unconditional marginals.
    """
    p = check_probability(p)
    if law not in ("coupled", "product"):
        raise ParameterError(f"unknown signal law {law!r}; expected 'coupled' or 'product'")
    components = (ALPHA, BETA)  # ALL_SIGNALS order: first component outer, second inner
    firsts = [_marginal(p, info.theta1, s1) for s1 in components]
    beliefs = [p, p] if law == "product" else [_posterior(p, info, s1) for s1 in components]
    return tuple(
        first * _marginal(belief, info.theta2, s2)
        for first, belief in zip(firsts, beliefs)
        for s2 in components
    )
