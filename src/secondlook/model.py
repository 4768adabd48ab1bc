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
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidProbabilityError, ParameterError


class StateOfWorld(Enum):
    A = "A"
    B = "B"


class SignalComponentValue(Enum):
    ALPHA = "alpha"
    BETA = "beta"


ALPHA = SignalComponentValue.ALPHA
BETA = SignalComponentValue.BETA


@dataclass(frozen=True)
class Signal:
    """One realization of the two-component signal."""

    first: SignalComponentValue
    second: SignalComponentValue

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
        for name, value in (("theta1", self.theta1), ("theta2", self.theta2)):
            if not 0.5 < _check_real(value, name) < 1.0:
                raise ParameterError(
                    f"{name} must lie strictly between 1/2 and 1, got {value}"
                )


@dataclass(frozen=True)
class PayoffStructure:
    """Utility of a correct guess, utility of a wrong one, and their gap."""

    u_correct: float
    u_wrong: float

    def __post_init__(self):
        _check_real(self.u_correct, "u_correct")
        _check_real(self.u_wrong, "u_wrong")
        if not self.u_correct - self.u_wrong > 0:
            raise ParameterError(
                "the premium for guessing correctly must be positive "
                f"(u_correct={self.u_correct}, u_wrong={self.u_wrong})"
            )

    @property
    def delta_u(self) -> float:
        return self.u_correct - self.u_wrong


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: precisions, payoffs, processing cost, priors.

    Holds one prior for single-decision-maker analyses or an ordered pair
    (low, high) for pairwise ones.
    """

    info: InformationStructure
    payoffs: PayoffStructure
    cost: float
    priors: tuple[float, ...]

    def __post_init__(self):
        check_cost(self.cost, "processing cost")
        if len(self.priors) not in (1, 2):
            raise ParameterError("a scenario holds one prior or an ordered pair")
        for p in self.priors:
            check_probability(p, "prior")
        if len(self.priors) == 2 and not self.priors[0] <= self.priors[1]:
            raise ParameterError(
                f"pair priors must be ordered low <= high, got {self.priors}"
            )


def _check_real(value, name: str) -> float:
    # A finite int or float; bools are ints to Python but not numbers here.
    if isinstance(value, bool) or not (
        isinstance(value, (int, float)) and math.isfinite(value)
    ):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    return value


def check_cost(c: float, name: str = "cost") -> float:
    """Validate a processing cost: a finite number >= 0; NaN, inf and bools raise."""
    # The grid checks make millions of calls: settle a plain float first.
    if type(c) is float and 0.0 <= c < math.inf:
        return c
    if _check_real(c, name) < 0:
        raise ParameterError(f"{name} must be >= 0, got {c!r}")
    return c


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
    if isinstance(p, (bool, str, bytes)):
        raise InvalidProbabilityError(f"{name} must be a number, got {p!r}")
    try:
        value = float(p)
    except (TypeError, ValueError):
        raise InvalidProbabilityError(f"{name} must be a number, got {p!r}") from None
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise InvalidProbabilityError(f"{name} must lie in [0, 1], got {p!r}")
    return value


def _likelihood(theta: float, value: SignalComponentValue, state: StateOfWorld) -> float:
    # P(component = value | state) for a symmetric binary component.
    matches = (value is ALPHA) == (state is StateOfWorld.A)
    return theta if matches else 1.0 - theta


def posterior_after_first(
    p: float, info: InformationStructure, s1: SignalComponentValue
) -> float:
    """Belief in state A after observing only the first component.

    Monotone increasing in the prior; degenerate priors 0 and 1 are absorbing.
    """
    p = check_probability(p)
    la = _likelihood(info.theta1, s1, StateOfWorld.A)
    lb = _likelihood(info.theta1, s1, StateOfWorld.B)
    num = la * p
    return num / (num + lb * (1.0 - p))


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
    p = check_probability(p)
    la = _likelihood(info.theta1, s1, StateOfWorld.A) * _likelihood(
        info.theta2, s2, StateOfWorld.A
    )
    lb = _likelihood(info.theta1, s1, StateOfWorld.B) * _likelihood(
        info.theta2, s2, StateOfWorld.B
    )
    if la == lb:  # uninformative, e.g. opposing components at equal precisions
        return p
    num = la * p
    return num / (num + lb * (1.0 - p))


def marginal_first(
    p: float, info: InformationStructure, s1: SignalComponentValue
) -> float:
    """Unconditional probability that the first component takes value ``s1``."""
    p = check_probability(p)
    return p * _likelihood(info.theta1, s1, StateOfWorld.A) + (1.0 - p) * _likelihood(
        info.theta1, s1, StateOfWorld.B
    )


def conditional_second(
    p_after_first: float, info: InformationStructure, s2: SignalComponentValue
) -> float:
    """Probability of the second component's value given the interim belief.

    The interim posterior is a sufficient statistic for the first component,
    so this is just the second-component marginal evaluated at that belief.
    """
    q = check_probability(p_after_first, "p_after_first")
    return q * _likelihood(info.theta2, s2, StateOfWorld.A) + (1.0 - q) * _likelihood(
        info.theta2, s2, StateOfWorld.B
    )


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
    return tuple(
        marginal_first(p, info, s.first)
        * conditional_second(
            posterior_after_first(p, info, s.first) if law == "coupled" else p,
            info,
            s.second,
        )
        for s in ALL_SIGNALS
    )
