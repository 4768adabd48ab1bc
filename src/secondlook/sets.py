"""Prior sets induced by the cost function, and pairwise classifications.

The willingness-to-pay curve for a given first component is single-peaked,
so the priors strictly willing to pay a cost ``c`` form an open interval
H(c) whose endpoints invert the cost function in closed form.  As ``c``
drops to zero, H(c) grows to the set of non-extreme priors: those willing
to pay *some* positive cost.  Everyone else is extreme: so sure of the
state (or facing so uninformative a second component) that no positive
cost is ever worth it.

Two boundary conventions worth knowing:

* H(c) is open (strict willingness), while the acquisition rule is weak
  (acquire at indifference).  A prior sitting exactly on the boundary of
  H(c) therefore acquires at cost ``c`` but is not a member of H(c).
* At ``c`` exactly equal to the cost function's maximum the two inversion
  thresholds coincide; the single-point "interval" contains no prior with
  a strictly higher willingness, so H(c) is empty there.

For a pair of priors (low, high), the B sets record who acquires at a given
cost while the other does not, by the one acquisition rule (ties acquire), so
at cost 0 no prior acquires alone.  The V sets record who is strictly more
willing to pay regardless of cost.  B membership at any cost implies the
corresponding V membership.  Each law is stated once, on floats and numpy
rows alike: :func:`b_memberships` (the four B sets at a cost) and
:func:`v_memberships` (the four V orderings).  :func:`classify_pair` reads
both for one pair, and ``secondlook sets`` reads both for one low prior
against the row of all higher ones.
:func:`secondlook.patterns.polarization_feasible` reads V without a cost and
B with one; the pairwise grid checks read B.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExtremeBeliefError, ParameterError
from .incentives import (
    _willingness_rows,
    case_thresholds,
    max_willingness_to_pay,
    willingness_to_pay,
)
from .model import (
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    SignalComponentValue,
    check_component,
    check_cost,
    check_pair,
    check_probability,
)

@dataclass(frozen=True)
class ProbabilityInterval:
    """An interval of probabilities; emptiness is explicit, not encoded by bounds."""

    lower: float
    upper: float
    closed_ends: bool = False  # both ends in, or neither
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lower > self.upper:
            raise ParameterError(
                f"interval bounds out of order: ({self.lower}, {self.upper})"
            )

    @classmethod
    def open(cls, lower: float, upper: float) -> "ProbabilityInterval":
        return cls(lower, upper)

    @classmethod
    def closed(cls, lower: float, upper: float) -> "ProbabilityInterval":
        return cls(lower, upper, closed_ends=True)

    @classmethod
    def empty_interval(cls) -> "ProbabilityInterval":
        return cls(0.0, 0.0, empty=True)

    def __contains__(self, p: float) -> bool:
        if self.empty:
            return False
        if self.closed_ends:
            return self.lower <= p <= self.upper
        return self.lower < p < self.upper


def inversion_thresholds(
    c: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> tuple[float, float]:
    """The two priors at which the cost function equals ``c``, in closed form.

    Defined for 0 <= c <= the cost function's maximum; at the maximum both
    thresholds collapse onto the peak prior.
    """
    c = check_cost(c)
    check_component(s1)
    ceiling = max_willingness_to_pay(info, payoffs)
    if c > ceiling:
        raise ParameterError(
            f"cost {c} exceeds the maximum willingness to pay {ceiling}"
        )
    t1, t2 = info.theta1, info.theta2
    du = payoffs.delta_u
    diff = t1 + t2 - 2.0 * t1 * t2
    # Denominators: du*(diff-1) + (2*t1-1)*c stays negative and
    # du*diff + (2*t1-1)*c stays positive on the admissible cost range.
    den_neg = du * (diff - 1.0) + (2.0 * t1 - 1.0) * c
    den_pos = du * diff + (2.0 * t1 - 1.0) * c
    if s1 is ALPHA:
        lower = (1.0 - t1) * (du * (t2 - 1.0) - c) / den_neg
        upper = (1.0 - t1) * (du * t2 - c) / den_pos
    else:
        lower = t1 * (c + du * (1.0 - t2)) / den_pos
        upper = t1 * (c - du * t2) / den_neg
    if lower > upper:
        # Crossed by round-off where they meet: at the peak prior, exactly.
        peak = case_thresholds(info, s1)[1]
        return peak, peak
    # Round-off can also lift the upper one above 1 when theta1 is next to 1.
    return lower, min(upper, 1.0)


def h_set(
    c: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> ProbabilityInterval:
    """Open interval of priors strictly willing to pay ``c`` after ``s1``.

    Empty once ``c`` reaches the cost function's maximum.
    """
    check_component(s1)
    if check_cost(c) >= max_willingness_to_pay(info, payoffs):
        return ProbabilityInterval.empty_interval()
    lower, upper = inversion_thresholds(c, info, payoffs, s1)
    return ProbabilityInterval.open(lower, upper)


@dataclass(frozen=True)
class ExtremeSets:
    """Non-extreme priors per first component, their union, and its complement."""

    non_extreme_alpha: ProbabilityInterval
    non_extreme_beta: ProbabilityInterval
    non_extreme: tuple[ProbabilityInterval, ...]
    extreme: tuple[ProbabilityInterval, ...]
    is_convex: bool

    def is_extreme(self, p: float) -> bool:
        return not (p in self.non_extreme_alpha or p in self.non_extreme_beta)


def extreme_sets(info: InformationStructure) -> ExtremeSets:
    """Partition of [0, 1] into extreme and non-extreme priors.

    The union of the two per-component intervals is connected exactly when
    the second component is at least as informative as the first; otherwise
    a band of moderate priors in the middle is nonetheless extreme.
    """
    payoffs = PayoffStructure(1.0, 0.0)  # thresholds at c=0 do not depend on payoffs
    ne_alpha = h_set(0.0, info, payoffs, ALPHA)
    ne_beta = h_set(0.0, info, payoffs, BETA)
    connected = ne_beta.lower <= ne_alpha.upper
    # Exactly, alpha's interval comes first; next to theta = 1/2 or 1 round-off can swap ends.
    lower, upper = min(ne_alpha.lower, ne_beta.lower), max(ne_alpha.upper, ne_beta.upper)
    union = (ProbabilityInterval.open(lower, upper),) if connected else (ne_alpha, ne_beta)
    # The extreme priors: the closed gaps between 0, the union's ends in order, and 1.
    ends = (0.0, *(end for part in union for end in (part.lower, part.upper)), 1.0)
    return ExtremeSets(
        non_extreme_alpha=ne_alpha,
        non_extreme_beta=ne_beta,
        non_extreme=union,
        extreme=tuple(ProbabilityInterval.closed(*gap) for gap in zip(ends[::2], ends[1::2])),
        is_convex=connected,
    )


def reciprocal_partner(
    p_i: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
    s1: SignalComponentValue,
) -> float:
    """The other prior with the same willingness to pay after ``s1``.

    The cost function rises on one side of its peak and falls on the other,
    so every non-extreme prior has exactly one partner on the opposite
    branch: the inversion threshold of its own willingness to pay that lies
    across the peak.  The peak prior is its own partner and is returned as
    the degenerate fixed point.  Extreme priors have no partner (the whole
    zero-willingness region is flat) and raise.
    """
    p_i = check_probability(p_i, "p_i")
    ne = h_set(0.0, info, payoffs, s1)
    if p_i not in ne:
        raise ExtremeBeliefError(
            f"prior {p_i} is extreme for first component {s1.value}; "
            "no reciprocal partner exists"
        )
    peak = case_thresholds(info, s1)[1]
    if p_i == peak:
        return p_i
    # Round-off can lift a prior next to the peak an ulp above the maximum.
    target = min(
        willingness_to_pay(p_i, info, payoffs, s1), max_willingness_to_pay(info, payoffs)
    )
    lower, upper = inversion_thresholds(target, info, payoffs, s1)
    return upper if p_i < peak else lower


@dataclass(frozen=True)
class PairClass:
    """Acquisition asymmetries for an ordered pair of priors (low, high).

    ``in_b_low_alpha`` holds when, at the given cost and after alpha, the
    low prior acquires while the high one does not; the other fields follow
    the same naming.  V fields compare willingness to pay without fixing a
    cost.
    """

    in_b_low_alpha: bool
    in_b_high_beta: bool
    in_b_high_alpha: bool
    in_b_low_beta: bool
    in_v_low_alpha: bool
    in_v_high_beta: bool
    in_v_high_alpha: bool
    in_v_low_beta: bool


def b_memberships(wtp_low, wtp_high, c):
    """The four B sets at cost ``c``, in :class:`PairClass` field order, from willingness.

    ``wtp_low`` and ``wtp_high`` are each prior's (alpha, beta) willingness to
    pay; a B set holds when one prior alone acquires (``c`` at most its
    willingness, so ties acquire, as in
    :func:`secondlook.patterns.realized_posterior`) while the other skips
    (``c`` above its willingness).  Only comparisons and ``&`` are used,
    so floats give bools and numpy rows give boolean rows: the one statement
    of the law for both.
    """
    (alpha_i, beta_i), (alpha_j, beta_j) = wtp_low, wtp_high
    return (
        (c <= alpha_i) & (alpha_j < c),
        (c <= beta_j) & (beta_i < c),
        (c <= alpha_j) & (alpha_i < c),
        (c <= beta_i) & (beta_j < c),
    )


def v_memberships(wtp_low, wtp_high):
    """The four V orderings, in :class:`PairClass` field order, from willingness.

    Which prior is strictly more willing to pay after each first component,
    whatever the cost; floats give bools and numpy rows give rows, as in
    :func:`b_memberships`.
    """
    (alpha_i, beta_i), (alpha_j, beta_j) = wtp_low, wtp_high
    return alpha_i > alpha_j, beta_j > beta_i, alpha_j > alpha_i, beta_i > beta_j


def classify_pair(
    p_i: float,
    p_j: float,
    c: float,
    info: InformationStructure,
    payoffs: PayoffStructure,
) -> PairClass:
    """All eight B/V memberships for the ordered pair ``p_i <= p_j`` at cost ``c``.

    B membership reads the acquisition rule: the acquiring prior's
    willingness is at least the cost and the other's falls short of it, so B
    at cost ``c`` always implies the matching V membership.
    """
    p_i, p_j = check_pair(p_i, p_j)
    c = check_cost(c)
    low, high = zip(*_willingness_rows((p_i, p_j), info, payoffs))
    return PairClass(*b_memberships(low, high, c), *v_memberships(low, high))
