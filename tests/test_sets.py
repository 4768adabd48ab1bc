import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from secondlook import (
    ALPHA,
    BETA,
    AcquisitionAction,
    ExtremeBeliefError,
    InformationStructure,
    OrderingError,
    ParameterError,
    PayoffStructure,
    ProbabilityInterval,
    Signal,
    classify_pair,
    extreme_sets,
    h_set,
    inversion_thresholds,
    max_willingness_to_pay,
    reciprocal_partner,
    realized_posterior,
    willingness_to_pay,
)
from secondlook.sets import b_memberships, v_memberships


def _random_structures(rng, n):
    for _ in range(n):
        t1 = float(rng.uniform(0.52, 0.97))
        t2 = float(rng.uniform(0.52, 0.97))
        du = float(rng.uniform(0.2, 5.0))
        yield InformationStructure(t1, t2), PayoffStructure(du, 0.0)


def test_probability_interval_basics():
    open_iv = ProbabilityInterval.open(0.2, 0.6)
    assert 0.3 in open_iv and 0.2 not in open_iv and 0.6 not in open_iv
    closed_iv = ProbabilityInterval.closed(0.2, 0.6)
    assert 0.2 in closed_iv and 0.6 in closed_iv
    empty = ProbabilityInterval.empty_interval()
    assert empty.empty and 0.5 not in empty
    with pytest.raises(ParameterError):
        ProbabilityInterval.open(0.7, 0.2)


def test_h_set_reference_interval(info, payoffs):
    interval = h_set(0.1, info, payoffs, ALPHA)
    assert interval.lower == pytest.approx(2 / 9, abs=1e-12)
    assert interval.upper == pytest.approx(14 / 23, abs=1e-12)
    # both endpoints pay exactly the cost
    for q in (interval.lower, interval.upper):
        assert willingness_to_pay(q, info, payoffs, ALPHA) == pytest.approx(0.1, abs=1e-9)


def test_h_set_empty_beyond_peak(info, payoffs):
    assert h_set(0.31, info, payoffs, ALPHA).empty
    assert h_set(0.31, info, payoffs, BETA).empty
    # exactly at the peak the strict inequality has no solutions
    assert h_set(max_willingness_to_pay(info, payoffs), info, payoffs, ALPHA).empty


def test_h_set_zero_cost_limit_is_non_extreme_interval(info, payoffs):
    interval = h_set(0.0, info, payoffs, ALPHA)
    assert interval.lower == pytest.approx(1 / 7, abs=1e-12)
    assert interval.upper == pytest.approx(8 / 11, abs=1e-12)
    beta = h_set(0.0, info, payoffs, BETA)
    assert beta.lower == pytest.approx(3 / 11, abs=1e-12)
    assert beta.upper == pytest.approx(6 / 7, abs=1e-12)


def test_extreme_sets_at_a_precision_an_ulp_above_half():
    # The beta thresholds meet at the peak prior theta1 and used to cross by
    # round-off, so building the interval raised.
    sets = extreme_sets(InformationStructure(0.75, 0.5000000000000001))
    assert sets.non_extreme_beta.lower == sets.non_extreme_beta.upper == 0.75
    assert not sets.is_extreme(0.25) and sets.is_extreme(0.75)


@given(
    t1=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    t2=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)
# Round-off put alpha's upper end past beta's, and the union once ended at beta's.
@example(t1=0.5000000000000001, t2=0.75)
@example(t1=0.6, t2=0.9999999999999998)
def test_extreme_sets_exist_for_every_precision(t1, t2):
    sets = extreme_sets(InformationStructure(t1, t2))
    for interval in sets.non_extreme + sets.extreme:
        assert 0.0 <= interval.lower <= interval.upper <= 1.0
    # Extreme and non-extreme pieces alternate along [0, 1]: each shared end
    # belongs to the closed extreme piece, not to the open non-extreme one.
    assert len(sets.extreme) == len(sets.non_extreme) + 1
    pieces = [sets.extreme[0]]
    for non_extreme, extreme in zip(sets.non_extreme, sets.extreme[1:]):
        pieces += [non_extreme, extreme]
    assert pieces[0].lower == 0.0 and pieces[-1].upper == 1.0
    for left, right in zip(pieces, pieces[1:]):
        assert left.upper == right.lower
    for extreme in sets.extreme:
        assert extreme.lower in extreme and extreme.upper in extreme
        assert sets.is_extreme(extreme.lower) and sets.is_extreme(extreme.upper)


def test_inversion_thresholds_invert_the_cost_function():
    rng = np.random.default_rng(11)
    for info, payoffs in _random_structures(rng, 100):
        c = float(rng.uniform(0.0, max_willingness_to_pay(info, payoffs)))
        for s1 in (ALPHA, BETA):
            lo, hi = inversion_thresholds(c, info, payoffs, s1)
            assert lo < hi
            assert willingness_to_pay(lo, info, payoffs, s1) == pytest.approx(c, abs=1e-9)
            assert willingness_to_pay(hi, info, payoffs, s1) == pytest.approx(c, abs=1e-9)


def test_threshold_ordering_across_components():
    rng = np.random.default_rng(12)
    for info, payoffs in _random_structures(rng, 100):
        c = float(rng.uniform(0.0, max_willingness_to_pay(info, payoffs) * 0.999))
        lo_a, hi_a = inversion_thresholds(c, info, payoffs, ALPHA)
        lo_b, hi_b = inversion_thresholds(c, info, payoffs, BETA)
        assert 0.0 < lo_a < lo_b
        assert hi_a < hi_b < 1.0


def test_overlap_iff_cost_below_precision_gap():
    payoffs = PayoffStructure(1.0, 0.0)
    for t1 in (0.55, 0.6, 0.7, 0.8):
        for t2 in (0.55, 0.65, 0.8, 0.9):
            info = InformationStructure(t1, t2)
            ceiling = max_willingness_to_pay(info, payoffs)
            for c in np.linspace(0.0, ceiling * 0.999, 25):
                lo_b = inversion_thresholds(float(c), info, payoffs, BETA)[0]
                hi_a = inversion_thresholds(float(c), info, payoffs, ALPHA)[1]
                overlap = lo_b <= hi_a
                predicted = c <= payoffs.delta_u * (t2 - t1) + 1e-12
                assert overlap == predicted


def test_h_membership_matches_strict_willingness(info, payoffs):
    c = 0.1
    interval = h_set(c, info, payoffs, ALPHA)
    for p in np.linspace(0, 1, 1001):
        p = float(p)
        if abs(p - interval.lower) <= 1e-9 or abs(p - interval.upper) <= 1e-9:
            continue
        member = p in interval
        assert member == (willingness_to_pay(p, info, payoffs, ALPHA) > c)


def test_extreme_sets_overlapping(info):
    sets = extreme_sets(info)
    assert sets.non_extreme_alpha.lower == pytest.approx(1 / 7, abs=1e-12)
    assert sets.non_extreme_alpha.upper == pytest.approx(8 / 11, abs=1e-12)
    assert sets.non_extreme_beta.lower == pytest.approx(3 / 11, abs=1e-12)
    assert sets.non_extreme_beta.upper == pytest.approx(6 / 7, abs=1e-12)
    assert sets.is_convex
    assert len(sets.non_extreme) == 1
    assert len(sets.extreme) == 2
    assert not sets.is_extreme(0.5)
    assert sets.is_extreme(0.05) and sets.is_extreme(0.95)


def test_extreme_sets_near_equal_precisions_stay_connected():
    sets = extreme_sets(InformationStructure(0.7, 0.7 + 1e-6))
    assert sets.is_convex
    assert len(sets.non_extreme) == 1
    gap = sets.non_extreme_beta.lower - sets.non_extreme_alpha.upper
    assert gap <= 0.0  # still touching or overlapping


def test_extreme_sets_gap_when_first_component_stronger():
    sets = extreme_sets(InformationStructure(0.8, 0.6))
    assert not sets.is_convex
    assert len(sets.non_extreme) == 2
    assert len(sets.extreme) == 3
    # moderate priors in the middle are nonetheless extreme
    assert sets.is_extreme(0.5)
    assert not sets.is_extreme(0.2)
    assert not sets.is_extreme(0.8)


PRECISION = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


@given(theta1=PRECISION, theta2=PRECISION, ulps=st.sampled_from([None, -2, -1, 0, 1, 2]))
@example(theta1=math.nextafter(0.5, 1.0), theta2=0.6, ulps=1)
@example(theta1=0.75, theta2=0.6, ulps=-1)
@example(theta1=0.75, theta2=0.6, ulps=0)
@example(theta1=math.nextafter(1.0, 0.0), theta2=0.6, ulps=-2)
def test_is_convex_is_the_computed_partition(theta1, theta2, ulps):
    # The interval endpoints are computed in floats, so equal precisions and
    # precisions an ulp or two apart are where they could disagree with the
    # precision ordering.
    if ulps is not None:
        theta2 = theta1
        for _ in range(abs(ulps)):
            theta2 = math.nextafter(theta2, 1.0 if ulps > 0 else 0.0)
        assume(0.5 < theta2 < 1.0)
    sets = extreme_sets(InformationStructure(theta1, theta2))
    assert sets.is_convex == (theta2 >= theta1)
    assert len(sets.non_extreme) == (1 if sets.is_convex else 2)


def test_reciprocal_partner_is_opposite_h_endpoint(info, payoffs):
    lo, hi = inversion_thresholds(0.1, info, payoffs, ALPHA)
    assert reciprocal_partner(lo, info, payoffs, ALPHA) == pytest.approx(hi, abs=1e-9)
    assert reciprocal_partner(hi, info, payoffs, ALPHA) == pytest.approx(lo, abs=1e-9)
    wtp_lo = willingness_to_pay(lo, info, payoffs, ALPHA)
    partner = reciprocal_partner(lo, info, payoffs, ALPHA)
    assert willingness_to_pay(partner, info, payoffs, ALPHA) == pytest.approx(
        wtp_lo, abs=1e-9
    )


def test_reciprocal_partner_random_structures():
    rng = np.random.default_rng(21)
    for info, payoffs in _random_structures(rng, 40):
        c = float(rng.uniform(0.0, max_willingness_to_pay(info, payoffs) * 0.98))
        for s1 in (ALPHA, BETA):
            lo, hi = inversion_thresholds(c, info, payoffs, s1)
            assert reciprocal_partner(lo, info, payoffs, s1) == pytest.approx(hi, abs=1e-8)


# Precisions stay a little inside (1/2, 1), where the cost curve is neither
# flat nor a spike.  Priors stay 1e-12 of its width inside the non-extreme
# interval: an ulp from one end, the partner rounds onto the other end,
# which is extreme and has no partner of its own.
@given(
    t1=st.floats(0.51, 0.99),
    t2=st.floats(0.51, 0.99),
    s1=st.sampled_from((ALPHA, BETA)),
    u=st.floats(1e-12, 1.0 - 1e-12),
)
def test_reciprocal_partner_inverts_the_cost_function(t1, t2, s1, u):
    info, payoffs = InformationStructure(t1, t2), PayoffStructure(1.0, 0.0)
    ne = h_set(0.0, info, payoffs, s1)
    p = ne.lower + u * (ne.upper - ne.lower)
    peak = 1.0 - t1 if s1 is ALPHA else t1
    assume(p != peak)
    partner = reciprocal_partner(p, info, payoffs, s1)
    assert abs(
        willingness_to_pay(partner, info, payoffs, s1)
        - willingness_to_pay(p, info, payoffs, s1)
    ) <= 1e-12
    assert (partner - peak) * (p - peak) <= 0.0
    assert reciprocal_partner(partner, info, payoffs, s1) == pytest.approx(p, abs=1e-9)


def test_reciprocal_partner_peak_is_own_partner(info, payoffs):
    assert reciprocal_partner(0.4, info, payoffs, ALPHA) == 0.4
    assert reciprocal_partner(0.6, info, payoffs, BETA) == 0.6


def test_reciprocal_partner_rejects_extreme_priors(info, payoffs):
    with pytest.raises(ExtremeBeliefError):
        reciprocal_partner(0.9, info, payoffs, ALPHA)
    with pytest.raises(ExtremeBeliefError):
        reciprocal_partner(0.05, info, payoffs, BETA)


def test_classify_pair_reference(info, payoffs):
    pair = classify_pair(0.3, 0.7, 0.1, info, payoffs)
    assert pair.in_b_low_alpha
    assert pair.in_b_high_beta
    assert not pair.in_b_high_alpha
    assert not pair.in_b_low_beta
    assert pair.in_v_low_alpha
    assert pair.in_v_high_beta
    assert not pair.in_v_high_alpha
    assert not pair.in_v_low_beta


def test_classify_pair_identical_priors_all_false(info, payoffs):
    pair = classify_pair(0.4, 0.4, 0.1, info, payoffs)
    assert not any(
        (
            pair.in_b_low_alpha,
            pair.in_b_high_beta,
            pair.in_b_high_alpha,
            pair.in_b_low_beta,
            pair.in_v_low_alpha,
            pair.in_v_high_beta,
            pair.in_v_high_alpha,
            pair.in_v_low_beta,
        )
    )


def test_classify_pair_ordering_enforced(info, payoffs):
    with pytest.raises(OrderingError):
        classify_pair(0.7, 0.3, 0.1, info, payoffs)


def test_one_sided_acquisition_implies_willingness_ordering():
    rng = np.random.default_rng(31)
    for info, payoffs in _random_structures(rng, 200):
        p_i, p_j = sorted(float(x) for x in rng.random(2))
        c = float(rng.uniform(0.0, max_willingness_to_pay(info, payoffs)))
        pair = classify_pair(p_i, p_j, c, info, payoffs)
        assert not pair.in_b_low_alpha or pair.in_v_low_alpha
        assert not pair.in_b_high_beta or pair.in_v_high_beta
        assert not pair.in_b_high_alpha or pair.in_v_high_alpha
        assert not pair.in_b_low_beta or pair.in_v_low_beta


# Few distinct values, so willingness ties with itself and with the cost often.
TIE_PRONE = st.sampled_from([0.0, 0.05, 0.1, math.nextafter(0.1, 1.0), 0.2, 0.3])
WTP = st.tuples(TIE_PRONE, TIE_PRONE)  # (alpha, beta)


@given(pairs=st.lists(st.tuples(WTP, WTP), min_size=1, max_size=8), c=TIE_PRONE)
def test_pair_memberships_on_rows_equal_their_float_values(pairs, c):
    def memberships(low, high):  # both laws, in PairClass field order
        return b_memberships(low, high, c) + v_memberships(low, high)

    on_floats = [memberships(low, high) for low, high in pairs]
    assert all(type(m) is bool for row in on_floats for m in row)
    low, high = (np.array(side).T for side in zip(*pairs))
    rows = memberships(low, high)
    assert [m.tolist() for m in rows] == [list(col) for col in zip(*on_floats)]
    # one low prior against a row of higher ones, as ``secondlook sets`` calls it
    first = pairs[0][0]
    rows = memberships(first, high)
    assert [m.tolist() for m in rows] == [
        list(col) for col in zip(*(memberships(first, j) for _, j in pairs))
    ]


PRIOR = st.sampled_from([0.0, 0.125, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0])


@given(
    priors=st.tuples(PRIOR, PRIOR),
    thetas=st.sampled_from([(0.6, 0.8), (0.8, 0.6), (0.7, 0.7), (0.55, 0.9)]),
    pick=st.integers(0, 6),
)
def test_b_sets_read_the_acquisition_rule(priors, thetas, pick):
    # One tie rule: a B set holds exactly when its prior acquires and the other
    # skips, at cost 0 and at each prior's own willingness too.
    info, payoffs = InformationStructure(*thetas), PayoffStructure(1.0, 0.0)
    p_i, p_j = sorted(priors)
    costs = [0.0, 0.05, 0.2] + [
        willingness_to_pay(p, info, payoffs, s1) for p in (p_i, p_j) for s1 in (ALPHA, BETA)
    ]
    c = costs[pick]

    def acquires(p, first):
        _, action = realized_posterior(p, info, payoffs, c, Signal(first, first))
        return action is AcquisitionAction.ACQUIRE

    pair = classify_pair(p_i, p_j, c, info, payoffs)
    for acquirer, other, first, member in (
        (p_i, p_j, ALPHA, pair.in_b_low_alpha),
        (p_j, p_i, BETA, pair.in_b_high_beta),
        (p_j, p_i, ALPHA, pair.in_b_high_alpha),
        (p_i, p_j, BETA, pair.in_b_low_beta),
    ):
        assert member == (acquires(acquirer, first) and not acquires(other, first))


# Reciprocity after both components would make the two partners of a prior
# coincide.  Priors are drawn inside the intersection of the two non-extreme
# intervals, which is empty for some precisions when theta1 > theta2.
@given(
    t1=st.floats(0.51, 0.99),
    t2=st.floats(0.51, 0.99),
    u=st.floats(1e-12, 1.0 - 1e-12),
)
def test_reciprocal_on_at_most_one_component(t1, t2, u):
    info, payoffs = InformationStructure(t1, t2), PayoffStructure(1.0, 0.0)
    ne_alpha, ne_beta = (h_set(0.0, info, payoffs, s1) for s1 in (ALPHA, BETA))
    lower, upper = max(ne_alpha.lower, ne_beta.lower), min(ne_alpha.upper, ne_beta.upper)
    assume(lower < upper)
    p = lower + u * (upper - lower)
    assume(p in ne_alpha and p in ne_beta)
    assert reciprocal_partner(p, info, payoffs, ALPHA) != reciprocal_partner(
        p, info, payoffs, BETA
    )


# Each endpoint is a closed form of a few float operations, so at two costs
# a few ulps apart it can move the wrong way by a few ulps (by 1 in the
# explicit example, and by at most 4 in 200,000 sampled pairs of nearby
# costs).  The property allows 8.
@given(
    t1=st.floats(0.51, 0.99),
    t2=st.floats(0.51, 0.99),
    low=st.floats(0.0, 1.0, exclude_max=True),
    high=st.floats(0.0, 1.0, exclude_max=True),
)
@example(t1=0.81, t2=0.65, low=0.51, high=math.nextafter(0.51, 1.0))
def test_h_set_nests_as_cost_falls(t1, t2, low, high):
    info, payoffs = InformationStructure(t1, t2), PayoffStructure(1.0, 0.0)
    ceiling = max_willingness_to_pay(info, payoffs)
    c_low, c_high = sorted((low * ceiling, high * ceiling))
    assume(c_high < ceiling)
    for s1 in (ALPHA, BETA):
        wide, narrow = h_set(c_low, info, payoffs, s1), h_set(c_high, info, payoffs, s1)
        assert narrow.lower <= narrow.upper
        assert wide.lower <= narrow.lower + 8 * math.ulp(narrow.lower)
        assert narrow.upper <= wide.upper + 8 * math.ulp(wide.upper)
