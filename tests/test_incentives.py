import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from secondlook import (
    ALPHA,
    BETA,
    AcquisitionAction,
    InformationStructure,
    ParameterError,
    PayoffStructure,
    Signal,
    brute_force_voi,
    case_interval,
    case_thresholds,
    classify_case,
    incentives,
    max_willingness_to_pay,
    realized_posterior,
    willingness_to_pay,
)

thetas = st.floats(min_value=0.505, max_value=0.995)


def test_case_classification_reference(info):
    assert classify_case(0.7, info, ALPHA) == 2
    assert classify_case(0.3, info, ALPHA) == 3
    assert classify_case(0.95, info, ALPHA) == 1
    assert classify_case(0.05, info, ALPHA) == 4
    assert classify_case(0.05, info, BETA) == 5
    assert classify_case(0.4, info, BETA) == 6
    assert classify_case(0.7, info, BETA) == 7
    assert classify_case(0.95, info, BETA) == 8


def test_case_intervals_reference(info):
    lo2, hi2 = case_interval(2, info)
    assert lo2 == pytest.approx(0.4, abs=1e-12)
    assert hi2 == pytest.approx(8 / 11, abs=1e-12)
    lo6, hi6 = case_interval(6, info)
    assert lo6 == pytest.approx(3 / 11, abs=1e-12)
    assert hi6 == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("bad", [True, 1.0, "1", 0, 9], ids=repr)
def test_case_interval_takes_an_integer_case(info, bad):
    with pytest.raises(ParameterError):
        case_interval(bad, info)


@given(
    t1=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    t2=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)
@example(t1=0.6, t2=0.8)  # the ``info`` fixture
@example(t1=0.9999999999999998, t2=0.8)
@example(t1=0.6, t2=0.5000000000000001)
@example(t1=0.9999999999999998, t2=0.5000000000000001)
def test_case_intervals_tile_unit_interval(t1, t2):
    info = InformationStructure(t1, t2)
    for s1, cases in ((ALPHA, (4, 3, 2, 1)), (BETA, (5, 6, 7, 8))):
        spans = [case_interval(c, info) for c in cases]
        assert spans[0][0] == 0.0 and spans[-1][1] == 1.0
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        for case, (lo, hi) in zip(cases, spans):
            middle = (lo + hi) / 2
            if lo < middle < hi:
                assert classify_case(middle, info, s1) == case
            for end in (lo, hi):
                holding = [c for c, (a, b) in zip(cases, spans) if a <= end <= b]
                assert classify_case(end, info, s1) == min(holding)


def test_classification_ties_take_lower_case_number(info):
    lo_a, mid_a, hi_a = case_thresholds(info, ALPHA)
    assert classify_case(lo_a, info, ALPHA) == 3
    assert classify_case(mid_a, info, ALPHA) == 2
    assert classify_case(hi_a, info, ALPHA) == 1
    lo_b, mid_b, hi_b = case_thresholds(info, BETA)
    assert classify_case(lo_b, info, BETA) == 5
    assert classify_case(mid_b, info, BETA) == 6
    assert classify_case(hi_b, info, BETA) == 7


def test_willingness_reference_values(info, payoffs):
    assert willingness_to_pay(0.7, info, payoffs, ALPHA) == pytest.approx(0.02, abs=5e-3)
    assert willingness_to_pay(0.3, info, payoffs, ALPHA) == pytest.approx(0.19, abs=5e-3)
    # confirming-vs-contradicting willingness swaps across the first component
    assert willingness_to_pay(0.7, info, payoffs, BETA) == pytest.approx(0.19, abs=5e-3)
    assert willingness_to_pay(0.3, info, payoffs, BETA) == pytest.approx(0.02, abs=5e-3)


def test_willingness_peak_value_and_location(info, payoffs):
    peak = max_willingness_to_pay(info, payoffs)
    assert peak == pytest.approx(0.3, abs=1e-15)
    assert willingness_to_pay(0.4, info, payoffs, ALPHA) == pytest.approx(peak, abs=1e-12)
    assert willingness_to_pay(0.6, info, payoffs, BETA) == pytest.approx(peak, abs=1e-12)


def test_willingness_zero_on_outer_cases(info, payoffs):
    assert willingness_to_pay(0.05, info, payoffs, ALPHA) == 0.0
    assert willingness_to_pay(0.95, info, payoffs, ALPHA) == 0.0
    assert willingness_to_pay(0.05, info, payoffs, BETA) == 0.0
    assert willingness_to_pay(0.95, info, payoffs, BETA) == 0.0
    assert willingness_to_pay(0.0, info, payoffs, ALPHA) == 0.0
    assert willingness_to_pay(1.0, info, payoffs, BETA) == 0.0
    # exactly zero across the full outer intervals, not merely small
    for case, s1 in ((1, ALPHA), (4, ALPHA), (5, BETA), (8, BETA)):
        lo, hi = case_interval(case, info)
        for p in np.linspace(lo, hi, 200):
            assert willingness_to_pay(float(p), info, payoffs, s1) == 0.0


@given(p=st.floats(0.0, 1.0), t1=thetas, t2=thetas, du=st.floats(0.1, 10.0))
def test_willingness_mirror_symmetry(p, t1, t2, du):
    info = InformationStructure(t1, t2)
    payoffs = PayoffStructure(du, 0.0)
    lhs = willingness_to_pay(p, info, payoffs, ALPHA)
    rhs = willingness_to_pay(1.0 - p, info, payoffs, BETA)
    assert abs(lhs - rhs) <= 1e-12


@given(p=st.floats(0.0, 1.0), t1=thetas, t2=thetas, du=st.floats(0.1, 10.0))
def test_willingness_bounded_by_peak(p, t1, t2, du):
    info = InformationStructure(t1, t2)
    payoffs = PayoffStructure(du, 0.0)
    for s1 in (ALPHA, BETA):
        wtp = willingness_to_pay(p, info, payoffs, s1)
        assert 0.0 <= wtp <= max_willingness_to_pay(info, payoffs) + 1e-12


def test_willingness_continuous_across_case_boundaries(info, payoffs):
    # ~1e4 adjacent evaluations at 1e-8 spacing straddling every boundary
    boundaries = list(case_thresholds(info, ALPHA)) + list(case_thresholds(info, BETA))
    sides = [ALPHA] * 3 + [BETA] * 3
    for boundary, s1 in zip(boundaries, sides):
        grid = boundary + (np.arange(1667) - 833) * 1e-8
        values = [willingness_to_pay(float(p), info, payoffs, s1) for p in grid]
        steps = np.abs(np.diff(values))
        assert steps.max() <= 1e-6


def test_piece_shapes(info, payoffs):
    # case 3 rises and is concave; case 2 falls and is convex; the first
    # component's other value mirrors them (6 rises convex, 7 falls concave)
    def diffs(case, s1):
        lo, hi = case_interval(case, info)
        grid = np.linspace(lo + 1e-6, hi - 1e-6, 200)
        vals = np.array([willingness_to_pay(float(p), info, payoffs, s1) for p in grid])
        return np.diff(vals), np.diff(vals, 2)

    d1, d2 = diffs(3, ALPHA)
    assert (d1 > 0).all() and (d2 < 0).all()
    d1, d2 = diffs(2, ALPHA)
    assert (d1 < 0).all() and (d2 > 0).all()
    d1, d2 = diffs(6, BETA)
    assert (d1 > 0).all() and (d2 > 0).all()
    d1, d2 = diffs(7, BETA)
    assert (d1 < 0).all() and (d2 < 0).all()


def acquisition(p, info, payoffs, cost, s1):
    """The action ``realized_posterior`` takes after ``s1``, whatever the second component."""
    (action,) = {
        realized_posterior(p, info, payoffs, cost, Signal(s1, s2))[1] for s2 in (ALPHA, BETA)
    }
    return action


def test_acquisition_decisions_reference(info, payoffs):
    assert acquisition(0.3, info, payoffs, 0.1, ALPHA) is AcquisitionAction.ACQUIRE
    assert acquisition(0.7, info, payoffs, 0.1, ALPHA) is AcquisitionAction.SKIP
    assert acquisition(0.7, info, payoffs, 0.1, BETA) is AcquisitionAction.ACQUIRE
    assert acquisition(0.3, info, payoffs, 0.1, BETA) is AcquisitionAction.SKIP


def test_acquisition_above_peak_cost_always_skips(info, payoffs):
    for p in np.linspace(0, 1, 101):
        for s1 in (ALPHA, BETA):
            assert acquisition(float(p), info, payoffs, 0.31, s1) is AcquisitionAction.SKIP


def test_acquisition_at_indifference_acquires(info, payoffs):
    wtp = willingness_to_pay(0.3, info, payoffs, ALPHA)
    assert acquisition(0.3, info, payoffs, wtp, ALPHA) is AcquisitionAction.ACQUIRE


def test_zero_cost_always_acquires(info, payoffs):
    assert acquisition(0.95, info, payoffs, 0.0, ALPHA) is AcquisitionAction.ACQUIRE


def test_willingness_agrees_with_enumeration_oracle(payoffs):
    for t1, t2 in ((0.6, 0.8), (0.8, 0.6)):
        info = InformationStructure(t1, t2)
        for p in np.linspace(0, 1, 101):
            for s1 in (ALPHA, BETA):
                closed = willingness_to_pay(float(p), info, payoffs, s1)
                brute = brute_force_voi(float(p), info, payoffs, s1)
                assert abs(closed - brute) <= 1e-10


@given(t1=thetas, t2=thetas)
def test_cached_thresholds_are_the_arithmetic_bit_for_bit(t1, t2):
    info = InformationStructure(t1, t2)
    for s1 in (ALPHA, BETA):
        cached = case_thresholds(info, s1)
        fresh = incentives._thresholds.__wrapped__(t1, t2, s1 is ALPHA)
        assert [x.hex() for x in cached] == [x.hex() for x in fresh]
        assert case_thresholds(info, s1) is cached


# A precision 1 to 64 ulps below 1, where round-off in the threshold
# arithmetic is largest relative to the gaps between the thresholds.
_near_one = st.integers(1, 64).map(lambda k: 1.0 - k * 2.0**-53)


@given(near=_near_one, other=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       near_first=st.booleans())
# Unclamped: (1 + 2 ulps, 1 - 2 ulps, 1 - 1 ulp) after beta, and an upper
# end of 1 + 2 ulps after alpha.
@example(near=0.9999999999999998, other=0.708720987951346, near_first=True)
@example(near=0.9999999999999998, other=0.7051036559585165, near_first=False)
def test_thresholds_stay_ordered_in_the_unit_interval_near_precision_one(
    near, other, near_first
):
    info = InformationStructure(*((near, other) if near_first else (other, near)))
    for s1 in (ALPHA, BETA):
        lo, mid, hi = case_thresholds(info, s1)
        assert 0.0 <= lo <= mid <= hi <= 1.0


def test_cached_thresholds_still_check_the_component(info, payoffs):
    case_thresholds(info, ALPHA)  # the same precisions are now cached
    with pytest.raises(ParameterError):
        case_thresholds(info, "alpha")
    with pytest.raises(ParameterError):
        classify_case(0.3, info, "alpha")
    with pytest.raises(ParameterError):
        willingness_to_pay(0.3, info, payoffs, "alpha")


def test_threshold_cache_is_bounded():
    for i in range(3 * incentives._THRESHOLD_CACHE_SIZE):
        case_thresholds(InformationStructure(0.6 + i * 1e-4, 0.8), ALPHA)
    stats = incentives._thresholds.cache_info()
    assert stats.currsize == stats.maxsize == incentives._THRESHOLD_CACHE_SIZE
