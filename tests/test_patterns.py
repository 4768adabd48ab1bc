import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from secondlook import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    AcquisitionAction,
    IndifferentPriorError,
    InformationStructure,
    OrderingError,
    ParameterError,
    PayoffStructure,
    Signal,
    classify_pair,
    confirmation_report,
    disconfirmation_report,
    h_set,
    inversion_thresholds,
    max_willingness_to_pay,
    pairwise_outcome,
    pattern_probability,
    polarization_feasible,
    polarization_partners,
    polarization_probability,
    posterior_after_both,
    reaction_report,
    realized_posterior,
    willingness_to_pay,
)
from secondlook.model import check_cost
from secondlook.patterns import polarization_routes, polarization_verdict


def test_realized_posterior_reference(info, payoffs):
    post, action = realized_posterior(0.7, info, payoffs, 0.1, Signal(ALPHA, BETA))
    assert action is AcquisitionAction.SKIP
    assert post == pytest.approx(0.7778, abs=5e-4)
    post, action = realized_posterior(0.3, info, payoffs, 0.1, Signal(ALPHA, BETA))
    assert action is AcquisitionAction.ACQUIRE
    assert post == pytest.approx(0.1385, abs=5e-4)


def test_realized_posterior_zero_cost_full_information(info, payoffs):
    for signal in ALL_SIGNALS:
        post, action = realized_posterior(0.5, info, payoffs, 0.0, signal)
        assert action is AcquisitionAction.ACQUIRE
        assert post == posterior_after_both(0.5, info, signal.first, signal.second)


def test_pairwise_outcome_reference_polarization(info, payoffs):
    outcome = pairwise_outcome(0.3, 0.7, info, payoffs, 0.1, Signal(ALPHA, BETA))
    assert outcome.divergence == pytest.approx(0.4 - 0.639, abs=1e-3)
    assert outcome.divergence < 0
    assert outcome.inversion < 0
    assert outcome.polarized
    assert outcome.acquisitions == (AcquisitionAction.ACQUIRE, AcquisitionAction.SKIP)


def test_pairwise_outcome_identical_priors_never_polarize(info, payoffs):
    for signal in ALL_SIGNALS:
        outcome = pairwise_outcome(0.4, 0.4, info, payoffs, 0.1, signal)
        assert outcome.divergence == 0.0
        assert outcome.inversion >= 0.0
        assert not outcome.polarized


def test_pairwise_outcome_agreeing_components_never_polarize(info, payoffs):
    outcome = pairwise_outcome(0.3, 0.7, info, payoffs, 0.1, Signal(ALPHA, ALPHA))
    assert outcome.inversion > 0
    assert not outcome.polarized


def test_pairwise_outcome_ordering_enforced(info, payoffs):
    with pytest.raises(OrderingError):
        pairwise_outcome(0.7, 0.3, info, payoffs, 0.1, Signal(ALPHA, BETA))


def test_polarized_flag_matches_strict_signs(payoffs):
    rng = np.random.default_rng(5)
    for _ in range(100_000):
        info = InformationStructure(
            float(rng.uniform(0.505, 0.995)), float(rng.uniform(0.505, 0.995))
        )
        p_i, p_j = sorted(float(x) for x in rng.random(2))
        cost = float(rng.uniform(0, 0.5))
        signal = ALL_SIGNALS[rng.integers(0, 4)]
        outcome = pairwise_outcome(p_i, p_j, info, payoffs, cost, signal)
        assert outcome.polarized == (outcome.divergence < 0 and outcome.inversion < 0)


def test_polarization_feasible_reference(info, payoffs):
    feas = polarization_feasible(0.3, 0.7, info, payoffs, 0.1)
    assert feas.feasible and bool(feas)
    assert feas.via_alpha and feas.via_beta
    assert not feas.via_alpha_swap and not feas.via_beta_swap


def test_polarization_infeasible_when_second_component_weaker(payoffs):
    info = InformationStructure(0.8, 0.6)
    assert not polarization_feasible(0.3, 0.7, info, payoffs, 0.1)
    for c in (0.01, 0.05, 0.09):
        assert not polarization_feasible(0.3, 0.7, info, payoffs, c)
    assert not polarization_feasible(0.3, 0.7, info, payoffs)  # any cost


def test_polarization_infeasible_for_extreme_pairs(info, payoffs):
    assert not polarization_feasible(0.02, 0.95, info, payoffs, 0.1)
    assert not polarization_feasible(0.02, 0.95, info, payoffs)


def test_polarization_feasible_ordering(info, payoffs):
    with pytest.raises(OrderingError):
        polarization_feasible(0.7, 0.3, info, payoffs, 0.1)
    with pytest.raises(OrderingError):
        polarization_feasible(0.4, 0.4, info, payoffs, 0.1)


def test_belief_crossing_polarization_route(info, payoffs):
    # The high prior alone acquires after alpha; at (alpha, beta) its belief
    # drops past the skipper's and the gap widens: polarization by crossing.
    feas = polarization_feasible(0.125, 0.2, info, payoffs, 0.05)
    assert feas.feasible
    assert feas.via_alpha_swap
    assert not feas.via_alpha and not feas.via_beta
    outcome = pairwise_outcome(0.125, 0.2, info, payoffs, 0.05, Signal(ALPHA, BETA))
    assert outcome.polarized
    low, high = outcome.realized_posteriors
    assert low > high  # order swapped
    # exact rational witnesses: 3/17 for the skipper, 3/35 for the acquirer
    assert low == pytest.approx(3 / 17, abs=1e-12)
    assert high == pytest.approx(3 / 35, abs=1e-12)
    # crossing-only pairs sit outside the in-order closed form; the
    # all-routes enumeration counts them
    assert polarization_probability(0.5, 0.125, 0.2, info, payoffs, 0.05) == 0.0
    assert pattern_probability("PB", 0.5, 0.125, info, payoffs, 0.05, p_j=0.2) == 0.25


def test_belief_crossing_mirror_route(info, payoffs):
    # mirror image of the crossing pair under p -> 1-p sits on the beta side
    feas = polarization_feasible(0.8, 0.875, info, payoffs, 0.05)
    assert feas.feasible
    assert feas.via_beta_swap
    outcome = pairwise_outcome(0.8, 0.875, info, payoffs, 0.05, Signal(BETA, ALPHA))
    assert outcome.polarized


def test_polarization_probability_reference(info, payoffs):
    assert polarization_probability(0.5, 0.3, 0.7, info, payoffs, 0.1) == pytest.approx(
        0.5, abs=1e-12
    )


def test_polarization_probability_closed_form_identity(info, payoffs):
    # when both in-order routes fire the probability reduces to
    # disagree_prob * (2p-1)^2 + 2p(1-p)
    disagree = 0.6 + 0.8 - 2 * 0.6 * 0.8
    for p in (0.1, 0.3, 0.5, 0.8):
        expected = disagree * (1 - 4 * p * (1 - p)) + 2 * p * (1 - p)
        got = polarization_probability(p, 0.3, 0.7, info, payoffs, 0.1)
        assert got == pytest.approx(expected, abs=1e-12)


def test_polarization_probability_single_route(info, payoffs):
    # only the alpha route fires for (0.3, 0.95)
    feas = polarization_feasible(0.3, 0.95, info, payoffs, 0.1)
    assert feas.via_alpha and not feas.via_beta
    expected = 0.5 * 0.5  # product of component marginals at p=1/2
    assert polarization_probability(0.5, 0.3, 0.95, info, payoffs, 0.1) == pytest.approx(
        expected, abs=1e-12
    )


def test_polarization_probability_zero_when_infeasible(payoffs):
    info = InformationStructure(0.8, 0.6)
    assert polarization_probability(0.5, 0.3, 0.7, info, payoffs, 0.1) == 0.0


def _polarizes(p_i, p_j, info, payoffs, cost):
    return any(
        pairwise_outcome(p_i, p_j, info, payoffs, cost, s).polarized for s in ALL_SIGNALS
    )


def test_feasibility_matches_realized_polarization_randomized(payoffs):
    # randomized counterpart of the grid equivalence check, both precision
    # orders, seeded
    rng = np.random.default_rng(123)
    for _ in range(20_000):
        info = InformationStructure(
            float(rng.uniform(0.505, 0.995)), float(rng.uniform(0.505, 0.995))
        )
        p_i, p_j = sorted(float(x) for x in rng.uniform(1e-6, 1 - 1e-6, 2))
        if p_j - p_i < 1e-9:
            continue
        cost = float(rng.uniform(0.0, 0.55))
        feasible = polarization_feasible(p_i, p_j, info, payoffs, cost).feasible
        assert feasible == _polarizes(p_i, p_j, info, payoffs, cost), (info, p_i, p_j, cost)


def test_feasibility_matches_realized_polarization_at_ties(info, payoffs):
    # At cost 0 both priors acquire, and at the high prior's own willingness
    # it acquires too: no signal polarizes, and feasibility must say so.
    tie = willingness_to_pay(0.7, info, payoffs, ALPHA)
    for p_i, p_j, cost in ((0.3, 0.7, tie), (0.3, 0.75, 0.0)):
        feas = polarization_feasible(p_i, p_j, info, payoffs, cost)
        assert not feas.feasible and not _polarizes(p_i, p_j, info, payoffs, cost)
    assert not classify_pair(0.0, 0.15, 0.0, info, payoffs).in_b_high_alpha


def test_feasibility_matches_realized_polarization_at_the_h_set_edge(info, payoffs):
    # p_j on the upper end of H(c): its closed-form willingness often equals c
    # in float, a tie that acquires.
    rng = np.random.default_rng(5)
    for cost in rng.uniform(0.0, max_willingness_to_pay(info, payoffs), 2_000).tolist():
        h_alpha = h_set(cost, info, payoffs, ALPHA)
        if h_alpha.empty:
            continue
        p_i, p_j = (h_alpha.lower + h_alpha.upper) / 2.0, h_alpha.upper
        feasible = polarization_feasible(p_i, p_j, info, payoffs, cost).feasible
        assert feasible == _polarizes(p_i, p_j, info, payoffs, cost), cost


def test_polarization_probability_bound_sampled(payoffs):
    rng = np.random.default_rng(9)
    for _ in range(5000):
        t1 = float(rng.uniform(0.51, 0.99))
        t2 = float(rng.uniform(0.51, 0.99))
        info = InformationStructure(t1, t2)
        p_i, p_j = sorted(float(x) for x in rng.random(2))
        if p_i == p_j:
            continue
        c = float(rng.uniform(0, 0.5))
        p = float(rng.random())
        assert polarization_probability(p, p_i, p_j, info, payoffs, c) <= 0.5 + 1e-12


@given(
    t1=st.floats(0.505, 0.995),
    t2=st.floats(0.505, 0.995),
    p_i=st.floats(1e-6, 1 - 1e-6),
    p_j=st.floats(1e-6, 1 - 1e-6),
    cost=st.floats(0.0, 0.55),
    p=st.floats(0.0, 1.0),
)
def test_in_order_closed_form_matches_enumeration_without_swaps(t1, t2, p_i, p_j, cost, p):
    # Without a crossing route the closed form and the all-routes enumeration
    # count the same polarizing signals under the same product law.
    payoffs = PayoffStructure(1.0, 0.0)
    info = InformationStructure(t1, t2)
    p_i, p_j = sorted((p_i, p_j))
    assume(p_j - p_i >= 1e-9)
    feas = polarization_feasible(p_i, p_j, info, payoffs, cost)
    assume(not feas.via_alpha_swap and not feas.via_beta_swap)
    closed = polarization_probability(p, p_i, p_j, info, payoffs, cost)
    enumerated = pattern_probability("PB", p, p_i, info, payoffs, cost, p_j=p_j)
    assert abs(closed - enumerated) <= 1e-15


def test_all_routes_probability_bound_sampled(payoffs):
    # the value polarize prints, crossing routes included, stays at most 1/2
    rng = np.random.default_rng(10)
    for _ in range(5000):
        info = InformationStructure(*(float(t) for t in rng.uniform(0.51, 0.99, 2)))
        p_i, p_j = sorted(float(x) for x in rng.random(2))
        c = float(rng.uniform(0, 0.5))
        p = float(rng.random())
        assert pattern_probability("PB", p, p_i, info, payoffs, c, p_j=p_j) <= 0.5 + 1e-15


def test_polarization_partners_inside_acquisition_interval(info, payoffs):
    partners = polarization_partners(0.3, 0.1, info, payoffs)
    hi = h_set(0.1, info, payoffs, ALPHA).upper
    assert any(
        iv.closed_upper and iv.upper == 1.0 and iv.lower == pytest.approx(hi, abs=1e-12)
        for iv in partners
    )
    # sampled partner from the upper flank indeed polarizes against 0.3
    assert polarization_feasible(0.3, 0.7, info, payoffs, 0.1)


def test_polarization_partners_upper_flank(info, payoffs):
    partners = polarization_partners(0.9, 0.1, info, payoffs)
    h_alpha = h_set(0.1, info, payoffs, ALPHA)
    assert any(
        iv.lower == pytest.approx(h_alpha.lower, abs=1e-12)
        and iv.upper == pytest.approx(h_alpha.upper, abs=1e-12)
        for iv in partners
    )
    assert polarization_feasible(0.4, 0.9, info, payoffs, 0.1)


def test_polarization_partners_lower_flank(info, payoffs):
    partners = polarization_partners(0.1, 0.1, info, payoffs)
    h_beta = h_set(0.1, info, payoffs, BETA)
    assert any(
        iv.lower == pytest.approx(h_beta.lower, abs=1e-12)
        and iv.upper == pytest.approx(h_beta.upper, abs=1e-12)
        for iv in partners
    )
    assert polarization_feasible(0.1, 0.5, info, payoffs, 0.1)


def test_polarization_partners_nonempty_across_interior(info, payoffs):
    for p in np.linspace(0.01, 0.99, 99):
        partners = polarization_partners(float(p), 0.1, info, payoffs)
        assert partners
        assert all(not iv.empty for iv in partners)


def test_polarization_partners_sampled_pairs_feasible(info, payoffs):
    rng = np.random.default_rng(14)
    for p_i in np.linspace(0.05, 0.95, 19):
        p_i = float(p_i)
        for interval in polarization_partners(p_i, 0.1, info, payoffs):
            span = interval.upper - interval.lower
            p_j = interval.lower + span * float(rng.uniform(0.25, 0.75))
            if abs(p_j - p_i) < 1e-6:
                continue
            lo, hi = min(p_i, p_j), max(p_i, p_j)
            assert polarization_feasible(lo, hi, info, payoffs, 0.1)


def test_polarization_partners_preconditions(info, payoffs):
    with pytest.raises(ParameterError):
        polarization_partners(0.0, 0.1, info, payoffs)
    with pytest.raises(ParameterError):
        polarization_partners(0.3, 0.0, info, payoffs)
    with pytest.raises(ParameterError):
        polarization_partners(0.3, 0.3, info, payoffs)  # cost at the peak
    with pytest.raises(ParameterError):
        polarization_partners(0.3, 0.1, InformationStructure(0.8, 0.6), payoffs)


def test_disconfirmation_reference(info, payoffs):
    report = disconfirmation_report(0.7, info, payoffs, 0.1)
    assert report.tendency
    assert report.exhibits
    assert report.wtp_beta > 0.1 > report.wtp_alpha


def test_disconfirmation_indifferent_prior(info, payoffs):
    report = disconfirmation_report(0.5, info, payoffs, 0.1)
    assert not report.tendency
    assert not report.exhibits
    # equal willingness on both sides at one half
    assert report.wtp_alpha == pytest.approx(report.wtp_beta, abs=1e-12)


def test_disconfirmation_extreme_prior(info, payoffs):
    report = disconfirmation_report(0.95, info, payoffs, 0.1)
    assert not report.tendency
    assert not report.exhibits
    assert report.wtp_alpha == 0.0 and report.wtp_beta == 0.0


def test_disconfirmation_low_prior_mirror(info, payoffs):
    report = disconfirmation_report(0.3, info, payoffs, 0.1)
    assert report.tendency
    assert report.exhibits
    assert report.wtp_alpha > 0.1 > report.wtp_beta


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_disconfirmation_at_exact_ties(info, payoffs, p):
    # Ties acquire: a cost equal to the contrary willingness still separates
    # the two decisions, a cost equal to the supportive one does not.
    report = disconfirmation_report(p, info, payoffs, 0.1)
    contrary, supportive = (
        (report.wtp_beta, report.wtp_alpha) if p > 0.5 else (report.wtp_alpha, report.wtp_beta)
    )
    assert contrary > supportive > 0.0
    assert disconfirmation_report(p, info, payoffs, contrary).exhibits
    assert not disconfirmation_report(p, info, payoffs, supportive).exhibits


def test_confirmation_reference(info, payoffs):
    report = confirmation_report(0.7, info, payoffs, 0.1, Signal(ALPHA, BETA))
    assert report.confirmatory and not report.disproving
    assert report.full_posterior == pytest.approx(0.4667, abs=5e-4)
    assert report.realized == pytest.approx(0.7778, abs=5e-4)
    assert not report.acquired


def test_confirmation_killed_by_acquisition(info, payoffs):
    report = confirmation_report(0.7, info, payoffs, 0.1, Signal(BETA, ALPHA))
    assert not report.disproving and not report.confirmatory
    assert report.acquired


def test_disproving_pattern_at_high_cost(info, payoffs):
    report = confirmation_report(0.7, info, payoffs, 0.25, Signal(BETA, ALPHA))
    assert report.disproving and not report.confirmatory
    assert report.realized < 0.7 < report.full_posterior


def test_confirmation_rejects_indifferent_prior(info, payoffs):
    with pytest.raises(IndifferentPriorError):
        confirmation_report(0.5, info, payoffs, 0.1, Signal(ALPHA, BETA))


def test_reaction_reference(info, payoffs):
    report = reaction_report(0.7, info, payoffs, 0.1, Signal(ALPHA, ALPHA))
    assert report.underreaction and not report.overreaction
    assert 0.7 < report.realized < report.full_posterior


def test_no_overreaction_with_stronger_second_component(info, payoffs):
    for p in (0.2, 0.5, 0.7):
        for signal in (Signal(ALPHA, BETA), Signal(BETA, ALPHA)):
            for cost in (0.05, 0.25):
                assert not reaction_report(p, info, payoffs, cost, signal).overreaction


def test_overreaction_with_weaker_second_component(payoffs):
    info = InformationStructure(0.8, 0.6)
    report = reaction_report(0.7, info, payoffs, 0.25, Signal(ALPHA, BETA))
    assert report.overreaction and not report.underreaction
    assert 0.7 < report.full_posterior < report.realized


COST_TAKERS = {
    "check_cost": lambda c, info, payoffs: check_cost(c),
    "inversion_thresholds": lambda c, info, payoffs: inversion_thresholds(
        c, info, payoffs, ALPHA
    ),
    "h_set": lambda c, info, payoffs: h_set(c, info, payoffs, ALPHA),
    "classify_pair": lambda c, info, payoffs: classify_pair(0.3, 0.7, c, info, payoffs),
    "realized_posterior": lambda c, info, payoffs: realized_posterior(
        0.3, info, payoffs, c, Signal(ALPHA, BETA)
    ),
    "polarization_feasible": lambda c, info, payoffs: polarization_feasible(
        0.3, 0.7, info, payoffs, c
    ),
    "disconfirmation_report": lambda c, info, payoffs: disconfirmation_report(
        0.7, info, payoffs, c
    ),
    "polarization_probability": lambda c, info, payoffs: polarization_probability(
        0.5, 0.3, 0.7, info, payoffs, c
    ),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.1", True], ids=repr)
@pytest.mark.parametrize("take", COST_TAKERS.values(), ids=COST_TAKERS.keys())
def test_cost_must_be_a_finite_number(info, payoffs, take, bad):
    with pytest.raises(ParameterError):
        take(bad, info, payoffs)


def test_polarization_probability_requires_a_cost(info, payoffs):
    # None is polarization_feasible's cost-free reading, not a cost
    with pytest.raises(ParameterError):
        polarization_probability(0.5, 0.3, 0.7, info, payoffs, None)


# Few distinct values, so beliefs tie with each other and with the priors.
BELIEF = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0])
FLAG = st.booleans()


@given(
    st.lists(st.tuples(BELIEF, BELIEF, BELIEF, BELIEF), min_size=1, max_size=8),
)
def test_polarization_verdict_on_rows_equals_its_float_values(points):
    on_floats = [polarization_verdict(*point) for point in points]
    for divergence, inversion, polarized in on_floats:
        assert type(divergence) is float and type(inversion) is float
        assert type(polarized) is bool
    rows = polarization_verdict(*np.array(points).T)
    assert [x.tolist() for x in rows] == [list(col) for col in zip(*on_floats)]


@given(
    FLAG,
    st.lists(
        st.tuples(BELIEF, BELIEF, st.tuples(FLAG, FLAG, FLAG, FLAG),
                  st.tuples(BELIEF, BELIEF, BELIEF, BELIEF)),
        min_size=1,
        max_size=8,
    ),
)
def test_polarization_routes_on_rows_equal_their_float_values(more_informative, points):
    on_floats = [polarization_routes(more_informative, *point) for point in points]
    assert all(type(route) is bool for routes in on_floats for route in routes)
    p_i, p_j, one_sided, crossing = zip(*points)
    rows = polarization_routes(
        more_informative,
        np.array(p_i),
        np.array(p_j),
        np.array(one_sided).T,
        np.array(crossing).T,
    )
    assert [x.tolist() for x in rows] == [list(col) for col in zip(*on_floats)]
