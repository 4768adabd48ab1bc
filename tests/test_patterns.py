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
    polarization_probability,
    posterior_after_both,
    reaction_report,
    realized_posterior,
    willingness_to_pay,
)
from secondlook.model import check_cost
from secondlook.patterns import polarization_routes, polarization_verdict
from secondlook.sets import b_memberships


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


def _in_order_partners(p, structure, payoffs, c, grid):
    """Grid priors that share an in-order B set with ``p`` at the cost.

    The lower of the two alone acquires after alpha, or the higher alone
    after beta; returns the candidates below ``p`` and those above it.
    """
    wtp = np.array(
        [[willingness_to_pay(float(q), structure, payoffs, s1) for q in grid] for s1 in (ALPHA, BETA)]
    )
    own = tuple(willingness_to_pay(p, structure, payoffs, s1) for s1 in (ALPHA, BETA))
    below, above = grid < p, grid > p
    low_alpha, high_beta, _, _ = b_memberships(wtp[:, below], own, c)
    in_order_below = grid[below][low_alpha | high_beta]
    low_alpha, high_beta, _, _ = b_memberships(own, wtp[:, above], c)
    in_order_above = grid[above][low_alpha | high_beta]
    return in_order_below, in_order_above


def test_polarization_partners_inside_acquisition_interval(info, payoffs):
    # 0.3 acquires after alpha at 0.1 and every prior from the upper end of
    # H_alpha(0.1) up to 1 skips, so each polarizes against 0.3 in order.
    h_alpha = h_set(0.1, info, payoffs, ALPHA)
    assert 0.3 in h_alpha
    for q in np.linspace(h_alpha.upper, 1.0, 21):
        feas = polarization_feasible(0.3, float(q), info, payoffs, 0.1)
        assert feas.via_alpha, q
    assert polarization_feasible(0.3, 0.7, info, payoffs, 0.1)


def test_polarization_partners_upper_flank(info, payoffs):
    # 0.9 skips after alpha at 0.1; every prior inside H_alpha(0.1) acquires
    # alone after alpha below it and so polarizes against 0.9.
    h_alpha = h_set(0.1, info, payoffs, ALPHA)
    assert 0.9 not in h_alpha and h_alpha.upper < 0.9
    for q in np.linspace(h_alpha.lower, h_alpha.upper, 23)[1:-1]:
        feas = polarization_feasible(float(q), 0.9, info, payoffs, 0.1)
        assert feas.via_alpha, q
    assert polarization_feasible(0.4, 0.9, info, payoffs, 0.1)


def test_polarization_partners_lower_flank(info, payoffs):
    # 0.1 skips after beta at 0.1; every prior inside H_beta(0.1) acquires
    # alone after beta above it and so polarizes against 0.1.
    h_beta = h_set(0.1, info, payoffs, BETA)
    assert 0.1 not in h_beta and h_beta.lower > 0.1
    for q in np.linspace(h_beta.lower, h_beta.upper, 23)[1:-1]:
        feas = polarization_feasible(0.1, float(q), info, payoffs, 0.1)
        assert feas.via_beta, q
    assert polarization_feasible(0.1, 0.5, info, payoffs, 0.1)


def test_polarization_partners_nonempty_across_interior(payoffs):
    # Every interior prior has an in-order partner on a 1001-point grid, at
    # two precision pairs and three costs below the ceiling, and the first
    # one found polarizes.
    grid = np.linspace(0.0, 1.0, 1001)
    for thetas in ((0.6, 0.8), (0.9, 0.95)):
        structure = InformationStructure(*thetas)
        ceiling = max_willingness_to_pay(structure, payoffs)
        for c in (0.1 * ceiling, 0.5 * ceiling, 0.95 * ceiling):
            for p in np.linspace(0.01, 0.99, 99):
                p = float(p)
                below, above = _in_order_partners(p, structure, payoffs, c, grid)
                if below.size:
                    pair = float(below[0]), p
                else:
                    assert above.size, (thetas, c, p)
                    pair = p, float(above[0])
                feas = polarization_feasible(*pair, structure, payoffs, c)
                assert feas.via_alpha or feas.via_beta, (thetas, c, pair)


def test_polarization_partners_sampled_pairs_feasible(info, payoffs):
    # Every in-order candidate on a 201-point grid polarizes at the cost.
    grid = np.linspace(0.0, 1.0, 201)
    for p_i in np.linspace(0.05, 0.95, 19):
        p_i = float(p_i)
        below, above = _in_order_partners(p_i, info, payoffs, 0.1, grid)
        assert below.size or above.size, p_i
        for q in below:
            assert polarization_feasible(float(q), p_i, info, payoffs, 0.1), (q, p_i)
        for q in above:
            assert polarization_feasible(p_i, float(q), info, payoffs, 0.1), (p_i, q)


def test_weak_acquisition_decides_next_to_the_open_h_set_ends(payoffs):
    # 0.5 pays 0.04999999999999993 after beta, so it skips at 0.05 and no
    # prior below it acquires alone after alpha there.
    strong = InformationStructure(0.9, 0.95)
    assert willingness_to_pay(0.5, strong, payoffs, BETA) < 0.05
    for p_low in (1e-7, 0.005):
        assert not polarization_feasible(p_low, 0.5, strong, payoffs, 0.05)


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
