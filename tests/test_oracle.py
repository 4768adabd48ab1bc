import tracemalloc

import numpy as np
import pytest

from secondlook import (
    ALL_CHECKS,
    ALL_SIGNALS,
    ALPHA,
    BETA,
    AcquisitionAction,
    EXTRA_CHECKS,
    InformationStructure,
    InvalidProbabilityError,
    MonteCarloEstimate,
    OrderingError,
    ParameterError,
    PayoffStructure,
    UnknownPatternError,
    brute_force_voi,
    default_prior_grid,
    grid_theorem_check,
    marginal_first,
    mc_pattern_frequency,
    outcome_table,
    pairwise_outcome,
    pattern_probability,
    polarization_feasible,
    polarization_probability,
    reaction_report,
    willingness_to_pay,
)
from secondlook import incentives, oracle
from secondlook.patterns import polarization_routes, polarization_verdict
from secondlook.sets import b_memberships

SMALL_GRID = default_prior_grid(21)


def test_brute_force_voi_matches_reference(info, payoffs):
    assert brute_force_voi(0.3, info, payoffs, ALPHA) == pytest.approx(0.19, abs=5e-3)
    assert brute_force_voi(0.3, info, payoffs, ALPHA) == pytest.approx(
        willingness_to_pay(0.3, info, payoffs, ALPHA), abs=1e-10
    )


def test_voi_oracle_is_independent_of_the_formulas_it_checks(monkeypatch, info, payoffs):
    def closed_form(*args):
        raise AssertionError("the VOI oracle reached a closed-form formula")

    for module in (incentives, oracle):
        for name in ("willingness_to_pay", "case_thresholds"):
            monkeypatch.setattr(module, name, closed_form)
    # The reference willingness: 1/45 (about 0.0222) and 22/115 (about 0.1913).
    for p, reference in ((0.7, 1 / 45), (0.3, 22 / 115)):
        assert brute_force_voi(p, info, payoffs, ALPHA) == pytest.approx(reference, abs=1e-12)
        entries = outcome_table(p, info, payoffs, ALPHA).entries
        gain = sum(e.joint * (e.utility_acquire - e.utility_skip) for e in entries)
        assert gain == pytest.approx(reference, abs=1e-12)


def test_brute_force_voi_zero_when_guess_never_flips(info, payoffs):
    assert brute_force_voi(0.95, info, payoffs, ALPHA) == pytest.approx(0.0, abs=1e-15)


def test_brute_force_voi_zero_at_half_with_equal_precisions(payoffs):
    info = InformationStructure(0.7, 0.7)
    assert brute_force_voi(0.5, info, payoffs, ALPHA) == pytest.approx(0.0, abs=1e-15)
    assert willingness_to_pay(0.5, info, payoffs, ALPHA) == 0.0


def test_outcome_table_is_a_distribution(info, payoffs):
    table = outcome_table(0.3, info, payoffs, ALPHA)
    assert len(table.entries) == 4
    assert sum(e.joint for e in table.entries) == pytest.approx(1.0, abs=1e-12)
    assert all(e.joint >= 0 for e in table.entries)


def test_pattern_probability_underreaction_reference(info, payoffs):
    # underreaction happens exactly at (alpha, alpha) for this decision-maker:
    # the agreeing-components probability is 0.7*0.48 + 0.3*0.08 = 0.36
    prob = pattern_probability("UR", 0.7, 0.7, info, payoffs, 0.1)
    assert prob == pytest.approx(0.36, abs=1e-12)


def test_pattern_probability_polarization_matches_closed_form(info, payoffs):
    prob = pattern_probability("PB", 0.5, 0.3, info, payoffs, 0.1, p_j=0.7)
    assert prob == pytest.approx(
        polarization_probability(0.5, 0.3, 0.7, info, payoffs, 0.1), abs=1e-12
    )


def test_pattern_probability_validates_inputs(info, payoffs):
    with pytest.raises(UnknownPatternError):
        pattern_probability("XX", 0.5, 0.3, info, payoffs, 0.1)
    with pytest.raises(ParameterError):
        pattern_probability("PB", 0.5, 0.3, info, payoffs, 0.1)  # missing p_j


def test_mc_deterministic_bit_for_bit(info, payoffs):
    a = mc_pattern_frequency("PB", 0.5, 0.3, info, payoffs, 0.1, 50_000, 7, p_j=0.7)
    b = mc_pattern_frequency("PB", 0.5, 0.3, info, payoffs, 0.1, 50_000, 7, p_j=0.7)
    assert a == b
    c = mc_pattern_frequency("PB", 0.5, 0.3, info, payoffs, 0.1, 50_000, 8, p_j=0.7)
    assert c.frequency != a.frequency


def test_mc_polarization_agrees_with_closed_form(info, payoffs):
    estimate = mc_pattern_frequency(
        "PB", 0.5, 0.3, info, payoffs, 0.1, 200_000, 42, p_j=0.7
    )
    assert estimate.within(0.5, 3.0)
    assert estimate.standard_error == pytest.approx(
        np.sqrt(estimate.frequency * (1 - estimate.frequency) / estimate.draws)
    )


def test_mc_polarization_at_the_crossing_pair_across_seeds(info, payoffs):
    # (0.125, 0.2) polarizes only by crossing: the all-routes value is 1/4
    assert pattern_probability("PB", 0.5, 0.125, info, payoffs, 0.05, p_j=0.2) == 0.25
    for seed in range(10):
        estimate = mc_pattern_frequency(
            "PB", 0.5, 0.125, info, payoffs, 0.05, 200_000, seed, p_j=0.2
        )
        assert estimate.within(0.25, 4.0), (seed, estimate.frequency)


def test_mc_polarization_impossible_when_second_weaker(payoffs):
    info = InformationStructure(0.8, 0.6)
    estimate = mc_pattern_frequency(
        "PB", 0.5, 0.3, info, payoffs, 0.1, 10_000, 3, p_j=0.7
    )
    assert estimate.frequency == 0.0


def test_mc_underreaction_matches_enumeration(info, payoffs):
    estimate = mc_pattern_frequency("UR", 0.7, 0.7, info, payoffs, 0.1, 200_000, 11)
    assert estimate.within(0.36, 3.0)


def test_mc_single_patterns_use_state_coupled_law(info, payoffs):
    # confirmatory pattern for this prior happens only at (alpha, beta); its
    # state-coupled probability differs from the product of the marginals
    coupled = 0.7 * 0.6 * 0.2 + 0.3 * 0.4 * 0.8
    product = marginal_first(0.7, info, ALPHA) * (0.7 * 0.2 + 0.3 * 0.8)
    assert abs(coupled - product) > 1e-3
    assert pattern_probability("CB", 0.7, 0.7, info, payoffs, 0.1) == pytest.approx(
        coupled, abs=1e-12
    )
    estimate = mc_pattern_frequency("CB", 0.7, 0.7, info, payoffs, 0.1, 200_000, 13)
    assert estimate.within(coupled, 3.0)
    assert not estimate.within(product, 3.0)


def test_mc_consistency_across_one_hundred_seeds(info, payoffs):
    # each closed-form probability claim holds within 3 s.e. in >= 99% of
    # 100 seeded runs (deterministic: the seeds are fixed)
    pb_hits = sum(
        mc_pattern_frequency(
            "PB", 0.5, 0.3, info, payoffs, 0.1, 100_000, seed, p_j=0.7
        ).within(0.5, 3.0)
        for seed in range(100)
    )
    assert pb_hits >= 99
    ur_hits = sum(
        mc_pattern_frequency("UR", 0.7, 0.7, info, payoffs, 0.1, 100_000, seed).within(
            0.36, 3.0
        )
        for seed in range(100)
    )
    assert ur_hits >= 99
    cb_target = 0.7 * 0.12 + 0.3 * 0.32
    cb_hits = sum(
        mc_pattern_frequency("CB", 0.7, 0.7, info, payoffs, 0.1, 100_000, seed).within(
            cb_target, 3.0
        )
        for seed in range(100)
    )
    assert cb_hits >= 99


def test_mc_validates_inputs(info, payoffs):
    with pytest.raises(UnknownPatternError):
        mc_pattern_frequency("??", 0.5, 0.3, info, payoffs, 0.1, 100, 1)
    with pytest.raises(ParameterError):
        mc_pattern_frequency("PB", 0.5, 0.3, info, payoffs, 0.1, 100, 1)
    with pytest.raises(ParameterError):
        mc_pattern_frequency("UR", 0.5, 0.3, info, payoffs, 0.1, 0, 1)
    # draws must be an int >= 1 and seed an int >= 0; a bool is neither
    for draws, seed in [(1000.0, 1), (True, 1), ("1000", 1), (1000, True),
                        (1000, None), (1000, -1), (1000, 1.0)]:
        with pytest.raises(ParameterError):
            mc_pattern_frequency("UR", 0.5, 0.3, info, payoffs, 0.1, draws, seed)


def _whole_array_counts(thresholds, n, seed):
    # The reference: one generator, one random(n) call per uniform, in order.
    rng = np.random.default_rng(seed)
    below = [rng.random(n) < t for t in thresholds]
    if len(below) == 3:
        state_a, match1, match2 = below
        first_a = np.where(state_a, match1, ~match1)
        second_a = np.where(state_a, match2, ~match2)
    else:
        first_a, second_a = below
    return tuple(
        int(np.count_nonzero((first_a == (s.first is ALPHA)) & (second_a == (s.second is ALPHA))))
        for s in ALL_SIGNALS
    )


_B = oracle._MC_BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("thresholds", [(0.5, 0.6, 0.8), (0.54, 0.62)], ids=["coupled", "product"])
def test_streamed_counts_equal_whole_array_draws(thresholds, seed, n):
    assert oracle._signal_counts(thresholds, n, seed) == _whole_array_counts(thresholds, n, seed)


@pytest.mark.parametrize("pattern, p_j", [("CB", None), ("PB", 0.7)])
def test_mc_memory_is_bounded_by_the_block(info, payoffs, pattern, p_j):
    # One float64 array of 2e6 draws alone is 16 MB.
    tracemalloc.start()
    try:
        mc_pattern_frequency(pattern, 0.5, 0.3, info, payoffs, 0.1, 2_000_000, 5, p_j=p_j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_mc_within_uses_the_standard_error_of_the_tested_value():
    # With no hits the estimate's own standard error is zero; the interval
    # must still admit a small positive value.
    no_hits = MonteCarloEstimate(frequency=0.0, standard_error=0.0, draws=50, seed=0)
    assert no_hits.within(0.01)
    assert no_hits.within(0.0)
    assert not no_hits.within(0.2)
    one_hit = MonteCarloEstimate(frequency=0.02, standard_error=0.0198, draws=50, seed=0)
    assert not one_hit.within(0.0)


@pytest.mark.parametrize("check", ALL_CHECKS)
def test_grid_checks_clean_on_small_grid(check):
    violations = grid_theorem_check(check, priors=SMALL_GRID)
    assert violations == []


# Each dual-path check reads the willingness to pay of its characterization
# side in ``oracle``: polarization in its feasibility arrays, the single-prior
# checks directly.  The definition side reads it through ``patterns``.
@pytest.mark.parametrize(
    "check", ["confirmation", "disconfirmation", "polarization", "reaction"]
)
@pytest.mark.parametrize("offset", [0.0, 0.01])
def test_grid_checker_catches_perturbed_willingness(monkeypatch, check, offset):
    monkeypatch.setattr(
        "secondlook.oracle.willingness_to_pay",
        lambda *args: willingness_to_pay(*args) + offset,
    )
    violations = grid_theorem_check(check, priors=SMALL_GRID)
    assert (len(violations) > 0) == (offset != 0.0)


def test_grid_checks_evaluate_cost_ties(monkeypatch):
    # The extreme priors are willing to pay 0, exactly the cost: a tie, which
    # acquires, is evaluated like any other point.
    seen = []

    def recording(p, *args):
        seen.append(p)
        return reaction_report(p, *args)

    monkeypatch.setattr("secondlook.oracle.reaction_report", recording)
    priors = [1e-7, 0.5, 1 - 1e-7]
    violations = grid_theorem_check("reaction", priors=priors, thetas=((0.6, 0.8),), costs=(0.0,))
    assert violations == []
    assert sorted(set(seen)) == priors


def test_mirrored_no_divergence_diagnostic_reports_crossings():
    # the absolute-gap variant is violated by crossing pairs (theta2 > theta1)
    # and by unpolarized same-direction widenings (theta2 < theta1)
    violations = grid_theorem_check("mirrored_no_divergence", priors=SMALL_GRID)
    assert len(violations) > 0
    params = dict(violations[0].params)
    assert "p_i" in params and "p_j" in params


@pytest.mark.parametrize("check", ALL_CHECKS + EXTRA_CHECKS)
@pytest.mark.parametrize("bad", ["0.5", float("nan"), True, 1.5], ids=repr)
def test_grid_checks_validate_priors_at_entry(check, bad):
    with pytest.raises(InvalidProbabilityError):
        grid_theorem_check(check, priors=[0.2, bad, 0.7])


@pytest.mark.parametrize("check", ALL_CHECKS + EXTRA_CHECKS)
def test_grid_checks_take_a_float_list_like_the_grid(check):
    from_list = grid_theorem_check(check, priors=SMALL_GRID.tolist())
    from_grid = grid_theorem_check(check, priors=SMALL_GRID)
    assert from_list == from_grid
    assert [str(v) for v in from_list] == [str(v) for v in from_grid]


@pytest.mark.parametrize("check", ["polarization", "one_sided_updating"])
def test_array_claims_reject_what_the_scalar_api_rejects(check):
    with pytest.raises(ParameterError):
        grid_theorem_check(check, priors=SMALL_GRID, costs=[float("nan")])
    with pytest.raises(OrderingError):
        grid_theorem_check(check, priors=[0.2, 0.7, 0.4])


def test_only_polarization_rejects_repeated_priors():
    # as polarization_feasible needs p_i < p_j and pairwise_outcome p_i <= p_j
    with pytest.raises(OrderingError):
        grid_theorem_check("polarization", priors=[0.2, 0.2, 0.7])
    assert grid_theorem_check("one_sided_updating", priors=[0.2, 0.2, 0.7]) == []


AGREEMENT_THETAS = [
    (0.6, 0.8), (0.55, 0.9), (0.8, 0.6), (0.7, 0.7), (0.52, 0.98), (0.9, 0.55)
]
AGREEMENT_COSTS = [0.0, 0.01, 0.05, 0.1, 0.15, 0.25, 0.3]


@pytest.mark.parametrize(
    "payoffs", [PayoffStructure(1.0, 0.0), PayoffStructure(2.0, 0.5)], ids=str
)
@pytest.mark.parametrize("theta", AGREEMENT_THETAS, ids=str)
def test_pair_arrays_match_scalar_api_exactly(theta, payoffs):
    # ``==``, not approx: the per-prior rows come from the scalar API and go
    # through the same pair laws, so rows and scalar calls agree bit for bit.
    info = InformationStructure(*theta)
    grid = default_prior_grid(31).tolist()
    keep = [
        (p, {s1: willingness_to_pay(p, info, payoffs, s1) for s1 in (ALPHA, BETA)})
        for p in grid
    ]
    for cost in AGREEMENT_COSTS:
        for a, low, high in oracle._pair_rows(keep, info, payoffs, cost, strict=True):
            p_i, wtp_i, post_i, acq_i, cross_i = low
            p_j, wtp_j, post_j, acq_j, cross_j = high
            outcome = polarization_verdict(p_i, p_j, post_i[:, None], post_j)
            routes = polarization_routes(
                info.theta2 > info.theta1,
                p_i,
                p_j,
                b_memberships(wtp_i, wtp_j, cost),
                (cross_i[0], cross_j[1], cross_i[2], cross_j[3]),
            )
            feasible = np.logical_or.reduce(routes)
            pairs = [(grid[a], p) for p in grid[a + 1 :]]
            feasibility = [polarization_feasible(*pair, info, payoffs, cost) for pair in pairs]
            assert feasible.tolist() == [f.feasible for f in feasibility]
            assert [route.tolist() for route in routes] == [
                [f.via_alpha for f in feasibility],
                [f.via_beta for f in feasibility],
                [f.via_alpha_swap for f in feasibility],
                [f.via_beta_swap for f in feasibility],
            ]
            for s, signal in enumerate(ALL_SIGNALS):
                scalar = [
                    pairwise_outcome(*pair, info, payoffs, cost, signal) for pair in pairs
                ]
                assert [x[s].tolist() for x in outcome] == [
                    [o.divergence for o in scalar],
                    [o.inversion for o in scalar],
                    [o.polarized for o in scalar],
                ]
                assert [(bool(acq_i[s]), bool(acq)) for acq in acq_j[s]] == [
                    tuple(act is AcquisitionAction.ACQUIRE for act in o.acquisitions)
                    for o in scalar
                ]


def test_grid_check_unknown_id():
    with pytest.raises(ParameterError):
        grid_theorem_check("bogus")
    assert "mirrored_no_divergence" in EXTRA_CHECKS


def test_violation_rendering():
    violations = grid_theorem_check("mirrored_no_divergence", priors=SMALL_GRID)
    text = str(violations[0])
    assert text.startswith("[mirrored_no_divergence] theta1=")
    assert "p_i=" in text and "divergence=" in text
