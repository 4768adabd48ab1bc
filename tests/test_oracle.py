import numpy as np
import pytest

from secondlook import (
    ALL_CHECKS,
    ALPHA,
    EXTRA_CHECKS,
    InformationStructure,
    MonteCarloEstimate,
    ParameterError,
    UnknownPatternError,
    brute_force_voi,
    default_prior_grid,
    grid_theorem_check,
    marginal_first,
    mc_pattern_frequency,
    outcome_table,
    pattern_probability,
    polarization_probability,
    willingness_to_pay,
)

SMALL_GRID = default_prior_grid(21)


def test_brute_force_voi_matches_reference(info, payoffs):
    assert brute_force_voi(0.3, info, payoffs, ALPHA) == pytest.approx(0.19, abs=5e-3)
    assert brute_force_voi(0.3, info, payoffs, ALPHA) == pytest.approx(
        willingness_to_pay(0.3, info, payoffs, ALPHA), abs=1e-10
    )


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


def test_grid_checker_catches_perturbed_willingness():
    violations = grid_theorem_check(
        "polarization", priors=SMALL_GRID, wtp_offset=0.01
    )
    assert len(violations) > 0
    assert "feasible" in violations[0].detail


def test_mirrored_no_divergence_diagnostic_reports_crossings():
    # the absolute-gap variant is violated by crossing pairs (theta2 > theta1)
    # and by unpolarized same-direction widenings (theta2 < theta1)
    violations = grid_theorem_check("mirrored_no_divergence", priors=SMALL_GRID)
    assert len(violations) > 0
    params = dict(violations[0].params)
    assert "p_i" in params and "p_j" in params


def test_grid_check_unknown_id():
    with pytest.raises(ParameterError):
        grid_theorem_check("bogus")
    assert "mirrored_no_divergence" in EXTRA_CHECKS


def test_violation_rendering():
    violations = grid_theorem_check(
        "polarization", priors=SMALL_GRID, wtp_offset=0.01
    )
    text = str(violations[0])
    assert "polarization" in text and "theta1" in text
