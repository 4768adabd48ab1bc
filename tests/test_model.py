import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secondlook import (
    ALPHA,
    BETA,
    InformationStructure,
    InvalidProbabilityError,
    ParameterError,
    PayoffStructure,
    Scenario,
    conditional_second,
    marginal_first,
    posterior_after_both,
    posterior_after_first,
    sample_signal_batch,
)

probs = st.floats(min_value=0.0, max_value=1.0)
thetas = st.floats(min_value=0.501, max_value=0.999)


def test_posterior_after_first_reference_values(info):
    assert posterior_after_first(0.7, info, ALPHA) == pytest.approx(0.78, abs=5e-3)
    assert posterior_after_first(0.7, info, ALPHA) == pytest.approx(0.42 / 0.54, abs=1e-15)
    assert posterior_after_first(0.3, info, ALPHA) == pytest.approx(0.39, abs=5e-3)


def test_posterior_after_first_uniform_prior_is_precision(info):
    assert posterior_after_first(0.5, info, ALPHA) == pytest.approx(0.6, abs=1e-15)
    assert posterior_after_first(0.5, info, BETA) == pytest.approx(0.4, abs=1e-15)


def test_degenerate_priors_absorb(info):
    for s1 in (ALPHA, BETA):
        assert posterior_after_first(0.0, info, s1) == 0.0
        assert posterior_after_first(1.0, info, s1) == 1.0
        for s2 in (ALPHA, BETA):
            assert posterior_after_both(1.0, info, s1, s2) == 1.0
            assert posterior_after_both(0.0, info, s1, s2) == 0.0


def test_posterior_after_both_reference_values(info):
    assert posterior_after_both(0.3, info, ALPHA, BETA) == pytest.approx(0.14, abs=5e-3)
    assert posterior_after_both(0.7, info, ALPHA, ALPHA) == pytest.approx(0.93, abs=5e-3)


def test_marginal_first_values(info):
    assert marginal_first(0.5, info, ALPHA) == pytest.approx(0.5, abs=1e-15)
    # 0.7*0.6 + 0.3*0.4, cross-checked by summing the joint over both states
    joint = 0.7 * 0.6 + 0.3 * 0.4
    assert marginal_first(0.7, info, ALPHA) == pytest.approx(joint, abs=1e-15)
    assert marginal_first(1.0, info, BETA) == pytest.approx(0.4, abs=1e-15)
    total = marginal_first(0.7, info, ALPHA) + marginal_first(0.7, info, BETA)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_conditional_second_values(info):
    assert conditional_second(0.5, info, ALPHA) == pytest.approx(0.5, abs=1e-15)
    q = 0.7778
    expected = q * 0.2 + (1 - q) * 0.8  # enumeration over both states
    assert conditional_second(q, info, BETA) == pytest.approx(expected, abs=1e-15)
    assert conditional_second(q, info, BETA) == pytest.approx(0.3333, abs=5e-4)
    assert conditional_second(1.0, info, ALPHA) == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), True, False])
def test_invalid_probabilities_rejected(info, bad):
    with pytest.raises(InvalidProbabilityError):
        posterior_after_first(bad, info, ALPHA)
    with pytest.raises(InvalidProbabilityError):
        posterior_after_both(bad, info, ALPHA, BETA)
    with pytest.raises(InvalidProbabilityError):
        marginal_first(bad, info, ALPHA)
    with pytest.raises(InvalidProbabilityError):
        conditional_second(bad, info, BETA)


@pytest.mark.parametrize("theta", [0.5, 1.0, 0.3, 1.2, float("nan")])
def test_precisions_must_be_strictly_interior(theta):
    with pytest.raises(ParameterError):
        InformationStructure(theta, 0.8)
    with pytest.raises(ParameterError):
        InformationStructure(0.8, theta)


def test_payoff_premium_must_be_positive():
    with pytest.raises(ParameterError):
        PayoffStructure(1.0, 1.0)
    with pytest.raises(ParameterError):
        PayoffStructure(0.0, 1.0)
    assert PayoffStructure(2.0, 0.5).delta_u == 1.5


@pytest.mark.parametrize("bad", ["1", True, float("nan"), float("inf"), None])
def test_payoffs_must_be_finite_numbers(bad):
    with pytest.raises(ParameterError):
        PayoffStructure(bad, 0)
    with pytest.raises(ParameterError):
        PayoffStructure(2.0, bad)


def test_scenario_validation(info, payoffs):
    with pytest.raises(ParameterError):
        Scenario(info, payoffs, -0.1, (0.5,))
    with pytest.raises(ParameterError):
        Scenario(info, payoffs, float("nan"), (0.5,))
    with pytest.raises(ParameterError):
        Scenario(info, payoffs, 0.1, (0.7, 0.3))
    with pytest.raises(ParameterError):
        Scenario(info, payoffs, 0.1, ())
    Scenario(info, payoffs, 0.0, (0.3, 0.7))


@given(p=probs, t1=thetas, t2=thetas)
def test_chain_consistency(p, t1, t2):
    info = InformationStructure(t1, t2)
    second_step = InformationStructure(t2, t2)
    for s1 in (ALPHA, BETA):
        for s2 in (ALPHA, BETA):
            direct = posterior_after_both(p, info, s1, s2)
            chained = posterior_after_first(
                posterior_after_first(p, info, s1), second_step, s2
            )
            assert abs(direct - chained) <= 1e-12


@given(p=probs, t1=thetas, t2=thetas)
def test_martingale_property(p, t1, t2):
    info = InformationStructure(t1, t2)
    mixed = sum(
        marginal_first(p, info, s) * posterior_after_first(p, info, s)
        for s in (ALPHA, BETA)
    )
    assert abs(mixed - p) <= 1e-12


@given(p=probs, t1=thetas, t2=thetas)
def test_interim_martingale(p, t1, t2):
    info = InformationStructure(t1, t2)
    for s1 in (ALPHA, BETA):
        q = posterior_after_first(p, info, s1)
        mixed = sum(
            conditional_second(q, info, s2) * posterior_after_both(p, info, s1, s2)
            for s2 in (ALPHA, BETA)
        )
        assert abs(mixed - q) <= 1e-12


@given(p=probs, t1=thetas, t2=thetas)
def test_update_symmetry_between_states(p, t1, t2):
    info = InformationStructure(t1, t2)
    lhs = posterior_after_first(p, info, ALPHA)
    rhs = 1.0 - posterior_after_first(1.0 - p, info, BETA)
    assert abs(lhs - rhs) <= 1e-12


def test_outputs_stay_probabilities_under_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(100_000):
        p = float(rng.random())
        t1 = float(rng.uniform(0.5 + 1e-9, 1.0 - 1e-9))
        t2 = float(rng.uniform(0.5 + 1e-9, 1.0 - 1e-9))
        info = InformationStructure(t1, t2)
        s1 = ALPHA if rng.random() < 0.5 else BETA
        s2 = ALPHA if rng.random() < 0.5 else BETA
        values = (
            posterior_after_first(p, info, s1),
            posterior_after_both(p, info, s1, s2),
            marginal_first(p, info, s1),
            conditional_second(p, info, s2),
        )
        assert all(0.0 <= v <= 1.0 for v in values)


def test_sampling_degenerate_prior_always_a(info):
    state_a, _, _ = sample_signal_batch(1.0, info, 1000, 3)
    assert state_a.all()


def test_sampling_deterministic_under_seed(info):
    a = sample_signal_batch(0.7, info, 10_000, 123)
    b = sample_signal_batch(0.7, info, 10_000, 123)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = sample_signal_batch(0.7, info, 10_000, 124)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_sampling_matches_first_component_marginal(info):
    n = 1_000_000
    _, first_a, _ = sample_signal_batch(0.7, info, n, 99)
    freq = first_a.mean()
    target = marginal_first(0.7, info, ALPHA)  # 0.54
    se = math.sqrt(target * (1 - target) / n)
    assert abs(freq - target) <= 3 * se


def test_sampling_uniform_prior_symmetric(info):
    n = 200_000
    _, first_a, _ = sample_signal_batch(0.5, info, n, 17)
    assert abs(first_a.mean() - 0.5) <= 3 * math.sqrt(0.25 / n)
