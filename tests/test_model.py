import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secondlook import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    AcquisitionAction,
    ConfigError,
    InformationStructure,
    InvalidProbabilityError,
    ParameterError,
    PayoffStructure,
    RunConfig,
    Signal,
    brute_force_voi,
    case_thresholds,
    classify_case,
    conditional_second,
    h_set,
    inversion_thresholds,
    marginal_first,
    posterior_after_both,
    posterior_after_first,
    reciprocal_partner,
    signal_law,
    willingness_to_pay,
)
from secondlook.model import check_cost, check_probability
from secondlook.oracle import _signal_counts

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


@pytest.mark.parametrize("theta", [0.55, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_opposing_components_at_equal_precisions_leave_the_prior(theta):
    info = InformationStructure(theta, theta)
    for p in (1e-7, 0.3, 0.5, 0.9, 1.0 - 1e-7):
        assert posterior_after_both(p, info, ALPHA, BETA) == p
        assert posterior_after_both(p, info, BETA, ALPHA) == p


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


def _raw_likelihood(theta, value, state_a):
    return theta if (value is ALPHA) == state_a else 1.0 - theta


def test_signal_law_coupled_is_the_joint_over_states(info):
    # P(s1, s2) = sum over states of P(state) * L1(s1 | state) * L2(s2 | state)
    for p in (0.0, 0.3, 0.5, 0.7, 1.0):
        law = signal_law(p, info, "coupled")
        for signal, weight in zip(ALL_SIGNALS, law):
            joint = sum(
                prob_state
                * _raw_likelihood(0.6, signal.first, state_a)
                * _raw_likelihood(0.8, signal.second, state_a)
                for prob_state, state_a in ((p, True), (1.0 - p, False))
            )
            assert weight == pytest.approx(joint, abs=1e-15)
        assert abs(sum(law) - 1.0) <= 1e-15


def test_signal_law_product_multiplies_the_marginals(info):
    def marginal(p, theta, value):
        return sum(
            prob_state * _raw_likelihood(theta, value, state_a)
            for prob_state, state_a in ((p, True), (1.0 - p, False))
        )

    for p in (0.0, 0.3, 0.5, 0.7, 1.0):
        law = signal_law(p, info, "product")
        for signal, weight in zip(ALL_SIGNALS, law):
            product = marginal(p, 0.6, signal.first) * marginal(p, 0.8, signal.second)
            assert weight == pytest.approx(product, abs=1e-15)
        assert abs(sum(law) - 1.0) <= 1e-15


def test_signal_law_rejects_unknown_law(info):
    with pytest.raises(ParameterError):
        signal_law(0.5, info, "independent")
    with pytest.raises(InvalidProbabilityError):
        signal_law(1.5, info, "coupled")


@given(p=probs, t1=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       t2=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
def test_signal_law_properties(p, t1, t2):
    info = InformationStructure(t1, t2)
    coupled = signal_law(p, info, "coupled")
    product = signal_law(p, info, "product")
    for law in (coupled, product):
        assert all(0.0 <= w <= 1.0 for w in law)
        assert abs(sum(law) - 1.0) <= 1e-15
    # both laws share the first component's marginal
    for s1, rows in ((ALPHA, slice(0, 2)), (BETA, slice(2, 4))):
        first = marginal_first(p, info, s1)
        assert abs(sum(coupled[rows]) - first) <= 1e-15
        assert abs(sum(product[rows]) - first) <= 1e-15


@given(p=probs, t1=thetas, t2=thetas)
def test_signal_law_weights_are_the_stated_products_bit_for_bit(p, t1, t2):
    info = InformationStructure(t1, t2)
    for law in ("coupled", "product"):
        for signal, weight in zip(ALL_SIGNALS, signal_law(p, info, law)):
            belief = posterior_after_first(p, info, signal.first) if law == "coupled" else p
            stated = marginal_first(p, info, signal.first) * conditional_second(
                belief, info, signal.second
            )
            assert weight.hex() == stated.hex()


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), True, False, "0.3"])
def test_invalid_probabilities_rejected(info, bad):
    with pytest.raises(InvalidProbabilityError):
        posterior_after_first(bad, info, ALPHA)
    with pytest.raises(InvalidProbabilityError):
        posterior_after_both(bad, info, ALPHA, BETA)
    with pytest.raises(InvalidProbabilityError):
        marginal_first(bad, info, ALPHA)
    with pytest.raises(InvalidProbabilityError):
        conditional_second(bad, info, BETA)


@pytest.mark.parametrize("value", [np.float64(0.3), np.float32(0.25), np.int64(1)])
def test_numpy_scalar_probabilities_accepted(value):
    assert check_probability(value) == float(value)


@pytest.mark.parametrize("value", [np.int64(0), np.float32(0.25)], ids=repr)
def test_numpy_scalar_costs_and_payoffs_accepted_as_floats(value):
    cost = check_cost(value)
    assert type(cost) is float and cost == float(value)
    payoffs = PayoffStructure(np.int64(1), value)
    assert type(payoffs.u_correct) is float and type(payoffs.u_wrong) is float
    assert payoffs.delta_u == 1.0 - float(value)
    RunConfig(cost=value, priors=(value, np.float32(0.75))).validate()


def test_numpy_scalar_precisions_stored_as_floats():
    # Else a float32 precision would carry float32 arithmetic into every formula.
    info = InformationStructure(np.float32(0.6), np.float64(0.8))
    assert type(info.theta1) is float and type(info.theta2) is float
    assert info == InformationStructure(float(np.float32(0.6)), 0.8)


def test_decimal_rejected_as_probability_and_cost():
    with pytest.raises(InvalidProbabilityError):
        check_probability(Decimal("0.3"))
    with pytest.raises(ParameterError):
        check_cost(Decimal("0.1"))


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
    with pytest.raises(ParameterError, match="finite"):
        PayoffStructure(1e308, -1e308)  # finite utilities, an infinite premium
    assert PayoffStructure(2.0, 0.5).delta_u == 1.5


@pytest.mark.parametrize("bad", ["1", True, float("nan"), float("inf"), None])
def test_payoffs_must_be_finite_numbers(bad):
    with pytest.raises(ParameterError):
        PayoffStructure(bad, 0)
    with pytest.raises(ParameterError):
        PayoffStructure(2.0, bad)


@pytest.mark.parametrize(
    "bad", ["alpha", 1, None, pytest.param(AcquisitionAction.SKIP, id="AcquisitionAction.SKIP")]
)
def test_signal_components_must_be_alpha_or_beta(bad, info, payoffs):
    # Anything else would be read as BETA wherever a component is compared to ALPHA.
    entry_points = {
        "Signal first": lambda s: Signal(s, ALPHA),
        "Signal second": lambda s: Signal(BETA, s),
        "posterior_after_first": lambda s: posterior_after_first(0.3, info, s),
        "posterior_after_both s1": lambda s: posterior_after_both(0.3, info, s, ALPHA),
        "posterior_after_both s2": lambda s: posterior_after_both(0.3, info, ALPHA, s),
        "marginal_first": lambda s: marginal_first(0.3, info, s),
        "conditional_second": lambda s: conditional_second(0.3, info, s),
        "case_thresholds": lambda s: case_thresholds(info, s),
        "classify_case": lambda s: classify_case(0.3, info, s),
        "willingness_to_pay": lambda s: willingness_to_pay(0.3, info, payoffs, s),
        "inversion_thresholds": lambda s: inversion_thresholds(0.1, info, payoffs, s),
        "h_set": lambda s: h_set(0.1, info, payoffs, s),
        "h_set above the maximum": lambda s: h_set(0.5, info, payoffs, s),
        "reciprocal_partner": lambda s: reciprocal_partner(0.3, info, payoffs, s),
        "brute_force_voi": lambda s: brute_force_voi(0.3, info, payoffs, s),
    }
    accepted = []
    for name, call in entry_points.items():
        try:
            call(bad)
        except ParameterError:
            continue
        accepted.append(name)
    assert accepted == []


def test_scenario_validation():
    # A run's cost is a cost, and its priors one prior or a pair ordered low <= high.
    for bad in (
        {"cost": -0.1},
        {"cost": float("nan")},
        {"priors": ()},
        {"priors": (0.2, 0.3, 0.7)},
        {"priors": (0.7, 0.3)},
    ):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    RunConfig(cost=0.0, priors=(0.3, 0.7)).validate()
    RunConfig(priors=(0.5,)).validate()


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


# The sampling law lives in the oracle's streamed counter: thresholds
# (p, theta1, theta2) give the counts of ALL_SIGNALS under the state-coupled law.


def test_sampling_degenerate_prior_always_a():
    # perfect components reveal the state, so every draw reads (alpha, alpha)
    assert _signal_counts((1.0, 1.0, 1.0), 1000, 3) == (1000, 0, 0, 0)


def test_sampling_deterministic_under_seed(info):
    thresholds = (0.7, info.theta1, info.theta2)
    a = _signal_counts(thresholds, 10_000, 123)
    assert a == _signal_counts(thresholds, 10_000, 123)
    assert sum(a) == 10_000
    assert a != _signal_counts(thresholds, 10_000, 124)


def test_sampling_matches_first_component_marginal(info):
    n = 1_000_000
    counts = _signal_counts((0.7, info.theta1, info.theta2), n, 99)
    freq = (counts[0] + counts[1]) / n
    target = marginal_first(0.7, info, ALPHA)  # 0.54
    se = math.sqrt(target * (1 - target) / n)
    assert abs(freq - target) <= 3 * se


def test_sampling_uniform_prior_symmetric(info):
    n = 200_000
    counts = _signal_counts((0.5, info.theta1, info.theta2), n, 17)
    assert abs((counts[0] + counts[1]) / n - 0.5) <= 3 * math.sqrt(0.25 / n)
