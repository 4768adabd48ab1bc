import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    Signal,
    UnknownPatternError,
    brute_force_voi,
    case_thresholds,
    classify_pair,
    confirmation_report,
    default_prior_grid,
    disconfirmation_report,
    grid_theorem_check,
    marginal_first,
    mc_pattern_frequency,
    pairwise_outcome,
    pattern_probability,
    polarization_feasible,
    polarization_probability,
    reaction_report,
    willingness_to_pay,
)
from secondlook import incentives, oracle, sets
from secondlook.patterns import (
    confirmation_verdict,
    disconfirmation_verdict,
    polarization_routes,
    polarization_verdict,
    reaction_verdict,
    realized_rows,
)
from secondlook.sets import b_memberships

SMALL_GRID = default_prior_grid(21)


def test_brute_force_voi_matches_reference(info, payoffs):
    assert brute_force_voi(0.3, info, payoffs, ALPHA) == pytest.approx(0.19, abs=5e-3)
    assert brute_force_voi(0.3, info, payoffs, ALPHA) == pytest.approx(
        willingness_to_pay(0.3, info, payoffs, ALPHA), abs=1e-10
    )


def test_voi_oracle_is_independent_of_the_formulas_it_checks(monkeypatch, info, payoffs):
    # The characterizations read the enumeration, never the closed forms that
    # the definition side reads through ``patterns``.
    assert not hasattr(oracle, "willingness_to_pay")
    assert not hasattr(oracle, "extreme_sets")

    def closed_form(*args):
        raise AssertionError("the VOI oracle reached a closed-form formula")

    monkeypatch.setattr(incentives, "willingness_to_pay", closed_form)
    for module in (incentives, oracle):
        monkeypatch.setattr(module, "case_thresholds", closed_form)
    for name in ("extreme_sets", "h_set"):
        monkeypatch.setattr(sets, name, closed_form)
    # The reference willingness: 1/45 (about 0.0222) and 22/115 (about 0.1913).
    for p, reference in ((0.7, 1 / 45), (0.3, 22 / 115)):
        assert brute_force_voi(p, info, payoffs, ALPHA) == pytest.approx(reference, abs=1e-12)
        alpha, _ = oracle._enumerated_willingness(np.array([p]), info, payoffs)
        assert alpha.tolist() == pytest.approx([reference], abs=1e-12)


@given(
    priors=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
    theta1=st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
    theta2=st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
    payoffs=st.sampled_from([PayoffStructure(1.0, 0.0), PayoffStructure(2.0, 0.5)]),
)
def test_enumeration_on_rows_equals_scalar_voi_bit_for_bit(priors, theta1, theta2, payoffs):
    # The grid checks' willingness is the scalar oracle's, also at the
    # breakpoints: the case thresholds, the degenerate priors and 1/2.
    info = InformationStructure(theta1, theta2)
    points = priors + [*case_thresholds(info, ALPHA), *case_thresholds(info, BETA), 0.0, 0.5, 1.0]
    rows = oracle._enumerated_willingness(np.array(points), info, payoffs)
    for s1, row in zip((ALPHA, BETA), rows.tolist()):
        assert [x.hex() for x in row] == [
            brute_force_voi(p, info, payoffs, s1).hex() for p in points
        ]


def test_enumeration_is_exact_on_fractions():
    # The same code on rationals: 22/115 at p = 3/10 and 1/45 at p = 7/10.
    theta = (Fraction(3, 5), Fraction(4, 5))
    for p, exact in ((Fraction(3, 10), Fraction(22, 115)), (Fraction(7, 10), Fraction(1, 45))):
        gain = oracle._voi(p, *theta, 1, 0, ALPHA)
        assert type(gain) is Fraction and gain == exact


def test_brute_force_voi_zero_when_guess_never_flips(info, payoffs):
    assert brute_force_voi(0.95, info, payoffs, ALPHA) == pytest.approx(0.0, abs=1e-15)


def test_brute_force_voi_zero_at_half_with_equal_precisions(payoffs):
    info = InformationStructure(0.7, 0.7)
    assert brute_force_voi(0.5, info, payoffs, ALPHA) == pytest.approx(0.0, abs=1e-15)
    assert willingness_to_pay(0.5, info, payoffs, ALPHA) == 0.0


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
# side from the oracle's enumeration: polarization in its feasibility arrays,
# the single-prior checks directly.  The definition side reads the closed form
# through ``patterns``.  A perturbation of either side must show.
@pytest.mark.parametrize(
    "check", ["confirmation", "disconfirmation", "polarization", "reaction"]
)
@pytest.mark.parametrize("offset", [0.0, 0.01])
def test_grid_checker_catches_perturbed_willingness(monkeypatch, check, offset):
    core = oracle._voi
    monkeypatch.setattr(oracle, "_voi", lambda *args: core(*args) + offset)
    violations = grid_theorem_check(check, priors=SMALL_GRID)
    assert (len(violations) > 0) == (offset != 0.0)


@pytest.mark.parametrize(
    "check, count",
    [("confirmation", 6), ("disconfirmation", 6), ("polarization", 61), ("reaction", 6)],
)
def test_grid_checker_catches_perturbed_closed_form(monkeypatch, check, count):
    monkeypatch.setattr(
        "secondlook.incentives.willingness_to_pay",
        lambda *args: willingness_to_pay(*args) + 0.01,
    )
    assert len(grid_theorem_check(check, priors=SMALL_GRID)) == count


def test_degenerate_priors_agree_on_both_sides(info, payoffs):
    # A prior of 0 or 1 never moves: a skip there is no pattern, and a pair
    # with such a prior as the non-acquirer cannot polarize in order, so the
    # closed form's in-order routes agree with the enumeration over signals.
    edge = [0.0, 1e-7, 0.5, 1 - 1e-7, 1.0]
    for check in ALL_CHECKS + EXTRA_CHECKS:
        assert grid_theorem_check(check, priors=edge) == [], check
    for p_i, p_j in ((0.3, 1.0), (0.5, 1.0), (0.0, 0.5)):
        assert polarization_probability(0.5, p_i, p_j, info, payoffs, 0.1) == pattern_probability(
            "PB", 0.5, p_i, info, payoffs, 0.1, p_j=p_j
        )


def test_single_prior_claims_call_no_scalar_report(monkeypatch):
    # The three single-prior claims compare verdict rows, never a report per prior.
    assert not hasattr(oracle, "disconfirmation_report")

    def scalar(*args):
        raise AssertionError("a grid claim called a scalar report")

    for name in ("confirmation_report", "reaction_report"):
        monkeypatch.setattr(oracle, name, scalar)
    for check in ("disconfirmation", "confirmation", "reaction"):
        assert grid_theorem_check(check, priors=SMALL_GRID) == []


def test_grid_checks_evaluate_cost_ties(monkeypatch):
    # The extreme priors are willing to pay 0, exactly the cost: a tie, which
    # acquires, is evaluated like any other point.
    seen = []

    def recording(p, *args):
        seen.extend(p.tolist())
        return realized_rows(p, *args)

    monkeypatch.setattr("secondlook.oracle.realized_rows", recording)
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


PAIRWISE_CHECKS = [
    "polarization", "one_sided_updating", "ordered_gap_contraction", "mirrored_no_divergence"
]


@pytest.mark.parametrize("check", PAIRWISE_CHECKS)
def test_array_claims_reject_what_the_scalar_api_rejects(check, monkeypatch):
    # All on entry: a slice that ran would call this and raise TypeError.
    monkeypatch.setattr(oracle, "_enumerated_willingness", None)
    with pytest.raises(ParameterError):
        grid_theorem_check(check, priors=SMALL_GRID, costs=[float("nan")])
    # A flat precision pair, a bare cost, and a bad precision in the second pair.
    for bad in ({"thetas": (0.6, 0.8)}, {"costs": 0.1}, {"thetas": ((0.6, 0.8), (0.4, 0.8))}):
        with pytest.raises(ParameterError):
            grid_theorem_check(check, priors=SMALL_GRID, **bad)
    # An empty list once read as "holds everywhere", and a string as its characters.
    for bad in ({"thetas": ()}, {"costs": []}, {"priors": []}, {"costs": "0.1"}):
        (name,) = bad
        with pytest.raises(ParameterError, match=f"'{name}'"):
            grid_theorem_check(check, **{"priors": SMALL_GRID, **bad})
    # On entry, whichever pairs a check goes on to select.
    for priors in ([0.9, 0.1], [0.2, 0.7, 0.4]):
        with pytest.raises(OrderingError):
            grid_theorem_check(check, priors=priors)


@pytest.mark.parametrize("n", [1, 0, -1, True, 2.5, "5"], ids=repr)
def test_default_prior_grid_needs_two_or_more_priors(n):
    with pytest.raises(ParameterError, match="n must be"):
        default_prior_grid(n)


def test_only_polarization_rejects_repeated_priors():
    # as polarization_feasible needs p_i < p_j and pairwise_outcome p_i <= p_j
    with pytest.raises(OrderingError):
        grid_theorem_check("polarization", priors=[0.2, 0.2, 0.7])
    for check in PAIRWISE_CHECKS[1:]:
        assert grid_theorem_check(check, priors=[0.2, 0.2, 0.7]) == []


AGREEMENT_THETAS = [
    (0.6, 0.8), (0.55, 0.9), (0.8, 0.6), (0.7, 0.7), (0.52, 0.98), (0.9, 0.55)
]
AGREEMENT_COSTS = [0.0, 0.01, 0.05, 0.1, 0.15, 0.25, 0.3]


@pytest.mark.parametrize(
    "payoffs", [PayoffStructure(1.0, 0.0), PayoffStructure(2.0, 0.5)], ids=str
)
@pytest.mark.parametrize("theta", AGREEMENT_THETAS, ids=str)
def test_pair_arrays_match_scalar_api_exactly(monkeypatch, theta, payoffs):
    # ``==``, not approx: the block values come from the closed-form
    # willingness and from ``realized_rows``, whose beliefs are the scalar
    # posteriors' updating step on rows, and go through the same pair laws, so
    # blocks and scalar calls agree bit for bit.  A cap of 12 cells splits the 31-prior
    # triangle into single rows wider than the cap and runs of several rows.
    monkeypatch.setattr(oracle, "_PAIR_BLOCK", 12)
    info = InformationStructure(*theta)
    grid = default_prior_grid(31).tolist()
    wtp = np.array(
        [[willingness_to_pay(p, info, payoffs, s1) for p in grid] for s1 in (ALPHA, BETA)]
    )
    for cost in AGREEMENT_COSTS:
        seen, mirrored = [], []
        rows = oracle._rows(grid, wtp, info, payoffs, cost)
        blocks = oracle._pair_blocks((rows.p, rows.wtp, rows.belief, rows.acquires, rows.crossing))
        for a, b, in_triangle, low, high in blocks:
            p_i, wtp_i, post_i, acq_i, cross_i = low
            p_j, wtp_j, post_j, acq_j, cross_j = high
            outcome = polarization_verdict(p_i, p_j, post_i, post_j)
            one_sided = b_memberships(wtp_i, wtp_j, cost)
            routes = polarization_routes(
                info.theta2 > info.theta1,
                p_i,
                p_j,
                one_sided,
                (cross_i[0], cross_j[1], cross_i[2], cross_j[3]),
            )
            feasible = np.logical_or.reduce(routes)
            cells = np.nonzero(in_triangle)
            pairs = [(grid[a + i], grid[b + j]) for i, j in zip(*cells)]
            seen += pairs
            # The mirrored checks' selection: B after alpha for the high prior,
            # B after beta for the low one.
            classes = [classify_pair(*pair, cost, info, payoffs) for pair in pairs]
            assert [one_sided[2][cells].tolist(), one_sided[3][cells].tolist()] == [
                [k.in_b_high_alpha for k in classes],
                [k.in_b_low_beta for k in classes],
            ]
            for pair, k in zip(pairs, classes):
                mirrored += [(*pair, Signal(ALPHA, BETA))] * k.in_b_high_alpha
                mirrored += [(*pair, Signal(BETA, ALPHA))] * k.in_b_low_beta
            feasibility = [polarization_feasible(*pair, info, payoffs, cost) for pair in pairs]
            assert feasible[cells].tolist() == [f.feasible for f in feasibility]
            assert [route[cells].tolist() for route in routes] == [
                [f.via_alpha for f in feasibility],
                [f.via_beta for f in feasibility],
                [f.via_alpha_swap for f in feasibility],
                [f.via_beta_swap for f in feasibility],
            ]
            for s, signal in enumerate(ALL_SIGNALS):
                scalar = [
                    pairwise_outcome(*pair, info, payoffs, cost, signal) for pair in pairs
                ]
                assert [x[s][cells].tolist() for x in outcome] == [
                    [o.divergence for o in scalar],
                    [o.inversion for o in scalar],
                    [o.polarized for o in scalar],
                ]
                assert [
                    (bool(acq_i[s, i, 0]), bool(acq_j[s, 0, j])) for i, j in zip(*cells)
                ] == [
                    tuple(act is AcquisitionAction.ACQUIRE for act in o.acquisitions)
                    for o in scalar
                ]
        assert seen == list(itertools.combinations(grid, 2))
        assert list(oracle._mirrored(grid, wtp, cost)) == mirrored


@pytest.mark.parametrize(
    "payoffs", [PayoffStructure(1.0, 0.0), PayoffStructure(2.0, 0.5)], ids=str
)
@pytest.mark.parametrize("theta", AGREEMENT_THETAS + [(0.8, 0.8000000000000002)], ids=str)
def test_verdict_rows_match_scalar_reports_exactly(theta, payoffs):
    # ``==``, not approx: the rows ``disconfirmation``, ``confirmation`` and
    # ``reaction`` compare are the three verdicts on ``realized_rows``, and the
    # scalar reports read the same verdicts on the scalar willingness and
    # posteriors.  The near-equal precisions put realized and full posteriors
    # on neighbouring doubles, where the order is decided by round-off; both
    # paths must decide it the same way.
    info = InformationStructure(*theta)
    priors = default_prior_grid(31).tolist() + [0.0, 1e-7, 1.0]
    row = np.array(priors)
    favored = [k for k, p in enumerate(priors) if p != 0.5]
    for cost in AGREEMENT_COSTS:
        belief, _, _, full, wtp = realized_rows(row, info, payoffs, cost)
        tendency, exhibits = disconfirmation_verdict(row, *wtp, cost)
        reports = [disconfirmation_report(p, info, payoffs, cost) for p in priors]
        assert [tendency.tolist(), exhibits.tolist()] == [
            [r.tendency for r in reports],
            [r.exhibits for r in reports],
        ]
        assert wtp.tolist() == [[r.wtp_alpha for r in reports], [r.wtp_beta for r in reports]]
        confirmatory, disproving = confirmation_verdict(row, belief, full)
        under, over = reaction_verdict(row, belief, full)
        for s, signal in enumerate(ALL_SIGNALS):
            reports = [reaction_report(p, info, payoffs, cost, signal) for p in priors]
            assert [under[s].tolist(), over[s].tolist()] == [
                [r.underreaction for r in reports],
                [r.overreaction for r in reports],
            ]
            assert full[s].tolist() == [r.full_posterior for r in reports]
            assert belief[s].tolist() == [r.realized for r in reports]
            reports = [confirmation_report(priors[k], info, payoffs, cost, signal) for k in favored]
            assert [confirmatory[s, favored].tolist(), disproving[s, favored].tolist()] == [
                [r.confirmatory for r in reports],
                [r.disproving for r in reports],
            ]


# (count, SHA-256 of repr) of the single-prior lists at grid 61, recorded from
# the loops that made one scalar report call per prior or (prior, signal):
# with the characterization's willingness offset both ways, and at near-equal
# precisions, where the verdicts' strict orders meet round-off.
SINGLE_PRIOR_LISTS = {
    ("confirmation", "offset +0.003"): (
        2, "28ff7a7f8fc62a0005d2a2005ad420c6f96786fd59a49b43a5257ded456ad474"
    ),
    ("confirmation", "offset -0.003"): (
        10, "8141e0f27d27ae5de33cc295c9fcb076aa56dc54ee9dec15b3f7c3e87f000e02"
    ),
    ("confirmation", "near-equal precisions"): (
        46, "2095e6beddfef1bd59628f0e7edc97993575fa12ae14add420a14a897984437d"
    ),
    ("reaction", "offset +0.003"): (
        2, "b6c1022b1d64d568e7c1f15442ee4205d3c1b7c642187da71eebbfb28426b04e"
    ),
    ("reaction", "offset -0.003"): (
        14, "ef6a64af0879b961af8dd988736ccf9939842b0b85390cf83fc066e4482277c6"
    ),
    ("reaction", "near-equal precisions"): (
        46, "4278636b63066def062e11859f811373c88be1b6d2e7fcd8e63646b6c7f92f7f"
    ),
    ("disconfirmation", "offset +0.003"): (
        218, "5e41bb7ec491f7f26c69925ad5387a17182166c465b8ad0f4771bf06e7cb1b84"
    ),
    ("disconfirmation", "offset -0.003"): (
        12, "99a2b767659a6961235f92c737a5faa91eaf010d57387d617e0c889d3a7446b5"
    ),
}


@pytest.mark.parametrize(
    "check, case", SINGLE_PRIOR_LISTS, ids=[f"{c}-{case}" for c, case in SINGLE_PRIOR_LISTS]
)
def test_single_prior_lists_keep_prior_and_signal_order(monkeypatch, check, case):
    thetas = oracle.DEFAULT_THETAS
    if case == "near-equal precisions":
        thetas = ((0.8, 0.8000000000000002), (0.8000000000000002, 0.8))
    else:
        offset = 0.003 if case == "offset +0.003" else -0.003
        core = oracle._voi
        monkeypatch.setattr(oracle, "_voi", lambda *args: core(*args) + offset)
    violations = grid_theorem_check(check, priors=default_prior_grid(61), thetas=thetas)
    digest = hashlib.sha256(repr(violations).encode()).hexdigest()
    assert (len(violations), digest) == SINGLE_PRIOR_LISTS[check, case]


def _flipped_verdict(*args):
    divergence, inversion, _ = polarization_verdict(*args)
    return -divergence, -inversion, (-divergence < 0.0) & (-inversion < 0.0)


# (count, SHA-256 of repr) of the lists at grid 61 with the verdict's signs
# flipped, so that they are long; recorded from the loops that compared one
# low prior at a time.  ``mirrored_no_divergence`` reads no verdict, so its
# list is the unflipped one.
FLIPPED_LISTS = {
    "polarization": (
        10293, "ad6ca1072da0616aef8f7672bc9ae4cd49145be778b8e8ac2a75643284cdce45"
    ),
    "one_sided_updating": (
        43532, "48f71586cf448b92e7a8142753859ac72ef4e3762a0dba66ffb2de963f285faf"
    ),
    "mirrored_no_divergence": (
        364, "266eb1555c9e6c9c6ba790194184a0e92a1895a4e5d1257d259fa77e68625afd"
    ),
}


@pytest.mark.parametrize("cap", [None, 7], ids=["default-cap", "cap-7"])
@pytest.mark.parametrize("check", FLIPPED_LISTS)
def test_pair_blocks_keep_combinations_and_signal_order(monkeypatch, check, cap):
    # A cap of 7 cells makes single rows wider than the cap and, at the end,
    # runs of short rows; the default cap one block per slice.  The order
    # must not move.
    monkeypatch.setattr(oracle, "polarization_verdict", _flipped_verdict)
    if cap is not None:
        monkeypatch.setattr(oracle, "_PAIR_BLOCK", cap)
    violations = grid_theorem_check(check, priors=default_prior_grid(61))
    digest = hashlib.sha256(repr(violations).encode()).hexdigest()
    assert (len(violations), digest) == FLIPPED_LISTS[check]


@pytest.mark.parametrize("cap", [1, 7, 12, None], ids=["cap-1", "cap-7", "cap-12", "default-cap"])
def test_triangle_blocks_are_whole_rows_covering_each_pair_once(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(oracle, "_PAIR_BLOCK", cap)
    # At the last n the first rows are wider than any of the caps.
    for n in (0, 1, 2, 3, 13, 31, oracle._PAIR_BLOCK + 3):
        blocks = list(oracle._triangle_blocks(n))
        # Runs of whole rows, back to back from row 0 to row n - 2.
        edges = [0] + [rows.stop for rows, _ in blocks]
        assert [(rows.start, rows.stop) for rows, _ in blocks] == list(zip(edges, edges[1:]))
        assert edges[-1] == max(n - 1, 0)
        for rows, cols in blocks:
            assert rows.stop > rows.start and cols == slice(rows.start + 1, n)
            height = rows.stop - rows.start
            assert height * (n - 1 - rows.start) <= oracle._PAIR_BLOCK or height == 1
        if n < 100:  # the pairs, as ``_pair_blocks`` masks and reads them
            index = np.arange(n)
            pairs = [
                (rows.start + i, cols.start + j)
                for rows, cols in blocks
                for i, j in zip(*np.nonzero(index[rows, None] < index[None, cols]))
            ]
            assert pairs == list(itertools.combinations(range(n), 2))


def test_grid_check_unknown_id():
    with pytest.raises(ParameterError):
        grid_theorem_check("bogus")
    assert "mirrored_no_divergence" in EXTRA_CHECKS


def test_violation_rendering():
    violations = grid_theorem_check("mirrored_no_divergence", priors=SMALL_GRID)
    text = str(violations[0])
    assert text.startswith("[mirrored_no_divergence] theta1=")
    assert "p_i=" in text and "divergence=" in text
