"""Costly scrutiny of a two-component signal.

A decision-maker guessing a binary state sees one signal component for free
and can pay a processing cost to see the second.  This package computes the
Bayesian posteriors, the willingness to pay for the second look, the prior
sets it induces, and the belief patterns (polarization, disconfirmation,
confirmatory patterns, under- and over-reaction) that optimal acquisition
produces, each cross-checked by a brute-force expected-utility oracle and
seeded Monte Carlo simulation.
"""

from .errors import (
    ConfigError,
    ExtremeBeliefError,
    IndifferentPriorError,
    InvalidProbabilityError,
    ModelError,
    OrderingError,
    ParameterError,
    UnknownPatternError,
)
from .model import (
    ALL_SIGNALS,
    ALPHA,
    BETA,
    InformationStructure,
    PayoffStructure,
    Signal,
    SignalComponentValue,
    StateOfWorld,
    conditional_second,
    marginal_first,
    posterior_after_first,
    posterior_after_both,
    signal_law,
)
from .incentives import (
    AcquisitionAction,
    case_interval,
    case_thresholds,
    classify_case,
    max_willingness_to_pay,
    willingness_to_pay,
)
from .sets import (
    ExtremeSets,
    PairClass,
    ProbabilityInterval,
    classify_pair,
    extreme_sets,
    h_set,
    inversion_thresholds,
    reciprocal_partner,
)
from .patterns import (
    ConfirmationReport,
    DisconfirmationReport,
    PairwiseOutcome,
    PolarizationFeasibility,
    ReactionReport,
    confirmation_report,
    disconfirmation_report,
    pairwise_outcome,
    polarization_feasible,
    polarization_probability,
    reaction_report,
    realized_posterior,
)
from .oracle import (
    ALL_CHECKS,
    EXTRA_CHECKS,
    MonteCarloEstimate,
    OutcomeEntry,
    OutcomeTable,
    Violation,
    brute_force_voi,
    default_prior_grid,
    grid_theorem_check,
    mc_pattern_frequency,
    outcome_table,
    pattern_probability,
)
from .config import DEFAULT_CONFIG, RunConfig, load_config, parse_config

__version__ = "0.1.0"
