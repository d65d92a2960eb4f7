"""Partition models built on negative binomial point processes.

Public surface: model construction (:mod:`nbpk.levy_models`), configurations
and spectra (:mod:`nbpk.partitions`), EPPF / prediction weights
(:mod:`nbpk.posterior`), the sequential urn sampler (:mod:`nbpk.sampler`) and
the backward ancestral recursion (:mod:`nbpk.coalescent`).
"""

from .levy_models import (
    LevyModel,
    ModelKind,
    ModelParamsR,
    log_kernels_lv,
    log_pi_n_lv,
    log_psi_lv,
)
from .numerics import (
    QuadratureError,
    log_integrate_halfline_logv,
)
from .partitions import AFSVector, Configuration, afs, enumerate_afs, log_partition_coefficient
from .posterior import (
    PredictiveWeights,
    check_prediction_sum,
    check_partition_normalization,
    log_eppf,
    log_v_moment,
    normalized_predictive,
    predictive_weights,
    sample_jump_given_v,
)
from .sampler import GibbsSampleRecord, kn_posterior_mc, run_chain, sample_v, urn_step
from .coalescent import (
    AncestralEvent,
    CoalescentHistory,
    EventKind,
    RateFunction,
    RateKind,
    backward_event_probabilities,
    h_solver_exact,
    ratio_integrals,
    simulate_backward,
    transition_rates,
)

__version__ = "0.1.0"
