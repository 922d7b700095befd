"""Trimmed, smoothed controlled-risk estimation for vaccine correlates analyses.

Public surface: smoothing/quadrature primitives (:mod:`stwcr.core`),
nuisance models (:mod:`stwcr.nuisance`), influence values
(:mod:`stwcr.eif`), cross-fitted estimators (:mod:`stwcr.estimators`),
and the synthetic-trial simulation harness (:mod:`stwcr.simulation`).
"""

from .core import (
    DENSITY_FLOOR,
    Interval,
    SmoothingParams,
    integrate_kernel_weighted,
    integrate_kernel_weighted_2d,
    kernel_weight,
    smooth_indicator,
    smooth_indicator_deriv,
)
from .eif import EifPair, StwcrQuery, StwcrveQuery, eif_stwcr, eif_stwcrve
from .errors import (
    DatasetParseError,
    EstimationError,
    EvaluationError,
    HarnessError,
    InvalidParameterError,
    SolverError,
    StwcrError,
)
from .estimators import (
    FoldAssignment,
    ModelSpecs,
    StwcrReport,
    StwcrveReport,
    estimate_stwcr,
    estimate_stwcrve,
    make_folds,
)
from .nuisance import (
    CondDensityModel,
    Dataset,
    FeatureSpec,
    KnownPropensity,
    NuisanceTriple,
    Observation,
    OutcomeModel,
    PropensityModel,
    fit_cond_density,
    fit_outcome,
    fit_propensity,
    interaction,
    intercept,
    irls_logistic,
    raw,
    square,
    support_bounds,
)
from .simulation import (
    MetricsRow,
    OracleResult,
    ScenarioSpec,
    SimConfig,
    direct_plain_smoothed_risk,
    gen_dataset,
    oracle_estimand,
    run_monte_carlo,
    true_nuisances,
)

__version__ = "0.1.0"
