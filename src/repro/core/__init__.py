"""Kriging-based metric estimation — the paper's core contribution.

The package implements the full geostatistical pipeline of Section III:

1. :mod:`~repro.core.variogram` — the empirical semi-variogram of the metric
   values measured so far (paper Eq. 4);
2. :mod:`~repro.core.models` / :mod:`~repro.core.fitting` — parametric
   variogram models and their weighted-least-squares identification;
3. :mod:`~repro.core.kriging` — the ordinary-kriging linear system
   (paper Eqs. 7–10, "simple kriging" in the paper's nomenclature) and the
   textbook simple-kriging variant;
4. :mod:`~repro.core.estimator` — :class:`KrigingEstimator`, the
   interpolate-or-simulate policy of Algorithms 1–2: a configuration with
   more than ``Nn_min`` previously *simulated* configurations within L1
   distance ``d`` is interpolated, anything else is simulated and added to
   the support cache;
5. :mod:`~repro.core.factor_cache` — the estimator's private, in-memory
   LRU of Cholesky factors of the (shifted) Gamma matrices, reused when a
   group's support-set signature matches exactly.
"""

from repro.core.cache import SimulationCache
from repro.core.crossval import (
    CrossValidationResult,
    loo_cross_validate,
    select_variogram_loo,
)
from repro.core.distances import (
    DistanceMetric,
    cross_distances,
    distance,
    pairwise_distances,
)
from repro.core.estimator import (
    EstimationOutcome,
    KrigingEstimator,
    SolvePhaseStats,
)
from repro.core.fitting import FittedVariogram, fit_variogram, select_variogram
from repro.core.kriging import (
    KrigingResult,
    SolvePhases,
    ordinary_kriging,
    ordinary_kriging_batch,
    ordinary_kriging_grouped,
    simple_kriging,
)
from repro.core.universal import linear_drift, quadratic_drift, universal_kriging
from repro.core.models import (
    ExponentialVariogram,
    GaussianVariogram,
    LinearVariogram,
    NuggetVariogram,
    PowerVariogram,
    SphericalVariogram,
    VariogramModel,
)
from repro.core.neighborhood import find_neighbors
from repro.core.variogram import EmpiricalVariogram, empirical_semivariogram

__all__ = [
    "DistanceMetric",
    "distance",
    "pairwise_distances",
    "cross_distances",
    "empirical_semivariogram",
    "EmpiricalVariogram",
    "VariogramModel",
    "LinearVariogram",
    "SphericalVariogram",
    "ExponentialVariogram",
    "GaussianVariogram",
    "PowerVariogram",
    "NuggetVariogram",
    "fit_variogram",
    "select_variogram",
    "FittedVariogram",
    "ordinary_kriging",
    "ordinary_kriging_batch",
    "ordinary_kriging_grouped",
    "SolvePhases",
    "SolvePhaseStats",
    "simple_kriging",
    "universal_kriging",
    "linear_drift",
    "quadratic_drift",
    "KrigingResult",
    "find_neighbors",
    "SimulationCache",
    "KrigingEstimator",
    "EstimationOutcome",
    "loo_cross_validate",
    "select_variogram_loo",
    "CrossValidationResult",
]
