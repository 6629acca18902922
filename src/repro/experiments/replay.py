"""Record-then-replay evaluation of the kriging policy (Section IV).

The paper's methodology: run the optimizer with exhaustive simulation, record
every tested configuration and its true metric value *in test order*; then
walk the recorded trajectory under the kriging policy — a configuration with
more than ``Nn_min`` previously *simulated* trajectory points within distance
``d`` is interpolated (and its interpolation error measured against the
recorded truth), anything else is "simulated" (its true value enters the
support cache).  The outputs are exactly the paper's Table I columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.distances import DistanceMetric
from repro.core.estimator import KrigingEstimator
from repro.fixedpoint.noise import bit_difference_db, relative_difference
from repro.optimization.trace import OptimizationTrace

__all__ = ["MetricKind", "ReplayStats", "replay_trajectory", "replay_trace"]


class MetricKind(enum.Enum):
    """How interpolation errors are expressed (paper Eqs. 11-12)."""

    NOISE_POWER_DB = "noise_power_db"
    """Metric is a noise power in dB; errors are equivalent-bit differences
    ``|log2(P_hat / P)|`` (Eq. 11)."""

    RATE = "rate"
    """Metric is a rate/probability; errors are relative differences
    ``|l_hat - l| / l`` (Eq. 12)."""

    def error(self, estimated: float, truth: float) -> float:
        """Interpolation error between an estimate and the recorded truth."""
        if self is MetricKind.NOISE_POWER_DB:
            return bit_difference_db(estimated, truth)
        return relative_difference(estimated, truth)


@dataclass(frozen=True)
class ReplayStats:
    """Result of replaying one trajectory under the kriging policy.

    Attributes mirror the paper's Table I columns: :attr:`p_percent` is the
    share of configurations interpolated instead of simulated, and
    :attr:`mean_neighbors` the mean support size per interpolation (column
    ``j``).  ``errors`` holds the per-interpolation errors in the metric
    kind's unit (equivalent bits or relative difference).
    """

    benchmark: str
    metric_kind: MetricKind
    distance: float
    nn_min: int
    n_configs: int
    n_interpolated: int
    n_simulated: int
    mean_neighbors: float
    errors: np.ndarray
    neighbor_quantiles: tuple[tuple[float, float], ...] = ()
    """Streamed ``(probability, support-size quantile)`` pairs from the
    estimator's P² sketch (empty when nothing was interpolated)."""
    solve_phases: tuple[tuple[str, float], ...] = ()
    """Cumulative solve-phase wall clock (``assembly_seconds`` /
    ``factorize_seconds`` / ``backsolve_seconds`` / ``n_flushes``) from the
    estimator's :class:`~repro.core.estimator.SolvePhaseStats`; empty when
    no grouped flush ran."""
    n_fits: int = 0
    """Variogram identifications made during the replay."""
    variogram_seconds: float = 0.0
    """Wall clock of their empirical variograms (Eq. 4)."""
    fit_seconds: float = 0.0
    """Wall clock of their model fits."""

    def solve_phase(self, name: str) -> float:
        """One cumulative solve-phase value by name (0.0 when untracked)."""
        for key, value in self.solve_phases:
            if key == name:
                return value
        return 0.0

    def neighbor_quantile(self, prob: float) -> float:
        """Support-size quantile streamed during the replay (``nan`` if
        ``prob`` was not tracked or nothing was interpolated)."""
        for p, value in self.neighbor_quantiles:
            if p == prob:
                return value
        return float("nan")

    @property
    def p_percent(self) -> float:
        """Percentage of configurations interpolated (paper column ``p``)."""
        if self.n_configs == 0:
            return 0.0
        return 100.0 * self.n_interpolated / self.n_configs

    @property
    def max_error(self) -> float:
        """Largest interpolation error (paper column ``max eps``)."""
        return float(np.max(self.errors)) if self.errors.size else float("nan")

    @property
    def mean_error(self) -> float:
        """Mean interpolation error (paper column ``mu eps``)."""
        return float(np.mean(self.errors)) if self.errors.size else float("nan")


def replay_trajectory(
    configurations: np.ndarray,
    true_values: np.ndarray,
    *,
    benchmark: str = "",
    metric_kind: MetricKind = MetricKind.NOISE_POWER_DB,
    distance: float = 3.0,
    nn_min: int = 1,
    metric: DistanceMetric | str = DistanceMetric.L1,
    variogram: object = "auto",
    min_fit_points: int = 4,
    refit_interval: int | None = 1,
    interpolator: str = "ordinary",
) -> ReplayStats:
    """Replay a recorded trajectory under the kriging policy.

    Parameters
    ----------
    configurations:
        ``(n, Nv)`` tested configurations in test order (duplicates allowed;
        only the first visit of each configuration is replayed).
    true_values:
        Recorded ground-truth metric values aligned with ``configurations``.
    benchmark:
        Name recorded in the result.
    metric_kind:
        Unit of the interpolation errors (Eq. 11 vs Eq. 12).
    distance, nn_min, metric, variogram, min_fit_points, refit_interval:
        Kriging-policy parameters, forwarded to
        :class:`~repro.core.estimator.KrigingEstimator`.  The defaults
        re-identify the variogram after every simulation (cheap at trajectory
        sizes) starting from the fourth, matching the paper's once-per-
        application identification as soon as data exists.
    """
    configs = np.asarray(configurations, dtype=np.int64)
    values = np.asarray(true_values, dtype=np.float64)
    if configs.ndim != 2 or configs.shape[0] == 0:
        raise ValueError(f"configurations must be non-empty 2-D, got {configs.shape}")
    if values.shape != (configs.shape[0],):
        raise ValueError(
            f"true_values shape {values.shape} incompatible with {configs.shape[0]} configs"
        )

    # First-visit deduplication: revisits are exact cache hits under either
    # scheme and would dilute the statistics.
    seen: set[tuple[int, ...]] = set()
    keep: list[int] = []
    for idx in range(configs.shape[0]):
        key = tuple(int(x) for x in configs[idx])
        if key not in seen:
            seen.add(key)
            keep.append(idx)
    configs = configs[keep]
    values = values[keep]

    truth = {tuple(int(x) for x in c): float(v) for c, v in zip(configs, values)}

    def lookup(config: np.ndarray) -> float:
        return truth[tuple(int(x) for x in config)]

    estimator = KrigingEstimator(
        lookup,
        configs.shape[1],
        distance=distance,
        nn_min=nn_min,
        metric=metric,
        variogram=variogram,  # type: ignore[arg-type]
        min_fit_points=min_fit_points,
        refit_interval=refit_interval,
        interpolator=interpolator,
    )

    # The whole trajectory goes through the batch engine: runs of
    # interpolations between simulations share one kriging factorization
    # (identical outcomes to a per-query loop, far less work).
    outcomes = estimator.evaluate_batch(configs)
    errors = [
        metric_kind.error(outcome.value, float(value))
        for outcome, value in zip(outcomes, values)
        if outcome.interpolated and not outcome.exact_hit
    ]

    stats = estimator.stats
    quantiles = (
        tuple(sorted(stats.neighbor_sketch.quantiles().items()))
        if stats.n_interpolated
        else ()
    )
    return ReplayStats(
        benchmark=benchmark,
        metric_kind=metric_kind,
        distance=float(distance),
        nn_min=int(nn_min),
        n_configs=int(configs.shape[0]),
        n_interpolated=stats.n_interpolated,
        n_simulated=stats.n_simulated,
        mean_neighbors=stats.mean_neighbors,
        errors=np.asarray(errors, dtype=np.float64),
        neighbor_quantiles=quantiles,
        solve_phases=stats.solve.as_pairs() if stats.solve.n_flushes else (),
        n_fits=stats.n_fits,
        variogram_seconds=stats.variogram_seconds,
        fit_seconds=stats.fit_seconds,
    )


def replay_trace(
    trace: OptimizationTrace,
    *,
    benchmark: str = "",
    metric_kind: MetricKind = MetricKind.NOISE_POWER_DB,
    distance: float = 3.0,
    nn_min: int = 1,
    metric: DistanceMetric | str = DistanceMetric.L1,
    variogram: object = "auto",
    min_fit_points: int = 4,
    refit_interval: int | None = 1,
    interpolator: str = "ordinary",
) -> ReplayStats:
    """Convenience wrapper: replay an :class:`OptimizationTrace` directly."""
    unique = trace.unique_first_visits()
    return replay_trajectory(
        unique.configurations,
        unique.values,
        benchmark=benchmark,
        metric_kind=metric_kind,
        distance=distance,
        nn_min=nn_min,
        metric=metric,
        variogram=variogram,
        min_fit_points=min_fit_points,
        refit_interval=refit_interval,
        interpolator=interpolator,
    )
