"""The interpolate-or-simulate policy (Algorithms 1-2, lines 6-24).

:class:`KrigingEstimator` wraps a simulation function and answers metric
queries: a configuration whose neighbourhood (L1 distance ``<= d``) contains
strictly more than ``Nn_min`` previously *simulated* configurations is
interpolated by ordinary kriging over exactly those neighbours; otherwise it
is simulated and added to the support cache.  Interpolated configurations
never become support points (Section III-B).

The semi-variogram is identified from the simulated values, once per
metric/application (Section III-A) or periodically — both behaviours are
available through ``refit_interval``.

Performance
-----------
The query hot path is a vectorized engine with four layers:

* the :class:`~repro.core.cache.SimulationCache` stores support points in a
  contiguous geometrically-grown array, so ``points`` / ``values`` are
  zero-copy O(1) views;
* a neighbourhood lookup is one distance scan of that view
  (:func:`~repro.core.neighborhood.find_neighbors`);
* :meth:`KrigingEstimator.evaluate_batch` answers a whole sweep of queries
  at once: runs of interpolations between two simulations are grouped by
  support set and solved by
  :func:`~repro.core.kriging.ordinary_kriging_batch`, which factorizes the
  bordered Gamma matrix once per group and back-substitutes all right-hand
  sides together; same-size groups are stacked into one batched solve
  (:func:`~repro.core.kriging.ordinary_kriging_grouped`).  The outcomes —
  simulate/interpolate decisions, final cache contents, and values (to
  tight numerical tolerance) — match an equivalent sequence of
  :meth:`~KrigingEstimator.evaluate` calls;
* a :class:`~repro.core.factor_cache.FactorCache` keeps the group
  factorizations alive across flushes: a group whose support set matches a
  cached one exactly reuses the factor, and every reused solve is
  residual-checked against the true system with a transparent fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.cache import SimulationCache
from repro.core.distances import DistanceMetric
from repro.core.factor_cache import FactorCache, FactorCacheStats, GammaFactor
from repro.core.fitting import (
    AUTO_KINDS,
    MODEL_KINDS,
    fit_variogram,
    select_variogram,
    warm_start,
)
from repro.core.kriging import (
    SolvePhases,
    ordinary_kriging,
    ordinary_kriging_grouped,
)
from repro.core.models import LinearVariogram, VariogramModel, variogram_from_state
from repro.core.neighborhood import find_neighbors
from repro.core.universal import adaptive_linear_drift, universal_kriging
from repro.core.variogram import LagAccumulator, empirical_semivariogram
from repro.utils.quantiles import QuantileSketch

__all__ = ["EstimationOutcome", "KrigingEstimator", "SolvePhaseStats"]

SimulateFn = Callable[[np.ndarray], float]

#: The scale-free prior used until ``min_fit_points`` simulations exist.
_PREFIT_VARIOGRAM = LinearVariogram(1.0)


def _reselection_due(min_fit_points: int, fitted_at: int, n_sim: int) -> bool:
    """Whether a point ``ceil(min_fit_points * 1.25**k)`` of the full
    reselection schedule lies in ``[fitted_at, n_sim]`` (exact integers).

    The closed left end makes the refit after a schedule point reselect
    too: at small ``n`` the families are often near-tied, and a winner
    picked at a schedule point is confirmed on the next refit's data
    before incumbent refits take over.
    """
    num = den = 1
    while (point := -(-min_fit_points * num // den)) <= n_sim:
        if point >= fitted_at:
            return True
        num, den = num * 5, den * 4
    return False


@dataclass(frozen=True)
class EstimationOutcome:
    """Result of one metric query.

    Attributes
    ----------
    value:
        The metric estimate (simulated or interpolated).
    interpolated:
        ``True`` when kriging produced the value without a simulation.
    n_neighbors:
        Number of support points inside the distance ball (the paper's
        ``Nn``; equals the number used for kriging when interpolated).
    variance:
        Kriging variance when interpolated, ``nan`` otherwise.
    exact_hit:
        ``True`` when the configuration had already been simulated and the
        cached value was returned (kriging is exact at support points).
    """

    value: float
    interpolated: bool
    n_neighbors: int
    variance: float = float("nan")
    exact_hit: bool = False


@dataclass
class SolvePhaseStats:
    """Cumulative solve-phase timing of the batch engine.

    Every grouped flush splits its wall clock into *assembly* (distance /
    variogram kernels and system construction), *factorize* (fresh LAPACK
    factorizations, including the stacked batched calls) and *backsolve*
    (cached-factor triangular solves plus weight/variance extraction);
    ``repro replay`` prints the cumulative split.
    """

    assembly_seconds: float = 0.0
    factorize_seconds: float = 0.0
    backsolve_seconds: float = 0.0
    n_flushes: int = 0

    def record_flush(
        self, assembly: float, factorize: float, backsolve: float
    ) -> None:
        """Fold one grouped flush's phase split into the aggregates."""
        self.n_flushes += 1
        self.assembly_seconds += assembly
        self.factorize_seconds += factorize
        self.backsolve_seconds += backsolve

    @property
    def total_seconds(self) -> float:
        """Wall clock attributed to the three phases, summed."""
        return self.assembly_seconds + self.factorize_seconds + self.backsolve_seconds

    def as_pairs(self) -> tuple[tuple[str, float], ...]:
        """Cumulative name/value pairs, for frozen result dataclasses."""
        return (
            ("assembly_seconds", self.assembly_seconds),
            ("factorize_seconds", self.factorize_seconds),
            ("backsolve_seconds", self.backsolve_seconds),
            ("n_flushes", float(self.n_flushes)),
        )

    def to_state(self) -> dict:
        return {
            "assembly_seconds": self.assembly_seconds,
            "factorize_seconds": self.factorize_seconds,
            "backsolve_seconds": self.backsolve_seconds,
            "n_flushes": self.n_flushes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SolvePhaseStats":
        """Rebuild from :meth:`to_state` output; the per-phase sketch keys
        of older states are ignored."""
        return cls(
            assembly_seconds=float(state["assembly_seconds"]),
            factorize_seconds=float(state["factorize_seconds"]),
            backsolve_seconds=float(state["backsolve_seconds"]),
            n_flushes=int(state["n_flushes"]),
        )


@dataclass
class EstimatorStats:
    """Aggregate counters of a :class:`KrigingEstimator`.

    Neighbour counts stream into :attr:`neighbor_sketch`, a P² sketch
    serving both the exact aggregates (count/sum/mean/min/max) and the
    per-interpolation *distribution* — quantile estimates — in O(1)
    memory.  The old opt-in ``neighbor_counts`` list is gone: every
    consumer reads the sketch.
    """

    n_simulated: int = 0
    n_interpolated: int = 0
    n_exact_hits: int = 0
    neighbor_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    simulation_seconds: float = 0.0
    kriging_seconds: float = 0.0
    factor: FactorCacheStats = field(default_factory=FactorCacheStats)
    """Factorization-reuse counters (hits / fresh solves / fallbacks) of
    the estimator's :class:`~repro.core.factor_cache.FactorCache`."""
    solve: SolvePhaseStats = field(default_factory=SolvePhaseStats)
    """Cumulative assembly / factorize / backsolve wall-clock split of the
    batch engine's grouped solves."""
    n_fits: int = 0
    """Variogram identifications made (each refit counts once)."""
    variogram_seconds: float = 0.0
    """Wall clock spent estimating empirical variograms (Eq. 4)."""
    fit_seconds: float = 0.0
    """Wall clock spent fitting model families to them."""

    def record_interpolation(self, n_neighbors: int) -> None:
        """Count one interpolation answered with ``n_neighbors`` support points."""
        self.n_interpolated += 1
        self.neighbor_sketch.update(float(n_neighbors))

    @property
    def neighbor_count_sum(self) -> int:
        """Total support points over all interpolations (exact, from the
        sketch's side statistics)."""
        return int(self.neighbor_sketch.sum)

    def neighbor_quantile(self, prob: float) -> float:
        """Streamed estimate of a support-size quantile (e.g. ``0.5``, ``0.9``).

        Returns ``nan`` when ``prob`` is not one of the sketch's tracked
        probabilities (:data:`repro.utils.quantiles.DEFAULT_PROBS` by
        default) — the same miss semantics as
        :meth:`repro.experiments.replay.ReplayStats.neighbor_quantile`.
        """
        try:
            return self.neighbor_sketch.quantile(prob)
        except KeyError:
            return float("nan")

    @property
    def n_queries(self) -> int:
        """Total number of metric queries answered."""
        return self.n_simulated + self.n_interpolated + self.n_exact_hits

    @property
    def interpolated_fraction(self) -> float:
        """Share of queries answered without a fresh simulation (paper ``p``)."""
        total = self.n_queries
        if total == 0:
            return 0.0
        return (self.n_interpolated + self.n_exact_hits) / total

    @property
    def mean_neighbors(self) -> float:
        """Mean support size per interpolation (paper's ``j`` column)."""
        if self.n_interpolated == 0:
            return float("nan")
        return self.neighbor_count_sum / self.n_interpolated

    def to_state(self) -> dict:
        """JSON-safe state: plain counters, the sketch markers and the
        factor-reuse counter pairs."""
        return {
            "n_simulated": self.n_simulated,
            "n_interpolated": self.n_interpolated,
            "n_exact_hits": self.n_exact_hits,
            "simulation_seconds": self.simulation_seconds,
            "kriging_seconds": self.kriging_seconds,
            "neighbor_sketch": self.neighbor_sketch.to_state(),
            "factor": [list(pair) for pair in self.factor.as_pairs()],
            "solve": self.solve.to_state(),
            "n_fits": self.n_fits,
            "variogram_seconds": self.variogram_seconds,
            "fit_seconds": self.fit_seconds,
        }

    @classmethod
    def from_state(cls, state: dict) -> "EstimatorStats":
        """Rebuild stats from :meth:`to_state` output (sketch included,
        bitwise — a restored estimator streams on exactly as the original)."""
        stats = cls(
            n_simulated=int(state["n_simulated"]),
            n_interpolated=int(state["n_interpolated"]),
            n_exact_hits=int(state["n_exact_hits"]),
            neighbor_sketch=QuantileSketch.from_state(state["neighbor_sketch"]),
            simulation_seconds=float(state["simulation_seconds"]),
            kriging_seconds=float(state["kriging_seconds"]),
            factor=FactorCacheStats.from_pairs(
                tuple((str(name), int(value)) for name, value in state["factor"])
            ),
            # Pre-PR-9 states carry neither field: restore them cold.
            solve=(
                SolvePhaseStats.from_state(state["solve"])
                if "solve" in state
                else SolvePhaseStats()
            ),
            # States written before the identification counters restore 0.
            n_fits=int(state.get("n_fits", 0)),
            variogram_seconds=float(state.get("variogram_seconds", 0.0)),
            fit_seconds=float(state.get("fit_seconds", 0.0)),
        )
        return stats


class KrigingEstimator:
    """Kriging-accelerated metric evaluator.

    Parameters
    ----------
    simulate:
        Function returning the true metric value of a configuration (the
        paper's ``evaluateAccuracy(I, w)``).
    num_variables:
        Dimension ``Nv`` of configuration vectors.
    distance:
        Neighbourhood radius ``d`` (paper studies ``d in {2, 3, 4, 5}``).
    nn_min:
        Minimum neighbour threshold ``Nn_min``; interpolation requires
        ``Nn > nn_min`` (strict, as in Algorithms 1-2 line 17).
    metric:
        Distance metric between configurations (paper: L1).
    variogram:
        Either a fixed :class:`~repro.core.models.VariogramModel` / callable,
        one of the model-kind strings (``"linear"``, ``"spherical"``, ...),
        or ``"auto"`` to select the best-fitting family.  Kind strings are
        identified from the simulated values once ``min_fit_points``
        simulations exist (``"auto"`` over the families in
        :data:`~repro.core.fitting.AUTO_KINDS`, which leaves out
        exponential; a kind string, exponential included, over its own).
    min_fit_points:
        Simulations required before a parametric identification is attempted
        (a scale-free linear variogram is used until then).
    refit_interval:
        Re-identify the variogram every that-many new simulations;
        ``None`` identifies once and keeps the model (the paper's stated
        usage).  The empirical variogram is kept as per-lag running sums
        (:class:`~repro.core.variogram.LagAccumulator`), so a refit costs
        the new points' distances, not a pass over every pair.  A refit is
        one of two kinds.  A *full reselection* fits every family of the
        spec from scratch (:func:`~repro.core.fitting.select_variogram`).
        It runs at the first fit, after :meth:`refit_variogram`, when the
        current model is linear, and when a point ``ceil(min_fit_points *
        1.25**k)`` of a geometric schedule (4, 5, 7, 8, 10, 13, ... for 4)
        lies in ``[fitted_at, n]`` (``fitted_at`` the simulation count of
        the last fit): at the refit reaching a schedule point and the one
        after it.  Every other refit is an *incumbent refit*: only the
        current model's family is refit, its search started from the
        current model's log range (or power exponent).  Both are read from
        the fitted model, so a restored estimator refits bit for bit as
        the original.
    max_neighbors:
        Optional cap on the kriging support size (closest first).
    max_variance:
        Optional guard: interpolations whose kriging variance exceeds this
        bound are rejected and the configuration is simulated instead
        (an extension over the paper, disabled by default).
    interpolator:
        ``"ordinary"`` (the paper's Eqs. 7-10, default) or ``"universal"``
        — kriging with an adaptive linear drift, which follows affine
        trends when extrapolating.  Ill-posed drift systems (too few or
        degenerate support points) transparently fall back to ordinary
        kriging.
    """

    def __init__(
        self,
        simulate: SimulateFn,
        num_variables: int,
        *,
        distance: float = 3.0,
        nn_min: int = 1,
        metric: DistanceMetric | str = DistanceMetric.L1,
        variogram: VariogramModel | Callable[[np.ndarray], np.ndarray] | str = "linear",
        min_fit_points: int = 10,
        refit_interval: int | None = None,
        max_neighbors: int | None = None,
        max_variance: float | None = None,
        interpolator: str = "ordinary",
    ) -> None:
        if distance < 0:
            raise ValueError(f"distance must be >= 0, got {distance}")
        if nn_min < 0:
            raise ValueError(f"nn_min must be >= 0, got {nn_min}")
        if min_fit_points < 2:
            raise ValueError(f"min_fit_points must be >= 2, got {min_fit_points}")
        if refit_interval is not None and refit_interval < 1:
            raise ValueError(f"refit_interval must be >= 1, got {refit_interval}")
        if isinstance(variogram, str) and variogram not in (*MODEL_KINDS, "auto"):
            raise ValueError(
                f"unknown variogram spec {variogram!r}; expected a model, a callable, "
                f"'auto' or one of {MODEL_KINDS}"
            )
        if interpolator not in ("ordinary", "universal"):
            raise ValueError(
                f"interpolator must be 'ordinary' or 'universal', got {interpolator!r}"
            )

        self.interpolator = interpolator
        self._simulate = simulate
        self.distance = float(distance)
        self.nn_min = int(nn_min)
        self.metric = DistanceMetric.coerce(metric)
        self.cache = SimulationCache(num_variables)
        self.stats = EstimatorStats()
        self._factor_cache = FactorCache(stats=self.stats.factor)
        self._variogram_spec = variogram
        self._min_fit_points = min_fit_points
        self._refit_interval = refit_interval
        self._max_neighbors = max_neighbors
        self._max_variance = max_variance
        self._fitted: Callable[[np.ndarray], np.ndarray] | None = None
        self._fitted_at: int = -1
        # Per-lag sums of Eq. 4 over the cache rows seen so far, extended at
        # each refit.  Derived state: never serialized, rebuilt from the
        # cache when empty.
        self._lag_sums = LagAccumulator(self.metric)

    # ------------------------------------------------------------------
    # variogram management
    # ------------------------------------------------------------------
    def _current_variogram(self) -> Callable[[np.ndarray], np.ndarray]:
        spec = self._variogram_spec
        if callable(spec):
            return spec
        n_sim = len(self.cache)
        if n_sim < self._min_fit_points:
            return _PREFIT_VARIOGRAM
        needs_fit = self._fitted is None or (
            self._refit_interval is not None
            and n_sim - self._fitted_at >= self._refit_interval
        )
        if needs_fit:
            kinds = AUTO_KINDS if spec == "auto" else (str(spec),)
            incumbent = warm_start(self._fitted)
            start = time.perf_counter()
            emp = empirical_semivariogram(
                self.cache.points,
                self.cache.values,
                metric=self.metric,
                store=self._lag_sums,
            )
            fit_start = time.perf_counter()
            if incumbent is None or _reselection_due(
                self._min_fit_points, self._fitted_at, n_sim
            ):
                self._fitted = select_variogram(emp, kinds).model
            else:
                kind, warm = incumbent
                self._fitted = fit_variogram(emp, kind, start=warm).model
            end = time.perf_counter()
            self.stats.n_fits += 1
            self.stats.variogram_seconds += fit_start - start
            self.stats.fit_seconds += end - fit_start
            self._fitted_at = n_sim
            # Every cached factorization was built from the old variogram's
            # Gamma entries; reusing one now would interpolate against a
            # stale model.
            self._factor_cache.invalidate()
        assert self._fitted is not None
        return self._fitted

    @property
    def variogram(self) -> Callable[[np.ndarray], np.ndarray]:
        """The variogram currently used for interpolation."""
        return self._current_variogram()

    def refit_variogram(self) -> Callable[[np.ndarray], np.ndarray]:
        """Force a fresh identification from the current cache, now.

        Discards the current fitted model (cached factorizations with it)
        and re-identifies per the constructor's ``variogram`` spec by a
        full reselection; returns the model now in use.  With a fixed model
        or callable spec this is a no-op returning that spec.  The service's
        ``fit`` verb and long-lived sessions use this to refresh the model
        on demand instead of waiting for ``refit_interval``.
        """
        if not callable(self._variogram_spec):
            self._fitted = None
        return self._current_variogram()

    # ------------------------------------------------------------------
    # shared steps
    # ------------------------------------------------------------------
    def _exact_hit_outcome(self, cached: float) -> EstimationOutcome:
        self.stats.n_exact_hits += 1
        return EstimationOutcome(
            value=cached,
            interpolated=True,
            n_neighbors=1,
            variance=0.0,
            exact_hit=True,
        )

    def _find_neighbors(self, config: np.ndarray) -> np.ndarray:
        return find_neighbors(
            self.cache.points,
            config,
            self.distance,
            metric=self.metric,
            max_neighbors=self._max_neighbors,
        )

    def _record_simulation(self, config: np.ndarray, n_neighbors: int) -> EstimationOutcome:
        start = time.perf_counter()
        value = float(self._simulate(config))
        self.stats.simulation_seconds += time.perf_counter() - start
        self.cache.add(config, value)
        self.stats.n_simulated += 1
        return EstimationOutcome(value=value, interpolated=False, n_neighbors=n_neighbors)

    # ------------------------------------------------------------------
    # the policy
    # ------------------------------------------------------------------
    def evaluate(self, configuration: object) -> EstimationOutcome:
        """Answer a metric query per the interpolate-or-simulate policy."""
        config = np.asarray(configuration, dtype=np.float64)

        cached = self.cache.lookup(config)
        if cached is not None:
            return self._exact_hit_outcome(cached)

        neighbors = self._find_neighbors(config)
        n_neighbors = int(neighbors.size)

        if n_neighbors > self.nn_min:
            start = time.perf_counter()
            support_points = self.cache.points[neighbors]
            support_values = self.cache.values[neighbors]
            if self.interpolator == "universal":
                # Drift over the coordinates the support can identify; the
                # rank guard inside universal_kriging degrades gracefully to
                # ordinary kriging when even that is ill-posed.
                result = universal_kriging(
                    support_points,
                    support_values,
                    config,
                    self._current_variogram(),
                    drift=adaptive_linear_drift(support_points),
                    metric=self.metric,
                )
            else:
                result = ordinary_kriging(
                    support_points,
                    support_values,
                    config,
                    self._current_variogram(),
                    metric=self.metric,
                )
            self.stats.kriging_seconds += time.perf_counter() - start
            if self._max_variance is None or result.variance <= self._max_variance:
                self.stats.record_interpolation(n_neighbors)
                return EstimationOutcome(
                    value=result.estimate,
                    interpolated=True,
                    n_neighbors=n_neighbors,
                    variance=result.variance,
                )

        return self._record_simulation(config, n_neighbors)

    def evaluate_batch(self, configurations: Sequence[object]) -> list[EstimationOutcome]:
        """Answer a sweep of metric queries through the batch engine.

        Semantically equivalent to calling :meth:`evaluate` on each row in
        order — same simulate/interpolate decisions, same final cache
        contents, and values equal to tight numerical tolerance (grouped
        solves may reorder a support set, shifting results by last-ulp
        rounding) — but much faster: queries are processed in input
        order for *decisions* (each sees exactly the cache state its
        sequential twin would), while the kriging *solves* of consecutive
        interpolations are deferred and grouped by support set.  Each group
        shares one bordered-matrix factorization
        (:func:`~repro.core.kriging.ordinary_kriging_batch`).  Deferred
        groups are flushed before any simulation, so variogram
        re-identification happens at exactly the sequential schedule.

        With ``max_variance`` set the policy is inherently sequential (a
        rejected interpolation becomes a simulation that changes later
        decisions), so the loop falls back to per-query :meth:`evaluate`.
        """
        configs = np.asarray(configurations, dtype=np.float64)
        if configs.ndim != 2 or configs.shape[1] != self.cache.num_variables:
            raise ValueError(
                f"configurations must have shape (m, {self.cache.num_variables}), "
                f"got {configs.shape}"
            )
        if configs.shape[0] == 0:
            return []
        if self._max_variance is not None:
            return [self.evaluate(config) for config in configs]

        outcomes: list[EstimationOutcome | None] = [None] * configs.shape[0]
        # support signature -> [(position, config, neighbors-in-distance-order)]
        pending: dict[tuple[int, ...], list[tuple[int, np.ndarray, np.ndarray]]] = {}

        for pos in range(configs.shape[0]):
            config = configs[pos]
            cached = self.cache.lookup(config)
            if cached is not None:
                outcomes[pos] = self._exact_hit_outcome(cached)
                continue
            neighbors = self._find_neighbors(config)
            n_neighbors = int(neighbors.size)
            if n_neighbors > self.nn_min:
                # Defer the solve; group by the (order-free) support set.
                # Stats are recorded at flush time, when the outcome
                # actually exists, so a simulator failure mid-batch cannot
                # leave counters claiming interpolations never delivered.
                signature = tuple(sorted(neighbors.tolist()))
                pending.setdefault(signature, []).append((pos, config, neighbors))
            else:
                # A simulation mutates the cache (and possibly the
                # variogram): solve everything deferred so far first.
                self._flush_pending(pending, outcomes)
                outcomes[pos] = self._record_simulation(config, n_neighbors)
        self._flush_pending(pending, outcomes)

        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _flush_pending(
        self,
        pending: dict[tuple[int, ...], list[tuple[int, np.ndarray, np.ndarray]]],
        outcomes: list[EstimationOutcome | None],
    ) -> None:
        """Solve all deferred interpolations against the current cache state.

        Ordinary groups go through
        :func:`~repro.core.kriging.ordinary_kriging_grouped`; the universal
        interpolator, whose drift is per-query, is solved in place.
        Outcomes and statistics are assigned in a fixed group order after
        all solves return.  Factor-cache lookups happen during group
        assembly, in pending-dict order.
        """
        if not pending:
            return
        start = time.perf_counter()
        variogram = self._current_variogram()
        points = self.cache.points
        values = self.cache.values

        # Split the deferred work: every ordinary group, singletons included,
        # goes through the grouped batch solver; the universal interpolator
        # keeps the per-query solve (its drift basis is per-query).
        batched: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
        groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        factors: list[GammaFactor | None] = []
        singles: list[tuple[int, np.ndarray, np.ndarray]] = []
        for signature, items in pending.items():
            if self.interpolator == "universal":
                singles.extend(items)
            else:
                factor = self._factor_cache.factor_for(
                    signature, points, variogram, self.metric
                )
                # A factor's rows are the sorted signature, so the support
                # fed in signature order lets the solve reuse it as-is.
                support = np.asarray(signature, dtype=np.int64)
                queries = np.stack([config for _, config, _ in items])
                batched.append(items)
                groups.append((points[support], values[support], queries))
                factors.append(factor)

        phases = SolvePhases()
        grouped_results = ordinary_kriging_grouped(
            groups,
            variogram,
            metric=self.metric,
            factors=factors,
            phases=phases,
        )
        if batched:
            self.stats.solve.record_flush(*phases.totals())
        for items, results in zip(batched, grouped_results):
            for (pos, _, neighbors), result in zip(items, results):
                outcomes[pos] = EstimationOutcome(
                    value=result.estimate,
                    interpolated=True,
                    n_neighbors=int(neighbors.size),
                    variance=result.variance,
                )
                self.stats.record_interpolation(int(neighbors.size))

        for pos, config, neighbors in singles:
            support_points = points[neighbors]
            support_values = values[neighbors]
            result = universal_kriging(
                support_points,
                support_values,
                config,
                variogram,
                drift=adaptive_linear_drift(support_points),
                metric=self.metric,
            )
            outcomes[pos] = EstimationOutcome(
                value=result.estimate,
                interpolated=True,
                n_neighbors=int(neighbors.size),
                variance=result.variance,
            )
            self.stats.record_interpolation(int(neighbors.size))
        self.stats.kriging_seconds += time.perf_counter() - start
        pending.clear()

    def force_simulate(self, configuration: object) -> EstimationOutcome:
        """Simulate ``configuration`` regardless of the neighbourhood policy.

        Used to anchor committed optimizer steps with measured values (see
        ``verify_commits`` on the optimizers).  Exact revisits return the
        cached measurement without a new simulation.
        """
        config = np.asarray(configuration, dtype=np.float64)
        cached = self.cache.lookup(config)
        if cached is not None:
            return self._exact_hit_outcome(cached)
        return self._record_simulation(config, 0)

    def record_measurement(self, configuration: object, value: float) -> EstimationOutcome:
        """Insert an externally measured metric value into the support cache.

        For callers that run their own simulator (e.g. service clients
        feeding a shared session): the value enters the cache exactly as a
        simulation would — it becomes a support point for future kriging
        and counts as a simulation in the statistics (zero simulation
        seconds, since the work happened elsewhere).  A configuration
        already in the cache keeps its first measurement: the call returns
        the cached value as an exact hit (``outcome.exact_hit`` — compare
        against your value to detect the conflict) and ``value`` is
        ignored, mirroring the first-measurement-wins semantics of the
        simulate path.
        """
        config = np.asarray(configuration, dtype=np.float64)
        cached = self.cache.lookup(config)
        if cached is not None:
            return self._exact_hit_outcome(cached)
        self.cache.add(config, float(value))
        self.stats.n_simulated += 1
        return EstimationOutcome(value=float(value), interpolated=False, n_neighbors=0)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Everything needed to resume this estimator elsewhere.

        The state bundles the policy configuration, the (possibly fitted)
        variogram, the full simulation cache (as float64 arrays — bitwise)
        and the statistics including the quantile-sketch markers.  The
        ``simulate`` callable is **not** serialized: it is supplied to
        :meth:`from_state`.  Neither is the factor cache:
        a restored estimator starts with it cold.  Nor are the per-lag
        sums of the empirical variogram: the first refit after a restore
        absorbs the whole cache, bitwise equal to the sums it replaces.

        Raises ``ValueError`` when the variogram spec is a custom callable
        (only :class:`~repro.core.models.VariogramModel` instances and kind
        strings serialize).
        """
        spec = self._variogram_spec
        if isinstance(spec, VariogramModel):
            spec_state: dict = {"model": spec.to_state()}
        elif isinstance(spec, str):
            spec_state = {"kind": spec}
        else:
            raise ValueError(
                "cannot serialize an estimator whose variogram spec is a "
                "custom callable; use a VariogramModel or a kind string"
            )
        fitted = self._fitted
        if fitted is not None and not isinstance(fitted, VariogramModel):
            raise ValueError(
                "cannot serialize a fitted variogram that is not a VariogramModel"
            )
        return {
            "version": 2,
            "distance": self.distance,
            "nn_min": self.nn_min,
            "metric": self.metric.value,
            "variogram": spec_state,
            "min_fit_points": self._min_fit_points,
            "refit_interval": self._refit_interval,
            "max_neighbors": self._max_neighbors,
            "max_variance": self._max_variance,
            "interpolator": self.interpolator,
            "fitted": fitted.to_state() if fitted is not None else None,
            "fitted_at": self._fitted_at,
            "cache": self.cache.to_state(),
            "stats": self.stats.to_state(),
        }

    @classmethod
    def from_state(
        cls, simulate: SimulateFn, state: dict, **overrides: object
    ) -> "KrigingEstimator":
        """Rebuild an estimator from :meth:`to_state` output.

        ``simulate`` re-binds the metric function (callables do not
        serialize); ``overrides`` replace constructor keywords — e.g.
        ``max_neighbors=8`` to cap the restored support size.
        The restored estimator makes bit-identical decisions and cache
        additions to the snapshotted one fed the same queries: cache rows,
        fitted model parameters and sketch markers all round-trip exactly.

        Version-1 and version-2 states both load, and the factor cache
        always restores cold.  Keys that older states carry for the
        persisted factor cache, its on/off switch, the removed thread pool
        and the removed neighbour index are ignored.
        """
        if state.get("version") not in (1, 2):
            raise ValueError(
                f"unsupported estimator state version {state.get('version')!r}"
            )
        spec_state = state["variogram"]
        if "model" in spec_state:
            spec: object = variogram_from_state(spec_state["model"])
        else:
            spec = spec_state["kind"]
        kwargs: dict = {
            "distance": state["distance"],
            "nn_min": state["nn_min"],
            "metric": state["metric"],
            "variogram": spec,
            "min_fit_points": state["min_fit_points"],
            "refit_interval": state["refit_interval"],
            "max_neighbors": state["max_neighbors"],
            "max_variance": state["max_variance"],
            "interpolator": state["interpolator"],
        }
        kwargs.update(overrides)
        estimator = cls(simulate, int(state["cache"]["num_variables"]), **kwargs)
        estimator.cache = SimulationCache.from_state(state["cache"])
        if state["fitted"] is not None:
            estimator._fitted = variogram_from_state(state["fitted"])
        estimator._fitted_at = int(state["fitted_at"])
        estimator.stats = EstimatorStats.from_state(state["stats"])
        # The factor cache and the stats view share one counter object.
        estimator._factor_cache.stats = estimator.stats.factor
        return estimator
