"""Unit tests for repro.core.factor_cache (the estimator's factor LRU)."""

import numpy as np
import pytest

from repro.core.distances import cross_distances
from repro.core.estimator import KrigingEstimator
from repro.core.factor_cache import FactorCache, FactorCacheStats
from repro.core.kriging import _bordered_system, _solve
from repro.core.models import ExponentialVariogram, LinearVariogram


VARIOGRAM = ExponentialVariogram(sill=25.0, range_=8.0)


def _cloud(n=80, nv=4, seed=0):
    """Continuous support points: strictly-PD Gamma systems."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=(n, nv)), rng


def _reference_solution(points, variogram, gamma_queries):
    system = _bordered_system(points, variogram, "l1")
    rhs = np.vstack([gamma_queries, np.ones((1, gamma_queries.shape[1]))])
    return _solve(system, rhs)


def _signature(rng, n_points, size):
    return tuple(sorted(rng.choice(n_points, size=size, replace=False).tolist()))


class TestFactorSolve:
    def test_fresh_factor_matches_plain_solver(self):
        points, rng = _cloud()
        cache = FactorCache()
        signature = _signature(rng, 80, 30)
        factor = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert factor is not None
        assert cache.stats.fresh == 1

        queries = rng.uniform(0.0, 10.0, size=(6, 4))
        gamma_queries = np.asarray(
            VARIOGRAM(cross_distances(points[factor.rows], queries, "l1"))
        )
        solution = factor.solve(gamma_queries)
        assert solution is not None
        reference = _reference_solution(points[factor.rows], VARIOGRAM, gamma_queries)
        np.testing.assert_allclose(solution, reference, rtol=1e-7, atol=1e-9)

    def test_factor_rows_are_signature_permutation(self):
        points, rng = _cloud(seed=2)
        cache = FactorCache()
        signature = _signature(rng, 80, 20)
        factor = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert factor is not None
        assert tuple(factor.rows.tolist()) == signature


class TestCachePolicy:
    def test_exact_hit_returns_same_object(self):
        points, rng = _cloud(seed=3)
        cache = FactorCache()
        signature = _signature(rng, 80, 12)
        first = cache.factor_for(signature, points, VARIOGRAM, "l1")
        second = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert second is first
        assert cache.stats.hits == 1

    @pytest.mark.parametrize("change", ["add", "drop"])
    def test_near_signature_is_fresh_factorization(self, change):
        """A signature one point away from a cached one is factorized from
        scratch: only exact signatures are reused."""
        points, rng = _cloud(seed=1)
        cache = FactorCache()
        base = _signature(rng, 80, 30)
        cache.factor_for(base, points, VARIOGRAM, "l1")
        if change == "add":
            extra = min(set(range(80)) - set(base))
            near = tuple(sorted(set(base) | {extra}))
        else:
            near = base[1:]
        factor = cache.factor_for(near, points, VARIOGRAM, "l1")
        assert factor is not None
        assert cache.stats.fresh == 2
        assert cache.stats.hits == 0
        assert cache.stats.updates == 0 and cache.stats.update_points == 0

        queries = rng.uniform(0.0, 10.0, size=(5, 4))
        gamma_queries = np.asarray(
            VARIOGRAM(cross_distances(points[factor.rows], queries, "l1"))
        )
        solution = factor.solve(gamma_queries)
        assert solution is not None
        reference = _reference_solution(points[factor.rows], VARIOGRAM, gamma_queries)
        np.testing.assert_allclose(solution, reference, rtol=1e-7, atol=1e-9)

    def test_min_support_bypass(self):
        points, rng = _cloud(seed=4)
        cache = FactorCache(min_support=8)
        assert cache.factor_for((0, 1, 2), points, VARIOGRAM, "l1") is None
        assert cache.stats.requests == 0

    def test_lru_eviction(self):
        points, rng = _cloud(seed=5)
        cache = FactorCache(capacity=2)
        signatures = [_signature(rng, 80, 10 + i) for i in range(3)]
        for signature in signatures:
            cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) signature refactorizes; the survivors hit.
        cache.factor_for(signatures[-1], points, VARIOGRAM, "l1")
        assert cache.stats.hits == 1
        cache.factor_for(signatures[0], points, VARIOGRAM, "l1")
        assert cache.stats.fresh == 4

    def test_invalidate_clears_everything(self):
        points, rng = _cloud(seed=6)
        cache = FactorCache()
        signature = _signature(rng, 80, 15)
        cache.factor_for(signature, points, VARIOGRAM, "l1")
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert cache.stats.fresh == 2  # refactorized, not a hit

    def test_rank_deficient_gamma_fails_and_is_memoized(self):
        """The piecewise-linear variogram on a dense 2-D lattice patch has a
        rank-deficient Gamma: no PD shift exists, the cache memoizes the
        failure, and the solve path falls back (covered elsewhere)."""
        grid = np.stack(
            np.meshgrid(np.arange(6.0), np.arange(6.0)), axis=-1
        ).reshape(-1, 2)
        cache = FactorCache()
        signature = tuple(range(36))
        linear = LinearVariogram(1.0)
        assert cache.factor_for(signature, grid, linear, "l1") is None
        assert cache.stats.failures == 1
        assert cache.factor_for(signature, grid, linear, "l1") is None
        assert cache.stats.failures == 1  # memoized, no second attempt

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            FactorCache(capacity=0)
        with pytest.raises(TypeError, match="max_update_points"):
            FactorCache(max_update_points=0)


class TestEstimatorIntegration:
    """The estimator's batch engine reuses cached factors; its sequential
    ``evaluate`` path never touches the cache.  The two must agree to the
    engine's 1e-9 envelope."""

    @staticmethod
    def _field(config):
        c = np.asarray(config, dtype=float)
        return float(c @ np.resize([1.0, -2.0, 0.5], c.size) + 3.0)

    def _seeded(self, rng, **kwargs):
        estimator = KrigingEstimator(
            self._field, 3, distance=6.0, nn_min=1, **kwargs
        )
        support = rng.uniform(0.0, 8.0, size=(120, 3))
        for point in support:
            estimator.cache.add(point, self._field(point))
        return estimator, support

    def _batch_and_sequential(self, seed, ops, **kwargs):
        """Feed ``ops`` to two identically seeded estimators: one through
        ``evaluate_batch`` (factor reuse), one query at a time through
        ``evaluate`` (no factor cache)."""
        values = {}
        estimators = {}
        for batched in (True, False):
            estimator, _ = self._seeded(np.random.default_rng(seed), **kwargs)
            out = []
            for kind, payload in ops:
                if kind == "write":
                    estimator.force_simulate(payload)
                elif batched:
                    out.extend(o.value for o in estimator.evaluate_batch(payload))
                else:
                    out.extend(estimator.evaluate(q).value for q in payload)
            values[batched] = out
            estimators[batched] = estimator
        np.testing.assert_allclose(values[True], values[False], rtol=1e-9, atol=1e-12)
        return estimators[True], estimators[False]

    def test_reuse_on_off_same_estimates(self):
        rng = np.random.default_rng(8)
        queries = rng.uniform(1.0, 7.0, size=(40, 3))
        batched, sequential = self._batch_and_sequential(
            8, [("read", queries)], variogram=VARIOGRAM
        )
        assert batched.stats.factor.requests > 0
        assert sequential.stats.factor.requests == 0

    def test_growth_loop_cache_on_off_agree(self):
        """A serve-mixed-shaped session: reads over a fixed exponential
        variogram with one write in ten.  Writes change neighbourhoods, so
        the cache mixes exact hits with fresh factorizations; estimates
        must match the per-query path to 1e-9."""
        rng = np.random.default_rng(17)
        centers = rng.uniform(1.0, 7.0, size=(6, 3))
        ops = []
        for step in range(300):
            if step % 10 == 9:
                ops.append(("write", rng.uniform(1.0, 7.0, size=3)))
            else:
                # Reads cluster on a few centres so signatures repeat
                # between writes, as pipelined clients' reads do.
                center = centers[int(rng.integers(0, len(centers)))]
                ops.append(("read", center + rng.uniform(-0.05, 0.05, size=(4, 3))))

        batched, sequential = self._batch_and_sequential(17, ops, variogram=VARIOGRAM)
        stats = batched.stats.factor
        assert stats.hits > 0 and stats.fresh > 0
        assert stats.updates == 0
        assert sequential.stats.factor.requests == 0

    def test_refit_invalidates_cached_factors(self):
        """A variogram refit must drop every cached factorization: with
        ``refit_interval=1`` each simulation refits, so batch estimates must
        match the per-query path exactly (no stale-variogram factors) and
        the cache must record one invalidation per fit."""
        rng = np.random.default_rng(9)
        # Alternate interpolation bursts with out-of-range queries that force
        # simulations (and therefore refits) mid-stream.
        near = rng.uniform(1.0, 7.0, size=(30, 3))
        far = rng.uniform(40.0, 60.0, size=(4, 3))
        sweep = np.vstack([near[:15], far[:2], near[15:], far[2:]])

        batched, sequential = self._batch_and_sequential(
            9,
            [("read", sweep)],
            variogram="exponential",
            min_fit_points=4,
            refit_interval=1,
        )
        # Refits are lazy (one per variogram access after new simulations),
        # so each far burst produces exactly one invalidation event.
        assert batched.stats.factor.invalidations >= 2
        assert batched.stats.n_simulated == sequential.stats.n_simulated
        assert batched.stats.n_simulated > 0

    def test_factor_stats_reachable_via_estimator(self):
        estimator, _ = self._seeded(np.random.default_rng(10), variogram=VARIOGRAM)
        assert isinstance(estimator.stats.factor, FactorCacheStats)
        assert estimator._factor_cache.stats is estimator.stats.factor

    def test_restored_estimator_counts_into_its_stats(self):
        """``from_state`` rebuilds the stats; the cold cache it starts with
        must count into the restored counters, not an orphaned copy."""
        estimator, _ = self._seeded(np.random.default_rng(12), variogram=VARIOGRAM)
        queries = np.random.default_rng(13).uniform(1.0, 7.0, size=(10, 3))
        estimator.evaluate_batch(queries)
        fresh = estimator.stats.factor.fresh
        assert fresh > 0
        twin = KrigingEstimator.from_state(self._field, estimator.to_state())
        assert twin._factor_cache.stats is twin.stats.factor
        assert len(twin._factor_cache) == 0
        twin.evaluate_batch(queries)
        assert twin.stats.factor.fresh == 2 * fresh

    def test_factor_cache_knob_is_gone(self):
        with pytest.raises(TypeError, match="factor_cache"):
            KrigingEstimator(self._field, 3, factor_cache=False)


class TestByteBudget:
    def test_byte_budget_evicts_but_keeps_most_recent(self):
        points, rng = _cloud(n=120, seed=14)
        # Each 40-point factor holds two 40x40 float64 blocks (~25.6 kB);
        # a 30 kB budget fits exactly one.
        cache = FactorCache(capacity=64, max_bytes=30_000)
        first = _signature(rng, 120, 40)
        second = tuple(sorted(set(range(120)) - set(first)))[:40]
        cache.factor_for(first, points, VARIOGRAM, "l1")
        assert cache.nbytes > 0
        cache.factor_for(tuple(sorted(second)), points, VARIOGRAM, "l1")
        assert len(cache) == 1  # over budget: LRU evicted
        assert cache.stats.evictions == 1
        assert cache.nbytes <= 30_000

    def test_oversized_single_factor_still_cached(self):
        points, rng = _cloud(n=60, seed=15)
        cache = FactorCache(max_bytes=1_000)  # smaller than any 30-pt factor
        signature = _signature(rng, 60, 30)
        factor = cache.factor_for(signature, points, VARIOGRAM, "l1")
        assert factor is not None
        assert len(cache) == 1  # the most recent factor always survives

    def test_invalidate_resets_bytes(self):
        points, rng = _cloud(seed=16)
        cache = FactorCache()
        cache.factor_for(_signature(rng, 80, 20), points, VARIOGRAM, "l1")
        cache.invalidate()
        assert cache.nbytes == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_bytes"):
            FactorCache(max_bytes=0)


class TestStatsPairsRoundtrip:
    def test_from_pairs_preserves_rate(self):
        stats = FactorCacheStats(hits=6, updates=10, fresh=4, failures=0)
        rebuilt = FactorCacheStats.from_pairs(stats.as_pairs())
        assert rebuilt.reuse_rate == stats.reuse_rate == pytest.approx(0.8)
        assert rebuilt.requests == stats.requests == 20

    def test_from_pairs_empty_is_nan(self):
        rebuilt = FactorCacheStats.from_pairs(())
        assert rebuilt.requests == 0
        assert np.isnan(rebuilt.reuse_rate)
