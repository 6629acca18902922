"""Property-based tests (hypothesis) on the core invariants.

These complement the example-based suites with randomized checks of the
mathematical properties the method rests on: kriging exactness and
equivariances, policy-coverage monotonicity and cache/bookkeeping
consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import KrigingEstimator
from repro.core.kriging import ordinary_kriging
from repro.core.models import GaussianVariogram, LinearVariogram, PowerVariogram
from repro.core.universal import universal_kriging
from repro.experiments.replay import replay_trajectory

configs2d = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    min_size=3,
    max_size=18,
    unique=True,
)

MODELS = [
    LinearVariogram(1.0),
    GaussianVariogram(sill=5.0, range_=6.0),
    PowerVariogram(scale=0.7, exponent=1.3),
]


class TestKrigingInvariants:
    @settings(deadline=None, max_examples=30)
    @given(configs2d, st.data())
    def test_exactness_everywhere(self, points, data):
        pts = np.asarray(points, dtype=float)
        rng = np.random.default_rng(42)
        vals = rng.normal(size=pts.shape[0])
        index = data.draw(st.integers(0, pts.shape[0] - 1))
        for model in MODELS:
            res = ordinary_kriging(pts, vals, pts[index], model)
            assert res.estimate == pytest.approx(vals[index], abs=1e-8)
            assert res.variance == pytest.approx(0.0, abs=1e-8)

    @settings(deadline=None, max_examples=30)
    @given(configs2d, st.floats(-50.0, 50.0))
    def test_shift_equivariance_all_models(self, points, shift):
        pts = np.asarray(points, dtype=float)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=pts.shape[0])
        query = np.array([4.5, 4.5])
        for model in MODELS:
            base = ordinary_kriging(pts, vals, query, model).estimate
            moved = ordinary_kriging(pts, vals + shift, query, model).estimate
            assert moved == pytest.approx(base + shift, abs=1e-6)

    @settings(deadline=None, max_examples=20)
    @given(configs2d)
    def test_estimate_within_hull_of_values_for_positive_weights(self, points):
        """When all weights are non-negative the estimate is a convex
        combination, hence bounded by the support values."""
        pts = np.asarray(points, dtype=float)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=pts.shape[0])
        query = np.array([5.0, 5.0])
        res = ordinary_kriging(pts, vals, query, LinearVariogram(1.0))
        if np.all(res.weights >= -1e-9):
            assert vals.min() - 1e-6 <= res.estimate <= vals.max() + 1e-6

    @settings(deadline=None, max_examples=20)
    @given(configs2d)
    def test_universal_matches_ordinary_on_constant_field(self, points):
        pts = np.asarray(points, dtype=float)
        vals = np.full(pts.shape[0], 2.5)
        query = np.array([4.0, 4.0])
        model = PowerVariogram(scale=1.0, exponent=1.5)
        uk = universal_kriging(pts, vals, query, model)
        ok = ordinary_kriging(pts, vals, query, model)
        assert uk.estimate == pytest.approx(ok.estimate, abs=1e-6)
        assert uk.estimate == pytest.approx(2.5, abs=1e-6)


class TestPolicyInvariants:
    @settings(deadline=None, max_examples=15)
    @given(
        st.lists(
            st.tuples(st.integers(2, 10), st.integers(2, 10), st.integers(2, 10)),
            min_size=5,
            max_size=40,
        )
    )
    def test_bookkeeping_consistency(self, queries):
        est = KrigingEstimator(lambda c: float(np.sum(c)), 3, distance=3, nn_min=1)
        counts = []
        for q in queries:
            outcome = est.evaluate(q)
            if outcome.interpolated and not outcome.exact_hit:
                counts.append(outcome.n_neighbors)
        s = est.stats
        assert s.n_queries == len(queries)
        assert len(est.cache) == s.n_simulated
        # The streaming sketch must agree with the exact distribution on
        # everything it tracks exactly: count, sum, extremes.
        assert s.neighbor_sketch.count == s.n_interpolated == len(counts)
        assert s.neighbor_count_sum == sum(counts) == s.neighbor_sketch.sum
        if counts:
            assert s.neighbor_sketch.min == min(counts)
            assert s.neighbor_sketch.max == max(counts)
            assert min(counts) <= s.neighbor_quantile(0.5) <= max(counts)

    @settings(deadline=None, max_examples=10)
    @given(
        st.lists(
            st.tuples(st.integers(2, 10), st.integers(2, 10)),
            min_size=4,
            max_size=25,
            unique=True,
        )
    )
    def test_replay_coverage_monotone_in_distance(self, configurations):
        configs = np.asarray(configurations, dtype=np.int64)
        values = configs.astype(float) @ np.array([-3.0, -2.0])
        coverage = [
            replay_trajectory(configs, values, distance=d, variogram="linear").p_percent
            for d in (0, 1, 2, 4, 8)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(coverage, coverage[1:]))

    @settings(deadline=None, max_examples=10)
    @given(
        st.lists(
            st.tuples(st.integers(2, 10), st.integers(2, 10)),
            min_size=4,
            max_size=25,
            unique=True,
        ),
        st.integers(0, 3),
    )
    def test_replay_counts_partition(self, configurations, nn_min):
        configs = np.asarray(configurations, dtype=np.int64)
        values = np.arange(configs.shape[0], dtype=float)
        stats = replay_trajectory(
            configs, values, distance=3, nn_min=nn_min, variogram="linear"
        )
        assert stats.n_simulated + stats.n_interpolated == stats.n_configs
        assert stats.errors.size == stats.n_interpolated

    @settings(deadline=None, max_examples=10)
    @given(
        st.lists(
            st.tuples(st.integers(2, 10), st.integers(2, 10)),
            min_size=4,
            max_size=20,
            unique=True,
        )
    )
    def test_replay_nn_min_monotone(self, configurations):
        configs = np.asarray(configurations, dtype=np.int64)
        values = np.arange(configs.shape[0], dtype=float)
        p = [
            replay_trajectory(
                configs, values, distance=3, nn_min=nn, variogram="linear"
            ).p_percent
            for nn in (0, 1, 2, 4)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(p, p[1:]))


class TestLowRankInvariants:
    """The factor-reuse layer's algebra: factored kriging solves must match
    the plain solver wherever the factor path engages."""

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 2**31 - 1), st.integers(6, 20))
    def test_factored_estimates_match_plain_batch(self, seed, n_support):
        """A factor for a signature near a cached one (factorized fresh)
        must reproduce the plain grouped solve on continuous clouds, where
        the shifted Gamma matrix is strictly PD."""
        from repro.core.distances import cross_distances
        from repro.core.factor_cache import FactorCache
        from repro.core.kriging import ordinary_kriging_batch
        from repro.core.models import ExponentialVariogram

        rng = np.random.default_rng(seed)
        variogram = ExponentialVariogram(sill=10.0, range_=6.0)
        points = rng.uniform(0.0, 9.0, size=(n_support + 4, 3))
        values = rng.normal(size=n_support + 4)
        queries = rng.uniform(1.0, 8.0, size=(3, 3))

        cache = FactorCache(min_support=2)
        base = tuple(range(n_support))
        cache.factor_for(base, points, variogram, "l1")
        derived = tuple(sorted(set(base) - {1} | {n_support, n_support + 1}))
        factor = cache.factor_for(derived, points, variogram, "l1")
        if factor is None:
            return  # ill-conditioned draw: the reuse layer refused, by design
        support = factor.rows
        with_factor = ordinary_kriging_batch(
            points[support], values[support], queries, variogram, factor=factor
        )
        plain = ordinary_kriging_batch(
            points[support], values[support], queries, variogram
        )
        for reused, reference in zip(with_factor, plain):
            assert reused.estimate == pytest.approx(
                reference.estimate, rel=1e-9, abs=1e-9
            )
            assert reused.variance == pytest.approx(
                reference.variance, rel=1e-6, abs=1e-8
            )
