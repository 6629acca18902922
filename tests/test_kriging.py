"""Unit tests for repro.core.kriging (paper Eqs. 7-10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kriging import ordinary_kriging, simple_kriging
from repro.core.models import (
    GaussianVariogram,
    LinearVariogram,
    NuggetVariogram,
    SphericalVariogram,
)

VG = LinearVariogram(1.0)


def grid_points(rng, n, dim, low=0, high=12):
    return rng.integers(low, high, size=(n, dim)).astype(float)


class TestExactness:
    """Kriging is an exact interpolator (Section III-A)."""

    def test_exact_at_support_point(self, rng):
        pts = grid_points(rng, 8, 3)
        vals = rng.normal(size=8)
        for i in range(8):
            res = ordinary_kriging(pts, vals, pts[i], VG)
            assert res.estimate == pytest.approx(vals[i], abs=1e-8)

    def test_variance_zero_at_support_point(self, rng):
        pts = grid_points(rng, 6, 2)
        vals = rng.normal(size=6)
        res = ordinary_kriging(pts, vals, pts[2], VG)
        assert res.variance == pytest.approx(0.0, abs=1e-8)


class TestUnbiasedness:
    """The universality constraint: weights sum to one (Eq. 6)."""

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6))
    def test_weights_sum_to_one(self, n, dim):
        rng = np.random.default_rng(n * 100 + dim)
        pts = grid_points(rng, n, dim)
        vals = rng.normal(size=n)
        query = rng.integers(0, 12, size=dim).astype(float)
        res = ordinary_kriging(pts, vals, query, VG)
        assert float(np.sum(res.weights)) == pytest.approx(1.0, abs=1e-6)

    def test_constant_field_reproduced_exactly(self, rng):
        pts = grid_points(rng, 10, 4)
        vals = np.full(10, 3.25)
        query = rng.integers(0, 12, size=4).astype(float)
        res = ordinary_kriging(pts, vals, query, VG)
        assert res.estimate == pytest.approx(3.25, abs=1e-8)

    def test_shift_equivariance(self, rng):
        pts = grid_points(rng, 9, 3)
        vals = rng.normal(size=9)
        query = np.array([5.0, 5.0, 5.0])
        base = ordinary_kriging(pts, vals, query, VG).estimate
        shifted = ordinary_kriging(pts, vals + 100.0, query, VG).estimate
        assert shifted == pytest.approx(base + 100.0, abs=1e-6)

    def test_scale_equivariance(self, rng):
        pts = grid_points(rng, 9, 3)
        vals = rng.normal(size=9)
        query = np.array([5.0, 5.0, 5.0])
        base = ordinary_kriging(pts, vals, query, VG).estimate
        scaled = ordinary_kriging(pts, 3.0 * vals, query, VG).estimate
        assert scaled == pytest.approx(3.0 * base, abs=1e-6)


class TestWeightsInvariance:
    def test_weights_invariant_to_variogram_scale(self, rng):
        # Multiplying gamma by a constant leaves ordinary-kriging weights
        # unchanged (only the variance rescales).
        pts = grid_points(rng, 7, 2)
        vals = rng.normal(size=7)
        query = np.array([4.0, 4.0])
        w1 = ordinary_kriging(pts, vals, query, LinearVariogram(1.0)).weights
        w2 = ordinary_kriging(pts, vals, query, LinearVariogram(7.5)).weights
        np.testing.assert_allclose(w1, w2, atol=1e-8)


class TestAnalyticCases:
    def test_midpoint_two_points_linear_variogram(self):
        # Query equidistant between two support points: symmetric weights.
        pts = np.array([[0.0], [4.0]])
        vals = np.array([1.0, 3.0])
        res = ordinary_kriging(pts, vals, np.array([2.0]), VG)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-9)
        assert res.estimate == pytest.approx(2.0)

    def test_single_support_point_returns_its_value(self):
        res = ordinary_kriging(np.array([[3.0, 3.0]]), np.array([9.0]),
                               np.array([0.0, 0.0]), VG)
        assert res.estimate == pytest.approx(9.0)
        assert res.weights[0] == pytest.approx(1.0)

    def test_one_sided_linear_variogram_is_nearest_neighbor(self):
        # Intrinsic random-walk model: best predictor beyond the data is the
        # closest value.
        pts = np.array([[1.0], [2.0]])
        vals = np.array([10.0, 20.0])
        res = ordinary_kriging(pts, vals, np.array([0.0]), VG)
        np.testing.assert_allclose(res.weights, [1.0, 0.0], atol=1e-9)

    def test_one_sided_gaussian_variogram_extrapolates_trend(self):
        # Smooth (quadratic-at-origin) variogram extrapolates the local slope.
        pts = np.array([[1.0], [2.0]])
        vals = np.array([10.0, 20.0])
        vg = GaussianVariogram(sill=100.0, range_=50.0)
        res = ordinary_kriging(pts, vals, np.array([0.0]), vg)
        assert res.estimate == pytest.approx(0.0, abs=0.5)

    def test_interpolation_on_linear_field_inside_hull(self, rng):
        slope = np.array([2.0, -1.0, 0.5])
        pts = grid_points(rng, 40, 3)
        vals = pts @ slope + 4.0
        query = np.array([6.0, 6.0, 6.0])
        res = ordinary_kriging(pts, vals, query, VG)
        assert res.estimate == pytest.approx(float(query @ slope + 4.0), abs=1e-6)

    def test_pure_nugget_gives_equal_weights(self, rng):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        vals = np.array([1.0, 2.0, 6.0])
        res = ordinary_kriging(pts, vals, np.array([1.0, 1.0]), NuggetVariogram(1.0))
        np.testing.assert_allclose(res.weights, [1 / 3] * 3, atol=1e-9)
        assert res.estimate == pytest.approx(3.0)


class TestVariance:
    def test_variance_nonnegative(self, rng):
        pts = grid_points(rng, 10, 3)
        vals = rng.normal(size=10)
        query = rng.integers(0, 12, size=3).astype(float)
        res = ordinary_kriging(pts, vals, query, VG)
        assert res.variance >= 0.0

    def test_variance_grows_with_distance(self):
        pts = np.array([[0.0], [1.0]])
        vals = np.array([0.0, 1.0])
        near = ordinary_kriging(pts, vals, np.array([1.5]), VG).variance
        far = ordinary_kriging(pts, vals, np.array([6.0]), VG).variance
        assert far > near


class TestDegenerateInputs:
    def test_duplicate_support_points_handled(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
        vals = np.array([2.0, 2.0, 6.0])
        res = ordinary_kriging(pts, vals, np.array([2.0, 2.0]), VG)
        assert np.isfinite(res.estimate)
        assert 1.9 <= res.estimate <= 6.1

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            ordinary_kriging(np.empty((0, 2)), np.empty(0), np.zeros(2), VG)
        with pytest.raises(ValueError, match="incompatible"):
            ordinary_kriging(np.zeros((3, 2)), np.zeros(4), np.zeros(2), VG)
        with pytest.raises(ValueError, match="incompatible"):
            ordinary_kriging(np.zeros((3, 2)), np.zeros(3), np.zeros(5), VG)
        with pytest.raises(ValueError, match="non-finite"):
            ordinary_kriging(
                np.zeros((2, 2)), np.array([np.nan, 1.0]), np.zeros(2), VG
            )


def _unique_collapse(points, values):
    """``_validate_support``'s duplicate collapse as it stood with no
    distinctness check in front: ``np.unique`` on every support set."""
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    unique, inverse = np.unique(pts, axis=0, return_inverse=True)
    if unique.shape[0] != pts.shape[0]:
        sums = np.zeros(unique.shape[0])
        counts = np.zeros(unique.shape[0])
        np.add.at(sums, inverse, vals)
        np.add.at(counts, inverse, 1.0)
        pts, vals = unique, sums / counts
    return pts, vals


_COORD = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, np.nan, -np.nan, np.inf, -np.inf]
)


class TestValidateSupport:
    """The distinctness proof in front of the collapse changes no bit."""

    @staticmethod
    def _assert_same(points, values):
        from repro.core.kriging import _validate_support

        got = _validate_support(points, values)
        want = _unique_collapse(points, values)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @settings(deadline=None, max_examples=300)
    @given(
        rows=st.integers(1, 8),
        dim=st.integers(1, 3),
        data=st.data(),
    )
    def test_matches_unique_collapse(self, rows, dim, data):
        # A small coordinate alphabet makes duplicate rows, signed zeros and
        # non-finite coordinates common.
        flat = data.draw(st.lists(_COORD, min_size=rows * dim, max_size=rows * dim))
        points = np.array(flat).reshape(rows, dim)
        values = np.array(
            data.draw(st.lists(st.floats(-10, 10), min_size=rows, max_size=rows))
        )
        self._assert_same(points, values)
        self._assert_same(np.asfortranarray(points), values)

    def test_distinct_support_is_returned_as_given(self):
        rng = np.random.default_rng(23)
        points = np.unique(grid_points(rng, 40, 23), axis=0)[rng.permutation(20)]
        values = rng.normal(size=20)
        self._assert_same(points, values)

    @pytest.mark.parametrize(
        "points",
        [
            [[1.0, 0.0], [1.0, -0.0], [2.0, 2.0]],
            [[np.nan, 1.0], [np.nan, 1.0]],
            [[np.nan, 1.0]],
            [[3.0, 4.0]],
            [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
        ],
    )
    def test_edge_cases_match_unique_collapse(self, points):
        points = np.array(points)
        self._assert_same(points, np.arange(points.shape[0], dtype=float))


class TestSimpleKriging:
    def test_far_query_regresses_to_mean(self):
        vg = SphericalVariogram(sill=1.0, range_=2.0)
        pts = np.array([[0.0, 0.0]])
        vals = np.array([10.0])
        res = simple_kriging(pts, vals, np.array([50.0, 50.0]), vg, mean=4.0, sill=1.0)
        assert res.estimate == pytest.approx(4.0, abs=1e-6)

    def test_exact_at_support(self):
        vg = SphericalVariogram(sill=1.0, range_=3.0)
        pts = np.array([[0.0], [2.0]])
        vals = np.array([1.0, 5.0])
        res = simple_kriging(pts, vals, np.array([0.0]), vg, mean=0.0, sill=1.0)
        assert res.estimate == pytest.approx(1.0, abs=1e-6)

    def test_invalid_sill_rejected(self):
        with pytest.raises(ValueError, match="sill"):
            simple_kriging(
                np.zeros((1, 1)), np.zeros(1), np.zeros(1), VG, mean=0.0, sill=0.0
            )

    def test_lagrange_zero(self):
        vg = SphericalVariogram(sill=1.0, range_=3.0)
        res = simple_kriging(
            np.array([[0.0]]), np.array([2.0]), np.array([1.0]), vg, mean=0.0, sill=1.0
        )
        assert res.lagrange == 0.0


class TestEquation10Form:
    def test_matches_direct_matrix_formula(self, rng):
        """Cross-check against the explicit gamma_i . Gamma^-1 . lambda form."""
        pts = grid_points(rng, 6, 2, high=8)
        # Ensure distinct points so Gamma is invertible.
        pts = np.unique(pts, axis=0)
        n = pts.shape[0]
        vals = rng.normal(size=n)
        query = np.array([3.5, 2.5])

        gamma = np.zeros((n + 1, n + 1))
        for j in range(n):
            for k in range(n):
                gamma[j, k] = float(VG(np.abs(pts[j] - pts[k]).sum()))
        gamma[:n, n] = 1.0
        gamma[n, :n] = 1.0
        lam = np.concatenate([vals, [0.0]])
        gamma_i = np.array(
            [float(VG(np.abs(query - pts[k]).sum())) for k in range(n)] + [1.0]
        )
        direct = float(gamma_i @ np.linalg.solve(gamma, lam))

        res = ordinary_kriging(pts, vals, query, VG)
        assert res.estimate == pytest.approx(direct, abs=1e-8)


class TestOrdinaryKrigingBatch:
    """ordinary_kriging_batch: one factorization, outcomes identical per query."""

    def _random_case(self, rng, n=8, m=12, dim=3):
        pts = np.unique(grid_points(rng, n, dim), axis=0)
        vals = rng.normal(size=pts.shape[0])
        queries = grid_points(rng, m, dim)
        return pts, vals, queries

    def test_matches_per_query_path(self, rng):
        from repro.core.kriging import ordinary_kriging_batch

        pts, vals, queries = self._random_case(rng)
        batch = ordinary_kriging_batch(pts, vals, queries, VG)
        assert len(batch) == queries.shape[0]
        for query, result in zip(queries, batch):
            single = ordinary_kriging(pts, vals, query, VG)
            assert result.estimate == pytest.approx(single.estimate, abs=1e-9)
            assert result.variance == pytest.approx(single.variance, abs=1e-9)

    def test_exact_hits_in_batch(self, rng):
        from repro.core.kriging import ordinary_kriging_batch

        pts, vals, _ = self._random_case(rng)
        # Mix support points (exact hits) with off-support queries.
        queries = np.vstack([pts[2], pts[0] + 0.5, pts[4]])
        results = ordinary_kriging_batch(pts, vals, queries, VG)
        assert results[0].estimate == pytest.approx(vals[2])
        assert results[0].variance == 0.0
        assert results[2].estimate == pytest.approx(vals[4])

    def test_empty_queries(self, rng):
        from repro.core.kriging import ordinary_kriging_batch

        pts, vals, _ = self._random_case(rng)
        assert ordinary_kriging_batch(pts, vals, np.empty((0, 3)), VG) == []

    def test_query_shape_validation(self, rng):
        from repro.core.kriging import ordinary_kriging_batch

        pts, vals, _ = self._random_case(rng)
        with pytest.raises(ValueError, match="queries"):
            ordinary_kriging_batch(pts, vals, np.zeros((2, 5)), VG)

    def test_weights_sum_to_one(self, rng):
        from repro.core.kriging import ordinary_kriging_batch

        pts, vals, queries = self._random_case(rng, n=10, m=6)
        for result in ordinary_kriging_batch(pts, vals, queries, VG):
            assert result.weights.sum() == pytest.approx(1.0, abs=1e-6)


class TestIllConditionedFallback:
    def test_shift_equivariance_on_near_singular_support(self):
        """Nearly singular bordered systems must not return garbage.

        np.linalg.solve can succeed with finite but astronomically wrong
        weights on this support (condition number ~1e18 with the linear
        variogram); the residual check in _solve must reject it and fall
        back to the minimum-norm least-squares solution, which honours the
        unit-sum constraint.
        """
        pts = np.asarray([(0, 1), (0, 0), (1, 0), (1, 1), (2, 0)], dtype=float)
        vals = np.random.default_rng(7).normal(size=pts.shape[0])
        query = np.array([4.5, 4.5])
        base = ordinary_kriging(pts, vals, query, VG)
        moved = ordinary_kriging(pts, vals + 1.0, query, VG)
        assert abs(base.estimate) < 1e6
        assert moved.estimate - base.estimate == pytest.approx(1.0, abs=1e-6)


class TestSingularWeightScreen:
    """A singular but consistent system passes the residual check while LU
    returns weights with an arbitrary null-space component; the weight-gain
    screen sends it to the minimum-norm least-squares solution instead."""

    @staticmethod
    def _second_field():
        # The second draw of the cross-validation test's smooth field: its
        # L1-lattice systems under the linear variogram are singular
        # (rectangle configurations; condition numbers ~1e17).
        rng = np.random.default_rng(1234)
        for _ in range(2):
            pts = np.unique(rng.integers(0, 10, size=(25, 2)).astype(float), axis=0)
            vals = pts @ np.array([2.0, -1.0]) + rng.normal(0, 0.1, size=pts.shape[0])
        return pts, vals

    def test_loo_residual_small_at_singular_point(self):
        from repro.core.crossval import loo_cross_validate

        pts, vals = self._second_field()
        result = loo_cross_validate(pts, vals, VG)
        (row,) = np.flatnonzero((pts == [5.0, 3.0]).all(axis=1))
        assert abs(result.residuals[row]) <= 0.1

    def test_stacked_slice_is_screened(self):
        from repro.core.kriging import _MAX_WEIGHT_GAIN, ordinary_kriging_grouped

        pts, vals = self._second_field()
        (row,) = np.flatnonzero((pts == [5.0, 3.0]).all(axis=1))
        groups = []
        for left_out in (row, 0):
            keep = np.arange(pts.shape[0]) != left_out
            groups.append((pts[keep], vals[keep], pts[left_out][None, :]))
        # Both supports have the same size, so they share one batched solve.
        stacked = ordinary_kriging_grouped(groups, VG)
        for (support, values, query), (result,) in zip(groups, stacked):
            single = ordinary_kriging(support, values, query[0], VG)
            assert np.abs(result.weights).sum() <= _MAX_WEIGHT_GAIN
            assert result.estimate == pytest.approx(single.estimate, abs=1e-9)
        assert abs(stacked[0][0].estimate - vals[row]) <= 0.1


class TestStackedGroupedSolve:
    """ordinary_kriging_grouped: same-size systems batched into one gesv
    call, semantics identical to the per-group path."""

    def _groups(self, rng, n_groups=10, sizes=(6, 9, 12), m=4, dim=3):
        groups = []
        for g in range(n_groups):
            pts = np.unique(grid_points(rng, sizes[g % len(sizes)] + 4, dim), axis=0)
            pts = pts[: sizes[g % len(sizes)]]
            vals = rng.normal(size=pts.shape[0])
            groups.append((pts, vals, grid_points(rng, m, dim)))
        return groups

    def test_stacked_matches_per_group_within_envelope(self, rng):
        from repro.core.kriging import ordinary_kriging_batch, ordinary_kriging_grouped

        groups = self._groups(rng)
        stacked = ordinary_kriging_grouped(groups, VG)
        for (pts, vals, queries), group_results in zip(groups, stacked):
            reference = ordinary_kriging_batch(pts, vals, queries, VG)
            for got, ref in zip(group_results, reference):
                assert got.estimate == pytest.approx(ref.estimate, abs=1e-9)
                assert got.variance == pytest.approx(ref.variance, abs=1e-9)

    def test_stacked_handles_exact_hits_and_duplicates(self, rng):
        """Duplicate support rows collapse before binning (groups bin by
        the *validated* size) and exact hits short-circuit per query."""
        from repro.core.kriging import ordinary_kriging_batch, ordinary_kriging_grouped

        pts = np.unique(grid_points(rng, 12, 3), axis=0)[:8]
        vals = rng.normal(size=8)
        dup_pts = np.vstack([pts, pts[:2]])  # collapses back to 8
        dup_vals = np.concatenate([vals, vals[:2]])
        queries = np.vstack([pts[3], pts[0] + 0.5])
        groups = [
            (dup_pts, dup_vals, queries),
            (pts, vals, queries),  # same validated size: stacks together
        ]
        stacked = ordinary_kriging_grouped(groups, VG)
        for group_results in stacked:
            assert group_results[0].estimate == pytest.approx(vals[3])
            assert group_results[0].variance == 0.0
            ref = ordinary_kriging_batch(pts, vals, queries, VG)
            assert group_results[1].estimate == pytest.approx(
                ref[1].estimate, abs=1e-9
            )

    def test_singular_slice_falls_back_per_group(self, rng):
        """One near-singular member must not poison its stack: that slice
        re-solves through the residual-checked fallback, the rest keep the
        batched solution."""
        from repro.core.kriging import ordinary_kriging_batch, ordinary_kriging_grouped

        degenerate = np.asarray(
            [(0, 1), (0, 0), (1, 0), (1, 1), (2, 0)], dtype=float
        )
        healthy = np.unique(grid_points(rng, 9, 2), axis=0)[:5]
        vals_d = rng.normal(size=5)
        vals_h = rng.normal(size=5)
        query = np.array([[4.5, 4.5]])
        groups = [(degenerate, vals_d, query), (healthy, vals_h, query)]
        stacked = ordinary_kriging_grouped(groups, VG)
        ref_d = ordinary_kriging_batch(degenerate, vals_d, query, VG)
        ref_h = ordinary_kriging_batch(healthy, vals_h, query, VG)
        assert stacked[0][0].estimate == pytest.approx(ref_d[0].estimate, abs=1e-6)
        assert stacked[1][0].estimate == pytest.approx(ref_h[0].estimate, abs=1e-9)

    def test_phase_timings_accumulate(self, rng):
        from repro.core.kriging import SolvePhases, ordinary_kriging_grouped

        phases = SolvePhases()
        ordinary_kriging_grouped(self._groups(rng), VG, phases=phases)
        assembly, factorize, backsolve = phases.totals()
        assert assembly > 0.0 and factorize > 0.0 and backsolve > 0.0
