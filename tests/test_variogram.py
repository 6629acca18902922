"""Unit tests for repro.core.variogram (paper Eq. 4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.variogram import EmpiricalVariogram, PairLagStore, empirical_semivariogram


class TestEquation4:
    def test_two_points_single_lag(self):
        # gamma(d) = (1 / 2|N(d)|) * sum (l_j - l_k)^2 with one pair: (4-0)^2/2 = 8.
        pts = np.array([[0, 0], [1, 1]])
        vals = np.array([0.0, 4.0])
        emp = empirical_semivariogram(pts, vals)
        assert emp.lags.tolist() == [2.0]
        assert emp.gammas[0] == pytest.approx(8.0)
        assert emp.counts[0] == 1

    def test_pair_grouping_by_exact_lag(self):
        pts = np.array([[0], [1], [2]])
        vals = np.array([0.0, 1.0, 4.0])
        emp = empirical_semivariogram(pts, vals)
        # lag 1: pairs (0,1): 0.5*1, (1,2): 0.5*9 -> mean 2.5; lag 2: 0.5*16 = 8.
        assert emp.lags.tolist() == [1.0, 2.0]
        assert emp.gammas[0] == pytest.approx(2.5)
        assert emp.gammas[1] == pytest.approx(8.0)
        assert emp.counts.tolist() == [2, 1]

    def test_constant_field_zero_variogram(self, rng):
        pts = rng.integers(0, 8, size=(15, 3))
        emp = empirical_semivariogram(pts, np.full(15, 7.0))
        np.testing.assert_allclose(emp.gammas, 0.0)

    def test_max_lag_filters_pairs(self):
        pts = np.array([[0], [1], [10]])
        vals = np.array([0.0, 1.0, 2.0])
        emp = empirical_semivariogram(pts, vals, max_lag=2)
        assert emp.lags.tolist() == [1.0]

    def test_coincident_points_ignored(self):
        pts = np.array([[0, 0], [0, 0], [1, 0]])
        vals = np.array([0.0, 0.5, 1.0])
        emp = empirical_semivariogram(pts, vals)
        assert 0.0 not in emp.lags

    def test_binning(self):
        pts = np.arange(10).reshape(-1, 1)
        vals = np.arange(10, dtype=float)
        emp = empirical_semivariogram(pts, vals, n_bins=3)
        assert emp.n_lags <= 3
        assert np.all(np.diff(emp.lags) > 0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            empirical_semivariogram(np.array([[0, 0]]), np.array([1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="incompatible"):
            empirical_semivariogram(np.zeros((3, 2)), np.zeros(4))


class TestLinearFieldTheory:
    def test_1d_linear_field_variogram_is_quadratic(self):
        # lambda(x) = a x  =>  gamma(h) = a^2 h^2 / 2 exactly.
        a = 3.0
        pts = np.arange(20).reshape(-1, 1)
        vals = a * np.arange(20, dtype=float)
        emp = empirical_semivariogram(pts, vals)
        for lag, gamma in zip(emp.lags, emp.gammas):
            assert gamma == pytest.approx(a * a * lag * lag / 2.0)


class TestEmpiricalVariogramCallable:
    def _emp(self):
        return EmpiricalVariogram(
            lags=np.array([1.0, 2.0, 4.0]),
            gammas=np.array([1.0, 3.0, 5.0]),
            counts=np.array([5, 4, 2]),
        )

    def test_zero_at_origin(self):
        assert self._emp()(0.0) == 0.0

    def test_exact_at_lags(self):
        emp = self._emp()
        assert emp(2.0) == pytest.approx(3.0)

    def test_interpolates_between_lags(self):
        emp = self._emp()
        assert emp(3.0) == pytest.approx(4.0)

    def test_constant_beyond_last_lag(self):
        emp = self._emp()
        assert emp(100.0) == pytest.approx(5.0)

    def test_vectorized(self):
        emp = self._emp()
        out = emp(np.array([0.0, 1.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 4.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EmpiricalVariogram(
                lags=np.array([2.0, 1.0]),
                gammas=np.array([1.0, 1.0]),
                counts=np.array([1, 1]),
            )
        with pytest.raises(ValueError, match="equal length"):
            EmpiricalVariogram(
                lags=np.array([1.0]),
                gammas=np.array([1.0, 2.0]),
                counts=np.array([1]),
            )
        with pytest.raises(ValueError, match="positive"):
            EmpiricalVariogram(
                lags=np.array([0.0, 1.0, 2.0]),
                gammas=np.array([0.0, 1.0, 2.0]),
                counts=np.array([1, 1, 1]),
            )


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=3,
            max_size=12,
            unique=True,
        )
    )
    def test_gamma_nonnegative(self, values):
        pts = np.arange(len(values)).reshape(-1, 1)
        emp = empirical_semivariogram(pts, np.asarray(values))
        assert np.all(emp.gammas >= 0.0)

    @given(st.integers(min_value=2, max_value=10))
    def test_counts_sum_to_pair_count(self, n):
        pts = np.arange(n).reshape(-1, 1)
        vals = np.zeros(n)
        emp = empirical_semivariogram(pts, vals)
        assert int(np.sum(emp.counts)) == n * (n - 1) // 2


def _add_at_reference(points, values, metric):
    """Eq. 4 grouped by exact lag, accumulated with ``np.add.at``."""
    from repro.core.distances import pairwise_distances

    dist = pairwise_distances(points, metric)
    iu, ju = np.triu_indices(points.shape[0], k=1)
    lags, sqdiff = dist[iu, ju], 0.5 * (values[iu] - values[ju]) ** 2
    keep = lags > 0
    lags, sqdiff = lags[keep], sqdiff[keep]
    unique_lags, inverse = np.unique(lags, return_inverse=True)
    gamma = np.zeros(unique_lags.size)
    counts = np.zeros(unique_lags.size, dtype=np.int64)
    np.add.at(gamma, inverse, sqdiff)
    np.add.at(counts, inverse, 1)
    return unique_lags, gamma / counts, counts


def _assert_bitwise(a: EmpiricalVariogram, b: EmpiricalVariogram) -> None:
    for name in ("lags", "gammas", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        assert np.array_equal(x, y), name


METRICS = ["l1", "l2", "linf"]


class TestPairLagStore:
    """The incremental estimate equals the stateless one bit for bit."""

    @staticmethod
    def _field(rng, n, nv):
        points = rng.integers(0, 6, size=(n, nv)).astype(float)
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        return points, values

    @pytest.mark.parametrize("metric", METRICS)
    def test_one_point_growth(self, metric):
        points, values = self._field(np.random.default_rng(7), 70, 5)
        store = PairLagStore(metric)
        for n in range(2, len(values) + 1):
            incremental = empirical_semivariogram(
                points[:n], values[:n], metric=metric, store=store
            )
            _assert_bitwise(
                incremental, empirical_semivariogram(points[:n], values[:n], metric=metric)
            )
        assert store.n_points == len(values)

    @pytest.mark.parametrize("metric", METRICS)
    def test_block_growth_through_blocked_distances(self, metric):
        from repro.core import distances
        # 430 points x 23 variables: the distance cube passes the 32 MB
        # block limit, so the stateless path takes the blocked branch.
        points, values = self._field(np.random.default_rng(11), 430, 23)
        assert 430 * 430 * 23 * 8 > distances._PAIRWISE_BLOCK_BYTES
        store = PairLagStore(metric)
        for n in (2, 3, 40, 41, 250, 430):
            incremental = empirical_semivariogram(
                points[:n], values[:n], metric=metric, store=store
            )
            stateless = empirical_semivariogram(points[:n], values[:n], metric=metric)
            _assert_bitwise(incremental, stateless)
        # An empty store absorbing everything at once (a restored
        # estimator's first refit) takes the blocked cross-distance branch.
        restored = PairLagStore(metric)
        _assert_bitwise(
            empirical_semivariogram(points, values, metric=metric, store=restored), stateless
        )

    @pytest.mark.parametrize("metric", METRICS)
    def test_stateless_sums_match_add_at(self, metric):
        points, values = self._field(np.random.default_rng(3), 90, 4)
        lags, gammas, counts = _add_at_reference(points, values, metric)
        emp = empirical_semivariogram(points, values, metric=metric)
        _assert_bitwise(emp, EmpiricalVariogram(lags, gammas, counts))

    def test_max_lag_and_bins_apply_to_stored_pairs(self):
        points, values = self._field(np.random.default_rng(5), 40, 3)
        for kwargs in ({"max_lag": 4.0}, {"n_bins": 5}):
            store = PairLagStore()
            empirical_semivariogram(points[:20], values[:20], store=store, **kwargs)
            _assert_bitwise(
                empirical_semivariogram(points, values, store=store, **kwargs),
                empirical_semivariogram(points, values, **kwargs),
            )

    def test_rejects_a_shorter_prefix_and_another_metric(self):
        points, values = self._field(np.random.default_rng(9), 10, 2)
        store = PairLagStore("l1")
        empirical_semivariogram(points, values, store=store)
        with pytest.raises(ValueError, match="holds 10 points"):
            empirical_semivariogram(points[:5], values[:5], store=store)
        with pytest.raises(ValueError, match="metric"):
            empirical_semivariogram(points, values, metric="l2", store=store)
