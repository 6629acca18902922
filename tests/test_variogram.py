"""Unit tests for repro.core.variogram (paper Eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.variogram import EmpiricalVariogram, LagAccumulator, empirical_semivariogram


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

    def test_coincident_points_ignored(self):
        pts = np.array([[0, 0], [0, 0], [1, 0]])
        vals = np.array([0.0, 0.5, 1.0])
        emp = empirical_semivariogram(pts, vals)
        assert 0.0 not in emp.lags

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
    """Eq. 4 grouped by exact lag, pairs ``(i, j)`` accumulated with
    ``np.add.at`` in column-major order: ``j`` ascending, then ``i < j``."""
    from repro.core.distances import pairwise_distances

    dist = pairwise_distances(points, metric)
    ju, iu = np.tril_indices(points.shape[0], k=-1)
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


def _field(rng, n, nv):
    points = rng.integers(0, 6, size=(n, nv)).astype(float)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    return points, values


class TestLagAccumulator:
    """The per-lag pair sums of a :class:`LagAccumulator`: the incremental
    estimate equals the stateless one bit for bit."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_one_point_growth(self, metric):
        points, values = _field(np.random.default_rng(7), 70, 5)
        store = LagAccumulator(metric)
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
        # 430 points x 23 variables: the distance cube passes the 1 MB
        # block limit, so a bulk absorb takes the blocked branch.
        points, values = _field(np.random.default_rng(11), 430, 23)
        assert 430 * 430 * 23 * 8 > distances._PAIRWISE_BLOCK_BYTES
        store = LagAccumulator(metric)
        for n in (2, 3, 40, 41, 250, 430):
            incremental = empirical_semivariogram(
                points[:n], values[:n], metric=metric, store=store
            )
            # Stateless is an empty accumulator absorbing all rows at once
            # (a restored estimator's first refit); at 430 rows it takes
            # the blocked cross-distance branch.
            stateless = empirical_semivariogram(points[:n], values[:n], metric=metric)
            _assert_bitwise(incremental, stateless)
        lags, gammas, counts = _add_at_reference(points, values, metric)
        _assert_bitwise(incremental, EmpiricalVariogram(lags, gammas, counts))

    def test_bulk_absorb_in_row_chunks(self, monkeypatch):
        from repro.core import variogram

        points, values = _field(np.random.default_rng(13), 60, 3)
        whole = empirical_semivariogram(points, values)
        # A budget of 8 * 8 * 60 bytes gives 2-row distance blocks at 3
        # variables, so the bulk absorb takes 30 chunks; the sums must not
        # notice.
        monkeypatch.setattr(variogram, "_PAIRWISE_BLOCK_BYTES", 8 * 8 * 60)
        _assert_bitwise(empirical_semivariogram(points, values), whole)

    @pytest.mark.parametrize("metric", METRICS)
    def test_stateless_sums_match_add_at(self, metric):
        points, values = _field(np.random.default_rng(3), 90, 4)
        lags, gammas, counts = _add_at_reference(points, values, metric)
        emp = empirical_semivariogram(points, values, metric=metric)
        _assert_bitwise(emp, EmpiricalVariogram(lags, gammas, counts))

    def test_rejects_a_shorter_prefix_and_another_metric(self):
        points, values = _field(np.random.default_rng(9), 10, 2)
        store = LagAccumulator("l1")
        empirical_semivariogram(points, values, store=store)
        with pytest.raises(ValueError, match="holds 10 points"):
            empirical_semivariogram(points[:5], values[:5], store=store)
        with pytest.raises(ValueError, match="metric"):
            empirical_semivariogram(points, values, metric="l2", store=store)

    def test_all_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="no usable point pairs"):
            empirical_semivariogram(np.zeros((4, 2)), np.arange(4.0))


class TestGrowthRoutes:
    """One-point growth, random block growth and one bulk absorb give
    bitwise-equal lags, gammas and counts."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=45),
        nv=st.integers(min_value=1, max_value=6),
        metric=st.sampled_from(METRICS),
        integer=st.booleans(),
    )
    def test_three_routes_bitwise_equal(self, seed, n, nv, metric, integer):
        rng = np.random.default_rng(seed)
        points, values = _field(rng, n, nv)
        if not integer:
            points += rng.uniform(-0.5, 0.5, size=points.shape)
        one_point = LagAccumulator(metric)
        for m in range(1, n + 1):
            one_point.absorb(points[:m], values[:m])
        blocks = LagAccumulator(metric)
        cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(0, n), replace=True))
        for m in (*cuts.tolist(), n):
            blocks.absorb(points[:m], values[:m])
        bulk = LagAccumulator(metric)
        bulk.absorb(points, values)
        if bulk.lags.size == 0:
            return
        estimate = bulk.estimate()
        _assert_bitwise(one_point.estimate(), estimate)
        _assert_bitwise(blocks.estimate(), estimate)


class TestManyFloatCoordinates:
    @pytest.mark.parametrize("metric", METRICS)
    def test_stateless_equals_incremental_at_23_variables(self, metric):
        # Non-integer coordinates at Nv = 23: lags are no longer exact, so
        # only a shared reduction order keeps the routes bitwise equal.
        rng = np.random.default_rng(23)
        points, values = _field(rng, 160, 23)
        points += rng.uniform(-0.5, 0.5, size=points.shape)
        store = LagAccumulator(metric)
        for n in (*range(2, 40), 41, 97, 160):
            incremental = empirical_semivariogram(
                points[:n], values[:n], metric=metric, store=store
            )
            stateless = empirical_semivariogram(points[:n], values[:n], metric=metric)
            _assert_bitwise(incremental, stateless)


class TestBulkAbsorbMemory:
    def test_bulk_absorb_peak_below_4_mb(self):
        # A seeded or restored 600-point, 5-variable session absorbs all its
        # pairs at once; the (600, 600, 5) difference cube alone would be
        # 14.4 MB.
        import tracemalloc

        points, values = _field(np.random.default_rng(600), 600, 5)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            LagAccumulator("l1").absorb(points, values)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4 * 1024 * 1024


class TestRestoredFirstFit:
    def test_restored_600_point_estimator_fits_like_the_live_one(self):
        # The live estimator absorbs its pairs 50 points at a time; the one
        # restored from its 600-point snapshot absorbs all of them at its
        # first refit.
        from repro.core.estimator import KrigingEstimator

        rng = np.random.default_rng(650)
        lattice = np.unique(rng.integers(0, 8, size=(2000, 5)), axis=0)
        points = lattice[rng.permutation(lattice.shape[0])[:650]].astype(float)
        weights = rng.normal(size=5)

        def simulate(config):
            config = np.asarray(config, dtype=np.float64)
            return float(np.sin(config @ weights) + 0.1 * config @ config)

        settings = dict(distance=4.0, nn_min=0, variogram="exponential", refit_interval=50)
        live = KrigingEstimator(simulate, 5, **settings)
        for start in range(0, 600, 50):
            for config in points[start : start + 50]:
                live.force_simulate(config)
            # Off the lattice, next to a simulated point: interpolated.
            assert live.evaluate(points[start] + 0.25).interpolated
        assert live._fitted_at == live._lag_sums.n_points == 600
        restored = KrigingEstimator.from_state(simulate, live.to_state())
        assert restored._lag_sums.n_points == 0
        for estimator in (live, restored):
            for config in points[600:650]:
                estimator.force_simulate(config)
        outcomes = [estimator.evaluate(points[0] + 0.25) for estimator in (live, restored)]
        assert restored._fitted_at == live._fitted_at == restored._lag_sums.n_points == 650
        for name in ("lags", "sums", "counts"):
            assert np.array_equal(getattr(live._lag_sums, name), getattr(restored._lag_sums, name))
        assert live.variogram.to_state() == restored.variogram.to_state()
        assert outcomes[0].interpolated
        assert outcomes[0].value == outcomes[1].value
