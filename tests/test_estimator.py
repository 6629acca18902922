"""Unit tests for repro.core.estimator (the interpolate-or-simulate policy)."""

import numpy as np
import pytest

from repro.core.estimator import KrigingEstimator
from repro.core.models import LinearVariogram, SphericalVariogram
from repro.utils.quantiles import QuantileSketch


_COEFFS = np.array([1.0, -2.0, 0.5, 0.25])


def linear_metric(config):
    """Dimension-agnostic smooth test field."""
    c = np.asarray(config, dtype=float)
    coeffs = np.resize(_COEFFS, c.size)
    return float(c @ coeffs + 3.0)


class CountingSim:
    def __init__(self, fn=linear_metric):
        self.fn = fn
        self.calls = []

    def __call__(self, config):
        self.calls.append(np.asarray(config).copy())
        return self.fn(config)


class TestPolicy:
    def test_first_queries_simulated(self):
        sim = CountingSim()
        est = KrigingEstimator(sim, 3, distance=2, nn_min=1)
        out = est.evaluate([4, 4, 4])
        assert not out.interpolated
        assert len(sim.calls) == 1

    def test_interpolation_requires_strictly_more_than_nn_min(self):
        sim = CountingSim()
        est = KrigingEstimator(sim, 3, distance=3, nn_min=1)
        est.evaluate([4, 4, 4])          # sim 1
        out = est.evaluate([5, 4, 4])    # one neighbor: Nn = 1, not > 1
        assert not out.interpolated
        out = est.evaluate([4, 5, 4])    # two neighbors now
        assert out.interpolated
        assert len(sim.calls) == 2

    def test_far_configuration_simulated(self):
        sim = CountingSim()
        est = KrigingEstimator(sim, 3, distance=2, nn_min=1)
        est.evaluate([0, 0, 0])
        est.evaluate([1, 0, 0])
        out = est.evaluate([10, 10, 10])
        assert not out.interpolated
        assert out.n_neighbors == 0

    def test_interpolated_configs_never_support(self):
        """Section III-B: interpolated points are not reused for kriging."""
        sim = CountingSim()
        est = KrigingEstimator(sim, 2, distance=4, nn_min=1)
        est.evaluate([4, 4])
        est.evaluate([5, 4])
        out = est.evaluate([4, 5])
        assert out.interpolated
        assert len(est.cache) == 2  # the interpolated point was not added

    def test_exact_hit_returns_cached_value(self):
        sim = CountingSim()
        est = KrigingEstimator(sim, 2, distance=2, nn_min=1)
        first = est.evaluate([7, 7])
        again = est.evaluate([7, 7])
        assert again.exact_hit
        assert again.interpolated
        assert again.value == first.value
        assert len(sim.calls) == 1

    def test_accuracy_on_smooth_field(self):
        sim = CountingSim()
        est = KrigingEstimator(sim, 3, distance=4, nn_min=1)
        rng = np.random.default_rng(7)
        errors = []
        for _ in range(60):
            config = rng.integers(2, 10, size=3)
            out = est.evaluate(config)
            if out.interpolated:
                errors.append(abs(out.value - linear_metric(config)))
        assert errors, "policy never interpolated on a dense sample"
        # Mean interpolation error small relative to the field's spread
        # (values span ~[-10, 10] over the sampled cube).
        assert float(np.mean(errors)) < 1.5


class TestStats:
    def test_counters(self):
        est = KrigingEstimator(CountingSim(), 2, distance=3, nn_min=1)
        for cfg in ([0, 0], [1, 0], [0, 1], [1, 1], [0, 0]):
            est.evaluate(cfg)
        s = est.stats
        assert s.n_simulated + s.n_interpolated + s.n_exact_hits == 5
        assert s.n_exact_hits == 1
        assert 0.0 <= s.interpolated_fraction <= 1.0
        assert s.n_queries == 5

    def test_mean_neighbors_tracks_support(self):
        est = KrigingEstimator(CountingSim(), 2, distance=10, nn_min=1)
        est.evaluate([0, 0])
        est.evaluate([1, 0])
        est.evaluate([0, 1])
        assert est.stats.mean_neighbors == pytest.approx(2.0)

    def test_empty_stats(self):
        est = KrigingEstimator(CountingSim(), 2)
        assert est.stats.interpolated_fraction == 0.0
        assert np.isnan(est.stats.mean_neighbors)


class TestVariogramManagement:
    def test_fixed_model_used_directly(self):
        model = LinearVariogram(2.0)
        est = KrigingEstimator(CountingSim(), 2, variogram=model)
        assert est.variogram is model

    def test_string_spec_fallback_before_min_points(self):
        est = KrigingEstimator(CountingSim(), 2, variogram="spherical", min_fit_points=5)
        est.evaluate([0, 0])
        vg = est.variogram
        assert isinstance(vg, LinearVariogram)

    def test_fit_happens_after_min_points(self):
        est = KrigingEstimator(
            CountingSim(), 2, distance=0, variogram="linear", min_fit_points=3
        )
        # distance=0 forces simulation of every distinct config.
        for cfg in ([0, 0], [3, 0], [0, 3], [3, 3]):
            est.evaluate(cfg)
        vg = est.variogram
        assert isinstance(vg, LinearVariogram)
        assert vg.slope != 1.0  # fitted, not the default prior

    def test_refit_interval(self):
        est = KrigingEstimator(
            CountingSim(), 2, distance=0, variogram="linear",
            min_fit_points=2, refit_interval=2,
        )
        est.evaluate([0, 0])
        est.evaluate([4, 0])
        first = est.variogram
        est.evaluate([0, 4])
        est.evaluate([4, 4])
        second = est.variogram
        assert first is not second

    def test_refit_none_fits_once(self):
        est = KrigingEstimator(
            CountingSim(), 2, distance=0, variogram="linear",
            min_fit_points=2, refit_interval=None,
        )
        est.evaluate([0, 0])
        est.evaluate([4, 0])
        first = est.variogram
        est.evaluate([0, 4])
        est.evaluate([4, 4])
        assert est.variogram is first


class TestGuards:
    def test_max_variance_guard_forces_simulation(self):
        sim = CountingSim()
        est = KrigingEstimator(sim, 2, distance=10, nn_min=1, max_variance=1e-12)
        est.evaluate([0, 0])
        est.evaluate([1, 0])
        out = est.evaluate([5, 5])  # far: high kriging variance
        assert not out.interpolated
        assert len(sim.calls) == 3

    def test_max_neighbors_cap(self):
        est = KrigingEstimator(CountingSim(), 2, distance=20, nn_min=1, max_neighbors=2)
        for cfg in ([0, 0], [1, 0], [0, 1], [2, 0]):
            est.evaluate(cfg)
        out = est.evaluate([1, 1])
        assert out.interpolated
        assert out.n_neighbors == 2

    def test_parameter_validation(self):
        sim = CountingSim()
        with pytest.raises(ValueError):
            KrigingEstimator(sim, 2, distance=-1)
        with pytest.raises(ValueError):
            KrigingEstimator(sim, 2, nn_min=-1)
        with pytest.raises(ValueError):
            KrigingEstimator(sim, 2, min_fit_points=1)
        with pytest.raises(ValueError):
            KrigingEstimator(sim, 2, refit_interval=0)
        with pytest.raises(ValueError):
            KrigingEstimator(sim, 2, variogram="not-a-model")


class TestRecordMeasurementAndRefit:
    @staticmethod
    def _field(config):
        return float(np.asarray(config, dtype=float).sum())

    def test_record_measurement_feeds_cache_and_policy(self):
        est = KrigingEstimator(self._field, 2, distance=3.0, variogram="linear")
        out = est.record_measurement([1, 1], 42.0)
        assert not out.interpolated and out.value == 42.0
        assert est.stats.n_simulated == 1
        assert est.cache.lookup([1, 1]) == 42.0
        est.record_measurement([2, 1], 43.0)
        # The pushed values are support points: nearby queries interpolate.
        assert est.evaluate([1.5, 1.0]).interpolated
        # Exact revisit returns the stored value without re-recording.
        again = est.record_measurement([1, 1], 99.0)
        assert again.exact_hit and again.value == 42.0
        assert est.stats.n_simulated == 2

    def test_refit_variogram_forces_fresh_identification(self):
        rng = np.random.default_rng(3)
        est = KrigingEstimator(
            self._field, 2, distance=4.0, variogram="exponential",
            min_fit_points=4, refit_interval=None,
        )
        for row in rng.integers(0, 8, size=(30, 2)).tolist():
            if est.cache.lookup(row) is None:
                est.record_measurement(row, self._field(row) + rng.normal(0, 0.1))
        first = est.variogram
        assert est.variogram is first  # refit_interval=None: fitted once
        refitted = est.refit_variogram()
        assert refitted is est.variogram
        assert refitted is not first  # a genuinely new identification

    def test_refit_variogram_with_fixed_callable_is_noop(self):
        def fixed(h):
            return np.asarray(h) * 2.0

        est = KrigingEstimator(self._field, 2, variogram=fixed)
        assert est.refit_variogram() is fixed


class TestSolvePhaseStats:
    """Cumulative assembly/factorize/backsolve split of the batch engine."""

    @staticmethod
    def _field(config):
        return float(np.asarray(config, dtype=float).sum())

    def test_flushes_accumulate_phase_seconds(self):
        est = KrigingEstimator(self._field, 2, distance=3.0, variogram="linear")
        rng = np.random.default_rng(2)
        pts = np.unique(rng.integers(0, 7, size=(60, 2)), axis=0).astype(float)
        est.evaluate_batch(pts)
        est.evaluate_batch(pts[:15] + 0.25)
        solve = est.stats.solve
        assert solve.n_flushes >= 1
        assert solve.total_seconds > 0.0
        pairs = dict(solve.as_pairs())
        assert pairs["n_flushes"] == float(solve.n_flushes)
        assert (
            pairs["assembly_seconds"]
            + pairs["factorize_seconds"]
            + pairs["backsolve_seconds"]
        ) == pytest.approx(solve.total_seconds)

    def test_phase_split_round_trips_through_state(self):
        from repro.core.estimator import SolvePhaseStats

        est = KrigingEstimator(self._field, 2, distance=3.0, variogram="linear")
        rng = np.random.default_rng(4)
        pts = np.unique(rng.integers(0, 7, size=(50, 2)), axis=0).astype(float)
        est.evaluate_batch(pts)
        est.evaluate_batch(pts[:10] + 0.3)
        restored = SolvePhaseStats.from_state(est.stats.solve.to_state())
        assert restored.to_state() == est.stats.solve.to_state()
        # States written with the old per-phase sketches restore too.
        sketch = QuantileSketch().to_state()
        older = {
            **est.stats.solve.to_state(),
            **{f"{phase}_sketch": sketch for phase in ("assembly", "factorize", "backsolve")},
        }
        assert SolvePhaseStats.from_state(older).to_state() == restored.to_state()
        twin = KrigingEstimator.from_state(self._field, est.to_state())
        assert twin.stats.solve.to_state() == est.stats.solve.to_state()

    def test_no_interpolations_no_flushes(self):
        est = KrigingEstimator(self._field, 2, distance=0.0)
        est.evaluate_batch(np.arange(8.0).reshape(4, 2))
        assert est.stats.solve.n_flushes == 0
        assert est.stats.solve.total_seconds == 0.0


class TestRefitSchedule:
    """Full reselections run on the geometric schedule; every other refit
    refits the incumbent family from its last optimum."""

    #: ``ceil(4 * 1.25**k)``, the schedule for ``min_fit_points=4``.
    SCHEDULE = (4, 5, 7, 8, 10, 13, 16, 20, 24, 30, 38, 47, 59, 73, 91)

    @staticmethod
    def _points(count):
        rng = np.random.default_rng(5)
        pts = np.unique(rng.integers(0, 12, size=(200, 2)), axis=0).astype(float)
        return pts[rng.permutation(len(pts))][:count]

    @staticmethod
    def _grow(monkeypatch, points, values, **kwargs):
        """Record ``points`` one by one, asking for the variogram after
        each; returns the estimator and its ``(refit kind, n)`` log."""
        import repro.core.estimator as estimator_mod

        log: list[tuple[str, int]] = []
        est = None

        def logging(kind, fit):
            def wrapped(emp, *args, **kw):
                log.append((kind, len(est.cache)))
                return fit(emp, *args, **kw)

            return wrapped

        monkeypatch.setattr(estimator_mod, "select_variogram",
                            logging("full", estimator_mod.select_variogram))
        monkeypatch.setattr(estimator_mod, "fit_variogram",
                            logging("incumbent", estimator_mod.fit_variogram))
        est = KrigingEstimator(linear_metric, points.shape[1], min_fit_points=4, **kwargs)
        for point, value in zip(points, values):
            est.record_measurement(point, value)
            est.variogram
        return est, log

    @pytest.mark.parametrize("interval", [1, 3])
    def test_full_reselections_exactly_at_schedule_points(self, monkeypatch, interval):
        points = self._points(60)
        values = [float(np.sin(p[0]) * 5 + p[1] ** 1.5) for p in points]
        est, log = self._grow(
            monkeypatch, points, values, variogram="spherical", refit_interval=interval
        )
        fitted_at = [n for _, n in log]
        assert fitted_at == list(range(4, 61, interval))
        # A point in [previous fit, this fit] forces a full reselection: the
        # refit reaching a schedule point and the one after it reselect.
        expected = [
            "full" if any(prev <= p <= n for p in self.SCHEDULE) else "incumbent"
            for prev, n in zip([-1] + fitted_at, fitted_at)
        ]
        assert [kind for kind, _ in log] == expected
        assert expected.count("incumbent") > len(expected) // 3
        assert isinstance(est.variogram, SphericalVariogram)

    def test_refit_variogram_always_reselects(self, monkeypatch):
        points = self._points(45)
        values = [float(p.sum()) ** 1.5 for p in points]
        est, log = self._grow(monkeypatch, points, values, variogram="auto", refit_interval=1)
        assert log[-1] == ("incumbent", 45)
        for _ in range(2):
            est.refit_variogram()
            assert log[-1] == ("full", 45)

    def test_family_switch_is_taken_up_at_the_next_schedule_point(self):
        from repro.core.fitting import select_variogram
        from repro.core.variogram import empirical_semivariogram

        # A smooth trend, then a rough periodic field: the best family moves
        # from gaussian to spherical as the second regime's pairs pile up.
        points = self._points(70)
        values = [
            float(p.sum()) ** 1.5 * 0.2 if i < 30
            else float(np.sin(p[0] * 1.7) * 30 + np.cos(p[1]) * 20)
            for i, p in enumerate(points)
        ]
        est = KrigingEstimator(
            linear_metric, 2, min_fit_points=4, variogram="auto", refit_interval=1
        )
        used, best = {}, {}
        for point, value in zip(points, values):
            est.record_measurement(point, value)
            n = len(est.cache)
            if n >= 4:
                used[n] = type(est.variogram).__name__
                emp = empirical_semivariogram(est.cache.points, est.cache.values)
                best[n] = type(select_variogram(emp).model).__name__
        switch = min(n for n in used if used[n] != best[n])
        upcoming = min(p for p in self.SCHEDULE if p >= switch)
        assert upcoming > switch + 1  # the switch lands between schedule points
        incumbent = used[switch - 1]
        assert all(used[n] == incumbent != best[n] for n in range(switch, upcoming))
        assert used[upcoming] == best[upcoming] != incumbent


class TestIncrementalIdentification:
    """Refits through the estimator's lag accumulator choose exactly the
    model a stateless re-identification from the cache chooses, for both
    refit kinds: full reselections and incumbent refits."""

    @staticmethod
    def _replay(setup, monkeypatch, *, restore: bool):
        import repro.core.estimator as estimator_mod
        from repro.core.fitting import fit_variogram, select_variogram
        from repro.core.variogram import empirical_semivariogram

        trace = setup.record_trajectory().unique_first_visits()
        points = trace.configurations.astype(float)
        truth = dict(zip(map(tuple, points.tolist()), trace.values.tolist()))

        def simulate(config):
            return truth[tuple(np.asarray(config, dtype=float).tolist())]

        current: dict = {}
        checked: list[int] = []
        fits: list[tuple] = []

        def checking(kind, fit):
            # perfbench times the fitting layer by wrapping both names as
            # bound in the estimator module, the way this test does.
            def wrapped(emp, *args, **kwargs):
                est = current["est"]
                stateless = empirical_semivariogram(
                    est.cache.points, est.cache.values, metric=est.metric
                )
                for name in ("lags", "gammas", "counts"):
                    assert np.array_equal(getattr(emp, name), getattr(stateless, name))
                fitted = fit(emp, *args, **kwargs)
                assert fitted == fit(stateless, *args, **kwargs)
                checked.append(len(est.cache))
                fits.append((kind, *(getattr(emp, k).tobytes()
                                     for k in ("lags", "gammas", "counts")), fitted))
                return fitted

            return wrapped

        # perfbench times the variogram layer by wrapping the estimator
        # module's ``empirical_semivariogram``: every refit must call it.
        real_emp = estimator_mod.empirical_semivariogram
        emp_calls: list[int] = []

        def counting_emp(*args, **kwargs):
            emp_calls.append(len(current["est"].cache))
            return real_emp(*args, **kwargs)

        monkeypatch.setattr(estimator_mod, "select_variogram", checking("full", select_variogram))
        monkeypatch.setattr(estimator_mod, "fit_variogram", checking("incumbent", fit_variogram))
        monkeypatch.setattr(estimator_mod, "empirical_semivariogram", counting_emp)
        est = current["est"] = KrigingEstimator(
            simulate,
            points.shape[1],
            distance=3.0,
            variogram="auto",
            min_fit_points=4,
            refit_interval=1,
        )
        half = len(points) // 2
        outcomes = est.evaluate_batch(points[:half])
        fits_before_restore = len(fits)
        if restore:
            est = current["est"] = KrigingEstimator.from_state(simulate, est.to_state())
        outcomes += est.evaluate_batch(points[half:])
        decisions = [(o.interpolated, o.value) for o in outcomes]
        assert emp_calls == checked and len(emp_calls) == est.stats.n_fits
        return est, decisions, checked, fits, fits_before_restore

    @pytest.mark.parametrize("name", ["fir", "iir", "fft"])
    def test_every_refit_matches_stateless_identification(
        self, name, monkeypatch, request
    ):
        setup = request.getfixturevalue(f"{name}_setup")
        est, decisions, checked, fits, split = self._replay(
            setup, monkeypatch, restore=False
        )
        assert len(checked) == est.stats.n_fits > 3
        kinds = [fit[0] for fit in fits]
        assert kinds[0] == "full"
        # fir's 22-point growth refits only at and right after schedule
        # points; the longer growths refit their incumbent after the restore.
        assert ("incumbent" in kinds[split:]) == (name != "fir")
        _, resumed, checked_resumed, fits_resumed, _ = self._replay(
            setup, monkeypatch, restore=True
        )
        # The restored estimator rebuilt its accumulator from the cache at
        # its first refit and went on refitting identically: every
        # empirical variogram, refit kind and fitted model bit for bit,
        # incumbent refits started from the restored model included.
        assert resumed == decisions
        assert checked_resumed == checked
        assert fits_resumed == fits

    def test_identification_counters_round_trip(self):
        est = KrigingEstimator(
            linear_metric, 2, distance=2.0, variogram="auto", min_fit_points=3,
            refit_interval=1,
        )
        rng = np.random.default_rng(8)
        est.evaluate_batch(np.unique(rng.integers(0, 6, size=(30, 2)), axis=0))
        stats = est.stats
        assert stats.n_fits >= 1
        assert stats.variogram_seconds > 0.0 and stats.fit_seconds > 0.0
        state = est.to_state()
        twin = KrigingEstimator.from_state(linear_metric, state)
        assert (twin.stats.n_fits, twin.stats.fit_seconds) == (
            stats.n_fits, stats.fit_seconds,
        )
        for key in ("n_fits", "variogram_seconds", "fit_seconds"):
            del state["stats"][key]
        old = KrigingEstimator.from_state(linear_metric, state)
        assert (old.stats.n_fits, old.stats.variogram_seconds, old.stats.fit_seconds) == (
            0, 0.0, 0.0,
        )
