"""Unit tests for repro.core.fitting (variogram identification)."""

import numpy as np
import pytest
import scipy.optimize

import repro.core.fitting as fitting
from repro.core.fitting import MODEL_KINDS, fit_variogram, select_variogram, warm_start
from repro.core.models import (
    ExponentialVariogram,
    GaussianVariogram,
    LinearVariogram,
    NuggetVariogram,
    PowerVariogram,
    SphericalVariogram,
)
from repro.core.variogram import EmpiricalVariogram, empirical_semivariogram


def synth_empirical(model, lags, counts=None):
    """Empirical variogram sampled exactly from a model."""
    lags = np.asarray(lags, dtype=float)
    counts = (
        np.full(lags.size, 10, dtype=np.int64)
        if counts is None
        else np.asarray(counts, dtype=np.int64)
    )
    return EmpiricalVariogram(
        lags=lags, gammas=np.asarray(model(lags), dtype=float), counts=counts
    )


class TestLinearFit:
    def test_recovers_slope(self):
        emp = synth_empirical(LinearVariogram(slope=2.5), np.arange(1, 8))
        fit = fit_variogram(emp, "linear")
        assert fit.kind == "linear"
        assert fit.model.slope == pytest.approx(2.5, rel=1e-6)
        assert fit.weighted_sse == pytest.approx(0.0, abs=1e-9)

    def test_weights_matter(self):
        # Two lags, heavily weighted first: slope pulled toward first ratio.
        emp = EmpiricalVariogram(
            lags=np.array([1.0, 2.0]),
            gammas=np.array([1.0, 10.0]),
            counts=np.array([1000, 1]),
        )
        fit = fit_variogram(emp, "linear")
        assert fit.model.slope == pytest.approx(1.0, rel=0.1)


class TestBoundedFits:
    @pytest.mark.parametrize(
        "cls,kind",
        [
            (SphericalVariogram, "spherical"),
            (ExponentialVariogram, "exponential"),
            (GaussianVariogram, "gaussian"),
        ],
    )
    def test_recovers_parameters(self, cls, kind):
        truth = cls(sill=3.0, range_=6.0)
        emp = synth_empirical(truth, np.arange(1, 13))
        fit = fit_variogram(emp, kind)
        assert fit.kind == kind
        h = np.linspace(0.5, 12, 30)
        np.testing.assert_allclose(
            np.asarray(fit.model(h)), np.asarray(truth(h)), rtol=0.05, atol=0.05
        )

    def test_too_few_lags_falls_back_to_linear(self):
        emp = synth_empirical(SphericalVariogram(sill=1.0, range_=4.0), [1.0, 2.0])
        fit = fit_variogram(emp, "spherical")
        assert fit.kind == "linear"


class TestPowerFit:
    def test_recovers_exponent(self):
        truth = PowerVariogram(scale=0.5, exponent=1.5)
        emp = synth_empirical(truth, np.arange(1, 10))
        fit = fit_variogram(emp, "power")
        assert fit.model.exponent == pytest.approx(1.5, abs=0.1)
        assert fit.model.scale == pytest.approx(0.5, rel=0.2)


class TestSelection:
    def test_selects_generating_family(self):
        truth = GaussianVariogram(sill=2.0, range_=5.0)
        emp = synth_empirical(truth, np.arange(1, 12))
        best = select_variogram(emp)
        h = np.linspace(0.5, 10, 20)
        np.testing.assert_allclose(
            np.asarray(best.model(h)), np.asarray(truth(h)), rtol=0.1, atol=0.05
        )

    def test_selection_never_worse_than_each_family(self):
        emp = synth_empirical(ExponentialVariogram(sill=1.0, range_=3.0), np.arange(1, 9))
        best = select_variogram(emp)
        for kind in MODEL_KINDS:
            assert best.weighted_sse <= fit_variogram(emp, kind).weighted_sse + 1e-12

    def test_empty_kinds_rejected(self):
        emp = synth_empirical(LinearVariogram(1.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-empty"):
            select_variogram(emp, kinds=())

    def test_unknown_kind_rejected(self):
        emp = synth_empirical(LinearVariogram(1.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="unknown variogram kind"):
            fit_variogram(emp, "fractal")


class TestRobustness:
    def test_constant_gamma_fit_does_not_crash(self):
        emp = EmpiricalVariogram(
            lags=np.array([1.0, 2.0, 3.0]),
            gammas=np.zeros(3),
            counts=np.array([3, 3, 3]),
        )
        for kind in MODEL_KINDS:
            fit = fit_variogram(emp, kind)
            assert np.isfinite(fit.weighted_sse)

    @pytest.mark.parametrize(
        "lags,gammas,counts",
        [
            ([1.0, 2.0, 3.0], [0.3, 0.1, 0.7], [4, 9, 2]),
            ([1.0, 2.0, 3.0, 5.0, 8.0], [2.5] * 5, [5] * 5),
            ([1.0, 2.0, 3.0, 5.0, 8.0], [0.0] * 5, [5] * 5),
            ([1.0, 2.0, 4.0, 8.0, 16.0], [0.2, 0.5, 0.9, 1.1, 1.0], [1, 10**6, 300, 10**3, 1]),
        ],
        ids=["three-lags", "constant", "all-zero", "counts-spread-1e6"],
    )
    def test_degenerate_layouts_give_valid_models(self, lags, gammas, counts):
        emp = EmpiricalVariogram(
            lags=np.array(lags), gammas=np.array(gammas), counts=np.array(counts)
        )
        for kind in MODEL_KINDS:
            fit = fit_variogram(emp, kind)
            assert fit.kind == kind
            assert np.isfinite(fit.weighted_sse)
            assert all(np.isfinite(v) for v in fit.model.to_state()["params"].values())
            assert np.all(np.isfinite(np.asarray(fit.model(emp.lags))))
        # A constant curve is a pure nugget: the bounded families fit it.
        if len(set(gammas)) == 1:
            assert select_variogram(emp).weighted_sse <= 1e-12 * max(gammas[0], 1.0) ** 2

    def test_fitted_callable(self):
        emp = synth_empirical(LinearVariogram(2.0), [1.0, 2.0, 3.0])
        fit = fit_variogram(emp, "linear")
        assert fit(2.0) == pytest.approx(4.0)


def _lattice_corpus() -> list[EmpiricalVariogram]:
    """Empirical variograms of seeded random fields on integer lattices.

    The quadratic trends drive the power family against its 1.999
    exponent bound and the bounded families towards their linear limit
    at very long ranges.
    """
    rng = np.random.default_rng(2020)
    corpus = []
    for trial in range(24):
        nv = 1 + trial % 4
        pts = rng.integers(0, 7, size=(int(rng.integers(8, 48)), nv)).astype(float)
        trend = pts.sum(axis=1) ** (1 + trial % 3)
        vals = trend * rng.uniform(0.1, 2.0) + rng.normal(scale=0.5, size=len(pts))
        emp = empirical_semivariogram(pts, vals)
        if emp.n_lags >= 3:
            corpus.append(emp)
    return corpus


def _trajectory_corpus(setup) -> list[EmpiricalVariogram]:
    """The empirical variograms a replay of ``setup`` refits from."""
    trace = setup.record_trajectory().unique_first_visits()
    points, values = trace.configurations, trace.values
    return [
        empirical_semivariogram(points[:n], values[:n])
        for n in range(4, len(values) + 1, 3)
    ]


_NONLINEAR = ("spherical", "exponential", "gaussian", "power")


def _trust_region_fit(emp: EmpiricalVariogram, kind: str):
    """Model and weighted SSE of a fit by scipy's trust-region ``least_squares``.

    The reference the profiled fits replaced: all parameters at once,
    ``jac="2-point"``, from the same starting points and bounds.
    """
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(float)
    if kind == "power":

        def model_of(p):
            exponent = float(np.clip(p[1], 1e-3, 1.999))
            return PowerVariogram(scale=max(p[0], 1e-12), exponent=exponent)

        x0 = [max(float(np.max(g)) / max(float(np.max(h)), 1.0), 1e-12), 1.0]
        bounds = ([1e-12, 1e-3], [np.inf, 1.999])
    else:
        cls = {
            "spherical": SphericalVariogram,
            "exponential": ExponentialVariogram,
            "gaussian": GaussianVariogram,
        }[kind]

        def model_of(p):
            return cls(sill=max(p[0], 1e-12), range_=max(p[1], 1e-9), nugget_=max(p[2], 0.0))

        sill0 = max(float(np.max(g)), 1e-12)
        x0 = [sill0, max(float(h[np.argmax(g >= 0.95 * sill0)]), float(h[0])), 0.0]
        bounds = ([1e-12, 1e-9, 0.0], [np.inf] * 3)
    result = scipy.optimize.least_squares(
        lambda p: np.sqrt(w) * (np.asarray(model_of(p)(h)) - g),
        x0=x0,
        jac="2-point",
        bounds=bounds,
        max_nfev=200,
    )
    model = model_of(result.x)
    return model, float(np.sum(w * (np.asarray(model(h)) - g) ** 2))


def _deep_basin_curve() -> EmpiricalVariogram:
    """A recorded in-loop HEVC curve whose best spherical fit (range ~53)
    is a narrow basin between the kinks at its lags, deeper than the long
    tail towards the linear limit."""
    lags = [1.0, 3.0] + [float(v) for v in range(4, 21)] + [22.0]
    lags += [float(v) for v in range(71, 82)]
    gammas = [
        10.301833736091076, 81.1146129437996, 115.65617775111082, 140.0111072157981,
        17.808603856140905, 76.28698787139312, 122.69763701101391, 165.41756474761775,
        172.35492704025657, 199.22789971839887, 225.36392012994037, 250.7961787598545,
        292.2612116747214, 205.59062988597395, 100.43877317476166, 63.65068923411348,
        129.89392055636947, 83.83592952019774, 7.254879669991217, 0.8227709024798098,
        4.188747522710061, 107.49592115157328, 200.9520720708512, 157.99292096143913,
        102.6415702701565, 474.80306581709937, 564.5146344807596, 612.5483095502486,
        720.9136972685244, 727.8343463954374, 734.5065194469391,
    ]
    counts = [20, 23, 41, 18, 36, 94, 75, 17, 64, 141, 93, 16, 60, 93, 40, 7]
    counts += [28, 28, 4, 6, 4, 9, 13, 11, 5, 12, 19, 9, 1, 2, 1]
    return EmpiricalVariogram(
        lags=np.array(lags), gammas=np.array(gammas), counts=np.array(counts)
    )


class TestOptimality:
    """Profiled fits are never worse than the trust-region reference.

    The range search stops at 1e5 x the largest lag.  Where the reference
    ran past that (a convex curve, fitted best by the model's linear limit
    at range -> inf), the profiled fit must sit at the cap, within
    O(lag / range) of the reference.
    """

    CAP = 1e5

    def _check(self, corpus):
        better = capped = 0
        for emp in corpus:
            for kind in _NONLINEAR:
                fit = fit_variogram(emp, kind)
                model, reference = _trust_region_fit(emp, kind)
                sse = fit.weighted_sse
                if getattr(model, "range_", 0.0) > self.CAP * emp.lags[-1]:
                    capped += 1
                    assert fit.model.range_ == pytest.approx(self.CAP * emp.lags[-1])
                    assert sse <= reference * (1 + 1e-4), (kind, sse, reference)
                else:
                    assert sse <= reference * (1 + 1e-9), (kind, emp.n_lags, sse, reference)
                better += sse < reference * (1 - 1e-9)
        return better, capped

    def test_lattice_fits_no_worse_than_trust_region(self):
        better, capped = self._check(_lattice_corpus())
        assert better > 0 and capped > 0

    def test_recorded_fir_fits_no_worse_than_trust_region(self, fir_setup):
        self._check(_trajectory_corpus(fir_setup))

    def test_deep_basin_between_kinks_survives_a_coarse_grid(self, monkeypatch):
        # On a coarse grid the deep basin's grid point is not the grid's
        # best: it is found only because several grid minima are zoomed.
        emp = _deep_basin_curve()
        _, reference = _trust_region_fit(emp, "spherical")
        monkeypatch.setattr(fitting, "_GRID", 24)
        fit = fit_variogram(emp, "spherical")
        assert fit.weighted_sse <= reference * (1 + 1e-9)
        assert 40.0 < fit.model.range_ < 70.0

    def test_decreasing_curve_fits_its_weighted_mean(self):
        # No positive sill helps a curve that falls with the lag: the best
        # bounded fit is flat at the weighted mean (the sill floor with the
        # mean as nugget, or a range below the smallest lag).
        counts = np.array([5, 3, 8, 2, 6])
        gammas = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        emp = EmpiricalVariogram(lags=np.arange(1.0, 6.0), gammas=gammas, counts=counts)
        mean = float(np.sum(counts * gammas)) / counts.sum()
        for kind in ("spherical", "exponential", "gaussian"):
            fit = fit_variogram(emp, kind)
            np.testing.assert_allclose(np.asarray(fit.model(emp.lags)), mean, rtol=1e-9)
            assert fit.weighted_sse == pytest.approx(
                float(np.sum(counts * (gammas - mean) ** 2)), rel=1e-9
            )

    def test_linear_variogram_reaches_exponential_limit(self):
        # As range -> inf with 3 sill / range fixed, the exponential model
        # tends to nugget + slope * h, which fits these gammas exactly.  The
        # search stops at 1e5 x the largest lag, leaving O(h / range) of
        # curvature.
        h = np.arange(1.0, 13.0)
        counts = np.arange(12, 0, -1) * 5
        limit = 0.4 + 1.7 * h
        emp = EmpiricalVariogram(lags=h, gammas=limit, counts=counts)
        fit = fit_variogram(emp, "exponential")
        assert fit.model.range_ >= 1e4 * h[-1]
        assert fit.weighted_sse <= 1e-9 * float(np.sum(counts * limit**2))
        np.testing.assert_allclose(np.asarray(fit.model(h)), limit, rtol=1e-4)
        assert 3.0 * fit.model.sill / fit.model.range_ == pytest.approx(1.7, rel=1e-4)
        assert fit.model.nugget == pytest.approx(0.4, rel=1e-3)


class TestFallback:
    """Inputs a fit cannot use are refused, not fitted."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_non_finite_gamma_is_rejected(self, kind):
        emp = EmpiricalVariogram(
            lags=np.array([1.0, 2.0, 3.0, 4.0]),
            gammas=np.array([0.5, np.inf, 1.0, np.nan]),
            counts=np.array([3, 3, 3, 3]),
        )
        with pytest.raises(ValueError, match=r"not finite at lags \[2.0, 4.0\]"):
            fit_variogram(emp, kind)
        with pytest.raises(ValueError, match="not finite"):
            select_variogram(emp)


class TestWarmStart:
    """Incumbent refits: the search zooms one bracket around a start."""

    def test_refit_from_the_optimum_is_never_worse(self, fir_setup):
        for emp in _lattice_corpus() + _trajectory_corpus(fir_setup):
            for kind in _NONLINEAR:
                cold = fit_variogram(emp, kind)
                family, start = warm_start(cold.model)
                warm = fit_variogram(emp, family, start=start)
                assert family == warm.kind == kind
                # The bracket's centre is the start, so the zoom can only
                # improve on it; exp/log round trips leave rounding slack.
                assert warm.weighted_sse <= cold.weighted_sse * (1 + 1e-12), kind

    def test_refit_skips_the_grid(self):
        # Started on the tail, the search never sees the deeper basin the
        # full search finds at range ~53: an incumbent refit is local.
        emp = _deep_basin_curve()
        cold = fit_variogram(emp, "spherical")
        assert 40.0 < cold.model.range_ < 70.0
        warm = fit_variogram(emp, "spherical", start=float(np.log(1e5)))
        assert warm.model.range_ > 1e3
        assert warm.weighted_sse > cold.weighted_sse

    @pytest.mark.parametrize("kind", _NONLINEAR)
    def test_start_outside_the_grid_is_clipped(self, kind):
        emp = _lattice_corpus()[0]
        h = emp.lags
        if kind == "power":
            lo, hi = fitting._EXPONENT_SPAN
        else:
            lo, _, hi = np.log(np.array([h[0], h[-1], h[-1]]) * fitting._RANGE_SPAN)
        for outside, edge in ((lo - 50.0, lo), (hi + 50.0, hi)):
            fit = fit_variogram(emp, kind, start=outside)
            assert fit == fit_variogram(emp, kind, start=edge)
            family, x = warm_start(fit.model)
            assert family == kind
            assert lo - 1e-9 <= x <= hi + 1e-9

    def test_only_nonlinear_models_have_a_start(self):
        assert warm_start(PowerVariogram(scale=2.0, exponent=1.5)) == ("power", 1.5)
        spherical = SphericalVariogram(sill=1.0, range_=4.0)
        assert warm_start(spherical) == ("spherical", float(np.log(4.0)))
        for model in (LinearVariogram(2.0), NuggetVariogram(1.0), None, np.sqrt):
            assert warm_start(model) is None

    def test_linear_fit_ignores_the_start(self):
        emp = synth_empirical(LinearVariogram(3.0), [1.0, 2.0, 3.0, 4.0])
        assert fit_variogram(emp, "linear", start=2.5) == fit_variogram(emp, "linear")
