"""Unit tests for repro.core.fitting (variogram identification)."""

import numpy as np
import pytest
import scipy.optimize

import repro.core.fitting as fitting
from repro.core.fitting import MODEL_KINDS, fit_variogram, select_variogram
from repro.core.models import (
    ExponentialVariogram,
    GaussianVariogram,
    LinearVariogram,
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
        from repro.core.models import PowerVariogram

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

    def test_fitted_callable(self):
        emp = synth_empirical(LinearVariogram(2.0), [1.0, 2.0, 3.0])
        fit = fit_variogram(emp, "linear")
        assert fit(2.0) == pytest.approx(4.0)


def _lattice_corpus() -> list[EmpiricalVariogram]:
    """Empirical variograms of seeded random fields on integer lattices.

    The quadratic trends drive the power family against its 1.999
    exponent bound, where the finite-difference step must flip sign.
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


class _ReferenceOptimize:
    """Stands in for ``scipy.optimize`` inside :mod:`repro.core.fitting`.

    Every fit runs twice: once with scipy's own ``jac="2-point"`` (the
    reference) and once with the Jacobian the module supplies, recording
    both results and the layout of every Jacobian it returned.
    """

    def __init__(self) -> None:
        self.fits: list[tuple] = []

    def least_squares(self, fun, *, x0, jac, bounds, max_nfev):
        reference = scipy.optimize.least_squares(
            fun, x0=x0, jac="2-point", bounds=bounds, max_nfev=max_nfev
        )
        points, layouts = [], []

        def recorded(x):
            matrix = jac(x)
            points.append(x.copy())
            layouts.append(matrix.flags.f_contiguous)
            return matrix

        result = scipy.optimize.least_squares(
            fun, x0=x0, jac=recorded, bounds=bounds, max_nfev=max_nfev
        )
        self.fits.append((reference, result, points, layouts, bounds))
        return result


class TestExactJacobian:
    """The callable Jacobian reproduces scipy's ``'2-point'`` fits bitwise."""

    NONLINEAR = ("spherical", "exponential", "gaussian", "power")

    def _check(self, monkeypatch, corpus):
        proxy = _ReferenceOptimize()
        monkeypatch.setattr(fitting, "optimize", proxy)
        for emp in corpus:
            for kind in self.NONLINEAR:
                fit_variogram(emp, kind)
        assert len(proxy.fits) == len(corpus) * len(self.NONLINEAR)
        for reference, result, _, layouts, _ in proxy.fits:
            assert np.array_equal(result.x, reference.x)
            assert result.cost == reference.cost
            assert result.nfev == reference.nfev
            assert all(layouts)
        return proxy

    def test_lattice_fits_match_scipy_bitwise(self, monkeypatch):
        proxy = self._check(monkeypatch, _lattice_corpus())
        # Some power fit ends on the exponent bound (trf stays strictly
        # inside it), and its Jacobian was taken where the forward step
        # had to flip.
        power = [fit for fit in proxy.fits if fit[4][1][1] == 1.999]
        assert any(1.999 - result.x[1] < 1e-9 for _, result, _, _, _ in power)
        assert any(
            x[1] + fitting._FD_REL_STEP * max(1.0, abs(x[1])) > 1.999
            for _, _, points, _, _ in power
            for x in points
        )

    def test_recorded_fir_fits_match_scipy_bitwise(self, monkeypatch, fir_setup):
        self._check(monkeypatch, _trajectory_corpus(fir_setup))


class _FailingOptimize:
    def __init__(self, error: type[Exception]) -> None:
        self.error = error

    def least_squares(self, *args, **kwargs):
        raise self.error("forced")


class TestFallback:
    EMP = synth_empirical(SphericalVariogram(sill=2.0, range_=5.0), np.arange(1, 9))

    @pytest.mark.parametrize("kind", ["spherical", "exponential", "gaussian", "power"])
    def test_optimizer_value_error_falls_back_to_linear(self, monkeypatch, kind):
        monkeypatch.setattr(fitting, "optimize", _FailingOptimize(ValueError))
        fit = fit_variogram(self.EMP, kind)
        assert fit.kind == "linear"
        assert fit == fit_variogram(self.EMP, "linear")

    @pytest.mark.parametrize("kind", ["spherical", "power"])
    def test_other_errors_propagate(self, monkeypatch, kind):
        monkeypatch.setattr(fitting, "optimize", _FailingOptimize(TypeError))
        with pytest.raises(TypeError, match="forced"):
            fit_variogram(self.EMP, kind)

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
