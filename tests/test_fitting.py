"""Unit tests for repro.core.fitting (variogram identification)."""

import numpy as np
import pytest
import scipy.optimize

import repro.core.fitting as fitting
from repro.core.fitting import (
    AUTO_KINDS,
    MODEL_KINDS,
    fit_variogram,
    select_variogram,
    warm_start,
)
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
        # best: it is found only because several grid minima are refined.
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
    """Incumbent refits: the search walks from a narrow bracket around a start."""

    def test_refit_from_the_optimum_is_never_worse(self, fir_setup):
        for emp in _lattice_corpus() + _trajectory_corpus(fir_setup):
            for kind in _NONLINEAR:
                cold = fit_variogram(emp, kind)
                family, start = warm_start(cold.model)
                warm = fit_variogram(emp, family, start=start)
                assert family == warm.kind == kind
                # The model at the start is kept unless the search beats it;
                # exp/log round trips leave rounding slack.
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


def _zoom_search(profile, grid, start=None):
    """The grid-and-zoom search that Brent's search replaced, kept as an oracle.

    The grid's (or the start's) brackets are 17-point sub-grids, zoomed in
    one array operation per round until they are 1e-7 wide.  A start's
    bracket is as wide as the widest grid step.
    """
    basins, zoom, xtol = 4, 17, 1e-7

    def sse(x):
        x = np.asarray(x, dtype=float)
        return np.array([found[0] for found in profile(x.ravel())]).reshape(x.shape)

    if start is None:
        values = sse(grid)
        padded = np.concatenate(([np.inf], values, [np.inf]))
        minima = np.flatnonzero((values <= padded[:-2]) & (values <= padded[2:]))
        centres = grid[minima[np.argsort(values[minima], kind="stable")[:basins]]]
    else:
        centres = np.clip([float(start)], grid[0], grid[-1])
    step = np.diff(grid).max()
    offsets = np.linspace(-1.0, 1.0, zoom)
    rows = np.arange(centres.size)
    while step > xtol:
        points = np.clip(centres[:, None] + step * offsets, grid[0], grid[-1])
        values = sse(points)
        best = np.argmin(values, axis=1)
        centres, found = points[rows, best], values[rows, best]
        step *= 2.0 / (zoom - 1)
    return float(centres[np.argmin(found)])


def _grid_span(emp, kind):
    """Ends and widest step of a family's grid (the zoom oracle's start
    bracket is one widest step either side of the clipped start)."""
    if kind == "power":
        lo, hi = fitting._EXPONENT_SPAN
        return lo, hi, (hi - lo) / (fitting._GRID - 1)
    lo, mid, hi = np.log(np.array([emp.lags[0], emp.lags[-1], emp.lags[-1]]) * fitting._RANGE_SPAN)
    return lo, hi, max((mid - lo) / (fitting._GRID - 1), (hi - mid) / fitting._TAIL)


def _coordinate(model):
    return warm_start(model)[1]


def _basis(kind, h):
    if kind == "power":
        return lambda x: h**x
    return lambda x: fitting._BOUNDED_FAMILIES[kind].shape(h / np.exp(x))


def _residual_profile(emp, f, free_nugget):
    """(SSE, nugget, sill) of the best bounded ``nugget + sill * f`` per row
    of ``f``, from explicit residuals: the profile before the moment form."""
    g, w = emp.gammas, emp.counts.astype(float)
    total = w.sum()
    g_mean = float(w @ g) / total
    f_mean = (f @ w) / total
    centred = f - f_mean[:, None]
    s_ff = (centred * centred) @ w
    edge_sill = np.maximum((f @ (w * g)) / (s_ff + total * f_mean**2), fitting._FLOOR)
    if not free_nugget:
        return np.square(edge_sill[:, None] * f - g) @ w, 0.0 * edge_sill, edge_sill
    with np.errstate(divide="ignore", invalid="ignore"):
        sill = (centred @ (w * (g - g_mean))) / s_ff
    nugget = g_mean - sill * f_mean
    interior = (sill >= fitting._FLOOR) & (nugget >= 0)  # False where s_ff = 0
    edge_nugget = np.maximum(g_mean - fitting._FLOOR * f_mean, 0.0)
    nuggets = np.stack((np.where(interior, nugget, 0.0), edge_nugget))
    sills = np.stack((np.where(interior, sill, edge_sill), np.full_like(sill, fitting._FLOOR)))
    sse = np.square(nuggets[..., None] + sills[..., None] * f - g) @ w
    pick = (np.argmin(sse, axis=0), np.arange(f.shape[0]))
    return sse[pick], nuggets[pick], sills[pick]


def _walk_curve():
    """A rippled spherical curve (range 40) whose warm start, range 2, sits
    more than three zoom brackets below its optimum, in the same basin."""
    lags = np.arange(1.0, 31.0)
    truth = SphericalVariogram(sill=3.0, range_=40.0, nugget_=0.5)
    gammas = np.asarray(truth(lags)) * (1.0 + 0.05 * np.sin(1.7 * lags))
    return EmpiricalVariogram(lags=lags, gammas=gammas, counts=np.arange(30, 0, -1) * 3)


@pytest.fixture
def count_evaluations(monkeypatch):
    """Counts every point a profile is evaluated at (``counts[-1]``)."""
    counts = [0]
    real = fitting._profile

    def counting(*args, **kwargs):
        profile = real(*args, **kwargs)

        def counted(x):
            counts[-1] += np.size(x)
            return profile(x)

        return counted

    monkeypatch.setattr(fitting, "_profile", counting)
    return counts


class TestBrentSearch:
    """Brent's search against the grid-and-zoom search it replaced."""

    def _zoom_fit(self, monkeypatch, emp, kind, start=None):
        with monkeypatch.context() as patched:
            patched.setattr(fitting, "_search", _zoom_search)
            return fit_variogram(emp, kind, start=start)

    def test_no_worse_than_the_zoom_search(self, fir_setup, monkeypatch):
        # Warm starts are the previous curve's cold optimum, as when an
        # optimum moves between refits.  A warm fit may leave the oracle's
        # bracket (the widest grid step around the clipped start, which its
        # zoom rounds overreach by a seventh) only to do strictly better.
        left = 0
        for corpus in (_lattice_corpus(), _trajectory_corpus(fir_setup)):
            for kind in _NONLINEAR:
                previous = None
                for emp in corpus:
                    cold = fit_variogram(emp, kind)
                    oracle = self._zoom_fit(monkeypatch, emp, kind)
                    assert cold.weighted_sse <= oracle.weighted_sse * (1 + 1e-9), kind
                    if previous is not None:
                        start = _coordinate(previous.model)
                        warm = fit_variogram(emp, kind, start=start)
                        oracle = self._zoom_fit(monkeypatch, emp, kind, start)
                        lo, hi, step = _grid_span(emp, kind)
                        # zoom rounds reach 1 + 1/8 + 1/64 + ... = 8/7 steps out
                        if abs(_coordinate(warm.model) - np.clip(start, lo, hi)) > step * 8 / 7:
                            left += 1
                            assert warm.weighted_sse < oracle.weighted_sse, kind
                        else:
                            assert warm.weighted_sse <= oracle.weighted_sse * (1 + 1e-9), kind
                    previous = cold
        assert left > 0

    def test_moment_form_matches_residual_form(self):
        rng = np.random.default_rng(24)
        cases = {"interior": 0, "no nugget": 0, "sill floor": 0}
        for trial in range(60):
            size = int(rng.integers(3, 40))
            lags = np.sort(rng.choice(np.arange(1.0, 60.0), size=size, replace=False))
            shape = trial % 3
            if shape == 0:
                gammas = rng.uniform(0.0, 5.0, lags.size)
            elif shape == 1:  # falling: only the sill floor fits
                gammas = 5.0 - 0.05 * lags + rng.uniform(0.0, 0.2, lags.size)
            else:  # convex through the origin: the nugget is clamped to 0
                gammas = 0.01 * lags**2 * rng.uniform(0.9, 1.1, lags.size)
            counts = rng.integers(1, 500, lags.size)
            emp = EmpiricalVariogram(lags=lags, gammas=gammas, counts=counts)
            total = float(emp.counts.sum())
            g_mean = float(emp.counts @ gammas) / total
            scale = float(emp.counts @ (gammas - g_mean) ** 2)
            for kind in _NONLINEAR:
                if kind == "power":
                    x = np.array([1e-3, 1e-2, 0.5, 1.0, 1.999])  # f nearly constant at 1e-3
                else:
                    # far below the smallest lag f is (nearly) constant; far
                    # above the largest it is O(h / range)
                    x = np.log(np.array([1e-3, 0.3, 1.0, 5.0, 1e5]) * lags[[0, 0, -1, -1, -1]])
                x = np.concatenate((x, rng.uniform(x[0], x[-1], 5)))
                free = kind != "power"
                found = fitting._profile(emp, _basis(kind, lags), free_nugget=free)(x)
                f = _basis(kind, lags)(x[:, None])
                sse, nugget, sill = np.array(found).T
                reference, ref_nugget, ref_sill = _residual_profile(emp, f, free)
                np.testing.assert_allclose(sse, reference, rtol=0, atol=1e-12 * scale)
                # the returned parameters have the SSE claimed for them
                claimed = np.square(nugget[:, None] + sill[:, None] * f - gammas) @ emp.counts
                np.testing.assert_allclose(sse, claimed, rtol=0, atol=1e-12 * scale)
                if free:
                    above = ref_sill > fitting._FLOOR
                    cases["sill floor"] += int(np.sum(~above))
                    cases["no nugget"] += int(np.sum((ref_nugget == 0) & above))
                    cases["interior"] += int(np.sum((ref_nugget > 0) & above))
        assert min(cases.values()) > 20, cases

    def test_refit_follows_an_optimum_out_of_its_bracket(self, monkeypatch, count_evaluations):
        emp = _walk_curve()
        cold = fit_variogram(emp, "spherical")
        assert 35.0 < cold.model.range_ < 45.0
        start = float(np.log(2.0))
        assert np.log(cold.model.range_) - start > 3 * _grid_span(emp, "spherical")[2]
        count_evaluations.append(0)
        warm = fit_variogram(emp, "spherical", start=start)
        assert warm.weighted_sse <= cold.weighted_sse * (1 + 1e-9)
        # The walk doubles its step: log2(distance / first step) steps.
        assert count_evaluations[-1] <= 40
        # The zoom's one bracket stops at its edge, far from the optimum.
        oracle = self._zoom_fit(monkeypatch, emp, "spherical", start)
        assert oracle.weighted_sse > 10 * cold.weighted_sse

    def test_refit_is_never_worse_than_its_start_where_rounding_dominates(self):
        # A curve fitted to ~1e-16 of its spread: the moment form's rounding
        # (eps * spread) is larger than the SSE, so the search cannot rank
        # points near the optimum, and only the exact SSE keeps the start.
        lags = np.arange(1.0, 31.0)
        truth = SphericalVariogram(sill=3.0, range_=40.0, nugget_=0.5)
        gammas = np.asarray(truth(lags)) * (1.0 + 1e-9 * np.sin(1.7 * lags))
        emp = EmpiricalVariogram(lags=lags, gammas=gammas, counts=np.arange(30, 0, -1) * 3)
        for kind in ("spherical", "gaussian"):
            for start in np.log([40.0, 39.0, 41.0, 45.0]):
                kept = fit_variogram(emp, kind, start=start)
                with_start = fitting._profile(emp, _basis(kind, lags), free_nugget=True)([start])
                model = fitting._BOUNDED_FAMILIES[kind](
                    sill=with_start[0][2], range_=float(np.exp(start)), nugget_=with_start[0][1]
                )
                assert kept.weighted_sse <= fitting._weighted_sse(model, emp)

    @pytest.mark.parametrize(
        "sse,a,x,b,optimum",
        [
            (lambda x: (x - 0.3) ** 2 + 0.5 * (x - 0.3) ** 4, 0.0, 0.5, 1.0, 0.3),
            (lambda x: np.exp(x) - 2.0 * x, 0.0, 0.2, 3.0, np.log(2.0)),
            (lambda x: abs(x - 1.1) ** 1.5 + 0.1 * x, 0.0, 0.4, 2.0, 1.1 - (0.1 / 1.5) ** 2),
            (lambda x: np.cosh(4.0 * (x + 2.0)), -5.0, -1.0, 4.0, -2.0),
        ],
        ids=["quartic", "exp", "cusp", "cosh"],
    )
    def test_brent_reaches_the_minimum_within_xtol(self, sse, a, x, b, optimum):
        found, value = fitting._brent(sse, a, x, b, sse(a), sse(x), sse(b))
        assert abs(found - optimum) <= fitting._XTOL
        assert value == sse(found)

    def test_fit_of_an_exact_curve_recovers_its_range(self):
        lags = np.arange(1.0, 31.0)
        for cls in (SphericalVariogram, GaussianVariogram):
            emp = synth_empirical(cls(sill=3.0, range_=17.0, nugget_=0.5), lags)
            kind = cls.__name__.removesuffix("Variogram").lower()
            for start in (None, float(np.log(2.0)), float(np.log(17.3))):
                fit = fit_variogram(emp, kind, start=start)
                assert abs(np.log(fit.model.range_) - np.log(17.0)) <= 1e-6, (kind, start)

    def test_profile_evaluation_budget(self, fir_setup, count_evaluations, monkeypatch):
        # Points a profile is evaluated at per refit over the recorded fir
        # growth, incumbent refits chained from the previous fit as in the
        # estimator.  Brent's search: 18 per incumbent refit and 194 per
        # reselection over AUTO_KINDS (three grids of 48-60 points, a few
        # Brent steps per basin, and the returned models).  The zoom search
        # made 138 (8 rounds of 17 points and the returned model) and 1,378.
        def budget(search):
            with monkeypatch.context() as patched:
                patched.setattr(fitting, "_search", search)
                incumbent, full, fit = [], [], None
                for emp in _trajectory_corpus(fir_setup):
                    count_evaluations.append(0)
                    selected = select_variogram(emp, AUTO_KINDS)
                    full.append(count_evaluations[-1])
                    if fit is not None and selected.kind != "linear":
                        count_evaluations.append(0)
                        fit = fit_variogram(emp, fit.kind, start=_coordinate(fit.model))
                        incumbent.append(count_evaluations[-1])
                    if fit is None or fit.kind == "linear":
                        fit = selected
            return np.mean(incumbent), np.mean(full)

        incumbent, full = budget(fitting._search)
        zoom_incumbent, zoom_full = budget(_zoom_search)
        assert incumbent <= 30 and full <= 300, (incumbent, full)
        assert zoom_incumbent > 100 and zoom_full > 1000, (zoom_incumbent, zoom_full)
