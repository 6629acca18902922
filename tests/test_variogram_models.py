"""Unit tests for repro.core.models (parametric variogram families)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.models import (
    ExponentialVariogram,
    GaussianVariogram,
    LinearVariogram,
    NuggetVariogram,
    PowerVariogram,
    SphericalVariogram,
)

ALL_MODELS = [
    LinearVariogram(slope=0.5),
    SphericalVariogram(sill=2.0, range_=5.0),
    ExponentialVariogram(sill=2.0, range_=5.0),
    GaussianVariogram(sill=2.0, range_=5.0),
    PowerVariogram(scale=0.3, exponent=1.5),
    NuggetVariogram(nugget_=1.0),
]

lags = st.floats(min_value=0.0, max_value=100.0)


class TestCommonProperties:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_zero_at_origin(self, model):
        assert model(0.0) == 0.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_nonnegative(self, model):
        h = np.linspace(0, 50, 101)
        assert np.all(np.asarray(model(h)) >= 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_monotone_nondecreasing(self, model):
        h = np.linspace(0, 50, 101)
        assert np.all(np.diff(np.asarray(model(h))) >= -1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_scalar_and_vector_agree(self, model):
        assert model(3.0) == pytest.approx(float(np.asarray(model(np.array([3.0])))[0]))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_negative_lag_rejected(self, model):
        with pytest.raises(ValueError, match="non-negative"):
            model(-1.0)


class TestBoundedModels:
    def test_spherical_reaches_sill_at_range(self):
        m = SphericalVariogram(sill=2.0, range_=5.0)
        assert m(5.0) == pytest.approx(2.0)
        assert m(50.0) == pytest.approx(2.0)

    def test_exponential_practical_range(self):
        m = ExponentialVariogram(sill=2.0, range_=5.0)
        assert m(5.0) == pytest.approx(2.0 * (1 - np.exp(-3.0)))

    def test_gaussian_smooth_origin(self):
        # Gaussian model is ~quadratic near the origin: gamma(h)/h -> 0.
        m = GaussianVariogram(sill=1.0, range_=10.0)
        assert m(0.01) / 0.01 < 0.01

    @pytest.mark.parametrize("h", [1.0, 7.0, 250.0])
    def test_long_range_keeps_full_precision(self, h):
        # At range_ = 1e6 h, ``1 - exp(-x)`` loses 5e-12 (exponential) and
        # 1.5e-5 (gaussian) relative to cancellation.  Compare with the
        # series of 1 - e^-x: its first-order term 3 sill h / range
        # (3 sill h^2 / range^2) plus the x^2 and x^3 terms, which are
        # still above 1e-12 relative here.
        sill, range_ = 2.5, 1e6 * h
        for cls, x in (
            (ExponentialVariogram, 3.0 * h / range_),
            (GaussianVariogram, 3.0 * h**2 / range_**2),
        ):
            expected = sill * (x - x**2 / 2 + x**3 / 6)
            got = cls(sill=sill, range_=range_)(h)
            assert abs(got - expected) <= 1e-12 * expected, cls.__name__

    def test_nugget_included(self):
        m = SphericalVariogram(sill=1.0, range_=5.0, nugget_=0.5)
        assert m(0.0) == 0.0  # gamma(0) = 0 by definition
        assert m(1e-9) >= 0.5  # discontinuity at 0+
        assert m.nugget == 0.5


class TestParameterValidation:
    def test_linear_slope_positive(self):
        with pytest.raises(ValueError):
            LinearVariogram(slope=0.0)

    @pytest.mark.parametrize(
        "cls", [SphericalVariogram, ExponentialVariogram, GaussianVariogram]
    )
    def test_bounded_params_positive(self, cls):
        with pytest.raises(ValueError):
            cls(sill=0.0, range_=1.0)
        with pytest.raises(ValueError):
            cls(sill=1.0, range_=0.0)
        with pytest.raises(ValueError):
            cls(sill=1.0, range_=1.0, nugget_=-0.1)

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            PowerVariogram(scale=1.0, exponent=2.0)
        with pytest.raises(ValueError):
            PowerVariogram(scale=1.0, exponent=0.0)

    def test_nugget_positive(self):
        with pytest.raises(ValueError):
            NuggetVariogram(nugget_=0.0)


class TestShapes:
    @given(lags)
    def test_linear_is_linear(self, h):
        m = LinearVariogram(slope=2.0)
        assert m(h) == pytest.approx(2.0 * h)

    @given(st.floats(min_value=0.1, max_value=30.0))
    def test_power_quadraticish_dominates_linear_far(self, h):
        quad = PowerVariogram(scale=1.0, exponent=1.9)
        assert quad(h) == pytest.approx(h**1.9)
