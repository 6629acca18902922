"""Unit tests for repro.fixedpoint.quantize."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import Overflow, Rounding, quantize

FMT = QFormat(integer_bits=0, frac_bits=3)  # step 0.125, range [-1, 0.875]


class TestRounding:
    def test_nearest_rounds_to_closest(self):
        assert quantize(0.30, FMT) == pytest.approx(0.250)
        assert quantize(0.32, FMT) == pytest.approx(0.375)

    def test_nearest_ties_away_from_zero(self):
        fmt = QFormat(0, 1)  # step 0.5
        assert quantize(0.25, fmt, rounding=Rounding.NEAREST) == pytest.approx(0.5)
        assert quantize(-0.25, fmt, rounding=Rounding.NEAREST) == pytest.approx(-0.5)

    def test_truncate_rounds_down(self):
        assert quantize(0.37, FMT, rounding=Rounding.TRUNCATE) == pytest.approx(0.250)
        assert quantize(-0.37, FMT, rounding=Rounding.TRUNCATE) == pytest.approx(-0.375)

    def test_convergent_ties_to_even(self):
        fmt = QFormat(0, 1)  # step 0.5; codes ..., -1, -0.5, 0, 0.5, ...
        assert quantize(0.25, fmt, rounding=Rounding.CONVERGENT) == pytest.approx(0.0)
        assert quantize(0.75, fmt, rounding=Rounding.CONVERGENT) == pytest.approx(1.0 - 0.5)

    def test_exact_values_unchanged(self):
        values = np.array([-1.0, -0.125, 0.0, 0.5, 0.875])
        for mode in Rounding:
            np.testing.assert_allclose(quantize(values, FMT, rounding=mode), values)


class TestOverflow:
    def test_saturate_clamps_high(self):
        assert quantize(3.0, FMT) == pytest.approx(FMT.max_value)

    def test_saturate_clamps_low(self):
        assert quantize(-3.0, FMT) == pytest.approx(FMT.min_value)

    def test_wrap_wraps(self):
        # 1.0 is one step above max (0.875): wraps to min.
        assert quantize(1.0, FMT, overflow=Overflow.WRAP) == pytest.approx(-1.0)

    def test_wrap_identity_in_range(self):
        values = np.linspace(-1.0, 0.875, 16)
        np.testing.assert_allclose(
            quantize(values, FMT, overflow=Overflow.WRAP), values
        )

    @pytest.mark.parametrize("rounding", list(Rounding))
    def test_wrap_code_beyond_float64(self, rounding):
        # 1e300 / 2**-30 overflows float64; the wrapped code does not.  No
        # warning may escape: RuntimeWarnings are errors in this suite.
        fmt = QFormat(0, 30)
        out = quantize(np.array([1e300, -1e300]), fmt, rounding=rounding,
                       overflow=Overflow.WRAP)
        # 2**24 + 33 is 33 modulo the wrap period 2**6 of Q5.1000.
        wide = quantize(np.array([2.0**24 + 33, -(2.0**24 + 1)]), QFormat(5, 1000),
                        rounding=rounding, overflow=Overflow.WRAP)
        saturated = quantize(np.array([1e300, -1e300]), fmt)
        assert out.tolist() == [0.0, 0.0]
        assert wide.tolist() == [33.0 - 64.0, -1.0]
        assert saturated.tolist() == [fmt.max_value, fmt.min_value]


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([0.1, np.nan]), FMT)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.inf, FMT)

    def test_shape_preserved(self):
        x = np.zeros((3, 4, 5))
        assert quantize(x, FMT).shape == (3, 4, 5)


class TestProperties:
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=1, max_value=20),
    )
    def test_quantization_error_bounded_by_step_in_range(self, scale, frac_bits):
        fmt = QFormat(integer_bits=0, frac_bits=frac_bits)
        # Stay inside the representable range: saturation errors are larger.
        value = scale * fmt.max_value if scale >= 0 else -scale * fmt.min_value
        q = float(quantize(value, fmt))
        assert abs(q - value) <= fmt.step / 2 + 1e-12

    @given(
        st.floats(min_value=-0.999, max_value=0.999),
        st.integers(min_value=1, max_value=20),
    )
    def test_truncation_error_one_sided(self, value, frac_bits):
        fmt = QFormat(integer_bits=0, frac_bits=frac_bits)
        q = float(quantize(value, fmt, rounding=Rounding.TRUNCATE))
        assert value - fmt.step - 1e-12 < q <= value + 1e-12

    @given(
        st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=1, max_size=30),
    )
    def test_idempotent(self, values):
        x = np.asarray(values)
        once = quantize(x, FMT)
        twice = quantize(once, FMT)
        np.testing.assert_array_equal(once, twice)

    @given(
        st.floats(min_value=-0.9, max_value=0.9),
        st.integers(min_value=2, max_value=18),
    )
    def test_result_on_grid(self, value, frac_bits):
        fmt = QFormat(integer_bits=0, frac_bits=frac_bits)
        q = float(quantize(value, fmt))
        code = q / fmt.step
        assert code == pytest.approx(round(code), abs=1e-9)

    @given(st.floats(min_value=-0.9, max_value=0.9))
    def test_monotone_nondecreasing(self, value):
        lower = float(quantize(value - 0.2, FMT))
        upper = float(quantize(value + 0.2, FMT))
        assert lower <= upper


def _formula(values, fmt, rounding, overflow):
    """The quantizer written out term by term, one fresh array per step."""
    scaled = np.asarray(values, dtype=np.float64) / fmt.step
    if rounding is Rounding.TRUNCATE:
        codes = np.floor(scaled)
    elif rounding is Rounding.NEAREST:
        codes = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    else:
        codes = np.rint(scaled)
    min_code = fmt.min_value / fmt.step
    max_code = fmt.max_value / fmt.step
    if overflow is Overflow.SATURATE:
        codes = np.clip(codes, min_code, max_code)
    else:
        codes = (codes - min_code) % fmt.levels + min_code
    return codes * fmt.step


class TestBitwiseAgainstFormula:
    """``quantize`` equals the term-by-term formula bit for bit, sign of zero included."""

    @staticmethod
    def _values(rng, fmt):
        step = fmt.step
        bound = 2.0**fmt.integer_bits
        ties = (rng.integers(-300, 300, size=40) + 0.5) * step
        return np.concatenate(
            [
                [0.0, -0.0, step / 4, -step / 4, step / 2, -step / 2],
                ties,
                np.nextafter(ties, np.inf),
                np.nextafter(ties, -np.inf),
                rng.uniform(-3 * bound, 3 * bound, size=60),  # many saturate
                rng.normal(0.0, bound / 4, size=60),
                [fmt.min_value, fmt.max_value, 1e30, -1e30],
            ]
        )

    def test_random_formats_all_modes(self):
        rng = np.random.default_rng(2020)
        for _ in range(400):
            signed = bool(rng.integers(2))
            integer_bits = int(rng.integers(-4, 9))
            frac_bits = int(rng.integers(max(1 - int(signed) - integer_bits, -3), 31))
            fmt = QFormat(integer_bits, frac_bits, signed)
            values = self._values(rng, fmt)
            for rounding in Rounding:
                for overflow in Overflow:
                    got = quantize(values, fmt, rounding=rounding, overflow=overflow)
                    want = _formula(values, fmt, rounding, overflow)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                        fmt, rounding, overflow)

    def test_negative_zero_rounds_to_positive_zero(self):
        assert not np.signbit(quantize(np.array([-0.0]), FMT))[0]
        assert np.signbit(quantize(np.array([-0.01]), FMT))[0]

    def test_scalar_in_scalar_out(self):
        for value in (0.3, -0.3, -0.0, 5.0):
            got = quantize(value, FMT)
            assert np.ndim(got) == 0
            assert np.float64(got).tobytes() == np.float64(
                _formula(value, FMT, Rounding.NEAREST, Overflow.SATURATE)).tobytes()

    def test_input_not_modified(self):
        x = np.array([0.3, -0.3, 2.0])
        before = x.copy()
        quantize(x, FMT)
        quantize(x[::2], FMT, rounding=Rounding.TRUNCATE, overflow=Overflow.WRAP)
        np.testing.assert_array_equal(x, before)
