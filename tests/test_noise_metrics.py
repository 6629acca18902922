"""Unit tests for repro.fixedpoint.noise (Eqs. 11-12 and helpers)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint.noise import (
    bit_difference,
    bit_difference_db,
    db_to_power,
    equivalent_bits,
    noise_power,
    noise_power_db,
    power_to_db,
    relative_difference,
    uniform_quantization_noise_power,
)


class TestNoisePower:
    def test_zero_for_identical(self):
        x = np.array([0.1, -0.2, 0.5])
        assert noise_power(x, x) == 0.0

    def test_mse_value(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.0, 0.0])
        assert noise_power(a, b) == pytest.approx(2.5)

    def test_complex_inputs(self):
        a = np.array([1 + 1j, 0 + 0j])
        b = np.zeros(2, dtype=complex)
        assert noise_power(a, b) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            noise_power(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            noise_power(np.zeros(0), np.zeros(0))

    def test_db_conversion_consistent(self):
        a = np.full(10, 0.1)
        b = np.zeros(10)
        assert noise_power_db(a, b) == pytest.approx(power_to_db(0.01))

    @staticmethod
    def _complex_form(approx, reference):
        a = np.asarray(approx).astype(np.complex128)
        diff = a - np.asarray(reference).astype(np.complex128)
        return float(np.mean(diff.real**2 + diff.imag**2))

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e150, 1e150, allow_subnormal=True),
                st.floats(-1e150, 1e150, allow_subnormal=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_real_inputs_match_the_complex_form_bit_for_bit(self, pairs):
        a, b = np.array(pairs).T
        a32 = np.clip(a, -3e38, 3e38).astype(np.float32)
        for x, y in [(a, b), (a32, b), (a.reshape(-1, 1), b.reshape(-1, 1))]:
            assert float.hex(noise_power(x, y)) == float.hex(self._complex_form(x, y))

    @given(
        st.lists(st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)), min_size=1)
    )
    def test_integer_inputs_match_the_complex_form_bit_for_bit(self, pairs):
        a, b = np.array(pairs, dtype=np.int64).T
        assert float.hex(noise_power(a, b)) == float.hex(self._complex_form(a, b))
        assert float.hex(noise_power(a, b.astype(float))) == float.hex(self._complex_form(a, b))

    def test_bool_and_transposed_inputs_match_the_complex_form(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((2, 6, 5))
        cases = [(a.T, b.T), (a.T, b), (a > 0.5, b > 0.5), (a, -0.0 * b)]
        for x, y in cases:
            if x.shape != y.shape:
                y = np.ascontiguousarray(y.T)
            assert float.hex(noise_power(x, y)) == float.hex(self._complex_form(x, y))

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e100), st.complex_numbers(max_magnitude=1e100)
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_complex_inputs_keep_the_complex_form(self, pairs):
        a, b = np.array(pairs, dtype=complex).T
        assert float.hex(noise_power(a, b)) == float.hex(self._complex_form(a, b))
        assert float.hex(noise_power(a, b.real)) == float.hex(self._complex_form(a, b.real))


class TestDbConversions:
    @given(st.floats(min_value=-200.0, max_value=100.0))
    def test_roundtrip(self, db):
        assert power_to_db(db_to_power(db)) == pytest.approx(db, abs=1e-9)

    def test_floor_for_zero_power(self):
        assert power_to_db(0.0) == pytest.approx(-3000.0)


class TestEquivalentBits:
    def test_physical_convention(self):
        # P = 2^(-2n)/12 with n = 8 fractional bits.
        power = uniform_quantization_noise_power(2.0**-8)
        assert equivalent_bits(power) == pytest.approx(8.0)

    def test_paper_convention_doubles(self):
        power = uniform_quantization_noise_power(2.0**-8)
        assert equivalent_bits(power, convention="paper") == pytest.approx(16.0)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            equivalent_bits(0.1, convention="nonsense")


class TestBitDifference:
    def test_one_bit_is_six_db(self):
        assert bit_difference_db(-60.0, -66.02) == pytest.approx(1.0, abs=1e-3)

    def test_paper_convention_is_three_db(self):
        assert bit_difference_db(-60.0, -63.01, convention="paper") == pytest.approx(
            1.0, abs=1e-3
        )

    def test_symmetry(self):
        assert bit_difference(1e-6, 4e-6) == pytest.approx(bit_difference(4e-6, 1e-6))

    def test_zero_for_equal(self):
        assert bit_difference(1e-7, 1e-7) == 0.0

    @given(
        st.floats(min_value=-120, max_value=0),
        st.floats(min_value=-120, max_value=0),
    )
    def test_db_and_linear_agree(self, a_db, b_db):
        linear = bit_difference(db_to_power(a_db), db_to_power(b_db))
        assert linear == pytest.approx(bit_difference_db(a_db, b_db), abs=1e-9)

    def test_matches_equivalent_bits_difference(self):
        p1, p2 = 1e-5, 3e-7
        expected = abs(equivalent_bits(p1) - equivalent_bits(p2))
        assert bit_difference(p1, p2) == pytest.approx(expected)


class TestRelativeDifference:
    def test_value(self):
        assert relative_difference(0.95, 1.0) == pytest.approx(0.05)

    def test_zero_truth_rejected(self):
        with pytest.raises(ZeroDivisionError):
            relative_difference(0.5, 0.0)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_nonnegative(self, a, b):
        assert relative_difference(a, b) >= 0.0


class TestUniformNoise:
    def test_formula(self):
        assert uniform_quantization_noise_power(0.5) == pytest.approx(0.25 / 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_quantization_noise_power(0.0)

    def test_quantizer_matches_model(self, rng):
        # Empirical quantization noise should track step^2/12 within ~20 %.
        from repro.fixedpoint.qformat import QFormat
        from repro.fixedpoint.quantize import quantize

        fmt = QFormat(integer_bits=0, frac_bits=8)
        x = rng.uniform(-0.99, 0.99, size=200000)
        measured = noise_power(quantize(x, fmt), x)
        model = uniform_quantization_noise_power(fmt.step)
        assert measured == pytest.approx(model, rel=0.2)
