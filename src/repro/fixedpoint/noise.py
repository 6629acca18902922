"""Error metrics for approximate implementations.

Implements the three metric transforms used throughout the paper:

* output **noise power** ``P = E[(y_approx - y_ref)^2]`` (the accuracy metric
  of the FIR / IIR / FFT / HEVC benchmarks, reported in dB);
* the **equivalent number of bits** of a noise power and the bit-valued
  interpolation error (Eq. 11);
* the **relative difference** ``|l_hat - l| / l`` (Eq. 12) used for the
  SqueezeNet classification-rate metric.

Two bit conventions exist:

* ``"physical"`` (default) — a uniform quantizer with ``n`` fractional bits
  produces ``P = (2^-n)^2 / 12 = 2^(-2n) / 12``, so one bit of precision is
  worth 6.02 dB and the error between two powers is
  ``eps = |log2(P_hat/P)| / 2``;
* ``"paper"`` — the literal Eq. 11 (``P = 2^(-n) / 12``,
  ``eps = |log2(P_hat/P)|``), which counts 3.01 dB per "bit" and therefore
  reports exactly twice the physical value.

The physical convention is used throughout the reproduced tables; see
DESIGN.md for the discussion.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "noise_power",
    "noise_power_db",
    "power_to_db",
    "db_to_power",
    "equivalent_bits",
    "bit_difference",
    "relative_difference",
    "uniform_quantization_noise_power",
]

_MIN_POWER = 1e-300
"""Floor applied before logarithms so exact-match simulations stay finite."""


def noise_power(approx: np.ndarray, reference: np.ndarray) -> float:
    """Mean-square error between an approximate and a reference output.

    Parameters
    ----------
    approx, reference:
        Arrays of identical shape (real or complex).

    Returns
    -------
    float
        ``mean(|approx - reference|^2)``.
    """
    a = np.asarray(approx)
    r = np.asarray(reference)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: approx {a.shape} vs reference {r.shape}")
    if a.size == 0:
        raise ValueError("noise_power requires non-empty arrays")
    if a.dtype.kind in "biuf" and r.dtype.kind in "biuf":
        # Real inputs: the complex form's imaginary part is exactly 0, and
        # adding +0.0 to a square changes no bit, so this is the same value.
        diff = np.subtract(a, r, dtype=np.float64)
        return float(np.mean(diff * diff))
    diff = a.astype(np.complex128) - r.astype(np.complex128)
    return float(np.mean(diff.real**2 + diff.imag**2))


def power_to_db(power: float) -> float:
    """Convert a linear power to decibels, flooring at ``1e-300``."""
    return 10.0 * math.log10(max(float(power), _MIN_POWER))


def db_to_power(power_db: float) -> float:
    """Convert a power in decibels back to linear scale."""
    return 10.0 ** (float(power_db) / 10.0)


def noise_power_db(approx: np.ndarray, reference: np.ndarray) -> float:
    """Noise power between ``approx`` and ``reference``, in dB."""
    return power_to_db(noise_power(approx, reference))


def uniform_quantization_noise_power(step: float) -> float:
    """Noise power of a uniform quantizer with step ``step`` (``step^2 / 12``)."""
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    return step * step / 12.0


def _bits_per_log2(convention: str) -> float:
    if convention == "physical":
        return 0.5
    if convention == "paper":
        return 1.0
    raise ValueError(f"convention must be 'physical' or 'paper', got {convention!r}")


def equivalent_bits(power: float, *, convention: str = "physical") -> float:
    """Equivalent number of bits of a noise power.

    Physical convention: ``P = 2^(-2n)/12`` gives ``n = -log2(12 P) / 2``.
    Paper convention (Eq. 11 environment): ``P = 2^(-n)/12`` gives
    ``n = -log2(12 P)``.
    """
    scale = _bits_per_log2(convention)
    return -scale * math.log2(12.0 * max(float(power), _MIN_POWER))


def bit_difference(
    power_hat: float, power_true: float, *, convention: str = "physical"
) -> float:
    """Interpolation error in equivalent bits between two linear powers (Eq. 11).

    Physical convention: ``eps = |log2(P_hat / P_true)| / 2`` (6.02 dB per
    bit); the paper's literal convention drops the factor 2.
    """
    scale = _bits_per_log2(convention)
    p_hat = max(float(power_hat), _MIN_POWER)
    p_true = max(float(power_true), _MIN_POWER)
    return scale * abs(math.log2(p_hat / p_true))


def bit_difference_db(
    power_hat_db: float, power_true_db: float, *, convention: str = "physical"
) -> float:
    """Interpolation error in equivalent bits from powers given in dB.

    ``|log2(P_hat/P)| = |P_hat_dB - P_dB| / (10 log10 2)``, scaled by the
    bit convention (physical: half of that, i.e. 6.02 dB per bit).
    """
    scale = _bits_per_log2(convention)
    return scale * abs(float(power_hat_db) - float(power_true_db)) / (10.0 * math.log10(2.0))


def relative_difference(value_hat: float, value_true: float) -> float:
    """Relative interpolation error (paper Eq. 12).

    ``eps = |l_hat - l| / |l|``.  Raises if the true value is zero, since the
    paper's metric is undefined there.
    """
    truth = float(value_true)
    if truth == 0.0:
        raise ZeroDivisionError("relative_difference undefined for a zero true value")
    return abs(float(value_hat) - truth) / abs(truth)


__all__.append("bit_difference_db")
