"""Vectorized quantization with configurable rounding and overflow modes.

The quantizer is the single primitive every fixed-point benchmark kernel is
built from: FIR/IIR/FFT data paths and the HEVC interpolation pipeline all
insert :func:`quantize` calls at their internal nodes.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.fixedpoint.qformat import QFormat

__all__ = ["Rounding", "Overflow", "quantize"]


class Rounding(enum.Enum):
    """Rounding mode applied when discarding fractional bits."""

    NEAREST = "nearest"
    """Round to nearest, ties away from zero (DSP-style rounding)."""

    TRUNCATE = "truncate"
    """Round toward minus infinity (two's-complement truncation)."""

    CONVERGENT = "convergent"
    """Round to nearest, ties to even (unbiased convergent rounding)."""


class Overflow(enum.Enum):
    """Overflow mode applied when a value exceeds the representable range."""

    SATURATE = "saturate"
    """Clamp to the closest representable bound."""

    WRAP = "wrap"
    """Two's-complement wrap-around."""


def _round(codes: np.ndarray, rounding: Rounding) -> None:
    """Round the scaled values in ``codes`` to integers, in place."""
    if rounding is Rounding.TRUNCATE:
        np.floor(codes, out=codes)
    elif rounding is Rounding.NEAREST:
        # Ties away from zero: trunc(x + copysign(0.5, x)), which equals
        # sign(x) * floor(|x| + 0.5) bit for bit because IEEE addition is
        # sign-symmetric.  Adding +0.0 first turns -0.0 into +0.0, as the
        # sign(x) form does.
        codes += 0.0
        codes += np.copysign(0.5, codes)
        np.trunc(codes, out=codes)
    elif rounding is Rounding.CONVERGENT:
        np.rint(codes, out=codes)
    else:
        raise TypeError(f"unsupported rounding mode: {rounding!r}")


def _overflow(codes: np.ndarray, fmt: QFormat, step: float, overflow: Overflow) -> np.ndarray:
    min_code = fmt.min_value / step
    max_code = fmt.max_value / step
    if overflow is Overflow.SATURATE:
        return np.clip(codes, min_code, max_code, out=codes)
    if overflow is Overflow.WRAP:
        return (codes - min_code) % fmt.levels + min_code
    raise TypeError(f"unsupported overflow mode: {overflow!r}")


def quantize(
    values: np.ndarray | float,
    fmt: QFormat,
    *,
    rounding: Rounding = Rounding.NEAREST,
    overflow: Overflow = Overflow.SATURATE,
) -> np.ndarray:
    """Quantize ``values`` to the fixed-point format ``fmt``.

    Parameters
    ----------
    values:
        Scalar or array of real values.
    fmt:
        Target :class:`~repro.fixedpoint.qformat.QFormat`.
    rounding:
        How to resolve discarded fractional bits.
    overflow:
        How to resolve values outside the representable range.

    Returns
    -------
    numpy.ndarray
        Array of the same shape holding exactly representable values.

    Examples
    --------
    >>> import numpy as np
    >>> fmt = QFormat(integer_bits=0, frac_bits=3)
    >>> quantize(np.array([0.3, -0.3]), fmt)
    array([ 0.25, -0.25])
    """
    array = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ValueError("quantize received non-finite values")
    step = fmt.step
    # A code beyond float64 comes out as +-inf, which both overflow modes
    # resolve below; the overflow itself is not an error.
    with np.errstate(over="ignore"):
        codes = np.divide(array, step, out=np.empty(array.shape))
    if overflow is Overflow.WRAP:
        # A value whose code overflows float64 is a whole number of steps,
        # so taking it modulo the wrap period first (fmod is exact) keeps
        # its wrapped code and makes the code finite.
        huge = np.isinf(codes)
        if huge.any():
            codes[huge] = np.fmod(array[huge], fmt.levels * step) / step
    _round(codes, rounding)
    codes = _overflow(codes, fmt, step, overflow)
    codes *= step
    return codes if codes.ndim else codes[()]  # a scalar for a scalar
