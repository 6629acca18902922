"""Identification of a parametric variogram model from the empirical one.

Section III-A: "From the already measured values of lambda, the
semi-variogram can be computed and identified to a particular type of
semi-variogram."  Identification is a weighted least-squares fit over the
empirical lags, weighted by pair counts (lags estimated from more pairs count
more).  :func:`select_variogram` fits several model families and keeps the
one with the smallest weighted residual.

The nonlinear fits are ill-conditioned: a Jacobian that differs from
scipy's finite differences in the last bits moves fitted parameters by
orders of magnitude and flips the selected family.  :func:`_least_squares`
therefore hands ``least_squares`` a callable Jacobian that performs
scipy's own ``'2-point'`` arithmetic, step for step, without the overhead
of ``approx_derivative``; fits are bitwise identical to ``jac="2-point"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from repro.core.models import (
    ExponentialVariogram,
    GaussianVariogram,
    LinearVariogram,
    PowerVariogram,
    SphericalVariogram,
    VariogramModel,
)
from repro.core.variogram import EmpiricalVariogram

__all__ = ["FittedVariogram", "fit_variogram", "select_variogram", "MODEL_KINDS"]

MODEL_KINDS = ("linear", "spherical", "exponential", "gaussian", "power")
"""Model families understood by :func:`fit_variogram`."""


@dataclass(frozen=True)
class FittedVariogram:
    """Result of a variogram identification."""

    kind: str
    model: VariogramModel
    weighted_sse: float

    def __call__(self, h: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the fitted ``gamma(h)``."""
        return self.model(h)


def _fit_linear(emp: EmpiricalVariogram) -> FittedVariogram:
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(np.float64)
    denom = float(np.sum(w * h * h))
    slope = float(np.sum(w * h * g)) / denom if denom > 0 else 1.0
    slope = max(slope, 1e-12)
    model = LinearVariogram(slope=slope)
    sse = float(np.sum(w * (model(h) - g) ** 2))
    return FittedVariogram("linear", model, sse)


#: scipy's relative step for ``'2-point'`` differences in float64.
_FD_REL_STEP = np.finfo(np.float64).eps ** 0.5


def _least_squares(
    residuals: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """``least_squares`` with a Jacobian bitwise equal to ``jac="2-point"``.

    The Jacobian repeats scipy's forward differences: step
    ``sqrt(eps) * sign(x) * max(1, |x|)``, flipped when ``x + step`` leaves
    the bounds (every bound here is wide enough for the flipped step to
    fit), ``dx = (x + step) - x``, the residual at ``x`` reused as ``f0``,
    and the matrix returned F-ordered as scipy builds it (a C-ordered copy
    changes the BLAS rounding downstream).
    """
    last_x = last_f = None

    def fun(x: np.ndarray) -> np.ndarray:
        nonlocal last_x, last_f
        last_x, last_f = x.copy(), residuals(x)
        return last_f

    def jac(x: np.ndarray) -> np.ndarray:
        f0 = last_f if np.array_equal(x, last_x) else residuals(x)
        step = _FD_REL_STEP * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
        stepped = x + step
        step[(stepped < lower) | (stepped > upper)] *= -1
        jt = np.empty((x.size, f0.size))
        for i in range(x.size):
            x1 = x.copy()
            x1[i] = x[i] + step[i]
            jt[i] = (residuals(x1) - f0) / ((x[i] + step[i]) - x[i])
        return jt.T

    result = optimize.least_squares(
        fun, x0=x0, jac=jac, bounds=(lower, upper), max_nfev=200
    )
    return result.x


_BOUNDED_FAMILIES = {
    "spherical": SphericalVariogram,
    "exponential": ExponentialVariogram,
    "gaussian": GaussianVariogram,
}


def _fit_bounded(emp: EmpiricalVariogram, kind: str) -> FittedVariogram:
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(np.float64)
    sqrt_w = np.sqrt(w)
    sill0 = max(float(np.max(g)), 1e-12)
    range0 = max(float(h[np.argmax(g >= 0.95 * sill0)]), float(h[0]))
    cls = _BOUNDED_FAMILIES[kind]

    def residuals(params: np.ndarray) -> np.ndarray:
        sill, rng, nugget = params
        model = cls(sill=max(sill, 1e-12), range_=max(rng, 1e-9), nugget_=max(nugget, 0.0))
        # Every empirical lag is > 0, so the origin handling of
        # ``model(h)`` would select these same values.
        return sqrt_w * (model._gamma_positive(h) - g)

    sill, rng, nugget = _least_squares(
        residuals,
        np.array([sill0, range0, 0.0]),
        np.array([1e-12, 1e-9, 0.0]),
        np.array([np.inf, np.inf, np.inf]),
    )
    model = cls(sill=max(float(sill), 1e-12), range_=max(float(rng), 1e-9), nugget_=max(float(nugget), 0.0))
    sse = float(np.sum(w * (np.asarray(model(h)) - g) ** 2))
    return FittedVariogram(kind, model, sse)


def _fit_power(emp: EmpiricalVariogram) -> FittedVariogram:
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(np.float64)
    sqrt_w = np.sqrt(w)

    def residuals(params: np.ndarray) -> np.ndarray:
        scale, exponent = params
        model = PowerVariogram(scale=max(scale, 1e-12), exponent=float(np.clip(exponent, 1e-3, 1.999)))
        return sqrt_w * (model._gamma_positive(h) - g)

    scale0 = max(float(np.max(g)) / max(float(np.max(h)), 1.0), 1e-12)
    scale, exponent = _least_squares(
        residuals,
        np.array([scale0, 1.0]),
        np.array([1e-12, 1e-3]),
        np.array([np.inf, 1.999]),
    )
    model = PowerVariogram(scale=max(float(scale), 1e-12), exponent=float(np.clip(exponent, 1e-3, 1.999)))
    sse = float(np.sum(w * (np.asarray(model(h)) - g) ** 2))
    return FittedVariogram("power", model, sse)


def fit_variogram(emp: EmpiricalVariogram, kind: str = "spherical") -> FittedVariogram:
    """Fit one model family to an empirical variogram.

    Families with several parameters need at least three distinct lags; with
    fewer lags, or when the optimizer rejects a degenerate lag layout, the
    fit silently degrades to the linear model, which is always identifiable
    (and whose scale does not affect kriging weights).  Non-finite
    ``emp.gammas`` are rejected with a ``ValueError``.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown variogram kind {kind!r}; expected one of {MODEL_KINDS}")
    bad = ~np.isfinite(emp.gammas)
    if np.any(bad):
        raise ValueError(
            f"empirical variogram is not finite at lags {emp.lags[bad].tolist()}"
        )
    if kind == "linear" or emp.n_lags < 3:
        return _fit_linear(emp)
    try:
        return _fit_power(emp) if kind == "power" else _fit_bounded(emp, kind)
    except (ValueError, np.linalg.LinAlgError):
        # Optimizer failures (degenerate lag layouts) fall back to linear.
        return _fit_linear(emp)


def select_variogram(
    emp: EmpiricalVariogram, kinds: tuple[str, ...] = MODEL_KINDS
) -> FittedVariogram:
    """Fit every family in ``kinds`` and return the best by weighted SSE."""
    if not kinds:
        raise ValueError("kinds must be non-empty")
    fits = [fit_variogram(emp, kind) for kind in kinds]
    return min(fits, key=lambda fit: fit.weighted_sse)
