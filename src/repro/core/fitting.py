"""Identification of a parametric variogram model from the empirical one.

Section III-A: "From the already measured values of lambda, the
semi-variogram can be computed and identified to a particular type of
semi-variogram."  Identification is a weighted least-squares fit over the
empirical lags, weighted by pair counts (lags estimated from more pairs count
more).  :func:`select_variogram` fits several model families and keeps the
one with the smallest weighted residual.

Every nonlinear family is linear in all of its parameters but one: a
bounded model is ``nugget + sill * shape(h / range_)``, the power model
``scale * h**exponent``.  At a fixed range (or exponent) the best bounded
linear parameters have a closed form, so the fit profiles them out
(variable projection, Golub & Pereyra 1973) and searches the nonlinear
parameter alone: a grid over its whole interval as one (grid x lags) array
operation, then vectorized zoom rounds around the grid's deepest local
minima.  No iterative optimizer runs, and a fit cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize  # noqa: F401  (perfbench wraps fitting.optimize)

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

#: Lower bound of a sill or power scale (the models need it > 0).
_FLOOR = 1e-12
#: Log-range grid: ``_GRID`` points from ``min lag * 0.1`` to ``max lag * 2``,
#: where the shapes bend over the lags (spherical has a kink at each lag),
#: and ``_TAIL`` to ``max lag * 1e5``, where a model is at its linear limit up
#: to O(lag / range).  A 10x cap fits convex curves up to 42% worse; longer
#: caps gain < 3e-5 but make kriging systems on lattices near-singular.
_RANGE_SPAN, _GRID, _TAIL = (0.1, 2.0, 1e5), 48, 12
_EXPONENT_SPAN = (1e-3, 1.999)
#: The ``_BASINS`` deepest local minima of the grid (the global minimum can
#: sit between kinks, in the basin of a minimum the grid sees as shallower)
#: are zoomed by ``_ZOOM``-point brackets (odd: the centre stays) to
#: ``_XTOL`` wide.
_BASINS, _ZOOM, _XTOL = 4, 17, 1e-7


@dataclass(frozen=True)
class FittedVariogram:
    """Result of a variogram identification."""

    kind: str
    model: VariogramModel
    weighted_sse: float

    def __call__(self, h: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the fitted ``gamma(h)``."""
        return self.model(h)


def _weighted_sse(model: VariogramModel, emp: EmpiricalVariogram) -> float:
    residual = np.asarray(model(emp.lags)) - emp.gammas
    return float(np.sum(emp.counts * residual**2))


def _fit_linear(emp: EmpiricalVariogram) -> FittedVariogram:
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(np.float64)
    denom = float(np.sum(w * h * h))
    slope = float(np.sum(w * h * g)) / denom if denom > 0 else 1.0
    model = LinearVariogram(slope=max(slope, _FLOOR))
    return FittedVariogram("linear", model, _weighted_sse(model, emp))


def _search(profile: Callable[[np.ndarray], tuple], grid: np.ndarray) -> float:
    """Minimize ``profile(x)[0]`` (SSE, vectorized over ``x``) on a grid.

    The selected local minima of the grid are zoomed, all in one array
    operation per round, from brackets as wide as the widest grid step
    until the brackets are ``_XTOL`` wide.
    """
    sse = profile(grid)[0]
    padded = np.concatenate(([np.inf], sse, [np.inf]))
    minima = np.flatnonzero((sse <= padded[:-2]) & (sse <= padded[2:]))
    centres = grid[minima[np.argsort(sse[minima], kind="stable")[:_BASINS]]]
    step = np.diff(grid).max()
    offsets = np.linspace(-1.0, 1.0, _ZOOM)
    rows = np.arange(centres.size)
    while step > _XTOL:
        points = np.clip(centres[:, None] + step * offsets, grid[0], grid[-1])
        values = profile(points.ravel())[0].reshape(points.shape)
        best = np.argmin(values, axis=1)
        centres, sse = points[rows, best], values[rows, best]
        step *= 2.0 / (_ZOOM - 1)
    return float(centres[np.argmin(sse)])


_BOUNDED_FAMILIES = {
    "spherical": SphericalVariogram,
    "exponential": ExponentialVariogram,
    "gaussian": GaussianVariogram,
}


def _fit_bounded(emp: EmpiricalVariogram, kind: str) -> FittedVariogram:
    """Search the log range.  At a fixed range the interior least-squares
    (nugget, sill) is the bounded optimum when feasible, else the better of
    the ``nugget = 0`` and ``sill = _FLOOR`` edges, each clamped to its bound."""
    cls = _BOUNDED_FAMILIES[kind]
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(np.float64)
    total = w.sum()
    g_mean = float(w @ g) / total
    w_g, w_gc = w * g, w * (g - g_mean)

    def profile(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f = cls.shape(h / np.exp(x)[:, None])
        f_mean = (f @ w) / total
        centred = f - f_mean[:, None]
        s_ff = (centred * centred) @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            sill = (centred @ w_gc) / s_ff
        nugget = g_mean - sill * f_mean
        interior = (sill >= _FLOOR) & (nugget >= 0)  # False where s_ff = 0
        edge_sill = np.maximum((f @ w_g) / (s_ff + total * f_mean**2), _FLOOR)
        edge_nugget = np.maximum(g_mean - _FLOOR * f_mean, 0.0)
        nuggets = np.stack((np.where(interior, nugget, 0.0), edge_nugget))
        sills = np.stack((np.where(interior, sill, edge_sill), np.full_like(sill, _FLOOR)))
        sse = np.square(nuggets[..., None] + sills[..., None] * f - g) @ w
        pick = (np.argmin(sse, axis=0), np.arange(x.size))
        return sse[pick], nuggets[pick], sills[pick]

    lo, mid, hi = np.log(np.array([h[0], h[-1], h[-1]]) * _RANGE_SPAN)
    grid = np.concatenate((np.linspace(lo, mid, _GRID), np.linspace(mid, hi, _TAIL + 1)[1:]))
    x = _search(profile, grid)
    _, nugget, sill = profile(np.array([x]))
    model = cls(sill=float(sill[0]), range_=float(np.exp(x)), nugget_=float(nugget[0]))
    return FittedVariogram(kind, model, _weighted_sse(model, emp))


def _fit_power(emp: EmpiricalVariogram) -> FittedVariogram:
    """Search the exponent; at a fixed one the scale has a closed form."""
    h, g, w = emp.lags, emp.gammas, emp.counts.astype(np.float64)

    def profile(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = h ** exponents[:, None]
        scale = np.maximum((f @ (w * g)) / ((f * f) @ w), _FLOOR)
        return np.square(scale[:, None] * f - g) @ w, scale

    exponent = _search(profile, np.linspace(*_EXPONENT_SPAN, _GRID))
    model = PowerVariogram(scale=float(profile(np.array([exponent]))[1][0]), exponent=exponent)
    return FittedVariogram("power", model, _weighted_sse(model, emp))


def fit_variogram(emp: EmpiricalVariogram, kind: str = "spherical") -> FittedVariogram:
    """Fit one model family to an empirical variogram.

    Families with several parameters need at least three distinct lags;
    with fewer, the fit is the linear model, which is always identifiable
    (and whose scale does not affect kriging weights).  ``weighted_sse`` is
    that of the returned model.  Non-finite ``emp.gammas`` raise ``ValueError``.
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
    return _fit_power(emp) if kind == "power" else _fit_bounded(emp, kind)


def select_variogram(
    emp: EmpiricalVariogram, kinds: tuple[str, ...] = MODEL_KINDS
) -> FittedVariogram:
    """Fit every family in ``kinds`` and return the best by weighted SSE."""
    if not kinds:
        raise ValueError("kinds must be non-empty")
    fits = [fit_variogram(emp, kind) for kind in kinds]
    return min(fits, key=lambda fit: fit.weighted_sse)
