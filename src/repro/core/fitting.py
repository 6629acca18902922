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
linear parameters and their SSE have a closed form in three weighted
moments of the shape, so the fit profiles them out (variable projection,
Golub & Pereyra 1973) and searches the nonlinear parameter alone.  The
search is Brent's: parabolic steps, safeguarded by golden sections, in a
bracket of the optimum.  No residual is formed until the returned model's
SSE, and a fit cannot fail.

Refits come in two kinds (the schedule is
:class:`~repro.core.estimator.KrigingEstimator`'s).  A *full reselection*
is :func:`select_variogram`: every family, each from a grid over its whole
interval (one array operation) whose deepest local minima are refined.  An
*incumbent refit* is ``fit_variogram(emp, kind, start=...)`` with the start
read from the current model by :func:`warm_start`: the grid is skipped, and
a narrow bracket around the previous optimum walks downhill with growing
steps until it holds a minimum, then is refined.  It evaluates about a
tenth as many points as a reselection, but it cannot switch family and
stays in the basin of its start, so full reselections still run on a
geometric schedule.
"""

from __future__ import annotations

import math
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

__all__ = [
    "FittedVariogram", "fit_variogram", "select_variogram", "warm_start", "MODEL_KINDS",
    "AUTO_KINDS",
]

MODEL_KINDS = ("linear", "spherical", "exponential", "gaussian", "power")
"""Model families understood by :func:`fit_variogram`."""

AUTO_KINDS = ("linear", "spherical", "gaussian", "power")
"""Families an ``"auto"`` estimator selects from: :data:`MODEL_KINDS` less
exponential, which sits at its linear limit where spherical does and almost
never wins a reselection."""

#: Lower bound of a sill or power scale (the models need it > 0).
_FLOOR = 1e-12
#: Log-range grid: ``_GRID`` points from ``min lag * 0.1`` to ``max lag * 2``,
#: where the shapes bend over the lags (spherical has a kink at each lag),
#: and ``_TAIL`` to ``max lag * 1e5``, where a model is at its linear limit up
#: to O(lag / range).  A 10x cap fits convex curves up to 42% worse; longer
#: caps gain < 3e-5 but make kriging systems on lattices near-singular.
_RANGE_SPAN, _GRID, _TAIL = (0.1, 2.0, 1e5), 48, 12
_EXPONENT_SPAN = (1e-3, 1.999)
#: A full reselection refines the ``_BASINS`` deepest local minima of the
#: grid (the global minimum can sit between kinks, in the basin of a minimum
#: the grid sees as shallower); an incumbent refit starts from a bracket
#: ``_WARM`` times the widest grid step wide.  Both stop at ``_XTOL`` wide.
_BASINS, _WARM, _XTOL = 4, 1.0 / 64.0, 1e-7
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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


def _profile(
    emp: EmpiricalVariogram, basis: Callable[[np.ndarray], np.ndarray], free_nugget: bool
) -> Callable[[np.ndarray], list[tuple[float, float, float]]]:
    """``profile(x)``: ``(SSE, nugget, sill)`` of the best bounded ``nugget +
    sill * basis(x)`` (``nugget = 0`` without ``free_nugget``) per point of
    ``x``: the interior least-squares pair when feasible, else the better of
    the ``nugget = 0`` and ``sill = _FLOOR`` edges, each clamped.  With the
    moments ``m``, ``p = sum w (f - m)(g - g_mean)``, ``s = sum w (f - m)^2``
    of ``f = basis(x)`` about its weighted mean ``m``, ``W = sum w`` and
    ``S = sum w (g - g_mean)^2``, every candidate's SSE is
    ``S - 2 sill p + sill^2 s + W (nugget + sill m - g_mean)^2`` (rounding
    noise about ``eps * S``), so no residual is formed."""
    g, w = emp.gammas, emp.counts.astype(np.float64)
    total = float(w.sum())
    g_mean = float(w @ g) / total
    w_gc = w * (g - g_mean)
    s_gg = float(w_gc @ (g - g_mean))

    def best(m: float, p: float, s: float) -> tuple[float, float, float]:
        def sse(nugget: float, sill: float) -> float:
            excess = nugget + sill * m - g_mean
            return s_gg - sill * (2.0 * p - sill * s) + total * excess * excess

        if free_nugget and s > 0.0:
            sill = p / s
            nugget = g_mean - sill * m
            if sill >= _FLOOR and nugget >= 0.0:
                return sse(nugget, sill), nugget, sill
        sill = max((p + total * m * g_mean) / (s + total * m * m), _FLOOR)
        edges = [(sse(0.0, sill), 0.0, sill)]
        if free_nugget:
            nugget = max(g_mean - _FLOOR * m, 0.0)
            edges.append((sse(nugget, _FLOOR), nugget, _FLOOR))
        return min(edges, key=lambda edge: edge[0])

    def profile(x: np.ndarray) -> list[tuple[float, float, float]]:
        f = basis(np.asarray(x)[:, None])
        f_mean = (f @ w) / total
        centred = f - f_mean[:, None]
        s_fg, s_ff = centred @ w_gc, (centred * centred) @ w
        return list(map(best, f_mean.tolist(), s_fg.tolist(), s_ff.tolist()))

    return profile


def _brent(
    sse: Callable[[float], float], a: float, x: float, b: float, fa: float, fx: float, fb: float
) -> tuple[float, float]:
    """Local minimum of ``sse`` in the bracket ``a <= x <= b`` (``fx <= fa,
    fb``) to ``_XTOL``: Brent's parabolic steps through the three best
    points, golden sections where a parabola is not trusted (Brent 1973,
    ch. 5).  A best end of the bracket is kept if one probe finds the
    profile rising from it, a best point tied with an end (a flat profile:
    ranges beyond every lag) at once."""
    tol = 0.25 * _XTOL
    (fw, w), (fv, v) = sorted([(fa, a), (fb, b)])
    if x == a or x == b:
        u = x + tol if x == a else x - tol
        fu = sse(u)
        if fu >= fx:
            return x, fx
        (v, fv), (w, fw), (x, fx) = ((b, fb) if x == a else (a, fa)), (x, fx), (u, fu)
    elif fx in (fa, fb):
        return x, fx
    d = e = b - a
    while abs(x - 0.5 * (a + b)) > 2.0 * tol - 0.5 * (b - a):
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = (-p if q > 0 else p), abs(q)
        before, e = e, d
        if abs(p) < abs(0.5 * q * before) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = tol if x < 0.5 * (a + b) else -tol
        else:
            e = (a if x >= 0.5 * (a + b) else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = sse(u)
        if fu < fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _search(
    profile: Callable[[np.ndarray], list], grid: np.ndarray, start: float | None = None
) -> float:
    """Minimize the SSE of ``profile`` over ``grid[0] <= x <= grid[-1]``.

    Without a ``start``, the grid is one array operation and each of its
    ``_BASINS`` deepest local minima is refined by :func:`_brent` between
    its grid neighbours.  With one, the grid is skipped: a bracket
    ``_WARM`` grid steps wide around the (clipped) start walks downhill,
    doubling its step, while an end is its best point, then is refined.
    """
    lo, hi = grid[0], grid[-1]

    def sse(x: float) -> float:
        return profile([x])[0][0]

    if start is None:
        values = np.array([found[0] for found in profile(grid)])
        padded = np.concatenate(([np.inf], values, [np.inf]))
        minima = np.flatnonzero((values <= padded[:-2]) & (values <= padded[2:]))
        refined = []
        for i in minima[np.argsort(values[minima], kind="stable")[:_BASINS]]:
            a, b = max(i - 1, 0), min(i + 1, grid.size - 1)
            refined.append(_brent(sse, grid[a], grid[i], grid[b], values[a], values[i], values[b]))
        return min(refined, key=lambda found: found[1])[0]
    step = np.diff(grid).max() * _WARM
    x = float(np.clip(start, lo, hi))
    a, b = max(x - step, lo), min(x + step, hi)
    fa, fx, fb = sse(a), sse(x), sse(b)
    while True:
        if fa < min(fx, fb):
            b, fb, x, fx = x, fx, a, fa
            a = max(x - 2.0 * (b - x), lo)
            fa = sse(a) if a < x else fx
        elif fb < fx:
            a, fa, x, fx = x, fx, b, fb
            b = min(x + 2.0 * (x - a), hi)
            fb = sse(b) if b > x else fx
        else:
            return _brent(sse, a, x, b, fa, fx, fb)[0]


_BOUNDED_FAMILIES = {
    "spherical": SphericalVariogram,
    "exponential": ExponentialVariogram,
    "gaussian": GaussianVariogram,
}


def _fit_profiled(emp: EmpiricalVariogram, kind: str, start: float | None) -> FittedVariogram:
    """Search the log range of a bounded family, or the power exponent.  An
    incumbent refit keeps the model at its (clipped) start unless the
    search's model has a smaller weighted SSE: a refit is never worse."""
    h = emp.lags
    if kind == "power":
        grid = np.linspace(*_EXPONENT_SPAN, _GRID)
        profile = _profile(emp, lambda x: h**x, free_nugget=False)
    else:
        cls = _BOUNDED_FAMILIES[kind]
        lo, mid, hi = np.log(np.array([h[0], h[-1], h[-1]]) * _RANGE_SPAN)
        grid = np.concatenate((np.linspace(lo, mid, _GRID), np.linspace(mid, hi, _TAIL + 1)[1:]))
        profile = _profile(emp, lambda x: cls.shape(h / np.exp(x)), free_nugget=True)

    def fit(x: float) -> FittedVariogram:
        ((_, nugget, sill),) = profile([x])
        if kind == "power":
            model = PowerVariogram(scale=sill, exponent=float(x))
        else:
            model = cls(sill=sill, range_=float(np.exp(x)), nugget_=nugget)
        return FittedVariogram(kind, model, _weighted_sse(model, emp))

    found = fit(_search(profile, grid, start))
    if start is None:
        return found
    kept = fit(np.clip(start, grid[0], grid[-1]))
    return found if found.weighted_sse < kept.weighted_sse else kept


def fit_variogram(
    emp: EmpiricalVariogram, kind: str = "spherical", *, start: float | None = None
) -> FittedVariogram:
    """Fit one model family to an empirical variogram.

    Families with several parameters need at least three distinct lags;
    with fewer, the fit is the linear model, which is always identifiable
    (and whose scale does not affect kriging weights).  ``weighted_sse`` is
    that of the returned model.  Non-finite ``emp.gammas`` raise ``ValueError``.

    ``start`` (see :func:`warm_start`) refits from a previous optimum: the
    search walks from a narrow bracket around it instead of scanning the
    grid, and the model at the start is kept unless the search's is
    better.  The linear family ignores it.
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
    return _fit_profiled(emp, kind, start)


def warm_start(model: object) -> tuple[str, float] | None:
    """The family and search coordinate of a fitted nonlinear model: the
    log range of a bounded model, the exponent of a power model.  ``None``
    for any other model (linear, nugget, a callable)."""
    if type(model) is PowerVariogram:
        return "power", model.exponent
    for kind, cls in _BOUNDED_FAMILIES.items():
        if type(model) is cls:
            return kind, float(np.log(model.range_))
    return None


def select_variogram(
    emp: EmpiricalVariogram, kinds: tuple[str, ...] = MODEL_KINDS
) -> FittedVariogram:
    """Fit every family in ``kinds`` and return the best by weighted SSE."""
    if not kinds:
        raise ValueError("kinds must be non-empty")
    fits = [fit_variogram(emp, kind) for kind in kinds]
    return min(fits, key=lambda fit: fit.weighted_sse)
