"""Universal kriging (kriging with a polynomial drift).

Ordinary kriging assumes a locally constant mean; on strongly trending
fields — precisely what a noise-power-vs-word-length surface is, with its
~6 dB/bit slope — queries outside the support hull regress to the nearest
value instead of following the trend (see the E10 ablation).  Universal
kriging generalizes the unbiasedness constraint to a set of drift basis
functions: with the linear basis ``{1, x_1, ..., x_Nv}`` the estimator
reproduces any affine trend exactly.

This module is an extension over the paper (which uses the ordinary-kriging
system of Eqs. 7-10); benchmark E12 quantifies what it buys on the recorded
trajectories.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.distances import DistanceMetric, distances_to, pairwise_distances
from repro.core.kriging import KrigingResult, _exact_hit, _solve, _validate

__all__ = [
    "universal_kriging",
    "linear_drift",
    "quadratic_drift",
    "adaptive_linear_drift",
]

Variogram = Callable[[np.ndarray], np.ndarray]
DriftBasis = Callable[[np.ndarray], np.ndarray]


def linear_drift(points: np.ndarray) -> np.ndarray:
    """Affine drift basis ``[1, x_1, ..., x_d]`` evaluated at each row."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.hstack([np.ones((pts.shape[0], 1)), pts])


def quadratic_drift(points: np.ndarray) -> np.ndarray:
    """Drift basis with pure quadratic terms ``[1, x_i, x_i^2]``."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.hstack([np.ones((pts.shape[0], 1)), pts, pts**2])


def adaptive_linear_drift(support_points: np.ndarray) -> DriftBasis:
    """Linear drift restricted to the coordinates that vary in the support.

    Greedy trajectories often provide support sets confined to a line or a
    low-dimensional face of the hypercube; a full linear drift is then rank
    deficient.  This factory inspects the support once and returns a basis
    ``[1, x_j for varying j]``, which stays full rank and still reproduces
    the trend along every direction the data can identify.
    """
    pts = np.atleast_2d(np.asarray(support_points, dtype=np.float64))
    varying = [j for j in range(pts.shape[1]) if np.unique(pts[:, j]).size > 1]

    def basis(points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        columns = [np.ones((p.shape[0], 1))]
        if varying:
            columns.append(p[:, varying])
        return np.hstack(columns)

    return basis


def universal_kriging(
    points: np.ndarray,
    values: np.ndarray,
    query: np.ndarray,
    variogram: Variogram,
    *,
    drift: DriftBasis = linear_drift,
    metric: DistanceMetric | str = DistanceMetric.L1,
) -> KrigingResult:
    """Kriging estimate with a polynomial drift model.

    Solves the extended system::

        | Gamma  F | |w|   |gamma_q|
        | F^T    0 | |m| = |f_q    |

    where ``F`` collects the drift basis at the support points.  The
    unbiasedness constraints ``F^T w = f_q`` force the estimator to
    reproduce every drift basis function exactly; with
    :func:`linear_drift` the estimate of an affine field is exact even when
    extrapolating.

    Parameters
    ----------
    points, values, query, variogram, metric:
        As in :func:`repro.core.kriging.ordinary_kriging`.
    drift:
        Basis-function generator mapping ``(n, Nv)`` points to an ``(n, k)``
        design matrix.  The support must contain at least ``k`` points in
        general position; otherwise the solver falls back to least squares.

    Returns
    -------
    KrigingResult
        ``lagrange`` holds the first drift multiplier (the constant term).

    Notes
    -----
    Not every (variogram, drift, support-geometry) combination yields a
    well-posed system — e.g. the piecewise-linear variogram ``gamma(h) = h``
    together with a linear drift is rank deficient on collinear supports,
    where the kriging predictor is not unique.  Singular systems are
    detected by a rank check and the call transparently degrades to
    ordinary kriging, which is always well-posed.
    """
    pts, vals, q = _validate(points, values, query)
    hit = _exact_hit(pts, vals, q)
    if hit is not None:
        return hit
    n = pts.shape[0]

    basis = np.asarray(drift(pts), dtype=np.float64)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError(
            f"drift basis must return (n, k), got {basis.shape} for {n} points"
        )
    k = basis.shape[1]
    basis_query = np.asarray(drift(q[None, :]), dtype=np.float64).reshape(k)

    gamma_matrix = np.asarray(variogram(pairwise_distances(pts, metric)), dtype=np.float64)
    np.fill_diagonal(gamma_matrix, 0.0)
    gamma_query = np.asarray(variogram(distances_to(pts, q, metric)), dtype=np.float64)

    size = n + k
    system = np.zeros((size, size))
    system[:n, :n] = gamma_matrix
    system[:n, n:] = basis
    system[n:, :n] = basis.T
    rhs = np.concatenate([gamma_query, basis_query])

    scale = np.max(np.abs(system))
    tolerance = max(scale, 1.0) * size * 1e-10
    if np.linalg.matrix_rank(system, tol=tolerance) < size:
        from repro.core.kriging import ordinary_kriging

        return ordinary_kriging(pts, vals, q, variogram, metric=metric)

    solution = _solve(system, rhs, n)
    weights = solution[:n]
    multipliers = solution[n:]
    estimate = float(weights @ vals)
    variance = float(weights @ gamma_query + multipliers @ basis_query)
    return KrigingResult(
        estimate=estimate,
        variance=max(variance, 0.0),
        weights=weights,
        lagrange=float(multipliers[0]),
    )
