"""Empirical semi-variogram (paper Eq. 4).

Given measured metric values ``lambda(e_j)`` at configurations ``e_j``, the
semi-variogram at lag ``d`` is::

    gamma(d) = 1 / (2 |N(d)|) * sum_{(j,k) in N(d)} (lambda(e_j) - lambda(e_k))^2

with ``N(d)`` the set of point pairs at distance ``d``.  On the integer
configuration lattices of this library L1 lags are integers, so the default
estimator groups pairs by exact lag; continuous inputs can be binned.

A caller that re-estimates as its point set grows (the estimator refits
after every simulation) passes a :class:`PairLagStore`: it keeps the
pair lags of the points seen so far and computes only the new points'
distances, with results bitwise equal to the stateless estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distances import DistanceMetric, cross_distances, pairwise_distances

__all__ = ["empirical_semivariogram", "EmpiricalVariogram", "PairLagStore"]


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Empirical semi-variogram: lags, values and pair counts.

    Calling the object evaluates ``gamma`` at arbitrary lags by linear
    interpolation between observed lags (constant extrapolation beyond the
    largest lag, linear through the origin below the smallest).
    """

    lags: np.ndarray
    gammas: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.lags) == len(self.gammas) == len(self.counts)):
            raise ValueError("lags, gammas and counts must have equal length")
        if len(self.lags) == 0:
            raise ValueError("empirical variogram needs at least one lag")
        if np.any(np.diff(self.lags) <= 0):
            raise ValueError("lags must be strictly increasing")
        if self.lags[0] <= 0:
            raise ValueError("lags must be positive (gamma(0) = 0 by definition)")

    @property
    def n_lags(self) -> int:
        """Number of distinct lags observed."""
        return len(self.lags)

    def __call__(self, h: np.ndarray | float) -> np.ndarray:
        """Interpolated ``gamma(h)`` with ``gamma(0) = 0``."""
        h_arr = np.atleast_1d(np.asarray(h, dtype=np.float64))
        # Anchor the interpolation at the origin: gamma(0) = 0 by definition.
        xs = np.concatenate([[0.0], self.lags])
        ys = np.concatenate([[0.0], self.gammas])
        result = np.interp(h_arr, xs, ys)
        return result if np.ndim(h) else float(result[0])  # type: ignore[return-value]


class PairLagStore:
    """Append-only lags of all point pairs.

    Lags are stored in column-major upper-triangle order: absorbing point
    ``j`` appends the lags of pairs ``(0, j), ..., (j - 1, j)``, so a new
    point costs O(n Nv) distance work instead of an O(n^2 Nv) recompute.
    The caller guarantees that rows already absorbed never change (the
    :class:`~repro.core.cache.SimulationCache` is append-only); the store
    is derived state and is simply rebuilt when empty.
    """

    def __init__(self, metric: DistanceMetric | str = DistanceMetric.L1) -> None:
        self.metric = DistanceMetric.coerce(metric)
        self.n_points = 0
        self._lags = np.empty(0)

    def pairs(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(iu, ju, lags)`` of every pair ``iu < ju`` of ``points``, in
        :func:`numpy.triu_indices` (row-major) order.

        Rows past :attr:`n_points` are absorbed first.  The order matches
        the stateless estimate, so per-lag sums accumulate identically.
        """
        n = points.shape[0]
        if n < self.n_points:
            raise ValueError(
                f"store holds {self.n_points} points but only {n} were given"
            )
        if n > self.n_points:
            self._absorb(points)
        iu, ju = np.triu_indices(n, k=1)
        return iu, ju, self._lags[ju * (ju - 1) // 2 + iu]

    def _absorb(self, points: np.ndarray) -> None:
        n0, n1 = self.n_points, points.shape[0]
        start, stop = n0 * (n0 - 1) // 2, n1 * (n1 - 1) // 2
        if stop > self._lags.size:
            grown = np.empty(max(stop, 2 * self._lags.size))
            grown[:start] = self._lags[:start]
            self._lags = grown
        # Row r of the block is new point j = n0 + r; its pairs are the
        # columns i < j.
        earlier = np.arange(n1)[None, :] < np.arange(n0, n1)[:, None]
        block = cross_distances(points[n0:n1], points[:n1], self.metric)
        self._lags[start:stop] = block[earlier]
        self.n_points = n1


def empirical_semivariogram(
    points: np.ndarray,
    values: np.ndarray,
    *,
    metric: DistanceMetric | str = DistanceMetric.L1,
    n_bins: int | None = None,
    max_lag: float | None = None,
    store: PairLagStore | None = None,
) -> EmpiricalVariogram:
    """Estimate the semi-variogram of ``values`` sampled at ``points`` (Eq. 4).

    Parameters
    ----------
    points:
        ``(n, Nv)`` configuration matrix.
    values:
        ``(n,)`` measured metric values.
    metric:
        Distance metric between configurations (paper: L1).
    n_bins:
        If ``None`` (default), pairs are grouped by *exact* lag — correct for
        integer lattices.  Otherwise lags are grouped into ``n_bins`` equal
        bins and each bin is represented by its mean lag.
    max_lag:
        Ignore pairs farther apart than this (defaults to all pairs).
    store:
        Optional :class:`PairLagStore` holding the pair lags of a prefix
        of ``points`` (built with the same ``metric``); only the remaining
        rows' distances are computed, and the store absorbs them.

    Returns
    -------
    EmpiricalVariogram
    """
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    if vals.ndim != 1 or vals.size != pts.shape[0]:
        raise ValueError(
            f"values shape {vals.shape} incompatible with {pts.shape[0]} points"
        )
    if pts.shape[0] < 2:
        raise ValueError("need at least two points to estimate a variogram")

    if store is None:
        iu, ju = np.triu_indices(pts.shape[0], k=1)
        lags = pairwise_distances(pts, metric)[iu, ju]
    elif store.metric is not DistanceMetric.coerce(metric):
        raise ValueError(
            f"pair store metric {store.metric.value!r} differs from {metric!r}"
        )
    else:
        iu, ju, lags = store.pairs(pts)
    sqdiff = 0.5 * (vals[iu] - vals[ju]) ** 2

    keep = lags > 0
    if max_lag is not None:
        keep &= lags <= max_lag
    lags, sqdiff = lags[keep], sqdiff[keep]
    if lags.size == 0:
        raise ValueError("no usable point pairs (all coincident or beyond max_lag)")

    if n_bins is None:
        unique_lags, inverse = np.unique(lags, return_inverse=True)
        # bincount accumulates each lag's pairs in input order, so the
        # row-major pair order fixes every sum bit for bit.
        gamma = np.bincount(inverse, weights=sqdiff, minlength=unique_lags.size)
        counts = np.bincount(inverse, minlength=unique_lags.size).astype(np.int64)
        gamma /= counts
        return EmpiricalVariogram(lags=unique_lags, gammas=gamma, counts=counts)

    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    edges = np.linspace(0.0, float(lags.max()), n_bins + 1)
    indices = np.clip(np.digitize(lags, edges) - 1, 0, n_bins - 1)
    bin_lags, bin_gamma, bin_counts = [], [], []
    for b in range(n_bins):
        mask = indices == b
        if not np.any(mask):
            continue
        bin_lags.append(float(np.mean(lags[mask])))
        bin_gamma.append(float(np.mean(sqdiff[mask])))
        bin_counts.append(int(np.sum(mask)))
    return EmpiricalVariogram(
        lags=np.asarray(bin_lags),
        gammas=np.asarray(bin_gamma),
        counts=np.asarray(bin_counts, dtype=np.int64),
    )
