"""Empirical semi-variogram (paper Eq. 4).

Given measured metric values ``lambda(e_j)`` at configurations ``e_j``, the
semi-variogram at lag ``d`` is::

    gamma(d) = 1 / (2 |N(d)|) * sum_{(j,k) in N(d)} (lambda(e_j) - lambda(e_k))^2

with ``N(d)`` the set of point pairs at distance ``d``.  Pairs are grouped
by exact lag, which on the integer configuration lattices of this library
are few.

The estimate needs only a running sum and a pair count per lag.  A
:class:`LagAccumulator` keeps exactly those: absorbing a new point costs
its O(n Nv) distances to the points before it, and the estimate is one
division per lag.  A caller that re-estimates as its point set grows (the
estimator refits after every simulation) keeps one accumulator; the
stateless estimate absorbs all points into a fresh one.  Pairs enter in
column-major order, ``(0, j), ..., (j - 1, j)`` for each new ``j``, and
``np.add.at`` adds them in that order, so one-point, block and bulk
growth give bitwise-equal estimates.

A bulk absorb (a seeded, restored or migrated session's first fit) takes
the new rows in blocks bounded by the distance kernel's budget, computing
for each block only the pairs with earlier points, through the same
coordinate-order reduction as every other distance.  A large block's lags
are binned once with ``np.unique``, so only its few distinct lags are
located in (or merged into) the sorted lag set; a small block (a one-point
refit) searches the lag set for each pair, which skips the sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distances import _PAIRWISE_BLOCK_BYTES, DistanceMetric, _block_norms

__all__ = ["empirical_semivariogram", "EmpiricalVariogram", "LagAccumulator"]

_SORT_BINNING_MIN = 2048
"""Pairs in one absorbed block from which sorting its lags once is cheaper
than a binary search of the lag set per pair."""


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


class LagAccumulator:
    """Per-lag running sums of Eq. 4 over every pair of absorbed points.

    ``lags`` (sorted, all positive), ``sums`` (of ``0.5 * (v_i - v_j)^2``)
    and ``counts`` hold one entry per distinct lag; coincident pairs are
    dropped.  The caller guarantees that rows already absorbed never
    change (the :class:`~repro.core.cache.SimulationCache` is
    append-only); the accumulator is derived state and is simply rebuilt
    when empty.
    """

    def __init__(self, metric: DistanceMetric | str = DistanceMetric.L1) -> None:
        self.metric = DistanceMetric.coerce(metric)
        self.n_points = 0
        self.lags = np.empty(0)
        self.sums = np.empty(0)
        self.counts = np.empty(0, dtype=np.int64)

    def absorb(self, points: np.ndarray, values: np.ndarray) -> None:
        """Add the pairs of rows past :attr:`n_points` of ``points``."""
        n0, n1 = self.n_points, points.shape[0]
        if n1 < n0:
            raise ValueError(f"accumulator holds {n0} points but only {n1} were given")
        # Bound the difference block of a bulk absorb; rows go in order, so
        # the per-lag sums are the same however the rows are split.
        step = max(1, _PAIRWISE_BLOCK_BYTES // (8 * max(points.shape[1], 1) * max(n1, 1)))
        for start in range(n0, n1, step):
            self._absorb_rows(points, values, start, min(start + step, n1))
        self.n_points = n1

    def _absorb_rows(self, points: np.ndarray, values: np.ndarray, r0: int, r1: int) -> None:
        # Row r of the block is new point j = r0 + r; its pairs are the
        # columns i < j, taken row by row (column-major triangle order);
        # only the block's own diagonal square holds columns to drop.
        dist = _block_norms(points[r0:r1].T, points[:r1].T, self.metric, np.empty((r1 - r0, r1)))
        earlier = np.arange(r1)[None, :] < np.arange(r0, r1)[:, None]
        lags = dist[earlier]
        sq = 0.5 * (values[None, :r1] - values[r0:r1, None])[earlier] ** 2
        keep = lags > 0
        if not keep.all():
            # Coincident pairs carry no lag (gamma(0) = 0 by definition).
            lags, sq = lags[keep], sq[keep]
        if lags.size == 0:
            return
        # Many pairs share few lags: sort the block once and locate only its
        # distinct lags.  A small block locates each lag directly, which
        # skips the sort's fixed cost; both give the same slots.
        inverse = None
        if lags.size >= _SORT_BINNING_MIN:
            lags, inverse = np.unique(lags, return_inverse=True)
        slots = np.searchsorted(self.lags, lags)
        if self.lags.size == 0 or not np.array_equal(self.lags.take(slots, mode="clip"), lags):
            # New lags: move the old sums and counts to their new slots.
            merged = np.union1d(self.lags, lags)
            old = np.searchsorted(merged, self.lags)
            sums, counts = np.zeros(merged.size), np.zeros(merged.size, dtype=np.int64)
            sums[old], counts[old] = self.sums, self.counts
            self.lags, self.sums, self.counts = merged, sums, counts
            slots = np.searchsorted(merged, lags)
        if inverse is not None:
            slots = slots[inverse]
        np.add.at(self.sums, slots, sq)
        self.counts += np.bincount(slots, minlength=self.lags.size)

    def estimate(self) -> EmpiricalVariogram:
        """Eq. 4 over every absorbed pair."""
        if self.lags.size == 0:
            raise ValueError("no usable point pairs (all coincident)")
        return EmpiricalVariogram(
            lags=self.lags.copy(), gammas=self.sums / self.counts, counts=self.counts.copy()
        )


def empirical_semivariogram(
    points: np.ndarray,
    values: np.ndarray,
    *,
    metric: DistanceMetric | str = DistanceMetric.L1,
    store: LagAccumulator | None = None,
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
    store:
        Optional :class:`LagAccumulator` (built with the same ``metric``)
        that has absorbed a prefix of ``points`` and ``values``; it absorbs
        the remaining rows.  Without one, a fresh accumulator absorbs all
        rows, so both routes give the same bits.

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
        store = LagAccumulator(metric)
    elif store.metric is not DistanceMetric.coerce(metric):
        raise ValueError(
            f"accumulator metric {store.metric.value!r} differs from {metric!r}"
        )
    store.absorb(pts, vals)
    return store.estimate()
