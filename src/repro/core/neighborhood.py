"""Support-point search for the interpolate-or-simulate policy.

Algorithms 1-2 keep the already-simulated configurations within L1 distance
``d`` of the configuration being evaluated (lines 7-16 of both listings).
:func:`find_neighbors` scans every simulated point once: one
:func:`~repro.core.distances.distances_to` over the cache view, then a
stable sort of the points inside the ball.  At the hundreds to few
thousand points a session holds, that scan is as fast as any pruning index.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import DistanceMetric, distances_to

__all__ = ["find_neighbors"]


def find_neighbors(
    points: np.ndarray,
    query: np.ndarray,
    max_distance: float,
    *,
    metric: DistanceMetric | str = DistanceMetric.L1,
    max_neighbors: int | None = None,
) -> np.ndarray:
    """Indices of ``points`` within ``max_distance`` of ``query``.

    Parameters
    ----------
    points:
        ``(n, Nv)`` candidate support configurations (may be empty).
    query:
        Configuration being evaluated.
    max_distance:
        The paper's parameter ``d``: neighbours satisfy ``dist <= d``.
    metric:
        Distance metric (paper: L1).
    max_neighbors:
        Optional cap; when set, the *closest* ``max_neighbors`` are returned.

    Returns
    -------
    numpy.ndarray
        Indices into ``points``, ordered by increasing distance (ties keep
        insertion order, i.e. simulation order).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.empty(0, dtype=np.int64)
    if max_distance < 0:
        raise ValueError(f"max_distance must be >= 0, got {max_distance}")
    if max_neighbors is not None and max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")
    q = np.asarray(query, dtype=np.float64)

    dist = distances_to(pts, q, metric)
    inside = np.flatnonzero(dist <= max_distance)
    neighbors = inside[np.argsort(dist[inside], kind="stable")]
    if max_neighbors is not None:
        neighbors = neighbors[:max_neighbors]
    return neighbors.astype(np.int64)
