"""Distances between approximation-source configurations.

The paper measures configuration proximity with the L1 norm (Algorithms 1-2,
line "dCur = ||w - w_sim||_1"); L2 and Linf are provided for the ablation
study (experiment E11 in DESIGN.md).

Every batch distance goes through one reduction, :func:`_norms`: the
differences of a row block (or of one query) are laid out coordinate-major,
``(Nv, rows, cols)``, and reduced over the leading axis, so coordinates are
summed in index order (``|d_0| + |d_1| + ...``) whatever the block's shape.  No
temporary is larger than one block of :data:`_PAIRWISE_BLOCK_BYTES`, so a
bulk distance matrix never materializes the ``(n, n, Nv)`` cube.  For
``Nv <= 7`` index order is exactly what a last-axis ``np.sum`` does (numpy
sums short rows sequentially); on integer coordinates every order is exact.
Only non-integer coordinates with ``Nv >= 8`` can differ from a last-axis
pairwise sum, by a few ulp.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "DistanceMetric",
    "distance",
    "pairwise_distances",
    "distances_to",
    "cross_distances",
]

_PAIRWISE_BLOCK_BYTES = 1024 * 1024
"""Upper bound on the coordinate-major difference block of one reduction."""


class DistanceMetric(enum.Enum):
    """Norm used to compare configurations in the ``Nv``-cube."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def coerce(cls, value: "DistanceMetric | str") -> "DistanceMetric":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown distance metric {value!r}; expected one of {valid}") from exc


def _as_2d(x: np.ndarray) -> np.ndarray:
    array = np.asarray(x, dtype=np.float64)
    if array.ndim == 1:
        return array[None, :]
    if array.ndim != 2:
        raise ValueError(f"configurations must be 1-D or 2-D, got shape {array.shape}")
    return array


def distance(
    a: np.ndarray, b: np.ndarray, metric: DistanceMetric | str = DistanceMetric.L1
) -> float:
    """Distance between two configuration vectors."""
    metric = DistanceMetric.coerce(metric)
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if diff.ndim != 1:
        raise ValueError(f"expected 1-D configurations, got shape {diff.shape}")
    if metric is DistanceMetric.L1:
        return float(np.sum(np.abs(diff)))
    if metric is DistanceMetric.L2:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.max(np.abs(diff)))


def _norms(diff: np.ndarray, metric: DistanceMetric, out: np.ndarray) -> np.ndarray:
    """Reduce C-ordered coordinate-major differences ``(Nv, ...)`` into ``out``.

    ``diff`` is overwritten.  numpy reduces a leading axis by combining
    whole slices in index order; a lone pair (one element per slice) is
    accumulated explicitly, because numpy would reduce that single
    contiguous row pairwise.
    """
    # Positional ``out`` arguments: keyword parsing would dominate the
    # small blocks of a single query or a small support set.
    l2 = metric is DistanceMetric.L2
    if l2:
        np.multiply(diff, diff, diff)
    else:
        np.abs(diff, diff)
    combine = np.maximum if metric is DistanceMetric.LINF else np.add
    nv = diff.shape[0]
    if nv > 1 and diff.size == nv:
        out[...] = combine.accumulate(diff.ravel())[-1]
    else:
        combine.reduce(diff, 0, None, out)
    if l2:
        np.sqrt(out, out)
    return out


def _block_norms(
    at: np.ndarray, bt: np.ndarray, metric: DistanceMetric, out: np.ndarray
) -> np.ndarray:
    """Distances between the columns of ``at`` ``(Nv, ra)`` and ``bt`` ``(Nv, nb)``.

    Writes the ``(ra, nb)`` block into ``out`` (which may be a strided
    view) from one ``(Nv, ra, nb)`` difference array.
    """
    diff = np.empty((at.shape[0], at.shape[1], bt.shape[1]))
    return _norms(np.subtract(at[:, :, None], bt[:, None, :], diff), metric, out)


def _block_rows(nv: int, cols: int) -> int:
    """Rows per block so one ``(Nv, rows, cols)`` difference array fits the budget."""
    return max(1, _PAIRWISE_BLOCK_BYTES // (8 * max(nv, 1) * max(cols, 1)))


def distances_to(
    points: np.ndarray,
    query: np.ndarray,
    metric: DistanceMetric | str = DistanceMetric.L1,
) -> np.ndarray:
    """Distances from every row of ``points`` to the single ``query`` vector."""
    metric = DistanceMetric.coerce(metric)
    pts = _as_2d(points)
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.size != pts.shape[1]:
        raise ValueError(
            f"query shape {q.shape} incompatible with points of dim {pts.shape[1]}"
        )
    diff = np.subtract(pts.T, q[:, None], np.empty((q.size, pts.shape[0])))
    return _norms(diff, metric, np.empty(pts.shape[0]))


def cross_distances(
    a: np.ndarray,
    b: np.ndarray,
    metric: DistanceMetric | str = DistanceMetric.L1,
) -> np.ndarray:
    """``(len(a), len(b))`` distance matrix between two point sets.

    Computed in row blocks of ``a`` so the difference temporary stays
    bounded regardless of the input sizes.
    """
    metric = DistanceMetric.coerce(metric)
    pa = _as_2d(a)
    pb = _as_2d(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(
            f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]} coordinates"
        )
    na, nv = pa.shape
    nb = pb.shape[0]
    at, bt = pa.T, pb.T
    out = np.empty((na, nb))
    if 8 * nv * na * nb <= _PAIRWISE_BLOCK_BYTES:
        # One block, with the longer point set along numpy's inner loop
        # (|x - y| = |y - x|, so the transposed block has the same bits).
        if nb >= na:
            return _block_norms(at, bt, metric, out)
        _block_norms(bt, at, metric, out.T)
        return out
    block = _block_rows(nv, nb)
    for start in range(0, na, block):
        stop = min(start + block, na)
        _block_norms(at[:, start:stop], bt, metric, out[start:stop])
    return out


def pairwise_distances(
    points: np.ndarray, metric: DistanceMetric | str = DistanceMetric.L1
) -> np.ndarray:
    """Full symmetric distance matrix between the rows of ``points``.

    Computed in row blocks over the upper triangle (mirrored into the lower,
    which is exact: ``|x - y| = |y - x|``), so no temporary exceeds one
    block and symmetry halves the work.
    """
    metric = DistanceMetric.coerce(metric)
    pts = _as_2d(points)
    n, nv = pts.shape
    pt = pts.T
    out = np.empty((n, n))
    if 8 * nv * n * n <= _PAIRWISE_BLOCK_BYTES:
        return _block_norms(pt, pt, metric, out)
    block = _block_rows(nv, n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        # Columns >= start only: earlier iterations already mirrored the
        # columns < start of these rows.
        d = _block_norms(pt[:, start:stop], pt[:, start:], metric, out[start:stop, start:])
        out[start:, start:stop] = d.T
    return out
