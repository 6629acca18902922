"""Kriging solvers (paper Eqs. 7-10).

Ordinary kriging estimates the metric at a query configuration ``e_i`` as a
weighted sum of the measured values, with weights chosen so the estimator is
unbiased (weights sum to one, enforced through a Lagrange multiplier — the
row/column of ones bordering the paper's Eq. 9 matrix) and has minimal error
variance (Eq. 5).  The estimate is ``gamma_i . Gamma^-1 . lambda`` (Eq. 10).

The paper calls this construction "simple kriging"; the bordered system is
the textbook *ordinary* kriging formulation, which we name accordingly.  A
true simple-kriging variant (known mean, no Lagrange border) is provided for
completeness and for the ablation benches.

Solve dispatch
--------------
:func:`ordinary_kriging_grouped` is the batch engine's solve layer.  It bins
same-size bordered systems and factorizes each bin as **one** batched
``numpy.linalg.solve`` call over a 3-D stack (LAPACK runs the same
per-matrix routine, so results stay inside the ~1e-9 equivalence envelope of
a per-group solve, and the per-call Python/LAPACK dispatch overhead is paid
once per bin instead of once per group).  The only other route is a group
with a cached factorization of its exact support set.  A slice whose
residual check fails falls back to the per-group solver, transparently.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.distances import (
    DistanceMetric,
    cross_distances,
    distances_to,
    pairwise_distances,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.factor_cache import GammaFactor

__all__ = [
    "KrigingResult",
    "SolvePhases",
    "ordinary_kriging",
    "ordinary_kriging_batch",
    "ordinary_kriging_grouped",
    "simple_kriging",
]

Variogram = Callable[[np.ndarray], np.ndarray]

KrigingGroup = tuple[np.ndarray, np.ndarray, np.ndarray]
"""One shared-support solve: ``(support_points, support_values, queries)``."""


class SolvePhases:
    """Wall-clock accumulator for the three solve phases.

    *assembly* — distance/variogram kernels and system construction;
    *factorize* — fresh LAPACK factorizations (``gesv`` / batched solve);
    *backsolve* — cached-factor triangular solves plus per-query weight,
    estimate and variance extraction.
    """

    __slots__ = ("assembly", "factorize", "backsolve")

    def __init__(self) -> None:
        self.assembly = 0.0
        self.factorize = 0.0
        self.backsolve = 0.0

    def add(
        self,
        assembly: float = 0.0,
        factorize: float = 0.0,
        backsolve: float = 0.0,
    ) -> None:
        self.assembly += assembly
        self.factorize += factorize
        self.backsolve += backsolve

    def totals(self) -> tuple[float, float, float]:
        return (self.assembly, self.factorize, self.backsolve)


@dataclass(frozen=True)
class KrigingResult:
    """Outcome of one kriging interpolation.

    Attributes
    ----------
    estimate:
        Interpolated metric value ``lambda_hat(e_i)``.
    variance:
        Kriging variance (estimation-error variance); non-negative up to
        numerical noise.
    weights:
        Weight ``mu_k`` of each support value.
    lagrange:
        Lagrange multiplier of the unbiasedness constraint (ordinary kriging
        only; 0 for simple kriging).
    """

    estimate: float
    variance: float
    weights: np.ndarray
    lagrange: float

    @property
    def n_support(self) -> int:
        """Number of support points used."""
        return len(self.weights)


def _distinct_rows(pts: np.ndarray) -> bool:
    """Whether no two rows of ``pts`` compare equal, coordinate by coordinate.

    Each row is read as one opaque byte string; sorting those puts equal
    rows next to each other, so comparing neighbours settles it.  Adding
    ``0.0`` first turns ``-0.0`` into ``0.0``, after which two rows with
    equal bytes are the only rows that can compare equal (NaN equals
    nothing).  ``False`` means some rows might compare equal.
    """
    if pts.shape[1] == 0:
        return False
    rows = np.ascontiguousarray(pts + 0.0).view(np.dtype((np.void, pts.itemsize * pts.shape[1])))
    rows = np.sort(rows.ravel())
    return not (rows[1:] == rows[:-1]).any()


def _validate_support(
    points: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"support points must be a non-empty 2-D array, got {pts.shape}")
    if vals.ndim != 1 or vals.size != pts.shape[0]:
        raise ValueError(f"values shape {vals.shape} incompatible with {pts.shape[0]} points")
    if not np.all(np.isfinite(vals)):
        raise ValueError("support values contain non-finite entries")
    # Coincident support points make the kriging matrix singular and the
    # least-squares fallback then violates the unit-sum constraint; collapse
    # duplicates to their mean value instead.  Supports drawn from the
    # simulation cache are distinct, which one sort proves cheaply.
    if _distinct_rows(pts):
        return pts, vals
    unique, inverse = np.unique(pts, axis=0, return_inverse=True)
    if unique.shape[0] != pts.shape[0]:
        sums = np.zeros(unique.shape[0])
        counts = np.zeros(unique.shape[0])
        np.add.at(sums, inverse, vals)
        np.add.at(counts, inverse, 1.0)
        pts, vals = unique, sums / counts
    return pts, vals


def _validate(
    points: np.ndarray, values: np.ndarray, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts, vals = _validate_support(points, values)
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.size != pts.shape[1]:
        raise ValueError(f"query shape {q.shape} incompatible with dim {pts.shape[1]}")
    return pts, vals, q


#: Largest accepted ``sum |w|`` of one right-hand side's kriging weights.
#: Ordinary-kriging weights sum to one, so this is the factor by which an
#: estimate can amplify the spread of its support values.  Sound systems
#: stay in single digits (at most 7.2 over the Table I replays, 4.9 in the
#: optimizer loop, 3.1 when serving).  A numerically singular but consistent
#: system (the linear variogram on rectangle configurations of an L1
#: lattice) passes the residual check, yet LU returns one of its many
#: solutions with an arbitrary null-space component; its weights run into
#: the tens or far beyond.
_MAX_WEIGHT_GAIN = 32.0


def _solve(matrix: np.ndarray, rhs: np.ndarray, n_weights: int | None = None) -> np.ndarray:
    """Solve the kriging system, falling back to least squares when needed.

    ``rhs`` may be a single vector or a ``(size, m)`` matrix of right-hand
    sides; the matrix is factorized once either way.  The first
    ``n_weights`` rows of the solution are kriging weights (default: every
    row but the bordered system's Lagrange row).  Besides hard
    singularity (``LinAlgError`` / non-finite entries), the direct solve is
    rejected when its *residual* is large relative to the right-hand side
    (on nearly singular systems ``solve`` can return finite garbage that
    badly violates the unit-sum row) or when its weights' ``sum |w|``
    exceeds :data:`_MAX_WEIGHT_GAIN` (a singular system solved exactly, but
    with an arbitrary null-space component).  The minimum-norm
    least-squares solution of the same system honours both.
    """
    if n_weights is None:
        n_weights = matrix.shape[0] - 1
    try:
        solution = np.linalg.solve(matrix, rhs)
        if np.all(np.isfinite(solution)):
            residual = np.abs(matrix @ solution - rhs).max()
            gain = np.abs(solution[:n_weights]).sum(0).max()
            if (
                residual <= 1e-6 * max(1.0, np.abs(rhs).max())
                and gain <= _MAX_WEIGHT_GAIN
            ):
                return solution
    except np.linalg.LinAlgError:
        pass
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return solution


def _bordered_system(
    pts: np.ndarray, variogram: Variogram, metric: DistanceMetric | str
) -> np.ndarray:
    """The paper's Eq. 9 matrix: Gamma bordered by the unbiasedness row."""
    n = pts.shape[0]
    gamma_matrix = np.asarray(variogram(pairwise_distances(pts, metric)), dtype=np.float64)
    np.fill_diagonal(gamma_matrix, 0.0)
    system = np.empty((n + 1, n + 1))
    system[:n, :n] = gamma_matrix
    system[:n, n] = 1.0
    system[n, :n] = 1.0
    system[n, n] = 0.0
    return system


def _exact_hit(
    pts: np.ndarray, vals: np.ndarray, query: np.ndarray
) -> KrigingResult | None:
    """Kriging exactness shortcut: a query coinciding with a support point.

    Degenerate (singular) kriging systems arise easily on integer lattices —
    e.g. the piecewise-linear variogram under the L1 metric — and their
    least-squares solutions need not honour exact interpolation.  Resolving
    coincident queries directly guarantees the exactness property
    regardless of system conditioning.
    """
    matches = np.flatnonzero(np.all(pts == query[None, :], axis=1))
    if matches.size == 0:
        return None
    index = int(matches[0])
    weights = np.zeros(pts.shape[0])
    weights[index] = 1.0
    return KrigingResult(
        estimate=float(vals[index]), variance=0.0, weights=weights, lagrange=0.0
    )


def ordinary_kriging(
    points: np.ndarray,
    values: np.ndarray,
    query: np.ndarray,
    variogram: Variogram,
    *,
    metric: DistanceMetric | str = DistanceMetric.L1,
) -> KrigingResult:
    """Ordinary-kriging estimate of the metric at ``query`` (Eqs. 7-10).

    Parameters
    ----------
    points:
        ``(n, Nv)`` configurations where the metric has been measured.
    values:
        Measured metric values ``lambda(e_k)``.
    query:
        Configuration ``e_i`` to interpolate.
    variogram:
        Semi-variogram function ``gamma(h)`` (fitted model or empirical).
    metric:
        Distance metric between configurations (paper: L1).

    Notes
    -----
    Kriging is an *exact* interpolator: when ``query`` coincides with a
    support point the estimate equals the measured value.  With a single
    support point the estimate degenerates to that value (weights must sum
    to one).  Coincident support points are collapsed to their mean value
    before solving, so ``result.weights`` refers to the deduplicated support
    set.
    """
    pts, vals, q = _validate(points, values, query)
    hit = _exact_hit(pts, vals, q)
    if hit is not None:
        return hit
    n = pts.shape[0]

    system = _bordered_system(pts, variogram, metric)
    gamma_query = np.asarray(variogram(distances_to(pts, q, metric)), dtype=np.float64)
    rhs = np.concatenate([gamma_query, [1.0]])

    solution = _solve(system, rhs)
    weights, lagrange = solution[:n], float(solution[n])
    estimate = float(weights @ vals)
    variance = float(solution @ rhs)  # sum_k mu_k gamma_ik + lagrange
    return KrigingResult(
        estimate=estimate,
        variance=max(variance, 0.0),
        weights=weights,
        lagrange=lagrange,
    )


class _PreparedGroup:
    """The support-validated, exact-hit-resolved front half of a group solve.

    Shared by the per-group and the stacked solvers so both paths make
    byte-identical decisions about deduplication, exact hits and right-hand
    side construction.
    """

    __slots__ = ("pts", "vals", "n", "results", "pending", "gamma_queries", "rhs")


def _prepare_group(
    points: np.ndarray,
    values: np.ndarray,
    queries: np.ndarray,
    variogram: Variogram,
    metric: DistanceMetric | str,
    factor: "GammaFactor | None" = None,
) -> _PreparedGroup | None:
    if factor is not None and factor.n_support == np.shape(points)[0]:
        # Factored supports come straight from the estimator's simulation
        # cache (unique rows by construction): skip the duplicate collapse,
        # keep the cheap finiteness guard.
        pts = np.asarray(points, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise ValueError("support values contain non-finite entries")
    else:
        pts, vals = _validate_support(points, values)
    qs = np.asarray(queries, dtype=np.float64)
    if qs.ndim != 2 or qs.shape[1] != pts.shape[1]:
        raise ValueError(
            f"queries must have shape (m, {pts.shape[1]}), got {qs.shape}"
        )
    m = qs.shape[0]
    if m == 0:
        return None
    n = pts.shape[0]

    prep = _PreparedGroup()
    prep.pts = pts
    prep.vals = vals
    prep.n = n
    prep.results = [None] * m
    prep.pending = []
    dist_q = cross_distances(pts, qs, metric)  # (n, m)
    for j in range(m):
        exact = np.flatnonzero(dist_q[:, j] == 0.0)
        if exact.size:
            row = int(exact[0])
            weights = np.zeros(n)
            weights[row] = 1.0
            prep.results[j] = KrigingResult(
                estimate=float(vals[row]), variance=0.0, weights=weights, lagrange=0.0
            )
        else:
            prep.pending.append(j)
    if prep.pending:
        gamma_queries = np.asarray(
            variogram(dist_q[:, prep.pending]), dtype=np.float64
        )
        prep.gamma_queries = gamma_queries
        prep.rhs = np.vstack([gamma_queries, np.ones((1, len(prep.pending)))])
    else:
        prep.gamma_queries = None
        prep.rhs = None
    return prep


def _finish_group(prep: _PreparedGroup, solution: np.ndarray) -> list[KrigingResult]:
    """Turn a pending-column solution into per-query results."""
    n = prep.n
    weights = solution[:n]
    lagrange = solution[n]
    estimates = prep.vals @ weights
    variances = np.einsum("ij,ij->j", solution, prep.rhs)
    for col, j in enumerate(prep.pending):
        prep.results[j] = KrigingResult(
            estimate=float(estimates[col]),
            variance=max(float(variances[col]), 0.0),
            weights=weights[:, col].copy(),
            lagrange=float(lagrange[col]),
        )
    return [r for r in prep.results if r is not None]


def ordinary_kriging_batch(
    points: np.ndarray,
    values: np.ndarray,
    queries: np.ndarray,
    variogram: Variogram,
    *,
    metric: DistanceMetric | str = DistanceMetric.L1,
    factor: "GammaFactor | None" = None,
    phases: SolvePhases | None = None,
) -> list[KrigingResult]:
    """Ordinary kriging of many queries over one shared support set.

    The bordered Gamma matrix (Eq. 9) depends only on the support, so for a
    batch of queries it is built **once** and the linear system is
    factorized **once** (one LAPACK ``gesv`` call); every query contributes
    just a right-hand-side column and a back-substitution.  Versus calling
    :func:`ordinary_kriging` per query this removes the dominant
    O(n^3)-per-query cost — the win the whole batch query engine
    (:meth:`repro.core.estimator.KrigingEstimator.evaluate_batch`) is built
    on.

    Parameters
    ----------
    points, values:
        Shared support set, as in :func:`ordinary_kriging`.
    queries:
        ``(m, Nv)`` configurations to interpolate.
    variogram, metric:
        As in :func:`ordinary_kriging`.
    factor:
        Optional cached :class:`~repro.core.factor_cache.GammaFactor` for
        this support set — ``points``/``values`` must then be in the
        factor's row order (deduplicated; the estimator's cache guarantees
        this).  The solve reuses the factorization (two triangular
        backsolves) and verifies its residual against the true bordered
        system; a residual miss transparently falls back to the fresh
        solver, so a stale or ill-conditioned factor costs accuracy nothing.
    phases:
        Optional :class:`SolvePhases` accumulator receiving the
        assembly / factorize / backsolve wall-clock split.

    Returns
    -------
    list[KrigingResult]
        One result per query row, in order.  Queries coinciding with a
        support point take the exactness shortcut, as in the single-query
        path.
    """
    t0 = time.perf_counter()
    prep = _prepare_group(points, values, queries, variogram, metric, factor=factor)
    if prep is None:
        return []
    if phases is not None:
        phases.add(assembly=time.perf_counter() - t0)
    if not prep.pending:
        return [r for r in prep.results if r is not None]

    solution = None
    if factor is not None and factor.n_support == prep.n:
        t1 = time.perf_counter()
        solution = factor.solve(prep.gamma_queries)  # None: residual fallback
        if phases is not None:
            phases.add(backsolve=time.perf_counter() - t1)
    if solution is None:
        t1 = time.perf_counter()
        system = _bordered_system(prep.pts, variogram, metric)
        t2 = time.perf_counter()
        solution = _solve(system, prep.rhs)  # one factorization, many RHS
        if phases is not None:
            t3 = time.perf_counter()
            phases.add(assembly=t2 - t1, factorize=t3 - t2)
    t1 = time.perf_counter()
    out = _finish_group(prep, solution)
    if phases is not None:
        phases.add(backsolve=time.perf_counter() - t1)
    return out


# ---------------------------------------------------------------------------
# Stacked batched factorization
# ---------------------------------------------------------------------------
def _solve_stack(
    members: list[tuple[int, _PreparedGroup]],
    variogram: Variogram,
    metric: DistanceMetric | str,
    results: list,
    phases: SolvePhases | None,
) -> None:
    """Solve same-size prepared groups as one batched ``gesv`` call.

    Right-hand sides are zero-padded to the widest member (a zero column
    back-substitutes to an exactly zero column, so padding is free); each
    slice is then checked with the same residual and weight-gain criteria as
    :func:`_solve`, and failing slices fall back to the per-group fresh
    solver.
    """
    if len(members) == 1:
        idx, prep = members[0]
        t0 = time.perf_counter()
        system = _bordered_system(prep.pts, variogram, metric)
        t1 = time.perf_counter()
        solution = _solve(system, prep.rhs)
        t2 = time.perf_counter()
        results[idx] = _finish_group(prep, solution)
        if phases is not None:
            phases.add(
                assembly=t1 - t0,
                factorize=t2 - t1,
                backsolve=time.perf_counter() - t2,
            )
        return

    size = members[0][1].n
    m_max = max(len(prep.pending) for _, prep in members)
    t0 = time.perf_counter()
    systems = np.empty((len(members), size + 1, size + 1))
    rhs = np.zeros((len(members), size + 1, m_max))
    for slot, (_, prep) in enumerate(members):
        systems[slot] = _bordered_system(prep.pts, variogram, metric)
        rhs[slot, :, : len(prep.pending)] = prep.rhs
    t1 = time.perf_counter()

    solutions = None
    try:
        solutions = np.linalg.solve(systems, rhs)  # one batched gesv
    except np.linalg.LinAlgError:
        pass  # some slice is hard-singular: per-group fallback below
    ok = np.zeros(len(members), dtype=bool)
    if solutions is not None:
        finite = np.isfinite(solutions).all(axis=(1, 2))
        residuals = np.abs(systems @ solutions - rhs).max(axis=(1, 2))
        scales = np.maximum(1.0, np.abs(rhs).max(axis=(1, 2)))
        gains = np.abs(solutions[:, :size]).sum(1).max(1)
        ok = finite & (residuals <= 1e-6 * scales) & (gains <= _MAX_WEIGHT_GAIN)
    t2 = time.perf_counter()
    if phases is not None:
        phases.add(assembly=t1 - t0, factorize=t2 - t1)

    for slot, (idx, prep) in enumerate(members):
        if ok[slot]:
            t3 = time.perf_counter()
            results[idx] = _finish_group(
                prep, solutions[slot, :, : len(prep.pending)]
            )
            if phases is not None:
                phases.add(backsolve=time.perf_counter() - t3)
        else:
            # Recompute this slice exactly as the per-group solver would
            # (LU-with-residual-check, then least squares).
            t3 = time.perf_counter()
            solution = _solve(systems[slot], rhs[slot, :, : len(prep.pending)])
            t4 = time.perf_counter()
            results[idx] = _finish_group(prep, solution)
            if phases is not None:
                phases.add(
                    factorize=t4 - t3, backsolve=time.perf_counter() - t4
                )


def ordinary_kriging_grouped(
    groups: Sequence[KrigingGroup],
    variogram: Variogram,
    *,
    metric: DistanceMetric | str = DistanceMetric.L1,
    factors: "Sequence[GammaFactor | None] | None" = None,
    phases: SolvePhases | None = None,
) -> list[list[KrigingResult]]:
    """Solve many independent shared-support kriging groups.

    Each group is a ``(support_points, support_values, queries)`` triple
    with the semantics of :func:`ordinary_kriging_batch` (dedup, exact hits,
    residual checks).  A group handed a cached factor of its support takes
    the factor path; the rest are binned by support size, in first-encounter
    order, and each bin is factorized as one 3-D batched solve.  Results
    stay within the engine's ~1e-9 equivalence envelope of a per-group
    :func:`ordinary_kriging_batch` loop.

    Parameters
    ----------
    groups:
        Shared-support groups, each ``(points, values, queries)`` as in
        :func:`ordinary_kriging_batch`.
    variogram, metric:
        As in :func:`ordinary_kriging`.
    factors:
        Optional per-group cached factorizations, aligned with ``groups``
        (``None`` entries solve fresh).
    phases:
        Optional :class:`SolvePhases` accumulator.

    Returns
    -------
    list[list[KrigingResult]]
        Per-group result lists, in group order.
    """
    if factors is not None and len(factors) != len(groups):
        raise ValueError(
            f"factors length {len(factors)} != groups length {len(groups)}"
        )
    results: list[list[KrigingResult] | None] = [None] * len(groups)
    stacks: "OrderedDict[int, list[tuple[int, _PreparedGroup]]]" = OrderedDict()
    for idx, (points, values, queries) in enumerate(groups):
        factor = factors[idx] if factors is not None else None
        if factor is not None and factor.n_support == np.shape(points)[0]:
            results[idx] = ordinary_kriging_batch(
                points, values, queries, variogram,
                metric=metric, factor=factor, phases=phases,
            )
            continue
        t0 = time.perf_counter()
        prep = _prepare_group(points, values, queries, variogram, metric)
        if phases is not None:
            phases.add(assembly=time.perf_counter() - t0)
        if prep is None:
            results[idx] = []
        elif not prep.pending:
            results[idx] = [r for r in prep.results if r is not None]
        else:
            # Bin by the *validated* size: duplicate collapse may shrink a
            # group below its raw size, and slices in a stack must agree.
            stacks.setdefault(prep.n, []).append((idx, prep))
    for members in stacks.values():
        _solve_stack(members, variogram, metric, results, phases)
    return results  # type: ignore[return-value]


def simple_kriging(
    points: np.ndarray,
    values: np.ndarray,
    query: np.ndarray,
    variogram: Variogram,
    *,
    mean: float,
    sill: float,
    metric: DistanceMetric | str = DistanceMetric.L1,
) -> KrigingResult:
    """Simple-kriging estimate with known ``mean`` and ``sill``.

    The covariance is derived from the variogram as ``C(h) = sill -
    gamma(h)``; the estimate is ``mean + weights . (values - mean)``.
    """
    pts, vals, q = _validate(points, values, query)
    if sill <= 0:
        raise ValueError(f"sill must be > 0, got {sill}")
    hit = _exact_hit(pts, vals, q)
    if hit is not None:
        return hit

    gamma_matrix = np.asarray(variogram(pairwise_distances(pts, metric)), dtype=np.float64)
    np.fill_diagonal(gamma_matrix, 0.0)
    gamma_query = np.asarray(variogram(distances_to(pts, q, metric)), dtype=np.float64)

    cov_matrix = sill - gamma_matrix
    cov_query = sill - gamma_query
    weights = _solve(cov_matrix, cov_query, cov_query.size)
    estimate = float(mean + weights @ (vals - mean))
    variance = float(sill - weights @ cov_query)
    return KrigingResult(
        estimate=estimate,
        variance=max(variance, 0.0),
        weights=weights,
        lagrange=0.0,
    )
