"""In-memory LRU cache of Gamma-matrix Cholesky factorizations.

The batch engine factorizes one bordered Gamma matrix per shared-support
group, and a serving session answers reads over the same support sets
again and again between writes.  This module amortizes that: factorizations
are cached by support-set signature, and a group whose signature matches a
cached one exactly is solved with two triangular backsolves instead of a
fresh factorization.  Any other signature is factorized from scratch.

The Gamma matrix itself (zero diagonal, conditionally negative definite) has
no Cholesky factorization, so the cache factors the classical *shifted*
matrix ``A = s 11^T - Gamma``, positive definite for a large enough shift
``s`` on strictly conditionally-negative-definite variograms.  Ordinary
kriging weights are invariant under the shift: with ``a = s 1 - g`` the
bordered system ``Gamma w + mu 1 = g, 1^T w = 1`` becomes ``A w - mu 1 = a``
under the same constraint.

Accuracy is guarded twice: a factor whose diagonal spread signals bad
conditioning is refused (fresh path), and every solve's residual is checked
against the *original* bordered system — a miss falls back to the plain
LU/least-squares solver, so the reuse layer can never push results outside
the batch engine's ~1e-9 equivalence envelope.  A variogram refit changes
every Gamma entry, so the estimator invalidates the whole cache on refit.
The cache is never serialized: a restored estimator starts with it cold.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from repro.core.distances import DistanceMetric, pairwise_distances

__all__ = ["FactorCache", "FactorCacheStats", "GammaFactor"]

Signature = tuple[int, ...]
Variogram = Callable[[np.ndarray], np.ndarray]

#: Residual tolerance (relative to the right-hand-side scale) above which a
#: factored solve is rejected and the plain solver takes over.
RESIDUAL_RTOL = 1e-9

#: Largest tolerated ratio between the extreme diagonal entries of a factor
#: (a cheap lower bound on sqrt(cond)); beyond it the solution may drift past
#: the equivalence tolerance, so the factor is not used.
DIAGONAL_SPREAD_LIMIT = 1e4

#: Shift multipliers tried when factorizing ``s 11^T - Gamma``.
_SHIFT_GROWTH = (1.0, 4.0, 16.0)


@dataclass
class FactorCacheStats:
    """Effectiveness counters of one :class:`FactorCache`.

    ``hits`` are exact signature matches and ``fresh`` full
    factorizations.  ``fallbacks`` counts solves rejected by the residual
    check (answered by the plain solver), ``failures`` support sets that
    produced no positive-definite factor at all, and ``invalidations``
    whole-cache flushes (variogram refits).  ``updates`` and
    ``update_points`` always read 0: they stay in the counter schema read
    by the ``stats`` verb and by snapshot stats.
    """

    hits: int = 0
    updates: int = 0
    update_points: int = 0
    fresh: int = 0
    fallbacks: int = 0
    failures: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Factorizations asked of the cache (hits + updates + fresh + failures)."""
        return self.hits + self.updates + self.fresh + self.failures

    @property
    def reuse_rate(self) -> float:
        """Share of factorization requests served without an O(n^3) solve."""
        if self.requests == 0:
            return float("nan")
        return (self.hits + self.updates) / self.requests

    _COUNTER_NAMES = (
        "hits",
        "updates",
        "update_points",
        "fresh",
        "fallbacks",
        "failures",
        "invalidations",
        "evictions",
    )

    def as_pairs(self) -> tuple[tuple[str, int], ...]:
        """Counter name/value pairs, for frozen result dataclasses."""
        return tuple((name, getattr(self, name)) for name in self._COUNTER_NAMES)

    @classmethod
    def from_pairs(cls, pairs: tuple[tuple[str, int], ...]) -> "FactorCacheStats":
        """Rebuild a stats view from :meth:`as_pairs` output, so consumers
        holding the serialized counters (e.g. replay results) reuse the
        properties here instead of re-deriving them."""
        known = {name: value for name, value in pairs if name in cls._COUNTER_NAMES}
        return cls(**known)


class GammaFactor:
    """One cached factorization: ``chol @ chol.T ~= shift - gamma``.

    ``rows`` are the support cache rows in *factor order*, the sorted
    signature.  Callers must feed support points/values in this order;
    weights come back in it too.  ``gamma`` is the unbordered Gamma matrix
    in the same order, kept so solves can be residual-checked against the
    true system.
    """

    __slots__ = ("rows", "gamma", "shift", "chol", "ones_solve", "ones_sum", "stats")

    def __init__(
        self,
        rows: np.ndarray,
        gamma: np.ndarray,
        shift: float,
        chol: np.ndarray,
        stats: FactorCacheStats | None = None,
    ) -> None:
        self.rows = rows
        self.gamma = gamma
        self.shift = shift
        self.chol = chol
        self.stats = stats
        # A^-1 1 is shared by every query of every solve; it rides along the
        # first solve's right-hand-side block (one extra column instead of a
        # dedicated triangular-solve pair) and is memoized here.
        self.ones_solve: np.ndarray | None = None
        self.ones_sum = 0.0

    @property
    def n_support(self) -> int:
        return self.chol.shape[0]

    def well_conditioned(self) -> bool:
        """Cheap screen: the diagonal spread bounds sqrt(cond(A)) from below."""
        diag = np.diagonal(self.chol)
        dmin = float(diag.min())
        if dmin <= 0.0 or not np.isfinite(dmin):
            return False
        return float(diag.max()) / dmin <= DIAGONAL_SPREAD_LIMIT

    def solve(self, gamma_queries: np.ndarray) -> np.ndarray | None:
        """Solve the bordered kriging system for a ``(n, m)`` gamma block.

        Returns the ``(n + 1, m)`` solution (weight rows plus the Lagrange
        row, exactly the plain solver's layout) or ``None`` when the residual
        check fails — the caller then solves the bordered system directly.
        """
        n, m = gamma_queries.shape
        ones_solve = self.ones_solve
        rhs = np.empty((n, m + 1 if ones_solve is None else m))
        rhs[:, :m] = self.shift - gamma_queries  # a = s 1 - g
        if ones_solve is None:
            rhs[:, m] = 1.0
        forward = solve_triangular(self.chol, rhs, lower=True, check_finite=False)
        solved = solve_triangular(
            self.chol, forward, lower=True, trans="T", check_finite=False
        )
        if ones_solve is None:
            ones_solve = solved[:, m]
            solved = solved[:, :m]
            self.ones_sum = float(ones_solve.sum())
            self.ones_solve = ones_solve
        if not (np.isfinite(self.ones_sum) and self.ones_sum > 0.0):
            if self.stats is not None:
                self.stats.fallbacks += 1
            return None
        lagrange = (solved.sum(axis=0) - 1.0) / self.ones_sum  # nu, (m,)
        weights = solved - ones_solve[:, None] * lagrange[None, :]

        # Residual of the *original* system: Gamma w - nu 1 - g and 1^T w - 1.
        residual_top = self.gamma @ weights - lagrange[None, :] - gamma_queries
        residual_sum = weights.sum(axis=0) - 1.0
        scale = max(1.0, float(np.abs(gamma_queries).max(initial=0.0)))
        worst = max(
            float(np.abs(residual_top).max(initial=0.0)),
            float(np.abs(residual_sum).max(initial=0.0)),
        )
        if not np.isfinite(worst) or worst > RESIDUAL_RTOL * scale:
            if self.stats is not None:
                self.stats.fallbacks += 1
            return None
        return np.vstack([weights, -lagrange[None, :]])


class FactorCache:
    """LRU of :class:`GammaFactor` instances keyed by support signature.

    Parameters
    ----------
    capacity:
        Maximum number of cached factors (least recently used evicted).
    max_bytes:
        Memory budget for the cached factors' arrays (each holds two dense
        ``n x n`` float64 blocks, so entry-count alone does not bound
        memory on large-neighbourhood sweeps).  Least recently used
        entries are evicted past the budget; the most recent factor is
        always kept, even when it alone exceeds the budget.
    min_support:
        Support sets smaller than this bypass the cache entirely — their
        O(n^3) factorization is already trivial.
    stats:
        Counter sink, shared with the estimator's
        :class:`~repro.core.estimator.EstimatorStats`.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        max_bytes: int = 256 * 1024 * 1024,
        min_support: int = 4,
        stats: FactorCacheStats | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.min_support = min_support
        self._bytes = 0
        self.stats = stats if stats is not None else FactorCacheStats()
        self._entries: OrderedDict[Signature, GammaFactor] = OrderedDict()
        # Support sets with no PD factorization (rank-deficient Gammas are
        # routine on lattice workloads); memoized so a signature the
        # optimizer keeps revisiting does not pay a doomed O(n^3) Cholesky
        # attempt on every flush.
        self._failed: set[Signature] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached factors' arrays."""
        return self._bytes

    def invalidate(self) -> None:
        """Drop every cached factor (the variogram changed under them)."""
        self._entries.clear()
        self._failed.clear()
        self._bytes = 0
        self.stats.invalidations += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def factor_for(
        self,
        signature: Signature,
        points: np.ndarray,
        variogram: Variogram,
        metric: DistanceMetric | str,
    ) -> GammaFactor | None:
        """The cached factor for ``signature``, or a freshly built one —
        ``None`` when no well-conditioned factorization exists.

        Exact signature hit, then the failure memo, then a fresh
        factorization, which is stored.
        """
        if len(signature) < self.min_support:
            return None
        entry = self._entries.get(signature)
        if entry is not None:
            self._entries.move_to_end(signature)
            self.stats.hits += 1
            return entry
        if signature in self._failed:
            return None

        fresh = self._fresh(signature, points, variogram, metric)
        if fresh is None:
            self.stats.failures += 1
            if len(self._failed) >= 8 * self.capacity:
                self._failed.clear()
            self._failed.add(signature)
            return None
        self.stats.fresh += 1
        self._entries[signature] = fresh  # a miss: lands most recent
        self._bytes += self._factor_bytes(fresh)
        while len(self._entries) > 1 and (
            len(self._entries) > self.capacity or self._bytes > self.max_bytes
        ):
            _, old = self._entries.popitem(last=False)
            self._bytes -= self._factor_bytes(old)
            self.stats.evictions += 1
        return fresh

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _factor_bytes(factor: GammaFactor) -> int:
        return factor.gamma.nbytes + factor.chol.nbytes + factor.rows.nbytes

    def _fresh(
        self,
        signature: Signature,
        points: np.ndarray,
        variogram: Variogram,
        metric: DistanceMetric | str,
    ) -> GammaFactor | None:
        """Factorize the shifted Gamma matrix from scratch (None on failure)."""
        rows = np.asarray(signature, dtype=np.int64)
        gamma = np.asarray(
            variogram(pairwise_distances(points[rows], metric)), dtype=np.float64
        )
        np.fill_diagonal(gamma, 0.0)
        gamma_max = float(gamma.max(initial=0.0))
        if gamma_max <= 0.0 or not np.isfinite(gamma_max):
            return None
        for growth in _SHIFT_GROWTH:
            shift = growth * gamma_max
            try:
                chol = np.linalg.cholesky(shift - gamma)
                factor = GammaFactor(rows, gamma, shift, chol, stats=self.stats)
            except np.linalg.LinAlgError:
                continue
            if factor.well_conditioned():
                return factor
        return None
