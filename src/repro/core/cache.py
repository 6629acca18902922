"""Store of simulated configurations (the paper's ``W_sim`` / ``lambda_sim``).

Only *simulated* configurations enter the cache: "If the configuration is
interpolated, it is not used for kriging other configurations"
(Section III-B).  The cache also serves as an exact-hit memo so a
configuration is never simulated twice.

Performance
-----------
The store is the innermost data structure of the query engine, so both of
its access patterns are O(1):

* **Growth** — rows live in a single contiguous ``(capacity, Nv)`` array
  that doubles whenever it fills (geometric growth), so ``add`` is
  amortized O(1) and a configuration keeps its row index for the cache's
  lifetime (append-only).
* **Access** — :attr:`points` / :attr:`values` return zero-copy, read-only
  views of the filled prefix; no per-access materialization happens.  Views
  taken before a growth keep the old buffer alive and stay valid (append-
  only rows never change), they just do not see later additions.

Exact-hit keys are the raw ``float64`` bytes of the configuration, so two
configurations collide only when they are bit-identical (``-0.0`` is
normalized to ``0.0`` first); non-lattice configurations such as ``[0.4]``
and ``[0.2]`` are distinct keys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimulationCache"]

_INITIAL_CAPACITY = 64


class SimulationCache:
    """Append-only store of ``(configuration, metric value)`` pairs.

    Parameters
    ----------
    num_variables:
        Dimension ``Nv`` of the configuration vectors.
    """

    def __init__(self, num_variables: int) -> None:
        if num_variables < 1:
            raise ValueError(f"num_variables must be >= 1, got {num_variables}")
        self.num_variables = num_variables
        self._data = np.empty((_INITIAL_CAPACITY, num_variables), dtype=np.float64)
        self._vals = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._index: dict[bytes, int] = {}

    def __len__(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        """``(n, Nv)`` matrix of simulated configurations (``W_sim``).

        A zero-copy, read-only view of the backing store — O(1) per access.
        """
        view = self._data[: self._n]
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Metric values aligned with :attr:`points` (``lambda_sim``).

        A zero-copy, read-only view of the backing store — O(1) per access.
        """
        view = self._vals[: self._n]
        view.flags.writeable = False
        return view

    @staticmethod
    def _key(configuration: np.ndarray) -> bytes:
        # + 0.0 folds -0.0 into 0.0 so the two hash identically; the raw
        # float64 bytes then key on the *exact* coordinates — no rounding,
        # so distinct non-lattice configurations never collide.
        config = np.ascontiguousarray(configuration, dtype=np.float64) + 0.0
        return config.tobytes()

    def _coerce(self, configuration: object) -> np.ndarray:
        config = np.asarray(configuration, dtype=np.float64)
        if config.ndim != 1 or config.size != self.num_variables:
            raise ValueError(
                f"configuration must have shape ({self.num_variables},), got {config.shape}"
            )
        return config

    def _grow(self) -> None:
        capacity = 2 * self._data.shape[0]
        data = np.empty((capacity, self.num_variables), dtype=np.float64)
        vals = np.empty(capacity, dtype=np.float64)
        data[: self._n] = self._data[: self._n]
        vals[: self._n] = self._vals[: self._n]
        self._data = data
        self._vals = vals

    def add(self, configuration: object, value: float) -> int:
        """Record a simulated configuration; returns its row index."""
        config = self._coerce(configuration)
        if not np.isfinite(value):
            raise ValueError(f"metric value must be finite, got {value}")
        key = self._key(config)
        if key in self._index:
            raise ValueError(
                f"configuration {config.tolist()} already simulated"
            )
        if self._n == self._data.shape[0]:
            self._grow()
        row = self._n
        self._index[key] = row
        self._data[row] = config
        self._vals[row] = float(value)
        self._n = row + 1
        return row

    def lookup(self, configuration: object) -> float | None:
        """Exact-hit value for ``configuration``, or ``None`` if never simulated."""
        config = self._coerce(configuration)
        index = self._index.get(self._key(config))
        return float(self._vals[index]) if index is not None else None

    def to_state(self) -> dict:
        """Serializable state: dimension plus copies of the filled rows.

        The arrays are float64 copies (safe to hand to ``np.savez``); the
        exact-hit key index is derived data and rebuilt on
        :meth:`from_state`, so a round-trip reproduces the cache bit for
        bit — same rows, same order, same keys.
        """
        return {
            "version": 1,
            "num_variables": self.num_variables,
            "points": self._data[: self._n].copy(),
            "values": self._vals[: self._n].copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SimulationCache":
        """Rebuild a cache from :meth:`to_state` output."""
        if state.get("version") != 1:
            raise ValueError(f"unsupported cache state version {state.get('version')!r}")
        points = np.ascontiguousarray(state["points"], dtype=np.float64)
        values = np.ascontiguousarray(state["values"], dtype=np.float64)
        if points.ndim != 2 or values.shape != (points.shape[0],):
            raise ValueError(
                f"inconsistent cache state arrays: {points.shape} vs {values.shape}"
            )
        cache = cls(int(state["num_variables"]))
        n = points.shape[0]
        capacity = cache._data.shape[0]
        while capacity < n:
            capacity *= 2
        cache._data = np.empty((capacity, cache.num_variables), dtype=np.float64)
        cache._vals = np.empty(capacity, dtype=np.float64)
        cache._data[:n] = points
        cache._vals[:n] = values
        cache._n = n
        cache._index = {cls._key(points[row]): row for row in range(n)}
        if len(cache._index) != n:
            raise ValueError("cache state contains duplicate configurations")
        return cache

    def __contains__(self, configuration: object) -> bool:
        config = self._coerce(configuration)
        return self._key(config) in self._index
