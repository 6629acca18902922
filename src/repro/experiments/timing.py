"""Timing measurements and the total-optimization-time model (Eq. 2).

The paper's speed-up arithmetic: the total optimization time is
``t_opt = N_lambda * N_o * t_o`` (Eq. 2) — i.e. proportional to the number of
simulation-based metric evaluations.  Replacing a fraction ``p`` of them with
interpolations of cost ``t_krig`` gives::

    speedup = (N * t_sim) / ((1 - p) N t_sim + p N t_krig)

which approaches ``1 / (1 - p)`` since ``t_krig << t_sim`` (the paper
measures 1e-6 s vs 2.4 s).  :func:`project_speedup` evaluates the model with
measured quantities; :func:`measure_kriging_time` measures ``t_krig`` for a
representative support size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.kriging import ordinary_kriging, ordinary_kriging_batch
from repro.core.models import LinearVariogram

__all__ = [
    "SpeedupProjection",
    "project_speedup",
    "measure_kriging_time",
    "measure_batch_kriging_time",
    "measure_simulation_time",
    "PAPER_SIMULATION_TIMES",
]

PAPER_SIMULATION_TIMES = {
    "fir": 2.4,
    "iir": 2.4,
    "fft": 2.4,
    "hevc": 1.37,
    "squeezenet": 98.0 * 3600.0 / 290.0,
}
"""Per-evaluation simulation times quoted in the paper (seconds)."""


@dataclass(frozen=True)
class SpeedupProjection:
    """Eq. 2 speed-up estimate for one benchmark/distance setting.

    Attributes
    ----------
    p_fraction:
        Fraction of evaluations replaced by interpolation.
    t_simulation / t_kriging:
        Per-evaluation costs in seconds.
    """

    benchmark: str
    p_fraction: float
    t_simulation: float
    t_kriging: float

    @property
    def speedup(self) -> float:
        """``t_full / t_with_kriging`` under the Eq. 2 cost model."""
        full = self.t_simulation
        accelerated = (
            (1.0 - self.p_fraction) * self.t_simulation
            + self.p_fraction * self.t_kriging
        )
        if accelerated <= 0:
            return float("inf")
        return full / accelerated

    @property
    def ideal_speedup(self) -> float:
        """Limit for free interpolation, ``1 / (1 - p)``."""
        if self.p_fraction >= 1.0:
            return float("inf")
        return 1.0 / (1.0 - self.p_fraction)


def project_speedup(
    benchmark: str,
    p_fraction: float,
    *,
    t_simulation: float | None = None,
    t_kriging: float = 1e-4,
) -> SpeedupProjection:
    """Build a speed-up projection.

    ``t_simulation`` defaults to the paper's quoted time for the benchmark,
    so the projection answers "what the paper's testbed would gain with our
    measured interpolation rate".
    """
    if not 0.0 <= p_fraction <= 1.0:
        raise ValueError(f"p_fraction must be in [0, 1], got {p_fraction}")
    if t_simulation is None:
        if benchmark not in PAPER_SIMULATION_TIMES:
            raise ValueError(
                f"no paper simulation time for {benchmark!r}; pass t_simulation"
            )
        t_simulation = PAPER_SIMULATION_TIMES[benchmark]
    return SpeedupProjection(
        benchmark=benchmark,
        p_fraction=p_fraction,
        t_simulation=float(t_simulation),
        t_kriging=float(t_kriging),
    )


def measure_kriging_time(
    *,
    n_support: int = 4,
    num_variables: int = 10,
    repetitions: int = 200,
    seed: int = 0,
) -> float:
    """Mean wall-clock seconds of one ordinary-kriging interpolation.

    Uses a representative support size (the paper's mean ``j`` ranges
    2.0-8.6) and a linear variogram.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rng = np.random.default_rng(seed)
    points = rng.integers(4, 16, size=(n_support, num_variables)).astype(float)
    values = rng.normal(-60.0, 5.0, size=n_support)
    query = rng.integers(4, 16, size=num_variables).astype(float)
    variogram = LinearVariogram(1.0)

    ordinary_kriging(points, values, query, variogram)  # warm-up
    start = time.perf_counter()
    for _ in range(repetitions):
        ordinary_kriging(points, values, query, variogram)
    return (time.perf_counter() - start) / repetitions


def measure_batch_kriging_time(
    *,
    n_support: int = 4,
    n_queries: int = 64,
    num_variables: int = 10,
    repetitions: int = 20,
    seed: int = 0,
) -> float:
    """Mean wall-clock seconds *per query* of one batched interpolation.

    Measures :func:`~repro.core.kriging.ordinary_kriging_batch` over a
    shared support set — the amortized per-query cost the batch engine
    achieves when a sweep's interpolations share their support, to compare
    against :func:`measure_kriging_time` (the per-call cost the Eq. 2 model
    uses for ``t_krig``).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if n_queries < 1:
        raise ValueError(f"n_queries must be >= 1, got {n_queries}")
    rng = np.random.default_rng(seed)
    points = rng.integers(4, 16, size=(n_support, num_variables)).astype(float)
    values = rng.normal(-60.0, 5.0, size=n_support)
    queries = rng.integers(4, 16, size=(n_queries, num_variables)).astype(float)
    variogram = LinearVariogram(1.0)

    ordinary_kriging_batch(points, values, queries, variogram)  # warm-up
    start = time.perf_counter()
    for _ in range(repetitions):
        ordinary_kriging_batch(points, values, queries, variogram)
    return (time.perf_counter() - start) / (repetitions * n_queries)


def measure_simulation_time(simulate, configuration, *, repetitions: int = 3) -> float:
    """Mean wall-clock seconds of one reference simulation."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    simulate(configuration)  # warm-up
    start = time.perf_counter()
    for _ in range(repetitions):
        simulate(configuration)
    return (time.perf_counter() - start) / repetitions
