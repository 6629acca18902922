"""Table I reproduction driver.

For every benchmark and every neighbourhood distance ``d in {2, 3, 4, 5}``
(the paper's sweep), the recorded ground-truth trajectory is replayed under
the kriging policy and the four Table I statistics are extracted: ``p(%)``,
mean support size ``j``, ``max eps`` and ``mu eps``.

Each replay routes the whole trajectory through the vectorized batch query
engine (:meth:`repro.core.estimator.KrigingEstimator.evaluate_batch`), so a
distance sweep costs one trajectory recording plus a handful of batched
replays — the expensive optimizer run is never repeated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.registry import BENCHMARK_NAMES, BenchmarkSetup, build_benchmark
from repro.experiments.replay import MetricKind, ReplayStats, replay_trace

__all__ = ["Table1Row", "rows_for_setup", "table1_rows", "DISTANCES"]

DISTANCES = (2, 3, 4, 5)
"""The distance sweep of the paper's Table I."""


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    benchmark: str
    metric_label: str
    nv: int
    distance: float
    p_percent: float
    mean_neighbors: float
    max_error: float
    mean_error: float
    n_configs: int
    metric_kind: MetricKind

    @classmethod
    def from_stats(
        cls, stats: ReplayStats, *, metric_label: str, nv: int
    ) -> "Table1Row":
        """Build a row from replay statistics."""
        return cls(
            benchmark=stats.benchmark,
            metric_label=metric_label,
            nv=nv,
            distance=stats.distance,
            p_percent=stats.p_percent,
            mean_neighbors=stats.mean_neighbors,
            max_error=stats.max_error,
            mean_error=stats.mean_error,
            n_configs=stats.n_configs,
            metric_kind=stats.metric_kind,
        )


def rows_for_setup(
    setup: BenchmarkSetup,
    *,
    distances: Sequence[float] = DISTANCES,
    nn_min: int = 1,
    variogram: object = "linear",
) -> list[Table1Row]:
    """Replay one benchmark's trajectory for each distance in the sweep.

    Trajectory recording (the expensive optimizer run with exhaustive
    simulation) happens once; each distance is a cheap replay.
    """
    trace = setup.record_trajectory()
    rows = []
    for d in distances:
        stats = replay_trace(
            trace,
            benchmark=setup.name,
            metric_kind=setup.metric_kind,
            distance=d,
            nn_min=nn_min,
            variogram=variogram,
        )
        rows.append(
            Table1Row.from_stats(
                stats,
                metric_label=setup.metric_label,
                nv=setup.problem.num_variables,
            )
        )
    return rows


def table1_rows(
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    *,
    scale: str = "full",
    distances: Sequence[float] = DISTANCES,
    nn_min: int = 1,
    variogram: object = "linear",
) -> list[Table1Row]:
    """Reproduce Table I over the requested benchmarks.

    Note that the SqueezeNet and HEVC trajectories take minutes to record at
    the ``full`` scale; prefer :func:`rows_for_setup` with a shared setup
    when sweeping parameters.
    """
    rows: list[Table1Row] = []
    for name in benchmarks:
        setup = build_benchmark(name, scale)
        rows.extend(
            rows_for_setup(
                setup,
                distances=distances,
                nn_min=nn_min,
                variogram=variogram,
            )
        )
    return rows
