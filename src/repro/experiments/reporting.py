"""Plain-text renderers for the reproduced tables.

Distribution summaries (support-size quantiles) are rendered from the
estimator's streaming P² sketch — the stored per-interpolation list it
replaced no longer exists anywhere in the pipeline.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.replay import MetricKind, ReplayStats
from repro.experiments.table1 import Table1Row

__all__ = [
    "format_table1",
    "format_row",
    "format_neighbor_distribution",
    "format_solve_phases",
    "format_identification",
]

_HEADER = (
    f"{'benchmark':<12} {'metric':<20} {'Nv':>3} {'d':>3} "
    f"{'p(%)':>7} {'j':>6} {'max eps':>9} {'mu eps':>9} {'configs':>8}"
)


def _format_error(value: float, kind: MetricKind) -> str:
    if value != value:  # NaN: no interpolation happened
        return "-"
    if kind is MetricKind.RATE:
        return f"{100.0 * value:.2f}%"
    return f"{value:.2f}"


def format_row(row: Table1Row) -> str:
    """Render one Table I row in the paper's column order."""
    return (
        f"{row.benchmark:<12} {row.metric_label:<20} {row.nv:>3d} "
        f"{row.distance:>3.0f} {row.p_percent:>7.2f} {row.mean_neighbors:>6.2f} "
        f"{_format_error(row.max_error, row.metric_kind):>9} "
        f"{_format_error(row.mean_error, row.metric_kind):>9} "
        f"{row.n_configs:>8d}"
    )


def format_neighbor_distribution(stats: ReplayStats) -> str:
    """Render a replay's support-size distribution (paper column ``j``).

    One line per replay: the exact mean alongside the streamed quantiles of
    the number of neighbours each interpolation used.  Returns a placeholder
    line when the replay interpolated nothing.
    """
    label = f"{stats.benchmark or 'replay':<12} d={stats.distance:<4.0f}"
    if not stats.neighbor_quantiles:
        return f"{label} no interpolations"
    quantiles = " ".join(
        f"p{round(100 * p):02d}={value:5.2f}" for p, value in stats.neighbor_quantiles
    )
    return f"{label} j_mean={stats.mean_neighbors:5.2f}  {quantiles}"


def format_solve_phases(stats: ReplayStats) -> str:
    """Render a replay's solve-phase wall-clock split.

    One line per replay: cumulative seconds the batch engine spent on
    system *assembly* (distances + variogram kernels), *factorize* (fresh
    LAPACK factorizations, stacked or per-group) and *backsolve*
    (cached-factor triangular solves plus weight extraction), with each
    phase's share of their sum.  Returns a placeholder line when the
    replay never ran a grouped flush.
    """
    label = f"{stats.benchmark or 'replay':<12} d={stats.distance:<4.0f}"
    if not stats.solve_phases:
        return f"{label} solve phases: n/a"
    assembly = stats.solve_phase("assembly_seconds")
    factorize = stats.solve_phase("factorize_seconds")
    backsolve = stats.solve_phase("backsolve_seconds")
    total = assembly + factorize + backsolve
    share = (lambda x: 100.0 * x / total) if total > 0.0 else (lambda x: 0.0)
    return (
        f"{label} solve "
        f"assembly={assembly:.3f}s ({share(assembly):4.1f}%) "
        f"factorize={factorize:.3f}s ({share(factorize):4.1f}%) "
        f"backsolve={backsolve:.3f}s ({share(backsolve):4.1f}%) "
        f"flushes={int(stats.solve_phase('n_flushes'))}"
    )


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render a full Table I reproduction as aligned plain text."""
    lines = [_HEADER, "-" * len(_HEADER)]
    previous = None
    for row in rows:
        if previous is not None and row.benchmark != previous:
            lines.append("")
        lines.append(format_row(row))
        previous = row.benchmark
    return "\n".join(lines)


def format_identification(stats: ReplayStats) -> str:
    """Render a replay's variogram-identification cost next to its solves.

    One line: the number of identifications, the seconds spent on
    empirical variograms and on model fits, and each one's share of the
    engine time tracked here (identification plus the three solve phases).
    """
    label = f"{stats.benchmark or 'replay':<12} d={stats.distance:<4.0f}"
    if not stats.n_fits:
        return f"{label} identify: n/a"
    solve = sum(
        stats.solve_phase(name)
        for name in ("assembly_seconds", "factorize_seconds", "backsolve_seconds")
    )
    total = stats.variogram_seconds + stats.fit_seconds + solve
    share = (lambda x: 100.0 * x / total) if total > 0.0 else (lambda x: 0.0)
    return (
        f"{label} identify fits={stats.n_fits} "
        f"variogram={stats.variogram_seconds:.3f}s ({share(stats.variogram_seconds):4.1f}%) "
        f"fit={stats.fit_seconds:.3f}s ({share(stats.fit_seconds):4.1f}%) "
        f"of identify+solve"
    )
