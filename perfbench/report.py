"""The metric catalogue and the result every workload returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.measure import Tally

#: End-to-end metrics, reported by every untraced run (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "interp_pct": "%",
    "mean_error": "bits-or-rel",
    "simulations": "count",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but kept out of the machine-read
#: set: ``failed_frac`` is 0 on a healthy run, and ``solution_cost`` exists
#: only where an optimizer runs (it is also the per-layer
#: ``optimization.solution_cost``).
PRINTED_ONLY = {"failed_frac": "ratio", "solution_cost": "cost"}

#: Per-layer metrics, reported by every traced run (name -> unit).  A layer
#: a workload does not reach reports 0.
PER_LAYER = {
    "fitting.calls": "count",
    "fitting.busy_s": "s",
    "fitting.nfev": "count",
    "variogram.calls": "count",
    "variogram.busy_s": "s",
    "neighborhood.calls": "count",
    "neighborhood.busy_s": "s",
    "factor_cache.lookups": "count",
    "factor_cache.busy_s": "s",
    "factor_cache.reuse_ratio": "ratio",
    "factor_cache.evictions": "count",
    "factor_cache.invalidations": "count",
    "kriging.calls": "count",
    "kriging.busy_s": "s",
    "kriging.assembly_s": "s",
    "kriging.factorize_s": "s",
    "kriging.backsolve_s": "s",
    "kriging.groups_per_flush": "count",
    "estimator.queries": "count",
    "estimator.exact_hits": "count",
    "estimator.self_s": "s",
    "simulate.calls": "count",
    "simulate.busy_s": "s",
    "optimization.evals": "count",
    "optimization.self_s": "s",
    "optimization.solution_cost": "cost",
    "batcher.flushes": "count",
    "batcher.batch_mean": "count",
    "batcher.queue_wait_p50_ms": "ms",
    "batcher.flush_wait_p50_ms": "ms",
    "server.overhead_p50_ms": "ms",
    "server.cpu_s": "s",
    "tracing_overhead_pct": "%",
    "ledger.untracked_s": "s",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: How each metric was taken (sample count, definition), for the log.
    notes: dict[str, str] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    problems: list[str] = field(default_factory=list)
    #: Everything else worth keeping in the result file.
    details: dict = field(default_factory=dict)

    def put(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
