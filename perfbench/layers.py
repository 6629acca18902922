"""Per-layer metrics from spans, wrapper counters and estimator counters."""

from __future__ import annotations

from perfbench.report import Outcome, ratio
from perfbench.spans import layer_totals, untracked_seconds


def estimator_counts(estimators) -> dict[str, float]:
    """Counters summed over every estimator a run built."""
    counts = dict.fromkeys(
        (
            "queries",
            "exact_hits",
            "simulated",
            "hits",
            "updates",
            "evictions",
            "invalidations",
            "assembly_s",
            "factorize_s",
            "backsolve_s",
        ),
        0.0,
    )
    for estimator in estimators:
        stats = estimator.stats
        counts["queries"] += stats.n_queries
        counts["exact_hits"] += stats.n_exact_hits
        counts["simulated"] += stats.n_simulated
        counts["hits"] += stats.factor.hits
        counts["updates"] += stats.factor.updates
        counts["evictions"] += stats.factor.evictions
        counts["invalidations"] += stats.factor.invalidations
        counts["assembly_s"] += stats.solve.assembly_seconds
        counts["factorize_s"] += stats.solve.factorize_seconds
        counts["backsolve_s"] += stats.solve.backsolve_seconds
    return counts


def put_layer_metrics(
    out: Outcome,
    spans: list[tuple],
    counters: dict[str, float],
    counts: dict[str, float],
) -> dict[str, dict[str, float]]:
    """The program layers' metrics (everything but batcher/server/ledger)."""
    totals = layer_totals(spans)
    grouped_calls = sum(1 for span in spans if span[2] == "ordinary_kriging_grouped")
    for layer in ("fitting", "variogram", "neighborhood", "factor_cache", "kriging", "simulate"):
        name = "lookups" if layer == "factor_cache" else "calls"
        out.put(f"{layer}.{name}", totals[layer]["calls"])
        out.put(f"{layer}.busy_s", totals[layer]["self_s"])
    out.put("fitting.nfev", counters.get("fitting.nfev", 0.0))
    lookups = totals["factor_cache"]["calls"]
    out.put(
        "factor_cache.reuse_ratio",
        ratio(counts["hits"] + counts["updates"], lookups),
        f"(hits + updates) / {lookups} factor_for calls",
    )
    out.put("factor_cache.evictions", counts["evictions"])
    out.put("factor_cache.invalidations", counts["invalidations"])
    out.put("kriging.assembly_s", counts["assembly_s"])
    out.put("kriging.factorize_s", counts["factorize_s"])
    out.put("kriging.backsolve_s", counts["backsolve_s"])
    out.put(
        "kriging.groups_per_flush",
        ratio(counters.get("kriging.groups", 0.0), grouped_calls),
        f"over {grouped_calls} grouped solves",
    )
    out.put("estimator.queries", counts["queries"])
    out.put("estimator.exact_hits", counts["exact_hits"])
    out.put("estimator.self_s", totals["estimator"]["self_s"])
    out.put("optimization.self_s", totals["optimization"]["self_s"])
    return totals


def put_ledger(out: Outcome, totals: dict, traced_wall_s: float, untraced_wall_s: float) -> None:
    out.put(
        "ledger.untracked_s",
        untracked_seconds(traced_wall_s, totals),
        f"of {traced_wall_s:.3f} s traced wall",
    )
    out.put(
        "tracing_overhead_pct",
        100.0 * (traced_wall_s / untraced_wall_s - 1.0),
        f"traced {traced_wall_s:.3f} s vs untraced {untraced_wall_s:.3f} s",
    )


def put_no_service(out: Outcome) -> None:
    """In-process workloads have no batcher, server or wire."""
    for name in (
        "batcher.flushes",
        "batcher.batch_mean",
        "batcher.queue_wait_p50_ms",
        "batcher.flush_wait_p50_ms",
        "server.overhead_p50_ms",
        "server.cpu_s",
    ):
        out.put(name, 0.0, "no server in this workload")
