"""The benchmark registry: every runnable workload, as data.

``repro bench --list`` serializes this registry (machine-readable JSON);
the CI ``bench-gate`` matrix is generated from the ``--gated`` subset, so
adding a gated benchmark here *is* adding its CI job.

Workload module contract (lazily imported via ``module``):

``get_spec(name) -> WorkloadSpec``
    The declarative spec for the registry entry ``name`` (one module may
    serve several entries, e.g. the table1 replay sweeps).
``add_arguments(parser)`` (optional)
    Workload-specific CLI flags (``--connect``, ``--seeds``, ...).
``run(name, args) -> RunResult``
    Execute the (already quick-resolved) workload and return the finalized
    report plus the raw samples for provenance.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["BenchmarkDef", "RunResult", "REGISTRY", "get", "listing", "listing_json"]


@dataclass
class RunResult:
    """What a workload run hands back to the CLI."""

    report: dict
    config: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    #: Slow traces the serving stack captured during the run (each one a
    #: whole span tree); written to the provenance dir as slow_traces.json.
    slow_traces: list = field(default_factory=list)


@dataclass(frozen=True)
class BenchmarkDef:
    """One registry entry.

    ``baseline`` is the repo-relative committed baseline the CI gate
    compares against (gated entries only).
    """

    name: str
    kind: str
    module: str
    description: str
    gated: bool = False
    baseline: str | None = None

    def load(self):
        """Import the workload module (deferred: listing stays dependency-free)."""
        return importlib.import_module(self.module)


_WORKLOADS = "repro.bench.workloads"

_DEFS = (
    BenchmarkDef(
        name="query-engine",
        kind="query_engine",
        module=f"{_WORKLOADS}.query_engine",
        description=(
            "Kriging query engine vs seed reimplementation: evaluate/batch "
            "speedups per support size, stacked solves"
        ),
        gated=True,
        baseline="BENCH_query_engine.json",
    ),
    BenchmarkDef(
        name="service",
        kind="service",
        module=f"{_WORKLOADS}.service",
        description=(
            "Evaluation service over TCP: sequential vs concurrent client "
            "load, batched throughput, snapshot round-trip determinism"
        ),
        gated=True,
        baseline="BENCH_service.json",
    ),
    BenchmarkDef(
        name="cluster",
        kind="cluster",
        module=f"{_WORKLOADS}.cluster",
        description=(
            "Sharded cluster: 2-worker vs 1-worker scaling, live migration "
            "byte-identity, SIGKILL failover drill"
        ),
        gated=True,
        baseline="BENCH_cluster.json",
    ),
    BenchmarkDef(
        name="chaos",
        kind="chaos",
        module=f"{_WORKLOADS}.chaos",
        description=(
            "Seeded fault-injection drill: robustness invariants under a "
            "reproducible transport-fault storm, throughput under fire"
        ),
        gated=True,
        baseline="BENCH_chaos.json",
    ),
) + tuple(
    BenchmarkDef(
        name=f"table1-{bench}",
        kind="replay_sweep",
        module=f"{_WORKLOADS}.table1",
        description=f"Table 1 replay: kriging error evaluation on {bench}",
    )
    for bench in ("fir", "iir", "fft", "hevc", "squeezenet", "dct")
) + tuple(
    BenchmarkDef(
        name=f"ablation-{sweep}",
        kind="replay_sweep",
        module=f"{_WORKLOADS}.table1",
        description=f"Ablation sweep over the {sweep} axis of the estimator",
    )
    for sweep in ("distance", "nnmin", "variogram", "universal")
)

REGISTRY: dict[str, BenchmarkDef] = {d.name: d for d in _DEFS}


def get(name: str) -> BenchmarkDef:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def listing(gated_only: bool = False) -> list[dict[str, Any]]:
    """Registry rows as plain dicts (the ``repro bench --list`` payload)."""
    return [
        {
            "name": d.name,
            "kind": d.kind,
            "gated": d.gated,
            "baseline": d.baseline,
            "description": d.description,
        }
        for d in REGISTRY.values()
        if d.gated or not gated_only
    ]


def listing_json(gated_only: bool = False) -> str:
    """Single-line JSON array — safe to embed in a ``$GITHUB_OUTPUT`` line."""
    return json.dumps(listing(gated_only), separators=(",", ":"))
