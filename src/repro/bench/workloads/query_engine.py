"""Query-engine workload: the vectorized engine vs the seed hot path.

Times a fixed interpolation-heavy sweep three ways at several support sizes:

* ``seed``     — a faithful re-implementation of the seed hot path: a
  list-of-rows cache whose ``points`` property re-``vstack``s on every
  access, a brute-force neighbourhood scan over all simulated points, and
  one bordered-system build + solve per query.  (Its only deviation from
  the seed is exact-coordinate cache keys, so all three variants compute
  identical results.)
* ``evaluate`` — the current per-query path: contiguous zero-copy cache,
  one distance scan of its view, per-query solve.
* ``batch``    — ``KrigingEstimator.evaluate_batch``: additionally groups
  queries sharing a support set and factorizes each group's bordered
  matrix once.

One section rides along: ``stacked`` (a per-group ``ordinary_kriging_batch``
loop vs ``ordinary_kriging_grouped``, which stacks same-size systems into
one batched LAPACK call per size bin; both must answer bit-identically).
The sweep mimics a dense surface exploration (cf. ``experiments/figure1``):
query clusters jittered inside single lattice cells, so clusters share
neighbourhoods and the batch path has real groups to exploit.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.bench.registry import RunResult
from repro.bench.report import finalize_report, write_report
from repro.bench.runner import SampleLog, measure
from repro.bench.spec import WorkloadSpec
from repro.core.distances import distances_to
from repro.core.estimator import KrigingEstimator
from repro.core.kriging import (
    ordinary_kriging,
    ordinary_kriging_batch,
    ordinary_kriging_grouped,
)
from repro.core.models import ExponentialVariogram, LinearVariogram

NUM_VARIABLES = 5
LATTICE = 12
DISTANCE = 4.0
NN_MIN = 1
N_QUERIES = 2000
SUPPORT_SIZES = (500, 2000, 5000)
QUICK_SUPPORT_SIZES = (500, 2000)
ACCEPTANCE_N = 2000
ACCEPTANCE_SPEEDUP = 5.0

WORKLOAD_SEED = 0

#: stacked section: many small same-size systems so batching the LAPACK
#: calls (and dropping the per-group Python dispatch) dominates.
STACKED_SEED = 12
STACKED_VARIOGRAM = ExponentialVariogram(sill=25.0, range_=8.0)
STACKED_GROUPS = 60
STACKED_SIZES = (16, 24, 32)
STACKED_QUERIES_PER_GROUP = 8

SPEC = WorkloadSpec(
    name="query-engine",
    kind="query_engine",
    description=(
        "Interpolation-heavy sweep: seed hot path vs evaluate vs batch, "
        "plus a stacked-solve section"
    ),
    seed=WORKLOAD_SEED,
    repetitions=2,
    params={
        "support_sizes": list(SUPPORT_SIZES),
        "n_queries": N_QUERIES,
    },
    quick={
        "support_sizes": list(QUICK_SUPPORT_SIZES),
        "repetitions": 1,
    },
)

_COEFFS = np.array([1.0, -2.0, 0.5, 0.25, 1.5])


def _field(config) -> float:
    c = np.asarray(config, dtype=float)
    return float(c @ np.resize(_COEFFS, c.size) - 60.0)


# ----------------------------------------------------------------------
# Seed-faithful reference implementation (PR-0 hot path)
# ----------------------------------------------------------------------
class _SeedCache:
    """The seed's list-of-rows store: ``points`` vstacks on every access."""

    def __init__(self, num_variables: int) -> None:
        self.num_variables = num_variables
        self._points: list[np.ndarray] = []
        self._values: list[float] = []
        self._index: dict[bytes, int] = {}

    @property
    def points(self) -> np.ndarray:
        if not self._points:
            return np.empty((0, self.num_variables))
        return np.vstack(self._points)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def add(self, config: np.ndarray, value: float) -> None:
        self._index[config.tobytes()] = len(self._points)
        self._points.append(config.copy())
        self._values.append(float(value))

    def lookup(self, config: np.ndarray) -> float | None:
        row = self._index.get(config.tobytes())
        return self._values[row] if row is not None else None


def _seed_sweep(support, support_values, queries, variogram) -> list[float]:
    """The seed's evaluate loop: vstack + brute scan + per-query solve."""
    cache = _SeedCache(support.shape[1])
    for config, value in zip(support, support_values):
        cache.add(config, value)
    out: list[float] = []
    for query in queries:
        cached = cache.lookup(query)
        if cached is not None:
            out.append(cached)
            continue
        points = cache.points  # fresh vstack, every query
        dist = distances_to(points, query)  # brute scan of all points
        inside = np.flatnonzero(dist <= DISTANCE)
        neighbors = inside[np.argsort(dist[inside], kind="stable")]
        if neighbors.size > NN_MIN:
            result = ordinary_kriging(
                points[neighbors], cache.values[neighbors], query, variogram
            )
            out.append(result.estimate)
        else:
            value = _field(query)
            cache.add(query, value)
            out.append(value)
    return out


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _make_workload(n_support: int, n_queries: int, seed: int = WORKLOAD_SEED):
    rng = np.random.default_rng(seed)
    support = set()
    while len(support) < n_support:
        point = tuple(int(x) for x in rng.integers(0, LATTICE, size=NUM_VARIABLES))
        support.add(point)
    support = np.asarray(sorted(support), dtype=np.float64)
    rng.shuffle(support)
    support_values = np.array([_field(p) for p in support])

    # Clustered fractional queries: each cluster jitters inside one lattice
    # cell around a support point, so its members share a neighbourhood.
    cluster_size = 20
    n_clusters = (n_queries + cluster_size - 1) // cluster_size
    centers = support[rng.integers(0, n_support, size=n_clusters)]
    queries = np.repeat(centers, cluster_size, axis=0)[:n_queries]
    queries = queries + rng.uniform(0.05, 0.45, size=queries.shape)
    return support, support_values, queries


def _engine_estimator(support, support_values, **kwargs) -> KrigingEstimator:
    kwargs.setdefault("distance", DISTANCE)
    kwargs.setdefault("nn_min", NN_MIN)
    kwargs.setdefault("variogram", LinearVariogram(1.0))
    est = KrigingEstimator(_field, NUM_VARIABLES, **kwargs)
    for config, value in zip(support, support_values):
        est.cache.add(config, value)
    return est


def _time(fn, *, repetitions: int = 1, samples: SampleLog | None = None, label: str = ""):
    best, result = measure(fn, repetitions)
    if samples is not None:
        samples.record(best, label)
    return best, result


# ----------------------------------------------------------------------
# stacked: per-group factorization vs one batched call per size bin
# ----------------------------------------------------------------------
def _estimates(results: list) -> np.ndarray:
    return np.asarray(
        [r.estimate for group in results for r in group], dtype=np.float64
    )


def _reference_pool(rng: np.random.Generator, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """A shared support pool the groups index into (the cache's role)."""
    seen = set()
    while len(seen) < n_points:
        seen.add(tuple(int(x) for x in rng.integers(0, 12, size=NUM_VARIABLES)))
    points = np.asarray(sorted(seen), dtype=np.float64)
    rng.shuffle(points)
    values = np.array([_field(p) for p in points])
    return points, values


def _indexed_groups(
    rng: np.random.Generator,
    points: np.ndarray,
    n_groups: int,
    sizes: tuple[int, ...],
    queries_per_group: int,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Row-index supports plus jittered query clusters, per group."""
    supports: list[np.ndarray] = []
    queries_list: list[np.ndarray] = []
    for g in range(n_groups):
        size = sizes[g % len(sizes)]
        rows = rng.choice(points.shape[0], size=size, replace=False).astype(np.int64)
        center = points[rows[0]]
        queries = center[None, :] + rng.uniform(
            0.05, 0.45, size=(queries_per_group, NUM_VARIABLES)
        )
        supports.append(rows)
        queries_list.append(queries)
    return supports, queries_list


def run_stacked_benchmark(
    n_groups: int = STACKED_GROUPS,
    sizes: tuple[int, ...] = STACKED_SIZES,
    n_queries: int = STACKED_QUERIES_PER_GROUP,
    repetitions: int = 3,
    samples: SampleLog | None = None,
) -> dict:
    """Per-group ``ordinary_kriging_batch`` loop versus the serial grouped
    solve (no factor cache).

    Every group's bordered system is regular on this workload, so the
    grouped path really does run one batched ``numpy.linalg.solve`` per
    size bin; the two variants must agree bit for bit (the batched call
    loops the same LAPACK routine over the stack).
    """
    rng = np.random.default_rng(STACKED_SEED)
    points, values = _reference_pool(rng, 1024)
    supports, queries_list = _indexed_groups(rng, points, n_groups, sizes, n_queries)
    groups = [
        (points[rows], values[rows], queries)
        for rows, queries in zip(supports, queries_list)
    ]

    def _per_group():
        return [
            ordinary_kriging_batch(points, values, queries, STACKED_VARIOGRAM, metric="l1")
            for points, values, queries in groups
        ]

    def _stacked():
        return ordinary_kriging_grouped(groups, STACKED_VARIOGRAM, metric="l1")

    _stacked()  # warm-up: allocator + BLAS regime hot before timing
    timings = {}
    timings["per_group"], out_per_group = _time(
        _per_group, repetitions=repetitions, samples=samples, label="stacked.per_group"
    )
    timings["stacked"], out_stacked = _time(
        _stacked, repetitions=repetitions, samples=samples, label="stacked.stacked"
    )
    np.testing.assert_array_equal(_estimates(out_per_group), _estimates(out_stacked))
    return {
        "n_groups": n_groups,
        "group_sizes": list(sizes),
        "n_queries_per_group": n_queries,
        "per_group_seconds": round(timings["per_group"], 6),
        "stacked_seconds": round(timings["stacked"], 6),
        "speedup_stacked_vs_pergroup": round(
            timings["per_group"] / timings["stacked"], 2
        ),
        "bitwise_equal": True,
    }


def run_benchmark(
    support_sizes=SUPPORT_SIZES,
    n_queries: int = N_QUERIES,
    repetitions: int = 2,
    samples: SampleLog | None = None,
) -> dict:
    variogram = LinearVariogram(1.0)
    results = []
    for n_support in support_sizes:
        support, support_values, queries = _make_workload(n_support, n_queries)

        def _eval_sweep():
            est = _engine_estimator(support, support_values)
            return [est.evaluate(query) for query in queries]

        t_seed, seed_values = _time(
            lambda: _seed_sweep(support, support_values, queries, variogram),
            repetitions=repetitions,
            samples=samples, label=f"n{n_support}.seed",
        )
        t_eval, eval_out = _time(
            _eval_sweep, repetitions=repetitions,
            samples=samples, label=f"n{n_support}.evaluate",
        )
        t_batch, batch_out = _time(
            lambda: _engine_estimator(support, support_values).evaluate_batch(queries),
            repetitions=repetitions,
            samples=samples, label=f"n{n_support}.batch",
        )

        # All three variants answer the sweep identically.
        np.testing.assert_allclose(
            seed_values, [o.value for o in eval_out], rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            seed_values, [o.value for o in batch_out], rtol=1e-9, atol=1e-9
        )

        results.append(
            {
                "n_support": n_support,
                "n_queries": n_queries,
                "interpolated": sum(1 for o in batch_out if o.interpolated),
                "seed_seconds": round(t_seed, 6),
                "evaluate_seconds": round(t_eval, 6),
                "evaluate_batch_seconds": round(t_batch, 6),
                "speedup_evaluate_vs_seed": round(t_seed / t_eval, 2),
                "speedup_batch_vs_seed": round(t_seed / t_batch, 2),
                "speedup_batch_vs_evaluate": round(t_eval / t_batch, 2),
            }
        )

    acceptance_row = next(r for r in results if r["n_support"] == ACCEPTANCE_N)
    # The stacked-vs-per-group solve section; its ratio gates
    # multi-core-guarded, like the cluster floor.
    stacked = run_stacked_benchmark(repetitions=repetitions, samples=samples)
    report = {
        "benchmark": "query_engine",
        "workload": {
            "num_variables": NUM_VARIABLES,
            "lattice": LATTICE,
            "distance": DISTANCE,
            "nn_min": NN_MIN,
            "query_model": "clustered fractional sweep (20 queries/cell)",
        },
        "results": results,
        "stacked": stacked,
        "acceptance": {
            "n_support": ACCEPTANCE_N,
            "speedup_batch_vs_seed": acceptance_row["speedup_batch_vs_seed"],
            "threshold": ACCEPTANCE_SPEEDUP,
            "passed": acceptance_row["speedup_batch_vs_seed"] >= ACCEPTANCE_SPEEDUP,
        },
    }
    return report


def print_summary(report: dict) -> None:
    for row in report["results"]:
        print(
            f"n={row['n_support']:>5}  seed={row['seed_seconds']:.3f}s  "
            f"evaluate={row['evaluate_seconds']:.3f}s  "
            f"batch={row['evaluate_batch_seconds']:.3f}s  "
            f"batch-vs-seed={row['speedup_batch_vs_seed']:.1f}x"
        )
    stacked = report.get("stacked")
    if stacked:
        print(
            f"stacked n_groups={stacked['n_groups']}  "
            f"per-group={stacked['per_group_seconds']:.3f}s  "
            f"stacked={stacked['stacked_seconds']:.3f}s  "
            f"({stacked['speedup_stacked_vs_pergroup']:.2f}x)"
        )


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def get_spec(name: str) -> WorkloadSpec:
    return SPEC


def run(name: str, args: argparse.Namespace) -> RunResult:
    spec = SPEC.resolve(quick=getattr(args, "quick", False))
    samples = SampleLog()
    body = run_benchmark(
        support_sizes=tuple(spec.params["support_sizes"]),
        n_queries=spec.params["n_queries"],
        repetitions=spec.repetitions,
        samples=samples,
    )
    report = finalize_report(
        "query_engine", body, seed=spec.seed, argv=sys.argv[1:]
    )
    return RunResult(report=report, config=spec.to_config(), samples=samples.rows())


def main(argv: list[str] | None = None, default_output: pathlib.Path | None = None) -> int:
    """The historical ``bench_query_engine.py`` CLI."""
    default_output = default_output or pathlib.Path("BENCH_query_engine.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer support sizes, one repetition",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=default_output,
        help=f"report destination (default: {default_output})",
    )
    args = parser.parse_args(argv)

    result = run("query-engine", args)
    write_report(result.report, args.output)
    print_summary(result.report)
    print("written:", args.output)
    return 0
