"""Solve-path workload: stacked factorization and warm restore.

Two sections, one per lever of the solve path:

* ``stacked`` — a per-group ``ordinary_kriging_batch`` loop versus
  ``ordinary_kriging_grouped``, which stacks same-size systems into one
  batched LAPACK call per size bin (factor cache off, so the ratio
  isolates the stacking).  Both must answer **bit-identically**.
* ``warm_restore`` — a factor-cache-bearing format-v2 session snapshot
  restored warm versus the same snapshot with its factor section stripped
  (a v1-style cold restore), replaying the exact pre-snapshot query batch.
  The warm replay must refactorize **zero** groups — counter-asserted here
  and gated in CI.

The stacked ratio is multi-core-guarded like the cluster floors: on a
small box it is recorded with a note, on ``>= 4`` CPUs it gates against an
absolute floor (``>= 1.2x``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

import numpy as np

from repro.bench.registry import RunResult
from repro.bench.report import finalize_report, write_report
from repro.bench.runner import SampleLog, measure
from repro.bench.spec import WorkloadSpec
from repro.core.estimator import KrigingEstimator
from repro.core.kriging import ordinary_kriging_batch, ordinary_kriging_grouped
from repro.core.models import ExponentialVariogram
from repro.service.session import load_snapshot, save_snapshot

NUM_VARIABLES = 5
WORKLOAD_SEED = 11
VARIOGRAM = ExponentialVariogram(sill=25.0, range_=8.0)

#: stacked section: many small same-size systems so batching the LAPACK
#: calls (and dropping the per-group Python dispatch) dominates.
STACKED_GROUPS = 120
STACKED_SIZES = (16, 24, 32)
STACKED_QUERIES_PER_GROUP = 8
STACKED_ACCEPTANCE_SPEEDUP = 1.2

#: warm_restore section: a dense lattice so the query clusters krige over
#: groups big enough that refactorizing them is the visible cost.
WARM_LATTICE = 5
WARM_SUPPORT = 1800
WARM_DISTANCE = 5.0
WARM_CLUSTERS = 3
WARM_QUERIES_PER_CLUSTER = 16

SPEC = WorkloadSpec(
    name="solve",
    kind="solve",
    description=(
        "Solve path: stacked vs per-group factorization, warm vs cold "
        "factor-cache restore"
    ),
    seed=WORKLOAD_SEED,
    repetitions=3,
    params={
        "stacked_groups": STACKED_GROUPS,
        "warm_support": WARM_SUPPORT,
    },
    quick={
        "stacked_groups": 60,
        "warm_support": 1200,
        "repetitions": 2,
    },
)

_COEFFS = np.array([1.0, -2.0, 0.5, 0.25, 1.5])


def _field(config) -> float:
    c = np.asarray(config, dtype=float)
    return float(c @ np.resize(_COEFFS, c.size) - 60.0)


def _time(fn, *, repetitions: int = 1, samples: SampleLog | None = None, label: str = ""):
    best, result = measure(fn, repetitions)
    if samples is not None:
        samples.record(best, label)
    return best, result


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


# ----------------------------------------------------------------------
# stacked: per-group factorization vs one batched call per size bin
# ----------------------------------------------------------------------
def run_stacked_benchmark(
    n_groups: int = STACKED_GROUPS,
    sizes: tuple[int, ...] = STACKED_SIZES,
    n_queries: int = STACKED_QUERIES_PER_GROUP,
    repetitions: int = 3,
    samples: SampleLog | None = None,
) -> dict:
    """Per-group ``ordinary_kriging_batch`` loop versus the serial grouped
    solve (factor cache off).

    Every group's bordered system is regular on this workload, so the
    grouped path really does run one batched ``numpy.linalg.solve`` per
    size bin; the two variants must agree bit for bit (the batched call
    loops the same LAPACK routine over the stack).
    """
    rng = np.random.default_rng(WORKLOAD_SEED + 1)
    points, values = _reference_pool(rng, 1024)
    supports, queries_list = _indexed_groups(rng, points, n_groups, sizes, n_queries)
    groups = [
        (points[rows], values[rows], queries)
        for rows, queries in zip(supports, queries_list)
    ]

    def _per_group():
        return [
            ordinary_kriging_batch(points, values, queries, VARIOGRAM, metric="l1")
            for points, values, queries in groups
        ]

    def _stacked():
        return ordinary_kriging_grouped(groups, VARIOGRAM, metric="l1")

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


# ----------------------------------------------------------------------
# warm_restore: factor-cache-bearing snapshot vs a cold (v1-style) restore
# ----------------------------------------------------------------------
def run_warm_restore_benchmark(
    n_support: int = WARM_SUPPORT,
    repetitions: int = 3,
    samples: SampleLog | None = None,
) -> dict:
    """Replay the pre-snapshot query batch from a warm and a cold restore.

    One estimator kriges a few query clusters over a dense lattice (big
    shared-support groups), so its factor cache holds exactly the
    factorizations the replay needs.  The session snapshot (format v2)
    carries them; stripping the factor section reproduces what a
    version-1 snapshot restores to.  The warm replay must serve every
    group from the restored cache — ``warm_fresh_factorizations == 0`` is
    the gated contract, the wall-clock ratio is the payoff.
    """
    rng = np.random.default_rng(WORKLOAD_SEED + 2)
    seen = set()
    while len(seen) < n_support:
        seen.add(tuple(int(x) for x in rng.integers(0, WARM_LATTICE, size=NUM_VARIABLES)))
    support = np.asarray(sorted(seen), dtype=np.float64)
    rng.shuffle(support)
    support_values = np.array([_field(p) for p in support])
    centers = support[rng.integers(0, support.shape[0], size=WARM_CLUSTERS)]
    queries = np.vstack(
        [
            center[None, :]
            + rng.uniform(0.1, 0.4, size=(WARM_QUERIES_PER_CLUSTER, NUM_VARIABLES))
            for center in centers
        ]
    )

    def _build() -> KrigingEstimator:
        est = KrigingEstimator(
            _field,
            NUM_VARIABLES,
            distance=WARM_DISTANCE,
            nn_min=1,
            variogram=VARIOGRAM,
        )
        for config, value in zip(support, support_values):
            row = est.cache.add(config, value)
            est.neighbor_index.insert(config, row)
        return est

    source = _build()
    source.evaluate_batch(queries)  # populates the factor cache
    assert dict(source.stats.factor.as_pairs())["fresh"] > 0

    with tempfile.TemporaryDirectory() as tmp:
        path = save_snapshot(
            pathlib.Path(tmp) / "warm",
            {
                "name": "bench-solve",
                "simulator": {"kind": "linear", "coefficients": _COEFFS.tolist(),
                              "offset": -60.0},
                "estimator": source.to_state(),
            },
        )
        warm_state = load_snapshot(path)["estimator"]
    cold_state = {**warm_state, "factor_entries": None}

    fresh_deltas = {}
    timings = {}
    for key, state in (("warm", warm_state), ("cold", cold_state)):
        def _replay(state=state):
            est = KrigingEstimator.from_state(_field, state)
            before = dict(est.stats.factor.as_pairs())["fresh"]
            est.evaluate_batch(queries)
            return dict(est.stats.factor.as_pairs())["fresh"] - before

        timings[key], fresh_deltas[key] = _time(
            _replay, repetitions=repetitions,
            samples=samples, label=f"warm_restore.{key}",
        )

    if fresh_deltas["warm"] != 0:
        raise AssertionError(
            f"warm restore refactorized {fresh_deltas['warm']} groups (expected 0)"
        )
    return {
        "n_support": n_support,
        "n_queries": int(queries.shape[0]),
        "n_clusters": WARM_CLUSTERS,
        "cold_seconds": round(timings["cold"], 6),
        "warm_seconds": round(timings["warm"], 6),
        "speedup_warm_vs_cold": round(timings["cold"] / timings["warm"], 2),
        "warm_fresh_factorizations": int(fresh_deltas["warm"]),
        "cold_fresh_factorizations": int(fresh_deltas["cold"]),
    }


def run_benchmark(
    stacked_groups: int = STACKED_GROUPS,
    warm_support: int = WARM_SUPPORT,
    repetitions: int = 3,
    samples: SampleLog | None = None,
) -> dict:
    stacked = run_stacked_benchmark(
        n_groups=stacked_groups, repetitions=repetitions, samples=samples
    )
    warm = run_warm_restore_benchmark(
        n_support=warm_support, repetitions=repetitions, samples=samples
    )
    return {
        "benchmark": "solve",
        "workload": {
            "num_variables": NUM_VARIABLES,
            "variogram": "exponential(sill=25, range=8)",
        },
        "stacked": stacked,
        "warm_restore": warm,
        "acceptance": {
            "stacked_threshold": STACKED_ACCEPTANCE_SPEEDUP,
            "warm_fresh_factorizations": warm["warm_fresh_factorizations"],
            "passed": warm["warm_fresh_factorizations"] == 0,
        },
    }


def print_summary(report: dict) -> None:
    st = report["stacked"]
    print(
        f"stacked n_groups={st['n_groups']} sizes={st['group_sizes']}  "
        f"per-group={st['per_group_seconds']:.3f}s  "
        f"stacked={st['stacked_seconds']:.3f}s  "
        f"({st['speedup_stacked_vs_pergroup']:.2f}x)"
    )
    warm = report["warm_restore"]
    print(
        f"warm-restore n={warm['n_support']}  cold={warm['cold_seconds']:.3f}s "
        f"({warm['cold_fresh_factorizations']} fresh)  "
        f"warm={warm['warm_seconds']:.3f}s "
        f"({warm['warm_fresh_factorizations']} fresh)  "
        f"({warm['speedup_warm_vs_cold']:.2f}x)"
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
        stacked_groups=spec.params["stacked_groups"],
        warm_support=spec.params["warm_support"],
        repetitions=spec.repetitions,
        samples=samples,
    )
    report = finalize_report("solve", body, seed=spec.seed, argv=sys.argv[1:])
    return RunResult(report=report, config=spec.to_config(), samples=samples.rows())


def main(argv: list[str] | None = None, default_output: pathlib.Path | None = None) -> int:
    """The ``bench_solve.py`` CLI."""
    default_output = default_output or pathlib.Path("BENCH_solve.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller groups, fewer repetitions",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=default_output,
        help=f"report destination (default: {default_output})",
    )
    args = parser.parse_args(argv)

    result = run("solve", args)
    write_report(result.report, args.output)
    print_summary(result.report)
    print("written:", args.output)
    return 0
