"""Service workload: multi-client load against the evaluation service.

Measures the cross-client micro-batching win: ``N_CLIENTS`` logical clients
each issue the same interpolation-heavy query stream against one shared
session, four ways —

* ``sequential``          — one client at a time, one query per round trip
  (``max_batch=1``: every request flushes alone).  The N-sequential-loops
  baseline of the acceptance criterion.
* ``concurrent_unbatched``— all clients in flight at once but with
  coalescing disabled (``max_batch=1``): the win from overlapping network
  round trips alone.
* ``concurrent_batched``  — all clients in flight through the
  micro-batcher: concurrent requests coalesce into shared
  ``evaluate_batch`` flushes, so clients working near the same lattice
  cells share one bordered-matrix factorization instead of paying one
  solve each.
* ``open_loop``           — the batched path under *open-loop* load: each
  client issues its stream on a fixed arrival schedule
  (:func:`repro.bench.runner.paced_arrivals`), and every latency is
  measured from the request's *scheduled* arrival, so schedule slip and
  queueing delay land in the tail instead of silently throttling the
  offered load.  Recorded (with jitter) but not gated — absolute rates are
  machine-dependent.

Clients interleave over shared cluster centers, the regime of parallel
word-length searches over one application.  Every query interpolates (the
support lattice is pre-seeded over the wire with bulk ``simulate``), so
the scenarios answer identical queries from identical session state and
must agree to 1e-9 — the speedups are pure scheduling.

A snapshot section rides along: the loaded session is snapshotted,
restored twice, and the two restored sessions must match byte for byte —
identical snapshot files (cache arrays and manifest) and identical probe
evaluations (the acceptance criterion's determinism check).

By default the benchmark spawns its own server subprocess on an ephemeral
port; ``--connect HOST:PORT`` targets an already-running ``repro serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

import repro
from repro.bench.registry import RunResult
from repro.bench.report import finalize_report, write_report
from repro.bench.runner import best_of as _best_of_rows
from repro.bench.runner import latency_summary, paced_arrivals
from repro.bench.spec import LoadSpec, WorkloadSpec
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.session import load_snapshot

_SRC_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]

NUM_VARIABLES = 5
LATTICE = 6
DISTANCE = 4.0
N_CLIENTS = 8
N_SUPPORT = 1500
QUERIES_PER_CLIENT = 160
REPETITIONS = 2
QUICK_SUPPORT = 700
QUICK_QUERIES_PER_CLIENT = 48
QUICK_REPETITIONS = 1
MAX_BATCH = 64
MAX_DELAY_MS = 2.0
ACCEPTANCE_SPEEDUP = 1.3
SNAPSHOT_PROBES = 24
OPEN_LOOP_RATE_HZ = 40.0

WORKLOAD_SEED = 0

SIMULATOR = {
    "kind": "linear",
    "coefficients": [1.0, -2.0, 0.5, 0.25, 1.5],
    "offset": -60.0,
}
# A fixed, strictly-PD bounded variogram (shipped as a model-state dict):
# the piecewise-linear model is rank-deficient on dense integer lattices, so
# it would lock the whole run out of the factorization-reuse layer and turn
# the comparison into an lstsq-overhead measurement.
SESSION_KWARGS = dict(
    num_variables=NUM_VARIABLES,
    distance=DISTANCE,
    nn_min=1,
    variogram={
        "family": "ExponentialVariogram",
        "params": {"sill": 25.0, "range_": 8.0, "nugget_": 0.0},
    },
)

SPEC = WorkloadSpec(
    name="service",
    kind="service",
    description=(
        "Multi-client load generator: sequential vs concurrent vs batched "
        "vs open-loop scheduling, plus snapshot round-trip determinism"
    ),
    seed=WORKLOAD_SEED,
    repetitions=REPETITIONS,
    load=LoadSpec(mode="closed", clients=N_CLIENTS),
    params={
        "n_support": N_SUPPORT,
        "queries_per_client": QUERIES_PER_CLIENT,
        "open_loop_rate_hz": OPEN_LOOP_RATE_HZ,
    },
    quick={
        "n_support": QUICK_SUPPORT,
        "queries_per_client": QUICK_QUERIES_PER_CLIENT,
        "repetitions": QUICK_REPETITIONS,
    },
)

#: Per-coordinate query jitter inside a lattice cell; its L1 norm is at most
#: ``0.12 * NUM_VARIABLES = 0.6``, which bounds how much a query can drift
#: from its cluster center (small enough that most of a cluster shares one
#: support signature — the shared-factorization case).
JITTER = (0.02, 0.12)


def _make_workload(n_support: int, queries_per_client: int, seed: int = WORKLOAD_SEED):
    """Support lattice plus per-client query streams over shared clusters.

    Queries jitter inside the lattice cells of shared cluster centers, and
    the streams interleave center-first — so at any instant the concurrent
    clients are asking about the same handful of neighbourhoods, which is
    exactly what the micro-batcher coalesces into shared factorizations.

    Centers are screened so every query is *guaranteed* to interpolate
    (>= 2 support points within ``DISTANCE`` whatever the jitter): the
    scenarios then answer identical queries from identical session state
    and stay comparable — no query ever mutates the cache.
    """
    rng = np.random.default_rng(seed)
    support = set()
    while len(support) < n_support:
        point = tuple(int(x) for x in rng.integers(0, LATTICE, size=NUM_VARIABLES))
        support.add(point)
    support = np.asarray(sorted(support), dtype=np.float64)
    rng.shuffle(support)

    max_jitter = JITTER[1] * NUM_VARIABLES
    candidates = support[rng.permutation(n_support)]
    counts = np.abs(candidates[:, None, :] - support[None, :, :]).sum(axis=2)
    eligible = candidates[(counts <= DISTANCE - max_jitter).sum(axis=1) >= 4]
    n_centers = max(queries_per_client // 4, 1)
    if eligible.shape[0] < n_centers:
        raise RuntimeError(
            f"only {eligible.shape[0]} eligible cluster centers for {n_centers}; "
            "increase n_support or DISTANCE"
        )
    centers = eligible[:n_centers]
    streams = []
    for _ in range(N_CLIENTS):
        jitter = rng.uniform(*JITTER, size=(queries_per_client, NUM_VARIABLES))
        cluster = centers[np.arange(queries_per_client) % n_centers]
        streams.append((cluster + jitter).tolist())
    return support, streams


def _scenario_row(
    seconds: float,
    latencies: list[float],
    values: list[float],
    waits: list[tuple] | None = None,
) -> dict:
    n = len(latencies)
    row = {
        "n_queries": n,
        "seconds": round(seconds, 6),
        "qps": round(n / seconds, 2),
        "latency_ms": latency_summary(latencies),
        "_values": values,  # stripped before writing; equivalence check only
        "_latencies": list(latencies),  # stripped; raw samples for provenance
    }
    if waits:
        # Per-request hop timings the server stamps on every coalesced
        # evaluate response: time spent in the micro-batcher queue and in
        # the flush that solved it (latency_summary wants seconds).
        queue = [w[0] / 1000.0 for w in waits if isinstance(w[0], (int, float))]
        flush = [w[1] / 1000.0 for w in waits if isinstance(w[1], (int, float))]
        row["queue_wait_ms"] = latency_summary(queue)
        row["flush_wait_ms"] = latency_summary(flush)
        row["_waits"] = [list(w) for w in waits]
    return row


def _seed_session(client: ServiceClient, session: str, support, *, max_batch: int) -> None:
    client.create_session(
        session,
        simulator=SIMULATOR,
        replace=True,
        max_batch=max_batch,
        max_delay_ms=MAX_DELAY_MS,
        **SESSION_KWARGS,
    )
    rows = support.tolist()
    for start in range(0, len(rows), 500):
        client.simulate_many(session, rows[start : start + 500])


def _wire_waits(result: dict) -> tuple:
    return (result.get("queue_wait_ms"), result.get("flush_wait_ms"))


def run_sequential(client: ServiceClient, session: str, streams) -> dict:
    """Each client's loop in turn, one blocking round trip per query."""
    latencies: list[float] = []
    values: list[float] = []
    waits: list[tuple] = []
    start = time.perf_counter()
    for stream in streams:
        for query in stream:
            t0 = time.perf_counter()
            result = client.request("evaluate", session=session, config=list(query))
            latencies.append(time.perf_counter() - t0)
            values.append(result["value"])
            waits.append(_wire_waits(result))
    return _scenario_row(time.perf_counter() - start, latencies, values, waits)


async def _client_loop(
    host, port, session, stream, latencies, values, waits, trace_sample=0.0
):
    async with await AsyncServiceClient.connect(
        host, port, trace_sample=trace_sample
    ) as client:
        for query in stream:
            t0 = time.perf_counter()
            result = await client.request(
                "evaluate", session=session, config=list(query)
            )
            latencies.append((query, time.perf_counter() - t0))
            values.append((tuple(query), result["value"]))
            waits.append(_wire_waits(result))


def run_concurrent(
    host: str, port: int, session: str, streams, *, trace_sample: float = 0.0
) -> dict:
    """All client loops at once, each on its own connection."""
    latencies: list = []
    values: list = []
    waits: list = []

    async def main():
        await asyncio.gather(
            *(
                _client_loop(
                    host, port, session, stream, latencies, values, waits,
                    trace_sample,
                )
                for stream in streams
            )
        )

    start = time.perf_counter()
    asyncio.run(main())
    seconds = time.perf_counter() - start
    by_query = {key: value for key, value in values}
    ordered = [by_query[tuple(q)] for stream in streams for q in stream]
    return _scenario_row(seconds, [lat for _, lat in latencies], ordered, waits)


async def _open_loop_client(
    host, port, session, stream, rate_hz, latencies, values, waits
):
    """One paced client: requests due at ``i / rate_hz``; each latency is
    measured from the request's *scheduled* arrival, so a response that
    blocks the connection pushes schedule slip into the next latencies."""
    async with await AsyncServiceClient.connect(host, port) as client:
        t0 = time.perf_counter()
        for due, query in zip(
            paced_arrivals(rate_hz, n_arrivals=len(stream)), stream
        ):
            delay = due - (time.perf_counter() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            result = await client.request(
                "evaluate", session=session, config=list(query)
            )
            latencies.append((query, time.perf_counter() - t0 - due))
            values.append((tuple(query), result["value"]))
            waits.append(_wire_waits(result))


def run_open_loop(
    host: str, port: int, session: str, streams, rate_hz: float
) -> dict:
    """All clients on fixed arrival schedules against the batched session."""
    latencies: list = []
    values: list = []
    waits: list = []

    async def main():
        await asyncio.gather(
            *(
                _open_loop_client(
                    host, port, session, stream, rate_hz, latencies, values, waits
                )
                for stream in streams
            )
        )

    start = time.perf_counter()
    asyncio.run(main())
    seconds = time.perf_counter() - start
    by_query = {key: value for key, value in values}
    ordered = [by_query[tuple(q)] for stream in streams for q in stream]
    row = _scenario_row(seconds, [lat for _, lat in latencies], ordered, waits)
    row["offered_rate_hz"] = round(rate_hz * len(streams), 2)
    return row


def run_snapshot_roundtrip(
    client: ServiceClient, session: str, streams, tmp_dir: pathlib.Path
) -> dict:
    """Snapshot → restore ×2 → byte-for-byte determinism checks."""
    probes = [q for stream in streams for q in stream][:SNAPSHOT_PROBES]
    original = pathlib.Path(
        client.snapshot(session, path=str(tmp_dir / "original"))["path"]
    )
    t0 = time.perf_counter()
    restored = []
    for copy in ("restore_a", "restore_b"):
        client.restore(path=str(original), session=copy, replace=True)
        restored.append(
            pathlib.Path(client.snapshot(copy, path=str(tmp_dir / copy))["path"])
        )
    roundtrip_seconds = time.perf_counter() - t0

    states = [load_snapshot(path) for path in (original, *restored)]
    arrays_bitwise = all(
        np.array_equal(states[0]["estimator"]["cache"]["points"], s["estimator"]["cache"]["points"])
        and np.array_equal(states[0]["estimator"]["cache"]["values"], s["estimator"]["cache"]["values"])
        for s in states[1:]
    )
    # Two restores answer the probes bit-identically; the original (whose
    # factor cache is warm) agrees within the engine's envelope.
    out_a = [o.value for o in client.evaluate_many("restore_a", probes)]
    out_b = [o.value for o in client.evaluate_many("restore_b", probes)]
    out_orig = [o.value for o in client.evaluate_many(session, probes)]
    restored_bitwise = out_a == out_b
    np.testing.assert_allclose(out_orig, out_a, rtol=1e-9, atol=1e-12)
    # Compare the JSON manifests only: the cache section holds the arrays.
    def _manifest(state):
        return json.dumps(
            {k: v for k, v in state["estimator"].items() if k != "cache"},
            sort_keys=True,
        )

    manifests_equal = all(_manifest(states[0]) == _manifest(s) for s in states[1:])
    return {
        "cache_size": int(states[0]["estimator"]["cache"]["points"].shape[0]),
        "file_bytes": original.stat().st_size,
        "roundtrip_seconds": round(roundtrip_seconds, 6),
        "n_probes": len(probes),
        "roundtrip_bitwise": bool(
            arrays_bitwise and restored_bitwise and manifests_equal
        ),
    }


def run_benchmark(
    host: str,
    port: int,
    *,
    n_support: int = N_SUPPORT,
    queries_per_client: int = QUERIES_PER_CLIENT,
    repetitions: int = REPETITIONS,
    open_loop_rate_hz: float = OPEN_LOOP_RATE_HZ,
) -> dict:
    support, streams = _make_workload(n_support, queries_per_client)
    scenarios = {}
    with ServiceClient(host, port) as client:
        # Fresh, identically-seeded session per scenario repetition:
        # identical state, identical queries — the timings differ only in
        # scheduling.  Best-of-N, like the query-engine bench, so one noisy
        # scheduler hiccup cannot fail the gate.
        def best_of(session: str, max_batch: int, run) -> dict:
            def run_once() -> dict:
                _seed_session(client, session, support, max_batch=max_batch)
                return run(session)

            return _best_of_rows(repetitions, run_once)

        scenarios["sequential"] = best_of(
            "bench-seq", 1, lambda s: run_sequential(client, s, streams)
        )
        scenarios["concurrent_unbatched"] = best_of(
            "bench-solo", 1, lambda s: run_concurrent(host, port, s, streams)
        )
        scenarios["concurrent_batched"] = best_of(
            "bench-batched", MAX_BATCH, lambda s: run_concurrent(host, port, s, streams)
        )
        # The batched scenario again with every request traced end to end:
        # the qps delta is the tracing overhead, and the value-equivalence
        # check below proves tracing never touches the numerics.
        scenarios["concurrent_batched_traced"] = best_of(
            "bench-traced",
            MAX_BATCH,
            lambda s: run_concurrent(host, port, s, streams, trace_sample=1.0),
        )
        # Open-loop rides on its own batched session, once (fixed offered
        # load: best-of-N would only pick the luckiest schedule).
        scenarios["open_loop"] = best_of(
            "bench-open",
            MAX_BATCH,
            lambda s: run_open_loop(host, port, s, streams, open_loop_rate_hz),
        )

        # Pure-scheduling contract: all scenarios answered identically
        # (tracing included — observability must be invisible to results).
        reference = scenarios["sequential"].pop("_values")
        for name in (
            "concurrent_unbatched",
            "concurrent_batched",
            "concurrent_batched_traced",
            "open_loop",
        ):
            np.testing.assert_allclose(
                reference, scenarios[name].pop("_values"), rtol=1e-9, atol=1e-12
            )
        for name in (
            "bench-seq", "bench-solo", "bench-batched", "bench-traced", "bench-open"
        ):
            stats = client.stats(name)
            assert stats["n_simulated"] == len(support), (
                f"{name}: {stats['n_simulated']} simulations != {len(support)} "
                "support points — a query fell back to simulation, the "
                "scenarios are no longer comparable"
            )
        batcher_stats = client.stats("bench-batched")["batcher"]

        with tempfile.TemporaryDirectory(prefix="repro-bench-snap-") as tmp:
            snapshot = run_snapshot_roundtrip(
                client, "bench-batched", streams, pathlib.Path(tmp)
            )

        # Whatever the server promoted to its slow-trace buffer during the
        # run rides into the provenance dir (slow_traces.json).
        slow_traces = client.traces().get("slow_traces", [])

    traced_qps = scenarios["concurrent_batched_traced"]["qps"]
    untraced_qps = scenarios["concurrent_batched"]["qps"]
    tracing = {
        "sample_rate": 1.0,
        "qps_untraced": untraced_qps,
        "qps_traced": traced_qps,
        "overhead_pct": round(100.0 * (untraced_qps / traced_qps - 1.0), 2),
    }

    speedup_seq = round(
        scenarios["concurrent_batched"]["qps"] / scenarios["sequential"]["qps"], 2
    )
    speedup_solo = round(
        scenarios["concurrent_batched"]["qps"]
        / scenarios["concurrent_unbatched"]["qps"],
        2,
    )
    return {
        "benchmark": "service",
        "workload": {
            "num_variables": NUM_VARIABLES,
            "lattice": LATTICE,
            "distance": DISTANCE,
            "n_clients": N_CLIENTS,
            "n_support": n_support,
            "queries_per_client": queries_per_client,
            "max_batch": MAX_BATCH,
            "max_delay_ms": MAX_DELAY_MS,
            "open_loop_rate_hz": open_loop_rate_hz,
            "query_model": "interleaved clustered sweep (shared centers)",
        },
        "scenarios": scenarios,
        "batcher": batcher_stats,
        "snapshot": snapshot,
        "tracing": tracing,
        "_slow_traces": slow_traces,  # stripped from the report; provenance only
        "speedup_batched_vs_sequential": speedup_seq,
        "speedup_batched_vs_unbatched": speedup_solo,
        "acceptance": {
            "n_clients": N_CLIENTS,
            "speedup_batched_vs_sequential": speedup_seq,
            "threshold": ACCEPTANCE_SPEEDUP,
            "snapshot_roundtrip_bitwise": snapshot["roundtrip_bitwise"],
            "passed": (
                speedup_seq >= ACCEPTANCE_SPEEDUP and snapshot["roundtrip_bitwise"]
            ),
        },
    }


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------
#: Dispatch spans at least this slow are always captured by a spawned
#: server, whatever the client sampling rate — they land in the provenance
#: dir as ``slow_traces.json``.
SLOW_TRACE_MS = 250.0


class _SpawnedServer:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, *, slow_trace_ms: float = SLOW_TRACE_MS) -> None:
        self._dir = tempfile.TemporaryDirectory(prefix="repro-bench-serve-")
        port_file = pathlib.Path(self._dir.name) / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC_ROOT) + (
            os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else ""
        )
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--slow-trace-ms",
                str(float(slow_trace_ms)),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                break
            if self.process.poll() is not None:
                raise RuntimeError("server subprocess died during startup")
            time.sleep(0.05)
        else:
            raise RuntimeError("server did not report a port within 30s")
        self.host = "127.0.0.1"
        self.port = int(port_file.read_text().strip())

    def stop(self) -> None:
        try:
            with ServiceClient(self.host, self.port, timeout=5.0) as client:
                client.shutdown()
            self.process.wait(timeout=10.0)
        except Exception:
            self.process.kill()
            self.process.wait(timeout=10.0)
        finally:
            self._dir.cleanup()


def print_summary(report: dict) -> None:
    for name in (
        "sequential",
        "concurrent_unbatched",
        "concurrent_batched",
        "concurrent_batched_traced",
        "open_loop",
    ):
        row = report["scenarios"][name]
        print(
            f"{name:<25s} {row['seconds']:>7.3f}s  {row['qps']:>8.1f} q/s  "
            f"p50={row['latency_ms']['p50']:.2f}ms  p99={row['latency_ms']['p99']:.2f}ms"
        )
    batched = report["scenarios"]["concurrent_batched"]
    if batched.get("queue_wait_ms"):
        print(
            f"batched waits: queue p50={batched['queue_wait_ms']['p50']:.2f}ms "
            f"p99={batched['queue_wait_ms']['p99']:.2f}ms, "
            f"flush p50={batched['flush_wait_ms']['p50']:.2f}ms "
            f"p99={batched['flush_wait_ms']['p99']:.2f}ms"
        )
    tracing = report.get("tracing", {})
    if tracing:
        print(
            f"tracing: {tracing['qps_traced']:.1f} q/s traced vs "
            f"{tracing['qps_untraced']:.1f} untraced "
            f"({tracing['overhead_pct']:+.1f}% overhead)"
        )
    batcher = report["batcher"]
    print(
        f"batcher: {batcher['requests']} requests in {batcher['flushes']} flushes "
        f"(mean batch {batcher['batch_size']['mean']:.1f}, "
        f"max {batcher['batch_size']['max']:.0f})"
    )
    snapshot = report["snapshot"]
    print(
        f"snapshot: {snapshot['cache_size']} cache rows, "
        f"{snapshot['file_bytes']} bytes, bitwise={snapshot['roundtrip_bitwise']}"
    )
    print(
        f"speedup: batched-vs-sequential {report['speedup_batched_vs_sequential']:.2f}x, "
        f"batched-vs-unbatched {report['speedup_batched_vs_unbatched']:.2f}x"
    )


def _extract_samples(report: dict) -> list[dict]:
    """Pull the private per-request latency lists into provenance rows."""
    samples: list[dict] = []
    for name, row in (report.get("scenarios") or {}).items():
        waits = row.get("_waits") or []
        for i, seconds in enumerate(row.get("_latencies", [])):
            sample = {"label": name, "seconds": round(seconds, 6)}
            if i < len(waits):
                sample["queue_wait_ms"], sample["flush_wait_ms"] = waits[i]
            samples.append(sample)
    return samples


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def get_spec(name: str) -> WorkloadSpec:
    return SPEC


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="target an already-running 'repro serve' instead of spawning one",
    )


def run(name: str, args: argparse.Namespace) -> RunResult:
    spec = SPEC.resolve(quick=getattr(args, "quick", False))
    connect = getattr(args, "connect", None)
    server = None
    if connect is not None:
        host, _, port = connect.rpartition(":")
        host, port = host or "127.0.0.1", int(port)
    else:
        server = _SpawnedServer()
        host, port = server.host, server.port
    try:
        body = run_benchmark(
            host,
            port,
            n_support=spec.params["n_support"],
            queries_per_client=spec.params["queries_per_client"],
            repetitions=spec.repetitions,
            open_loop_rate_hz=spec.params["open_loop_rate_hz"],
        )
    finally:
        if server is not None:
            server.stop()
    samples = _extract_samples(body)
    slow_traces = body.pop("_slow_traces", [])
    report = finalize_report("service", body, seed=spec.seed, argv=sys.argv[1:])
    return RunResult(
        report=report,
        config=spec.to_config(),
        samples=samples,
        slow_traces=slow_traces,
    )


def main(argv: list[str] | None = None, default_output: pathlib.Path | None = None) -> int:
    """The historical ``bench_service.py`` CLI."""
    default_output = default_output or pathlib.Path("BENCH_service.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller support set and fewer queries per client",
    )
    add_arguments(parser)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=default_output,
        help=f"report destination (default: {default_output})",
    )
    args = parser.parse_args(argv)

    result = run("service", args)
    write_report(result.report, args.output)
    print_summary(result.report)
    print("written:", args.output)
    return 0
