"""The serve workloads: a spawned ``repro serve`` under closed-loop load.

Load comes from this one process over ``CONNECTIONS`` connections, each
keeping ``WINDOW`` evaluate or simulate requests outstanding; a request's
latency is measured here from send to reply.  The work is cut into
identical rounds: each seeds the session afresh and sends the same
requests, so ``wall_s`` is the time one round takes.  The request streams
come from the workload seed: clustered, interleaved across connections and
screened so that every evaluate interpolates.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import measure
from perfbench.layers import put_layer_metrics
from perfbench.measure import Tally
from perfbench.report import Outcome, ratio
from perfbench.spans import in_windows
from repro.core.estimator import KrigingEstimator
from repro.core.models import variogram_from_state
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import ProtocolError, RemoteError
from repro.service.session import make_simulator

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAUNCHER = pathlib.Path(__file__).with_name("serve_launcher.py")

NUM_VARIABLES = 5
LATTICE = 6
DISTANCE = 4.0
#: Per-coordinate query offset inside a lattice cell.
JITTER = (0.02, 0.12)
CONNECTIONS = min(2, os.cpu_count() or 1)
WINDOW = 8
REQUEST_TIMEOUT_S = 30.0
SEED_CHUNK = 500

SIMULATOR = {
    "kind": "linear",
    "coefficients": [1.0, -2.0, 0.5, 0.25, 1.5],
    "offset": -60.0,
}
READ_SESSION = dict(
    num_variables=NUM_VARIABLES,
    distance=DISTANCE,
    nn_min=1,
    variogram={
        "family": "ExponentialVariogram",
        "params": {"sill": 25.0, "range_": 8.0, "nugget_": 0.0},
    },
)
MIXED_SESSION = dict(
    num_variables=NUM_VARIABLES,
    distance=DISTANCE,
    nn_min=1,
    variogram="exponential",
    refit_interval=50,
)
READ_SUPPORT = 1500
MIXED_SUPPORT = 600
#: Requests per connection and round: short rounds fit into the host's
#: fast spells.  A ``serve-mixed`` round fits its variogram on the first
#: evaluate and refits lazily, on the first evaluate after 50 writes; at
#: 2 x 300 (60 writes) that refit falls inside the round.
READ_QUERIES = 300
MIXED_OPS = 300
#: Every ``WRITE_EVERY``-th mixed request is a simulate at an unseen point.
WRITE_EVERY = 10
#: Server spawns per untraced run, part of the set-up time: one before the
#: load and the rest after it.
SPAWNS = 3
#: Served answers compared against an in-process estimator.
CHECK_SAMPLE = 1000
#: Evaluates per eligible cluster center in the accuracy sample.
ACCURACY_PER_CENTER = 2
#: The server's peak RSS is read after this many rounds, so it measures a
#: fixed amount of work however many rounds a run fits in.
RSS_ROUNDS = 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def lattice_support(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct lattice points, in a seeded order."""
    index = rng.choice(LATTICE**NUM_VARIABLES, size=n, replace=False)
    return np.stack(
        np.unravel_index(index, (LATTICE,) * NUM_VARIABLES), axis=1
    ).astype(np.float64)


def eligible_centers(support: np.ndarray) -> np.ndarray:
    """Support points with at least 4 support points so close that any
    jittered query around them has 2+ neighbours: it must interpolate."""
    reach = DISTANCE - JITTER[1] * NUM_VARIABLES
    keep = []
    for start in range(0, len(support), 256):
        block = support[start : start + 256]
        near = np.abs(block[:, None, :] - support[None, :, :]).sum(axis=2) <= reach
        keep.append(block[near.sum(axis=1) >= 4])
    return np.concatenate(keep)


def _offsets_by_radius() -> dict[int, np.ndarray]:
    steps = np.array(list(itertools.product(range(-2, 3), repeat=NUM_VARIABLES)))
    radius = np.abs(steps).sum(axis=1)
    return {r: steps[radius == r] for r in (1, 2)}


_OFFSETS = _offsets_by_radius()


def round_streams(
    rng: np.random.Generator,
    centers: np.ndarray,
    n_ops: int,
    *,
    taken: set | None = None,
) -> list[list[tuple[str, list[float]]]]:
    """One round's request stream per connection.

    All connections walk the same cluster centers in the same order (the
    regime of parallel searches over one application).  With ``taken``
    (the points the session holds), every ``WRITE_EVERY``-th request is a
    ``simulate`` at an unseen lattice point next to its cluster's center.
    """
    n_centers = max(n_ops // 4, 1)
    chosen = centers[rng.choice(len(centers), size=n_centers, replace=False)]
    streams = []
    for _ in range(CONNECTIONS):
        cluster = chosen[np.arange(n_ops) % n_centers]
        queries = cluster + rng.uniform(*JITTER, size=(n_ops, NUM_VARIABLES))
        ops = []
        for i in range(n_ops):
            if taken is not None and i % WRITE_EVERY == WRITE_EVERY - 1:
                ops.append(("simulate", _unseen_near(rng, cluster[i], taken)))
            else:
                ops.append(("evaluate", queries[i].tolist()))
        streams.append(ops)
    return streams


def accuracy_queries(rng: np.random.Generator, centers: np.ndarray) -> list[tuple[str, list[float]]]:
    """Evaluates around every eligible center.

    ``mean_error`` is read from these, not from the rounds: a round visits
    a few dozen clusters, and which ones the seed picks moved the mean error
    by 0.21 (interquartile range over median) across ten seeds.
    """
    queries = np.repeat(centers, ACCURACY_PER_CENTER, axis=0)
    queries += rng.uniform(*JITTER, size=queries.shape)
    return [("evaluate", query.tolist()) for query in queries]


def _unseen_near(rng: np.random.Generator, center: np.ndarray, taken: set) -> list[float]:
    for radius in (1, 2):
        points = center + _OFFSETS[radius]
        inside = points[((points >= 0) & (points < LATTICE)).all(axis=1)]
        fresh = [p for p in inside if tuple(p) not in taken]
        if fresh:
            point = fresh[rng.integers(len(fresh))]
            break
    else:
        while True:
            point = rng.integers(0, LATTICE, size=NUM_VARIABLES).astype(np.float64)
            if tuple(point) not in taken:
                break
    taken.add(tuple(point))
    return point.tolist()


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class Server:
    """``perfbench/serve_launcher.py`` (the unchanged ``repro serve``)."""

    def __init__(self, work: pathlib.Path, traced: bool, server_cpu: int | None) -> None:
        self.port_file = work / f"port-{int(traced)}"
        self.spans_file = work / f"server-spans-{int(traced)}.json"
        self.port_file.unlink(missing_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._log = open(work / f"server-{int(traced)}.log", "wb")
        self.port: int | None = None
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(LAUNCHER),
                "--trace",
                str(int(traced)),
                "--spans-out",
                str(self.spans_file),
                "--",
                "--port",
                "0",
                "--port-file",
                str(self.port_file),
            ],
            cwd=ROOT,
            env=self.env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            if server_cpu is not None:
                os.sched_setaffinity(self.process.pid, {server_cpu})
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise
        self.spawn_s = time.perf_counter() - start
        self.pid = self.process.pid

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} at start")
            try:
                return int(self.port_file.read_text().strip())
            except (FileNotFoundError, ValueError):
                time.sleep(0.02)
        raise RuntimeError("server reported no port within 60 s")

    def stop(self) -> None:
        """Shut down over the wire; kill if that fails.  Always reaps."""
        try:
            if self.process.poll() is None:
                try:
                    if self.port is None:
                        raise OSError("server never listened")
                    with ServiceClient("127.0.0.1", self.port, timeout=10.0) as client:
                        client.shutdown()
                    self.process.wait(timeout=30.0)
                except (OSError, ProtocolError, RemoteError, subprocess.TimeoutExpired):
                    self.process.kill()
                    self.process.wait(timeout=30.0)
        finally:
            self._log.close()


# ---------------------------------------------------------------------------
# the load
# ---------------------------------------------------------------------------
@dataclass
class Run:
    """One server's measured load."""

    spawn_times: list[float] = field(default_factory=list)
    #: Session seeding times, one per round.
    setup_times: list[float] = field(default_factory=list)
    #: Support points simulated while seeding sessions (not load).
    seeded: int = 0
    round_walls: list[float] = field(default_factory=list)
    #: Latencies (s) of the requests answered, per round.
    round_latencies: list[list[float]] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: ``(kind, config, latency_s | None, response | error text)``.
    records: list[tuple] = field(default_factory=list)
    #: ``stats`` verb answer of the session at the end of each round.
    stats: list[dict] = field(default_factory=list)
    #: Writes acknowledged per round (0 on ``serve-read``).
    writes: list[int] = field(default_factory=list)
    #: Records of the untimed accuracy sample sent after the last round.
    accuracy: list[tuple] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    server_threads: dict = field(default_factory=dict)
    dump: dict | None = None
    tally: Tally = field(default_factory=Tally)

    def ok(self) -> list[tuple]:
        return [r for r in self.records if r[2] is not None]

    @property
    def seconds_per_op(self) -> float:
        return sum(self.round_walls) / max(len(self.ok()), 1)


async def _drive(client, session: str, ops: list, results: list, tally: Tally) -> None:
    """Send ``ops`` with ``WINDOW`` requests outstanding (closed loop)."""
    pending = iter(range(len(ops)))

    async def worker() -> None:
        for i in pending:
            kind, config = ops[i]
            start = time.perf_counter()
            try:
                response = await client.request(kind, session=session, config=config)
            except (RemoteError, ProtocolError, OSError, asyncio.TimeoutError) as exc:
                tally.record(False)
                results[i] = (kind, config, None, repr(exc))
                continue
            tally.record(True)
            results[i] = (kind, config, time.perf_counter() - start, response)

    await asyncio.gather(*(worker() for _ in range(WINDOW)))


async def _round(clients, session: str, streams, run: Run, pid: int) -> None:
    results = [[None] * len(ops) for ops in streams]
    cpu_before = measure.cpu_seconds(pid)
    window_start, start = time.monotonic(), time.perf_counter()
    await asyncio.gather(
        *(
            _drive(client, session, ops, res, run.tally)
            for client, ops, res in zip(clients, streams, results)
        )
    )
    run.round_walls.append(time.perf_counter() - start)
    run.windows.append((window_start, time.monotonic()))
    run.cpu_s += measure.cpu_seconds(pid) - cpu_before
    run.records.extend(record for res in results for record in res)
    run.round_latencies.append([r[2] for res in results for r in res if r[2] is not None])
    if len(run.round_walls) <= RSS_ROUNDS:
        run.peak_rss_mb = measure.peak_rss_mb(pid)


async def _seed_session(client, session: str, config: dict, support: np.ndarray, run: Run) -> None:
    start = time.perf_counter()
    await client.create_session(session, simulator=SIMULATOR, replace=True, **config)
    rows = support.tolist()
    for first in range(0, len(rows), SEED_CHUNK):
        await client.simulate_many(session, rows[first : first + SEED_CHUNK])
    run.setup_times.append(time.perf_counter() - start)
    run.seeded += len(rows)


async def _connect(port: int) -> list:
    return [
        await AsyncServiceClient.connect("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        for _ in range(CONNECTIONS)
    ]


async def _load(kind: str, server: Server, seed: int, seconds: float, run: Run) -> None:
    """Identical rounds until ``seconds`` of load: each seeds the session
    afresh and sends the same requests."""
    if kind == "serve-read":
        session, config, n_support, n_ops = "read", READ_SESSION, READ_SUPPORT, READ_QUERIES
    else:
        session, config, n_support, n_ops = "mixed", MIXED_SESSION, MIXED_SUPPORT, MIXED_OPS
    support = lattice_support(np.random.default_rng(seed), n_support)
    taken = {tuple(point) for point in support} if kind == "serve-mixed" else None
    streams = round_streams(
        np.random.default_rng([seed, 1]), eligible_centers(support), n_ops, taken=taken
    )
    clients = await _connect(server.port)
    try:
        while not run.round_walls or sum(run.round_walls) < seconds:
            await _seed_session(clients[0], session, config, support, run)
            first = len(run.records)
            await _round(clients, session, streams, run, server.pid)
            run.writes.append(
                sum(
                    1
                    for op, _, latency, response in run.records[first:]
                    if op == "simulate" and latency is not None
                    and not response.get("exact_hit")
                )
            )
            run.stats.append(await clients[0].stats(session))
        accuracy = accuracy_queries(np.random.default_rng([seed, 2]), eligible_centers(support))
        run.accuracy = [None] * len(accuracy)
        await _drive(clients[0], session, accuracy, run.accuracy, run.tally)
    finally:
        for client in clients:
            await client.close()


def _serve(kind: str, seed: int, seconds: float, traced: bool, work: pathlib.Path) -> Run:
    run = Run()
    # Client and server each get a CPU of their own when there are two:
    # left to the scheduler they contend, and rounds took 3x as long in
    # some runs.
    cpus = sorted(os.sched_getaffinity(0))
    pinned = len(cpus) >= 2
    server_cpu = cpus[-1] if pinned else None
    if pinned:
        os.sched_setaffinity(0, {cpus[0]})
    try:
        server = Server(work, traced, server_cpu)
        try:
            run.spawn_times.append(server.spawn_s)
            run.server_threads = measure.thread_settings(server.env)
            asyncio.run(_load(kind, server, seed, seconds, run))
        finally:
            server.stop()
        for _ in range(0 if traced else SPAWNS - 1):
            spare = Server(work, traced, server_cpu)
            try:
                run.spawn_times.append(spare.spawn_s)
            finally:
                spare.stop()
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)
    if traced:
        run.dump = json.loads(server.spans_file.read_text())
    return run


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def _truth(configs: np.ndarray) -> np.ndarray:
    coefficients = np.resize(np.asarray(SIMULATOR["coefficients"]), NUM_VARIABLES)
    return configs @ coefficients + SIMULATOR["offset"]


def _evaluations(records: list[tuple]) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    answered = [r for r in records if r[0] == "evaluate" and r[2] is not None]
    configs = np.array([r[1] for r in answered], dtype=np.float64).reshape(-1, NUM_VARIABLES)
    values = np.array([r[3].get("value", np.nan) for r in answered], dtype=np.float64)
    return configs, values, [r[3] for r in answered]


def _check_well_formed(out: Outcome, run: Run) -> None:
    simulate, _ = make_simulator(SIMULATOR, NUM_VARIABLES)
    for kind, config, latency, response in run.ok() + [r for r in run.accuracy if r[2] is not None]:
        well_formed = (
            isinstance(response, dict)
            and isinstance(response.get("value"), float)
            and np.isfinite(response["value"])
            and isinstance(response.get("interpolated"), bool)
            and isinstance(response.get("n_neighbors"), int)
        )
        if not well_formed:
            out.problems.append(f"malformed {kind} response {response!r}")
        elif kind == "evaluate" and not response["interpolated"]:
            out.problems.append(f"evaluate {config} was simulated, not interpolated")
        elif kind == "simulate" and (
            response["interpolated"] or response["value"] != simulate(np.asarray(config))
        ):
            out.problems.append(f"simulate {config} answered {response!r}")


def _check_read(out: Outcome, seed: int, run: Run) -> None:
    _check_well_formed(out, run)
    support = lattice_support(np.random.default_rng(seed), READ_SUPPORT)
    for stats in run.stats:
        out.check(
            stats["n_simulated"] == len(support),
            f"n_simulated {stats['n_simulated']} != {len(support)} seeded points",
        )
    configs, values, _ = _evaluations(run.ok())
    picks = np.random.default_rng(seed).choice(
        len(values), size=min(CHECK_SAMPLE, len(values)), replace=False
    )
    simulate, _ = make_simulator(SIMULATOR, NUM_VARIABLES)
    settings = {k: v for k, v in READ_SESSION.items() if k != "num_variables"}
    settings["variogram"] = variogram_from_state(settings["variogram"])
    local = KrigingEstimator(simulate, NUM_VARIABLES, **settings)
    for point in support:
        local.force_simulate(point)
    expected = np.array([o.value for o in local.evaluate_batch(configs[picks])])
    out.check(
        np.allclose(values[picks], expected, rtol=1e-9, atol=1e-12),
        "served answers differ from an in-process estimator beyond 1e-9",
    )
    out.details["checked_against_local"] = int(picks.size)


def _check_mixed(out: Outcome, run: Run) -> None:
    _check_well_formed(out, run)
    for stats, writes in zip(run.stats, run.writes):
        out.check(
            stats["n_simulated"] == MIXED_SUPPORT + writes,
            f"n_simulated {stats['n_simulated']} != {MIXED_SUPPORT} seeded + {writes} writes",
        )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _put_end_to_end(out: Outcome, run: Run) -> None:
    ok = run.ok()
    _, _, responses = _evaluations(ok)
    interpolated = sum(1 for r in responses if r.get("interpolated"))
    configs, values, _ = _evaluations(run.accuracy)
    truth = _truth(configs)
    errors = np.abs(values - truth) / np.abs(truth)
    out.put(
        "setup_s",
        measure.fast_median(run.spawn_times) + measure.fast_median(run.setup_times),
        f"fastest of {len(run.spawn_times)} server spawns + median of the fastest"
        f" quarter of {len(run.setup_times)} session seedings",
    )
    quiet = measure.fastest(run.round_walls)
    walls = [run.round_walls[i] for i in quiet]
    latencies_ms = [1000.0 * s for i in quiet for s in run.round_latencies[i]]
    rounds = f"the fastest {len(quiet)} of {len(run.round_walls)} identical rounds"
    out.put("wall_s", statistics.median(walls), f"median of {rounds}")
    out.put("queries_per_s", len(latencies_ms) / sum(walls), f"requests answered in {rounds}")
    out.put(
        "latency_p50_ms",
        statistics.median(latencies_ms),
        f"n={len(latencies_ms)} requests of {rounds}",
    )
    percentile, value = measure.tail(latencies_ms)
    out.put("latency_p99_ms", value, f"p{percentile:.1f} of the same n={len(latencies_ms)}")
    out.put("interp_pct", 100.0 * interpolated / len(ok), "interpolated / requests answered")
    out.put(
        "mean_error",
        float(np.mean(errors)),
        f"relative to the analytic field, over an accuracy sample of n={errors.size}"
        f" evaluates, {ACCURACY_PER_CENTER} around each eligible cluster center",
    )
    simulations = [stats["n_simulated"] for stats in run.stats]
    out.put("simulations", statistics.median(simulations), "session n_simulated, median over rounds")
    out.put("peak_rss_mb", run.peak_rss_mb, f"server VmHWM after {RSS_ROUNDS} round(s)")


def _put_per_layer(out: Outcome, run: Run, untraced: Run) -> None:
    dump = run.dump
    spans = in_windows(dump["spans"], run.windows)
    counts = dict(dump["estimators"])
    counts["queries"] -= run.seeded + len(run.accuracy)
    put_layer_metrics(out, spans, dump["counters"], counts)
    flushes = sum(stats["batcher"]["flushes"] for stats in run.stats)
    requests = sum(stats["batcher"]["requests"] for stats in run.stats)
    out.put("batcher.flushes", flushes)
    out.put("batcher.batch_mean", ratio(requests, flushes), f"{requests} requests / flushes")
    stamped = [
        (1000.0 * latency, response["queue_wait_ms"], response["flush_wait_ms"])
        for kind, _, latency, response in run.ok()
        if kind == "evaluate" and "queue_wait_ms" in response
    ]
    for name, column in (("batcher.queue_wait_p50_ms", 1), ("batcher.flush_wait_p50_ms", 2)):
        out.put(name, statistics.median([s[column] for s in stamped]), f"n={len(stamped)}")
    out.put(
        "server.overhead_p50_ms",
        statistics.median([lat - queue - flush for lat, queue, flush in stamped]),
        "client latency - queue wait - flush wait",
    )
    out.put("server.cpu_s", run.cpu_s, f"over {sum(run.round_walls):.3f} s of load")
    out.put("optimization.evals", 0.0, "no optimizer in this workload")
    out.put("optimization.solution_cost", 0.0, "no optimizer in this workload")
    out.put("ledger.untracked_s", 0.0, "in-process workloads only")
    out.put(
        "tracing_overhead_pct",
        100.0 * (run.seconds_per_op / untraced.seconds_per_op - 1.0),
        "per-request wall time, traced server vs untraced server",
    )
    out.details["spans"] = {"spans": spans, "counters": dump["counters"]}


def run_serve(kind: str, seed: int, seconds: float, trace: bool, work: pathlib.Path) -> Outcome:
    out = Outcome()
    runs = [_serve(kind, seed, seconds, False, work)]
    if trace:
        runs.append(_serve(kind, seed, seconds, True, work))
        _put_per_layer(out, runs[1], runs[0])
    else:
        _put_end_to_end(out, runs[0])
    for run in runs:
        out.tally.merge(run.tally)
        if kind == "serve-read":
            _check_read(out, seed, run)
        else:
            _check_mixed(out, run)
    out.details["server_threads"] = runs[0].server_threads
    out.details["rounds"] = [
        {"walls": run.round_walls, "setup_times": run.setup_times, "stats": run.stats}
        for run in runs
    ]
    return out
