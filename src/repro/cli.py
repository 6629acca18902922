"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table1``
    Record (or load) a benchmark trajectory and print its Table I rows.
``figure1``
    Render the FIR noise-power surface (paper Figure 1).
``record``
    Run a benchmark's reference optimization and save the trajectory JSON.
``replay``
    Replay a saved trajectory under the kriging policy.
``benchmarks``
    List the available benchmark setups.
``bench``
    Run a registered benchmark through the load/latency harness
    (``repro bench --list`` for the registry; see :mod:`repro.bench.cli`).
``serve``
    Run the multi-client kriging evaluation service (TCP, JSON lines).
``cluster``
    Run a sharded cluster: a router plus N worker services, with session
    replication, live migration and failover.
``client``
    Talk to a running service or cluster (create/eval/simulate/fit/stats/
    snapshot/restore/delete/migrate/replicate/cluster-stats/shutdown).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.figure1 import fir_noise_surface, render_surface
from repro.experiments.registry import (
    BENCHMARK_NAMES,
    EXTRA_BENCHMARK_NAMES,
    SCALES,
    build_benchmark,
)
from repro.experiments.replay import MetricKind, replay_trace
from repro.experiments.reporting import (
    format_identification,
    format_neighbor_distribution,
    format_solve_phases,
    format_table1,
)
from repro.experiments.table1 import DISTANCES, rows_for_setup
from repro.optimization.serialize import load_trace, save_trace

__all__ = ["main", "build_parser"]

ALL_BENCHMARKS = BENCHMARK_NAMES + EXTRA_BENCHMARK_NAMES


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability knobs shared by ``serve`` and ``cluster``."""
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve GET /metrics (Prometheus text) on this extra port",
    )
    parser.add_argument(
        "--slow-trace-ms",
        type=float,
        default=None,
        help="always capture (and log) traces whose root span is at least "
        "this slow, regardless of the client sampling rate",
    )
    parser.add_argument(
        "--trace-ring",
        type=int,
        default=2048,
        help="finished spans kept per process (oldest evicted first)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="structured (JSON lines) log level on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kriging-based error evaluation for approximate computing "
        "(reproduction of Bonnot et al., DATE 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="reproduce Table I rows for a benchmark")
    p_table.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p_table.add_argument("--scale", choices=SCALES, default="small")
    p_table.add_argument(
        "--distances", type=int, nargs="+", default=list(DISTANCES), metavar="D"
    )
    p_table.add_argument("--nn-min", type=int, default=1)
    p_table.add_argument("--variogram", default="auto")

    p_fig = sub.add_parser("figure1", help="render the FIR noise-power surface")
    p_fig.add_argument("--min-wl", type=int, default=6)
    p_fig.add_argument("--max-wl", type=int, default=20)
    p_fig.add_argument("--samples", type=int, default=1024)

    p_rec = sub.add_parser("record", help="record a benchmark trajectory to JSON")
    p_rec.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p_rec.add_argument("output", help="output JSON path")
    p_rec.add_argument("--scale", choices=SCALES, default="small")

    p_rep = sub.add_parser("replay", help="replay a recorded trajectory")
    p_rep.add_argument("trace", help="trajectory JSON from 'record'")
    p_rep.add_argument("--distance", type=float, default=3.0)
    p_rep.add_argument("--nn-min", type=int, default=1)
    p_rep.add_argument("--variogram", default="auto")
    p_rep.add_argument(
        "--metric-kind",
        choices=[k.value for k in MetricKind],
        default=MetricKind.NOISE_POWER_DB.value,
    )

    sub.add_parser("benchmarks", help="list available benchmarks")

    # ``bench`` owns its own two-stage parser (workloads add flags); main()
    # dispatches to repro.bench.cli before this parser ever sees the args.
    sub.add_parser(
        "bench",
        help="run a registered benchmark through the load/latency harness",
        add_help=False,
    )

    p_serve = sub.add_parser(
        "serve", help="run the multi-client kriging evaluation service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7331, help="TCP port (0: ephemeral)"
    )
    p_serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port number to this file once listening",
    )
    p_serve.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for named session snapshots (snapshot/restore verbs)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="micro-batcher: flush once this many requests are pending",
    )
    p_serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="micro-batcher: flush an incomplete batch after this delay",
    )
    _add_obs_args(p_serve)

    p_cluster = sub.add_parser(
        "cluster", help="run a sharded multi-worker kriging cluster"
    )
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument(
        "--port", type=int, default=7330, help="router TCP port (0: ephemeral)"
    )
    p_cluster.add_argument(
        "--port-file",
        default=None,
        help="write the router's bound port number to this file once listening",
    )
    p_cluster.add_argument(
        "--workers", type=int, default=2, help="worker processes to spawn"
    )
    p_cluster.add_argument(
        "--replica-dir",
        default=None,
        help="shared directory for replicated session snapshots "
        "(default: a per-run temporary directory)",
    )
    p_cluster.add_argument(
        "--replication-interval",
        type=float,
        default=5.0,
        help="seconds between replica refreshes (the durability window)",
    )
    p_cluster.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="seconds between worker health pings",
    )
    p_cluster.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="admission control: concurrent requests per worker",
    )
    p_cluster.add_argument(
        "--max-queue",
        type=int,
        default=128,
        help="admission control: requests allowed to wait per worker "
        "(beyond it: structured 'Overloaded' rejection)",
    )
    p_cluster.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="worker micro-batcher: flush once this many requests are pending",
    )
    p_cluster.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="worker micro-batcher: flush an incomplete batch after this delay",
    )
    p_cluster.add_argument(
        "--worker-timeout",
        type=float,
        default=30.0,
        help="ceiling in seconds on any proxied worker call "
        "(a hung worker fails the call with a retryable 'Unavailable')",
    )
    p_cluster.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="circuit breaker: consecutive transport failures that trip "
        "a worker's breaker open",
    )
    p_cluster.add_argument(
        "--breaker-reset-ms",
        type=float,
        default=250.0,
        help="circuit breaker: cool-off before the half-open probe",
    )
    _add_obs_args(p_cluster)

    p_client = sub.add_parser("client", help="talk to a running service")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7331)
    verb = p_client.add_subparsers(dest="verb", required=True)

    v_create = verb.add_parser("create", help="create an estimator session")
    v_create.add_argument("session")
    v_create.add_argument(
        "--simulator",
        default='{"kind": "linear"}',
        help="simulator spec as JSON (kinds: linear, quadratic, benchmark)",
    )
    v_create.add_argument("--num-variables", type=int, default=None)
    v_create.add_argument("--distance", type=float, default=3.0)
    v_create.add_argument("--nn-min", type=int, default=1)
    v_create.add_argument("--variogram", default="auto")
    v_create.add_argument("--replace", action="store_true")

    v_eval = verb.add_parser("eval", help="evaluate one configuration")
    v_eval.add_argument("session")
    v_eval.add_argument("values", type=float, nargs="+", metavar="V")

    v_sim = verb.add_parser("simulate", help="force-simulate one configuration")
    v_sim.add_argument("session")
    v_sim.add_argument("values", type=float, nargs="+", metavar="V")
    v_sim.add_argument(
        "--value",
        type=float,
        default=None,
        help="record this externally measured metric value instead of simulating",
    )

    v_fit = verb.add_parser("fit", help="force a variogram re-identification")
    v_fit.add_argument("session")

    v_stats = verb.add_parser("stats", help="session (or whole-service) statistics")
    v_stats.add_argument("session", nargs="?", default=None)

    v_metrics = verb.add_parser(
        "metrics",
        help="unified metrics snapshot (a cluster router aggregates its fleet)",
    )
    v_metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="print Prometheus text exposition instead of JSON",
    )

    v_traces = verb.add_parser(
        "traces", help="recent spans and captured slow traces"
    )
    v_traces.add_argument(
        "--trace-id", default=None, help="only spans of this trace"
    )

    v_snap = verb.add_parser("snapshot", help="snapshot a session to disk")
    v_snap.add_argument("session")
    v_snap.add_argument("--path", default=None)
    v_snap.add_argument("--name", default=None)

    v_restore = verb.add_parser("restore", help="restore a session from a snapshot")
    v_restore.add_argument("--path", default=None)
    v_restore.add_argument("--name", default=None, help="snapshot name in the server's dir")
    v_restore.add_argument("--session", default=None, help="restore under this name")
    v_restore.add_argument("--replace", action="store_true")

    v_delete = verb.add_parser("delete", help="delete a session")
    v_delete.add_argument("session")

    v_migrate = verb.add_parser(
        "migrate", help="live-migrate a session to another worker (cluster only)"
    )
    v_migrate.add_argument("session")
    v_migrate.add_argument(
        "--worker", default=None, help="target worker id (default: least loaded)"
    )

    v_repl = verb.add_parser(
        "replicate", help="force a replica refresh (cluster only)"
    )
    v_repl.add_argument(
        "session", nargs="?", default=None, help="one session (default: all)"
    )

    verb.add_parser("cluster-stats", help="cluster topology and counters")

    verb.add_parser("shutdown", help="stop the service")
    return parser


def _cmd_table1(args: argparse.Namespace) -> int:
    setup = build_benchmark(args.benchmark, args.scale)
    rows = rows_for_setup(
        setup,
        distances=tuple(args.distances),
        nn_min=args.nn_min,
        variogram=args.variogram,
    )
    print(format_table1(rows))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    if args.min_wl >= args.max_wl:
        print("error: --min-wl must be below --max-wl", file=sys.stderr)
        return 2
    surface, grid = fir_noise_surface(
        word_lengths=range(args.min_wl, args.max_wl + 1), n_samples=args.samples
    )
    print(render_surface(surface, grid))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    setup = build_benchmark(args.benchmark, args.scale)
    trace = setup.record_trajectory()
    path = save_trace(trace, args.output)
    unique = trace.unique_first_visits()
    print(f"recorded {len(unique)} configurations to {path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    stats = replay_trace(
        trace,
        metric_kind=MetricKind(args.metric_kind),
        distance=args.distance,
        nn_min=args.nn_min,
        variogram=args.variogram,
    )
    unit = "bits" if stats.metric_kind is MetricKind.NOISE_POWER_DB else "rel"
    print(
        f"configs={stats.n_configs} p={stats.p_percent:.2f}% "
        f"j={stats.mean_neighbors:.2f} "
        f"max_eps={stats.max_error:.4f} {unit} mu_eps={stats.mean_error:.4f} {unit}"
    )
    print(format_neighbor_distribution(stats))
    print(format_solve_phases(stats))
    print(format_identification(stats))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    try:
        run_server(
            args.host,
            args.port,
            snapshot_dir=args.snapshot_dir,
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            slow_trace_ms=args.slow_trace_ms,
            trace_ring=args.trace_ring,
            metrics_port=args.metrics_port,
            log_level=args.log_level,
            port_file=args.port_file,
            on_ready=lambda host, port: print(
                f"repro service listening on {host}:{port}", flush=True
            ),
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import run_cluster

    try:
        run_cluster(
            args.host,
            args.port,
            workers=args.workers,
            replica_dir=args.replica_dir,
            replication_interval=args.replication_interval,
            health_interval=args.health_interval,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            worker_timeout=args.worker_timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_ms=args.breaker_reset_ms,
            slow_trace_ms=args.slow_trace_ms,
            trace_ring=args.trace_ring,
            metrics_port=args.metrics_port,
            log_level=args.log_level,
            port_file=args.port_file,
            on_ready=lambda host, port: print(
                f"repro cluster router listening on {host}:{port} "
                f"({args.workers} workers)",
                flush=True,
            ),
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.service.protocol import RemoteError

    try:
        with ServiceClient(args.host, args.port) as client:
            if args.verb == "create":
                try:
                    simulator = json.loads(args.simulator)
                except json.JSONDecodeError as exc:
                    print(f"error: --simulator is not valid JSON: {exc}", file=sys.stderr)
                    return 2
                result: object = client.create_session(
                    args.session,
                    simulator=simulator,
                    num_variables=args.num_variables,
                    replace=args.replace,
                    distance=args.distance,
                    nn_min=args.nn_min,
                    variogram=args.variogram,
                )
            elif args.verb == "eval":
                outcome = client.evaluate(args.session, args.values)
                result = {
                    "value": outcome.value,
                    "interpolated": outcome.interpolated,
                    "n_neighbors": outcome.n_neighbors,
                }
            elif args.verb == "simulate":
                outcome = client.simulate(args.session, args.values, value=args.value)
                result = {"value": outcome.value, "exact_hit": outcome.exact_hit}
            elif args.verb == "fit":
                result = client.fit(args.session)
            elif args.verb == "stats":
                result = client.stats(args.session)
            elif args.verb == "metrics":
                families = client.metrics()
                if args.prometheus:
                    from repro.obs.metrics import render_prometheus

                    print(render_prometheus(families), end="")
                    return 0
                result = {"families": families}
            elif args.verb == "traces":
                result = client.traces(trace_id=args.trace_id)
            elif args.verb == "snapshot":
                result = client.snapshot(args.session, name=args.name, path=args.path)
            elif args.verb == "restore":
                result = client.restore(
                    path=args.path,
                    name=args.name,
                    session=args.session,
                    replace=args.replace,
                )
            elif args.verb == "delete":
                result = client.delete_session(args.session)
            elif args.verb == "migrate":
                result = client.migrate(args.session, worker=args.worker)
            elif args.verb == "replicate":
                result = client.replicate(args.session)
            elif args.verb == "cluster-stats":
                result = client.cluster_stats()
            else:  # shutdown
                result = client.shutdown()
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach service at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    except RemoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    for name in ALL_BENCHMARKS:
        setup = build_benchmark(name, "small")
        print(
            f"{name:<12s} Nv={setup.problem.num_variables:<3d} "
            f"metric={setup.metric_label:<20s} optimizer={setup.optimizer_kind}"
        )
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "figure1": _cmd_figure1,
    "record": _cmd_record,
    "replay": _cmd_replay,
    "benchmarks": _cmd_benchmarks,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "client": _cmd_client,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["bench"]:
        from repro.bench.cli import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
