"""Run one benchmark workload, check its outputs and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inloop-hevc --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full result
(environment stamp, sample counts, per-cell detail, spans) is written to
``.perfbench-out/``.  The exit code is 0 when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: BLAS/OpenMP pools default to one thread in the client and (inherited) in
#: the server: the two share the machine's cores, the linear systems here
#: are at most a few hundred wide, and a threaded BLAS spinning against the
#: load generator made single runs up to 10x slower.  Set a variable to
#: override; the settings in effect are stamped on every result.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("replay-table1", "inloop-hevc", "serve-read", "serve-mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import inproc, serve

    if name == "replay-table1":
        return inproc.run_replay(seed, seconds, trace)
    if name == "inloop-hevc":
        return inproc.run_inloop(seed, seconds, trace)
    work = OUT_DIR / f"{name}-work"
    work.mkdir(parents=True, exist_ok=True)
    return serve.run_serve(name, seed, seconds, trace, work)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops the server it spawned (``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in PINNED_THREADS:
        os.environ.setdefault(name, "1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench.measure import environment_stamp, host_probe_s
    from perfbench.report import END_TO_END, PER_LAYER, PRINTED_ONLY

    stamp = environment_stamp(ROOT, args.seed)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete", file=sys.stderr)
        return 1

    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {name: outcome.metrics[name] for name in catalogue if name in outcome.metrics}
    for name in catalogue:
        value = metrics.get(name)
        if value is None or not math.isfinite(value):
            outcome.problems.append(f"metric {name} missing or not finite: {value}")
        elif not args.trace and value == 0.0:
            outcome.problems.append(f"end-to-end metric {name} is 0")
    if outcome.tally.attempted < 1:
        outcome.problems.append("no operation was attempted")
    correct = not outcome.problems

    stamp["host_probe_s"].append(host_probe_s())
    stamp["server_threads"] = outcome.details.pop("server_threads", None)
    spans = outcome.details.pop("spans", None)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans))
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": stamp,
        "correct": correct,
        "problems": outcome.problems,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": value, "unit": catalogue[name], "how": outcome.notes.get(name, "")}
            for name, value in metrics.items()
        },
        "details": outcome.details,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))

    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={stamp['nproc']} loadavg={stamp['loadavg'][0]:.2f} "
        f"host_probe_s={stamp['host_probe_s'][0]:.3f}/{stamp['host_probe_s'][1]:.3f} "
        f"python={stamp['python']} numpy={stamp['numpy']} scipy={stamp['scipy']} "
        f"commit={stamp['git_commit']} threads={stamp['client_threads']}"
    )
    rows = [(name, metrics.get(name, math.nan), unit) for name, unit in catalogue.items()]
    if not args.trace:
        rows.append(("failed_frac", outcome.tally.failed_frac, PRINTED_ONLY["failed_frac"]))
        if "solution_cost" in outcome.metrics:
            rows.append(("solution_cost", outcome.metrics["solution_cost"], "cost"))
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<11} {outcome.notes.get(name, '')}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.tally.attempted,
                "failed": outcome.tally.failed,
                "metrics": {
                    name: {"value": value, "unit": catalogue[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
