"""Run the unchanged ``repro serve`` with or without the layer wrappers.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py --trace 1 --spans-out OUT.json -- \
        --port 0 --port-file PORT

Everything after ``--`` goes to ``repro serve``.  With ``--trace 1`` the
layer wrappers of :mod:`perfbench.spans` are installed before the server
starts; when it shuts down, the spans, the wrapper counters and the counters
of every estimator it built are written to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=pathlib.Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from perfbench.layers import estimator_counts
    from perfbench.spans import (
        Patcher,
        SpanRecorder,
        install_program_wrappers,
        install_simulator_factory_wrapper,
    )
    from repro import cli

    recorder, patcher = SpanRecorder(), Patcher()
    with patcher:
        if args.trace:
            install_program_wrappers(recorder, patcher)
            install_simulator_factory_wrapper(recorder, patcher)
        code = cli.main(["serve", *serve_args])
    if args.trace and args.spans_out is not None:
        dump = recorder.to_json()
        dump["estimators"] = estimator_counts(recorder.instances)
        args.spans_out.write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
