"""Solve-path benchmark (shim).

The workload lives in :mod:`repro.bench.workloads.solve`; this script keeps
the ``python benchmarks/bench_solve.py [--quick] [--output PATH]`` CLI shape
of its siblings.  Prefer ``python -m repro bench solve`` for new automation.
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_solve.json"

try:
    import repro.bench  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.workloads.solve import (  # noqa: E402,F401
    run_benchmark,
    run_stacked_benchmark,
    run_warm_restore_benchmark,
)
from repro.bench.workloads import solve as _workload  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    return _workload.main(argv, default_output=RESULT_PATH)


if __name__ == "__main__":
    raise SystemExit(main())
