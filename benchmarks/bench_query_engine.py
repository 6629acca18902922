"""Micro-benchmark of the vectorized query engine (thin shim).

The workload now lives in :mod:`repro.bench.workloads.query_engine`; this
script keeps the historical entry points working — run directly
(``python benchmarks/bench_query_engine.py``), through pytest
(``pytest benchmarks/bench_query_engine.py``), via the harness CLI
(``python -m repro bench query-engine``), or as the CI smoke gate
(``--quick --output <path>`` followed by ``benchmarks/check_regression.py``
against the committed baseline).
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_query_engine.json"

try:
    import repro.bench  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.workloads.query_engine import (  # noqa: E402,F401
    ACCEPTANCE_SPEEDUP,
    SUPPORT_SIZES,
    QUICK_SUPPORT_SIZES,
    run_benchmark,
)
from repro.bench.workloads import query_engine as _workload  # noqa: E402


def write_report(report: dict, path: pathlib.Path = RESULT_PATH) -> None:
    from repro.bench.report import write_report as _write

    _write(report, path)


def test_query_engine_speedup():
    """The batch engine beats the seed hot path >= 5x at n=2000."""
    report = run_benchmark()
    write_report(report)
    assert report["acceptance"]["passed"], report["acceptance"]


def main(argv: list[str] | None = None) -> int:
    return _workload.main(argv, default_output=RESULT_PATH)


if __name__ == "__main__":
    raise SystemExit(main())
