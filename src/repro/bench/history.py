"""Trend history: one machine-tagged JSONL line per benchmark run.

The gate only ever decides on ratios, but each run also appends its
absolute timings here so per-commit trends stay plottable.  Entries are
versioned:

* ``schema_version`` 2 (current, :data:`HISTORY_SCHEMA_VERSION`): carries
  ``seed`` (copied from the report) uniformly across all report kinds.
* version 1 (legacy): no ``schema_version`` field at all, and service/
  cluster entries omitted the seed.  :func:`read_history` upgrades them in
  memory — ``schema_version`` defaults to 1, ``seed`` to ``None`` — so
  consumers can iterate one shape.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from typing import Iterator

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "history_entry",
    "append_history",
    "read_history",
]

HISTORY_SCHEMA_VERSION = 2


def _machine_tag() -> dict:
    """Identify the box a run happened on, so history lines are comparable
    only within the same hardware."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
    }


def history_entry(report: dict, commit: str | None = None) -> dict:
    """One ``BENCH_history.jsonl`` line: absolute seconds plus ratios."""
    absolute: dict[str, float] = {}
    ratios: dict[str, float] = {}
    for row in report.get("results", []):
        prefix = f"n{row['n_support']}"
        for field, value in row.items():
            if field.endswith("_seconds"):
                absolute[f"{prefix}.{field}"] = value
            elif field.startswith("speedup_"):
                ratios[f"{prefix}.{field}"] = value
    # The cluster drills contribute their absolute timings too
    # (migration.migrate_seconds, failover.detect_seconds).
    for section in ("migration", "failover"):
        data = report.get(section)
        if not data:
            continue
        for field, value in data.items():
            if field.endswith("_seconds"):
                absolute[f"{section}.{field}"] = value
            elif field.startswith("speedup_"):
                ratios[f"{section}.{field}"] = value
    # Service/chaos reports: per-scenario wall clock / throughput / latency
    # percentiles, plus the top-level cross-scenario ratios.
    for name, data in (report.get("scenarios") or {}).items():
        for field, value in data.items():
            if field == "seconds" or field.endswith("_seconds") or field == "qps":
                absolute[f"scenarios.{name}.{field}"] = value
            elif field == "latency_ms" and isinstance(value, dict):
                for percentile, latency in value.items():
                    absolute[f"scenarios.{name}.latency_ms.{percentile}"] = latency
    for field, value in report.items():
        if field.startswith("speedup_"):
            ratios[field] = value
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": commit,
        "benchmark": report.get("benchmark"),
        "seed": report.get("seed"),
        "machine": _machine_tag(),
        "absolute_seconds": absolute,
        "ratios": ratios,
    }


def append_history(
    path: pathlib.Path, report: dict, commit: str | None = None
) -> dict:
    """Append this run's :func:`history_entry` to ``path`` (created if
    missing); returns the appended entry."""
    entry = history_entry(report, commit)
    path = pathlib.Path(path)
    with path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def read_history(path: pathlib.Path) -> Iterator[dict]:
    """Yield history entries, upgrading legacy lines to the current shape.

    Version-1 lines (pre-harness) carried no ``schema_version`` and no
    ``seed``; both are filled in (1 and ``None``) so every yielded entry
    has the same keys.  Blank lines are skipped; a malformed line raises
    ``json.JSONDecodeError`` with its line number.
    """
    path = pathlib.Path(path)
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise json.JSONDecodeError(
                    f"{path}:{lineno}: {exc.msg}", exc.doc, exc.pos
                ) from exc
            entry.setdefault("schema_version", 1)
            entry.setdefault("seed", None)
            yield entry
