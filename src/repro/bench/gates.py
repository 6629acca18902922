"""Declarative regression gates: per-metric specs instead of bespoke code.

``check_regression.py`` used to hard-code one ``_compare_*`` function per
report kind.  Here each kind declares a tuple of gate *specs* instead —
small frozen dataclasses, one per gating idiom:

:class:`RowRatchetGate`
    Speedup ratios gated per row of a list section (``results`` keyed by
    ``n_support``); rows the current run skipped (quick mode) are ignored.
:class:`TopRatchetGate`
    A top-level ratio: skipped when absent from the baseline, a loud
    failure when the current run silently drops it.
:class:`GuardedRatchetGate`
    A throughput ratio that is only meaningful on multi-core hardware —
    recorded with a printed note on small boxes, gated (optionally against
    an absolute floor) when the cpu guard passes.
:class:`FlagGate`
    A boolean correctness flag that must be true (optionally only when the
    baseline has the owning section — snapshot determinism).
:class:`ValueGate`
    A field that must equal an exact value (``failover.sessions_lost == 0``).
:class:`ScenarioInvariantsGate`
    Every invariant of every chaos scenario must hold and no scenario may
    report unexpected errors; an empty scenario map fails.
:class:`CoverageGate`
    Seed coverage must not shrink below the baseline's.

The vocabulary reproduces the old comparators' verdicts (and message
formats) exactly, with one deliberate strictness upgrade: a matched row
or section that *drops* a gated field now fails loudly instead of raising
an uncaught ``KeyError``.

Exit status contract (:func:`main`): 0 pass, 1 regression, 2 malformed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "CLUSTER_MIN_CPUS",
    "CLUSTER_SPEEDUP_FLOOR",
    "KNOWN_BENCHMARKS",
    "MalformedReport",
    "GateResult",
    "RowRatchetGate",
    "TopRatchetGate",
    "GuardedRatchetGate",
    "FlagGate",
    "ValueGate",
    "ScenarioInvariantsGate",
    "CoverageGate",
    "GATE_SETS",
    "evaluate",
    "compare",
    "main",
]

#: The aggregate-throughput floor and ratio gates apply only on machines
#: with at least this many CPUs: two workers cannot outrun one on a single
#: core, and the committed baseline may come from such a box.
CLUSTER_MIN_CPUS = 4
CLUSTER_SPEEDUP_FLOOR = 1.5

#: Absolute floor for the stacked solve-path ratio (multi-core-guarded like
#: the cluster floor: a single-core box records it with a note).
STACKED_SPEEDUP_FLOOR = 1.2

#: Report kinds the gate understands.
KNOWN_BENCHMARKS = ("query_engine", "service", "cluster", "chaos")


class MalformedReport(Exception):
    """A benchmark report that cannot be read or parsed (exit status 2)."""


@dataclass
class GateResult:
    """Accumulated gate output: failure messages plus ungated-metric notes."""

    failures: list[str]
    notes: list[str]

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)


def _cpus(report: Mapping) -> int:
    return (report.get("hardware") or {}).get("cpus", 0)


def _ratchet_message(
    label: str, current: float, bound: float, baseline: float, factor: float
) -> str:
    return (
        f"{label}: {current:.2f} < {bound:.2f} "
        f"(baseline {baseline:.2f} / {factor:g})"
    )


@dataclass(frozen=True)
class RowRatchetGate:
    """Ratchet ``fields`` per row of ``section``, rows keyed by ``row_key``.

    Baseline rows drive the comparison; a baseline row with no matching
    current row is skipped (quick mode runs a subset of the sizes).
    """

    fields: tuple[str, ...]
    section: str = "results"
    row_key: str = "n_support"

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        current_rows = {
            row[self.row_key]: row for row in current.get(self.section, [])
        }
        for base_row in baseline.get(self.section, []):
            key = base_row[self.row_key]
            cur_row = current_rows.get(key)
            if cur_row is None:
                continue
            label_prefix = f"{self.section}[{self.row_key}={key}]"
            for field in self.fields:
                if field not in base_row:
                    continue
                if field not in cur_row:
                    out.fail(f"{label_prefix}.{field}: missing from the current report")
                    continue
                bound = base_row[field] / factor
                if cur_row[field] < bound:
                    out.fail(
                        _ratchet_message(
                            f"{label_prefix}.{field}",
                            cur_row[field], bound, base_row[field], factor,
                        )
                    )


@dataclass(frozen=True)
class TopRatchetGate:
    """Ratchet a top-level ratio; dropping it from the current run fails."""

    field: str

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        if self.field not in baseline:
            return  # older baselines predate the field
        if self.field not in current:
            # A current run silently dropping a gated ratio must fail
            # loudly, not turn the gate vacuously green.
            out.fail(f"{self.field}: missing from the current report")
            return
        bound = baseline[self.field] / factor
        if current[self.field] < bound:
            out.fail(
                _ratchet_message(
                    self.field, current[self.field], bound, baseline[self.field], factor
                )
            )


@dataclass(frozen=True)
class GuardedRatchetGate:
    """A cpu-guarded throughput ratchet with an optional absolute floor.

    ``guard="current"``: gate when the current box has ``min_cpus``; the
    baseline additionally ratchets the floor only when it too came from a
    ``min_cpus`` box (a single-core baseline would only weaken the floor).
    ``guard="both"``: gate only when *both* reports come from ``min_cpus``
    boxes (pure ratchet, no floor).  Under a failed guard the metric is
    recorded with a note, never gated.  Missing from the current report is
    always a failure.

    ``section`` scopes the field inside a sub-dict of the report (the
    solve-path ratios live in their sections).
    """

    field: str
    floor: float | None = None
    min_cpus: int = CLUSTER_MIN_CPUS
    guard: str = "current"
    section: str | None = None

    def _container(self, report: dict) -> dict:
        if self.section is None:
            return report
        container = report.get(self.section)
        return container if isinstance(container, dict) else {}

    @property
    def _label(self) -> str:
        return f"{self.section}.{self.field}" if self.section else self.field

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        cur = self._container(current)
        base = self._container(baseline)
        if self.field not in cur:
            out.fail(f"{self._label}: missing from the current report")
            return
        cpus = _cpus(current)
        baseline_cpus = _cpus(baseline)
        if self.guard == "both":
            if cpus < self.min_cpus or baseline_cpus < self.min_cpus:
                out.note(
                    f"note: {self._label} = {cur[self.field]:.2f} recorded "
                    f"but not gated ({cpus} cpu here, {baseline_cpus} in "
                    f"baseline; need {self.min_cpus}+ on both)"
                )
                return
            if self.field in base:
                bound = base[self.field] / factor
                if cur[self.field] < bound:
                    out.fail(
                        _ratchet_message(
                            self._label,
                            cur[self.field], bound, base[self.field], factor,
                        )
                    )
            return
        if cpus < self.min_cpus:
            out.note(
                f"note: {self._label} = {cur[self.field]:.2f} recorded "
                f"but not gated ({cpus} cpu < {self.min_cpus}: one core "
                f"cannot scale out)"
            )
            return
        bound = self.floor if self.floor is not None else 0.0
        if baseline_cpus >= self.min_cpus and self.field in base:
            bound = max(bound, base[self.field] / factor)
        if cur[self.field] < bound:
            out.fail(
                f"{self._label}: {cur[self.field]:.2f} < {bound:.2f} "
                f"(floor {self.floor:g}, baseline "
                f"{base.get(self.field, 'n/a')} / {factor:g})"
            )


@dataclass(frozen=True)
class FlagGate:
    """A boolean flag that must be true.

    ``path`` is ``(section, flag)`` or just ``(flag,)`` for a top-level
    flag.  A missing section fails with ``missing_message``; a false or
    missing flag fails with ``message``.  ``when_baseline_has`` makes the
    whole gate conditional on a key being present in the baseline.
    """

    path: tuple[str, ...]
    message: str
    when_baseline_has: str | None = None

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        if self.when_baseline_has is not None and self.when_baseline_has not in baseline:
            return
        if len(self.path) == 1:
            if not current.get(self.path[0], False):
                out.fail(self.message)
            return
        section_name, flag = self.path
        section = current.get(section_name)
        if section is None:
            out.fail(f"{section_name}: section missing from the current report")
            return
        if not section.get(flag, False):
            out.fail(self.message)


@dataclass(frozen=True)
class ValueGate:
    """``section.field`` must equal ``expect`` exactly (missing fails)."""

    path: tuple[str, str]
    expect: object

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        section_name, field = self.path
        section = current.get(section_name)
        if section is None:
            out.fail(f"{section_name}: section missing from the current report")
            return
        value = section.get(field)
        if value != self.expect:
            out.fail(f"{section_name}.{field}: {value!r} != {self.expect!r}")


@dataclass(frozen=True)
class ScenarioInvariantsGate:
    """Every chaos scenario's invariants must hold; no unexpected errors."""

    section: str = "scenarios"

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        scenarios = current.get(self.section) or {}
        if not scenarios:
            out.fail(f"{self.section}: no per-seed drills in the current report")
        for name, row in sorted(scenarios.items()):
            for invariant, held in sorted((row.get("invariants") or {}).items()):
                if not held:
                    out.fail(
                        f"{self.section}.{name}.invariants.{invariant}: violated"
                    )
            for message in row.get("unexpected_errors") or []:
                out.fail(f"{self.section}.{name}: unexpected error: {message}")


@dataclass(frozen=True)
class CoverageGate:
    """``section.field`` must not shrink below the baseline's value."""

    path: tuple[str, str] = ("acceptance", "seeds_run")
    baseline_default: int = 3

    def apply(self, baseline: dict, current: dict, factor: float, out: GateResult) -> None:
        section_name, field = self.path
        run = (current.get(section_name) or {}).get(field, 0)
        base = (baseline.get(section_name) or {}).get(field, self.baseline_default)
        if run < base:
            out.fail(
                f"{section_name}.{field}: {run} < {base} (baseline coverage)"
            )


#: Speedup fields gated per support-size row of ``results``.
ROW_FIELDS = ("speedup_evaluate_vs_seed", "speedup_batch_vs_seed")

#: The solve-path gate on the query-engine report's ``stacked`` section:
#: stacked batched factorization vs per-group solves.  Multi-core-guarded
#: like the cluster floors, so on a small box the ratio is noted, not gated.
SOLVE_RATIO_GATES = (
    GuardedRatchetGate(
        "speedup_stacked_vs_pergroup",
        floor=STACKED_SPEEDUP_FLOOR,
        section="stacked",
    ),
)

#: Gate specs per report kind — the whole regression policy, as data.
GATE_SETS: dict[str, tuple] = {
    "query_engine": (RowRatchetGate(fields=ROW_FIELDS),) + SOLVE_RATIO_GATES,
    "service": (
        # The batched-vs-unbatched ratio is recorded but not gated (like
        # thread scaling, it depends on the runner's core count).
        TopRatchetGate("speedup_batched_vs_sequential"),
        FlagGate(
            path=("snapshot", "roundtrip_bitwise"),
            message="snapshot.roundtrip_bitwise: snapshot/restore diverged",
            when_baseline_has="snapshot",
        ),
    ),
    "cluster": (
        # Correctness flags gate unconditionally — a migration that changes
        # a byte or a failover that loses a session is a bug on any hardware.
        FlagGate(
            path=("migration", "bitwise_preserved"),
            message=(
                "migration.bitwise_preserved: migrated snapshot diverged "
                "byte-for-byte"
            ),
        ),
        ValueGate(path=("failover", "sessions_lost"), expect=0),
        FlagGate(
            path=("failover", "all_sessions_answer"),
            message="failover.all_sessions_answer: a session stopped answering",
        ),
        FlagGate(
            path=("equivalence_ok",),
            message="equivalence_ok: cluster diverged from the local estimator",
        ),
        GuardedRatchetGate(
            "speedup_cluster_vs_single",
            floor=CLUSTER_SPEEDUP_FLOOR,
            guard="current",
        ),
    ),
    "chaos": (
        ScenarioInvariantsGate(),
        CoverageGate(),
        GuardedRatchetGate("qps_under_chaos", guard="both"),
    ),
}


def evaluate(baseline: dict, current: dict, factor: float) -> GateResult:
    """Run the gate set for the baseline's report kind; return the result.

    Raises ``ValueError`` for a kind outside :data:`KNOWN_BENCHMARKS`.
    """
    kind = baseline.get("benchmark")
    if kind not in KNOWN_BENCHMARKS:
        raise ValueError(f"unknown benchmark kind {kind!r}; expected one of {KNOWN_BENCHMARKS}")
    gates = GATE_SETS[kind]
    out = GateResult(failures=[], notes=[])
    for gate in gates:
        gate.apply(baseline, current, factor, out)
    # Two gates probing the same missing section would repeat themselves;
    # keep first occurrences in order.
    out.failures = list(dict.fromkeys(out.failures))
    return out


def compare(baseline: dict, current: dict, factor: float) -> list[str]:
    """Return one message per regressed metric (empty list: gate passes).

    Ungated-metric notes (cpu guards) are printed, matching the historical
    ``check_regression.compare`` contract.
    """
    result = evaluate(baseline, current, factor)
    for note in result.notes:
        print(note)
    return result.failures


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedReport(f"cannot read benchmark report {path}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: gate ``current`` against ``baseline``, optionally log history."""
    from repro.bench import history as history_mod

    parser = argparse.ArgumentParser(
        description="Compare a fresh benchmark run against its committed baseline."
    )
    parser.add_argument("baseline", type=pathlib.Path, help="committed baseline JSON")
    parser.add_argument("current", type=pathlib.Path, help="fresh benchmark JSON")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated slowdown of any speedup ratio (default 2.0)",
    )
    parser.add_argument(
        "--history",
        type=pathlib.Path,
        default=None,
        help="append a machine-tagged absolute-timings line to this JSONL file",
    )
    parser.add_argument(
        "--commit",
        default=None,
        help="commit SHA recorded in the history line (e.g. $GITHUB_SHA)",
    )
    args = parser.parse_args(argv)
    if args.factor <= 1.0:
        parser.error(f"--factor must be > 1, got {args.factor}")

    try:
        baseline = _load(args.baseline)
        current = _load(args.current)
    except MalformedReport as exc:
        print(f"error: {exc}")
        return 2
    kind = baseline.get("benchmark")
    if kind not in KNOWN_BENCHMARKS:
        print(f"error: baseline benchmark {kind!r} not one of {KNOWN_BENCHMARKS}")
        return 2
    for name, report in (("baseline", baseline), ("current", current)):
        if report.get("benchmark") != kind or (
            kind == "query_engine" and "results" not in report
        ):
            print(f"error: {name} is not a {kind} benchmark report")
            return 2

    if args.history is not None:
        entry = history_mod.append_history(args.history, current, args.commit)
        print(
            f"history: appended {len(entry['absolute_seconds'])} timings "
            f"to {args.history}"
        )

    failures = compare(baseline, current, args.factor)
    if failures:
        print(f"benchmark regression vs {args.baseline}:")
        for message in failures:
            print(f"  {message}")
        return 1
    print(f"benchmark smoke OK (no ratio below baseline/{args.factor:g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
