"""Committed benchmark baselines must pass their own acceptance verdict.

A baseline is what every later run is ratcheted against; committing one
whose ``acceptance.passed`` is false would let the gate lock in a
regression.  The committed set must also be exactly the baselines the
registry's gated workloads name: a stale file of a deleted workload, or a
gated workload without a baseline, fails here.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = sorted(ROOT.glob("BENCH_*.json"))


def test_baselines_are_found():
    assert BASELINES, "no committed BENCH_*.json baselines"


def test_committed_baselines_match_gated_registry():
    from repro.bench.registry import listing

    registered = {row["baseline"] for row in listing(gated_only=True)}
    assert {path.name for path in BASELINES} == registered


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_committed_baseline_has_a_known_kind(path):
    from repro.bench.gates import KNOWN_BENCHMARKS

    assert json.loads(path.read_text()).get("benchmark") in KNOWN_BENCHMARKS


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_committed_baseline_passes_its_acceptance(path):
    report = json.loads(path.read_text())
    acceptance = report.get("acceptance")
    if acceptance is None:
        pytest.skip(f"{path.name} has no acceptance block")
    assert acceptance.get("passed") is True, (path.name, acceptance)
