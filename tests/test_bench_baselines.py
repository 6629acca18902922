"""Committed benchmark baselines must pass their own acceptance verdict.

A baseline is what every later run is ratcheted against; committing one
whose ``acceptance.passed`` is false would let the gate lock in a
regression.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = sorted(ROOT.glob("BENCH_*.json"))


def test_baselines_are_found():
    assert BASELINES, "no committed BENCH_*.json baselines"


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_committed_baseline_passes_its_acceptance(path):
    report = json.loads(path.read_text())
    acceptance = report.get("acceptance")
    if acceptance is None:
        pytest.skip(f"{path.name} has no acceptance block")
    assert acceptance.get("passed") is True, (path.name, acceptance)
