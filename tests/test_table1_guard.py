"""Table I guard: the paper replays at full scale, seed 1, paper defaults.

The interpolate/simulate decision depends on the neighbourhoods alone, so
P% must equal the cells recorded in ``perfbench/table1_p.json`` whichever
variogram model identification picks.  The error the model does move must
keep every row inside its ``TABLE1_CHECKS`` envelope.
"""

import json
import pathlib

import pytest

from repro.bench.workloads.table1 import DISTANCES, check_row, replay_call
from repro.experiments import registry
from repro.experiments.table1 import Table1Row

RECORDED_P = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "table1_p.json"


@pytest.mark.parametrize("bench", ["fir", "iir", "fft", "dct"])
def test_full_scale_replays_keep_p_and_envelopes(bench):
    recorded = json.loads(RECORDED_P.read_text())["1"]
    setup = getattr(registry, f"build_{bench}")("full", seed=1)
    trace = setup.record_trajectory()
    for distance in DISTANCES:
        stats = replay_call(setup, trace, distance=distance)
        assert stats.p_percent == pytest.approx(recorded[f"{bench}:d{distance}"], abs=1e-6)
        row = Table1Row.from_stats(
            stats, metric_label=setup.metric_label, nv=setup.problem.num_variables
        )
        assert check_row(bench, row) == []
