"""Tests of the benchmark's own helpers: failure counting, the tail
percentile rule, span bookkeeping and wrapper installation."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
import scipy.optimize

import repro.core.estimator as estimator_mod
import repro.core.fitting as fitting_mod
from perfbench import measure, serve
from perfbench.measure import Tally
from perfbench.spans import (
    Patcher,
    SpanRecorder,
    in_windows,
    install_program_wrappers,
    layer_totals,
    untracked_seconds,
)
from repro.core.estimator import KrigingEstimator
from repro.core.factor_cache import FactorCache
from repro.optimization.minplusone import MinPlusOneOptimizer
from repro.service.protocol import RemoteError


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------
def test_tally_counts_attempts_and_failures():
    tally = Tally()
    assert tally.failed_frac == 0.0
    for ok in (True, False, True, True):
        tally.record(ok)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_frac == 0.25
    other = Tally()
    other.record(False)
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (5, 2)


class _FlakyClient:
    """Refuses every third request, answers the rest."""

    def __init__(self) -> None:
        self.calls = 0

    async def request(self, op, **fields):
        self.calls += 1
        call = self.calls
        await asyncio.sleep(0)
        if call % 3 == 0:
            raise RemoteError("Overloaded", "try later")
        return {"value": 1.0, "interpolated": True, "n_neighbors": 2}


def test_load_generator_counts_refused_requests_as_failed():
    ops = [("evaluate", [float(i)] * 5) for i in range(30)]
    results = [None] * len(ops)
    tally = Tally()
    asyncio.run(serve._drive(_FlakyClient(), "s", ops, results, tally))
    assert tally.attempted == 30
    assert tally.failed == 10
    failed = [r for r in results if r[2] is None]
    assert len(failed) == 10 and all("Overloaded" in r[3] for r in failed)


# ---------------------------------------------------------------------------
# the tail percentile rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, rank",
    [(1000, 990), (999, 989), (2000, 1980), (100, 90), (16, 6), (11, 1), (10, None), (0, None)],
)
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert measure.tail_rank(n) == rank
    if rank is not None:
        assert n - rank >= measure.TAIL_SAMPLES


def test_tail_picks_the_ranked_sample():
    samples = list(np.random.default_rng(0).permutation(1000).astype(float))
    percentile, value = measure.tail(samples)
    assert percentile == 99.0
    assert value == 989.0  # the 990th smallest of 0..999
    assert sum(1 for s in samples if s > value) == 10
    assert measure.tail([1.0] * 5) is None


def test_fastest_picks_the_quickest_share_and_at_least_one():
    walls = [0.9, 0.6, 1.2, 0.7, 0.65, 1.1, 0.8, 1.0]
    assert measure.fastest(walls, 0.25) == [1, 4]
    assert measure.fastest(walls, 0.5) == [1, 4, 3, 6]
    assert measure.fastest([2.0, 1.0], 0.25) == [1]


def test_inloop_times_each_call_at_its_fastest():
    from perfbench import inproc
    from perfbench.report import Outcome

    class Evaluator:
        def __init__(self, latencies, values):
            self.latencies = latencies
            self.trace = type("T", (), {"records": [_Record(v) for v in values]})()

    runs = [
        (10.0, (None, Evaluator([3.0, 4.0, 2.0], [1.0, 2.0]), None)),
        (9.5, (None, Evaluator([4.0, 1.0, 3.0], [1.0, 2.0]), None)),
    ]
    out = Outcome()
    calls, outside_s = inproc._fastest_calls(out, runs)
    assert list(calls) == [3.0, 1.0, 2.0]
    assert outside_s == pytest.approx(1.0)  # min(10 - 9, 9.5 - 8)
    assert not out.problems
    runs.append((9.0, (None, Evaluator([1.0, 1.0, 1.0], [1.0, 5.0]), None)))
    calls, _ = inproc._fastest_calls(out, runs)
    assert list(calls) == [3.0, 1.0, 2.0]  # the run that decided differently is left out
    assert out.problems == ["repeated optimizer runs made different calls"]


class _Record:
    def __init__(self, value):
        self.configuration = (1, 2)
        self.value = value


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    spans = [
        (0, "workload", "w", 0.0, 10.0, -1),
        (1, "estimator", "e", 1.0, 9.0, 0),
        (2, "fitting", "f", 2.0, 5.0, 1),
        (3, "kriging", "k", 6.0, 7.0, 1),
        (4, "fitting", "f", 7.5, 8.0, 1),
    ]
    totals = layer_totals(spans)
    assert totals["estimator"]["self_s"] == pytest.approx(8.0 - 3.0 - 1.0 - 0.5)
    assert totals["estimator"]["busy_s"] == pytest.approx(8.0)
    assert totals["fitting"]["calls"] == 2
    assert totals["fitting"]["self_s"] == pytest.approx(3.5)
    assert totals["workload"]["self_s"] == pytest.approx(2.0)
    assert untracked_seconds(10.0, totals) == pytest.approx(2.0)


def test_spans_nest_per_thread():
    recorder = SpanRecorder()

    def leaf():
        return recorder.call("kriging", "leaf", lambda: None)

    def work():
        recorder.call("estimator", "outer", leaf)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span[0]: span for span in recorder.spans}
    outers = [s for s in recorder.spans if s[1] == "estimator"]
    leaves = [s for s in recorder.spans if s[1] == "kriging"]
    assert len(outers) == len(leaves) == 4
    assert all(s[5] == -1 for s in outers)
    assert {by_id[s[5]][1] for s in leaves} == {"estimator"}
    assert len({s[5] for s in leaves}) == 4


def test_in_windows_keeps_spans_starting_inside():
    spans = [(0, "a", "a", 1.0, 2.0, -1), (1, "a", "a", 5.0, 6.0, -1)]
    assert in_windows(spans, [(0.5, 1.5)]) == [spans[0]]
    assert in_windows(spans, [(0.0, 10.0)]) == spans


# ---------------------------------------------------------------------------
# wrapper installation
# ---------------------------------------------------------------------------
def _originals():
    return {
        "select": estimator_mod.select_variogram,
        "fit": estimator_mod.fit_variogram,
        "emp": estimator_mod.empirical_semivariogram,
        "neighbors": estimator_mod.find_neighbors,
        "grouped": estimator_mod.ordinary_kriging_grouped,
        "ok": estimator_mod.ordinary_kriging,
        "optimize": fitting_mod.optimize,
        "factor_for": vars(FactorCache)["factor_for"],
        "init": vars(KrigingEstimator)["__init__"],
        "evaluate": vars(KrigingEstimator)["evaluate"],
        "run": vars(MinPlusOneOptimizer)["run"],
    }


def test_wrappers_are_installed_and_restored():
    before = _originals()
    recorder = SpanRecorder()
    with Patcher() as patcher:
        install_program_wrappers(recorder, patcher)
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
    assert _originals() == before
    assert fitting_mod.optimize is scipy.optimize


def test_wrappers_are_restored_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            install_program_wrappers(SpanRecorder(), patcher)
            raise RuntimeError("boom")
    assert _originals() == before


def test_patcher_removes_what_was_inherited():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with Patcher() as patcher:
        patcher.replace(Child, "f", lambda fn: lambda self: "wrapped")
        assert Child().f() == "wrapped"
    assert "f" not in vars(Child)
    assert Child().f() == "base"


def test_traced_estimator_answers_identically():
    rng = np.random.default_rng(3)
    configs = rng.integers(0, 6, size=(80, 3)).astype(float)

    def simulate(config):
        return float(np.sin(config).sum())

    def answers():
        est = KrigingEstimator(
            simulate, 3, distance=3.0, variogram="auto", min_fit_points=4, refit_interval=1
        )
        return [o.value for o in est.evaluate_batch(configs)]

    plain = answers()
    recorder = SpanRecorder()
    with Patcher() as patcher:
        install_program_wrappers(recorder, patcher)
        traced = answers()
    assert traced == plain
    totals = layer_totals(recorder.spans)
    for layer in ("estimator", "fitting", "variogram", "neighborhood", "kriging"):
        assert totals[layer]["calls"] > 0, layer
    assert recorder.counters["fitting.nfev"] > 0
    assert len(recorder.instances) == 1
