"""The in-process workloads: Table I replays and the optimizer in the loop."""

from __future__ import annotations

import inspect
import itertools
import json
import os
import pathlib
import statistics
import time
import traceback

import numpy as np

from perfbench import measure
from perfbench.layers import estimator_counts, put_layer_metrics, put_ledger, put_no_service
from perfbench.measure import Tally
from perfbench.report import Outcome
from perfbench.spans import (
    Patcher,
    SpanRecorder,
    install_program_wrappers,
    install_simulate_wrapper,
)
from repro.bench.workloads.table1 import TABLE1_CHECKS, check_row, replay_call
from repro.core.estimator import KrigingEstimator
from repro.experiments import registry
from repro.experiments.decisions import measure_decision_divergence
from repro.experiments.table1 import Table1Row
from repro.optimization.evaluator import KrigingMetricEvaluator

REPLAY_BENCHMARKS = ("fir", "iir", "fft", "dct")
REPLAY_DISTANCES = (2, 3, 4, 5)
REPLAY_SETUPS = 3
#: ``build_hevc`` calls timed before each optimizer run.
INLOOP_SETUPS = 5
#: Identical optimizer runs per untraced ``inloop-hevc`` run; each
#: evaluator call is timed at its fastest over them.
INLOOP_REPEATS = 3

#: ``p`` per replay cell as recorded when the benchmark was defined, by
#: seed (written by ``perfbench/record_p.py``).
RECORDED_P = pathlib.Path(__file__).with_name("table1_p.json")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _median_setup(build, repetitions: int):
    """Set up ``repetitions`` times; the median time and the last setup."""
    times, setup = [], None
    for _ in range(repetitions):
        seconds, setup = _timed(build)
        times.append(seconds)
    return statistics.median(times), times, setup


def _until(seconds: float, unit, at_least: int = 1) -> list:
    """Run ``unit`` ``at_least`` times, and again while under ``seconds``."""
    results = []
    start = time.perf_counter()
    while len(results) < at_least or time.perf_counter() - start < seconds:
        results.append(unit())
    return results


# ---------------------------------------------------------------------------
# replay-table1
# ---------------------------------------------------------------------------
def record_replay_setups(seed: int) -> list:
    """Build each benchmark at full scale and record its trajectory."""
    setups = []
    for name in REPLAY_BENCHMARKS:
        setup = getattr(registry, f"build_{name}")("full", seed=seed)
        setups.append((setup, setup.record_trajectory()))
    return setups


def _replay_sweep(setups, tally: Tally, problems: list[str], **overrides) -> dict:
    """Replay every cell once; ``{(bench, d): (seconds, stats)}``."""
    cells = {}
    for setup, trace in setups:
        for distance in REPLAY_DISTANCES:
            try:
                seconds, stats = _timed(
                    replay_call, setup, trace, distance=distance, **overrides
                )
            except Exception:
                tally.record(False)
                problems.append(f"{setup.name} d={distance}: {traceback.format_exc()}")
                continue
            tally.record(True)
            cells[(setup.name, distance)] = (seconds, stats)
    return cells


def _check_replay(out: Outcome, seed: int, setups, sweeps: list[dict]) -> None:
    first = sweeps[0]
    out.check(
        len(first) == len(REPLAY_BENCHMARKS) * len(REPLAY_DISTANCES),
        "a replay cell failed",
    )
    for sweep in sweeps[1:]:
        out.check(
            sweep.keys() == first.keys()
            and all(
                sweep[key][1].n_simulated == stats.n_simulated
                and np.array_equal(sweep[key][1].errors, stats.errors)
                for key, (_, stats) in first.items()
            ),
            "repeated sweeps disagree",
        )
    by_name = {setup.name: setup for setup, _ in setups}
    for (name, distance), (_, stats) in first.items():
        setup = by_name[name]
        row = Table1Row.from_stats(
            stats, metric_label=setup.metric_label, nv=setup.problem.num_variables
        )
        for failure in check_row(name, row):
            out.problems.append(f"outside TABLE1_CHECKS: {failure}")
    # p is a property of the neighbourhoods alone: a fixed linear variogram
    # must interpolate exactly the same configurations.
    linear = _replay_sweep(setups, Tally(), out.problems, variogram="linear")
    for key, (_, stats) in first.items():
        out.check(
            key in linear and linear[key][1].n_interpolated == stats.n_interpolated,
            f"{key}: p depends on the variogram",
        )
    recorded = json.loads(RECORDED_P.read_text()).get(str(seed))
    if recorded is None:
        out.details["recorded_p"] = f"no recorded p for seed {seed}; checked envelopes only"
        return
    for key, (_, stats) in first.items():
        expected = recorded[f"{key[0]}:d{key[1]}"]
        out.check(
            round(stats.p_percent, 6) == expected,
            f"{key}: p={stats.p_percent:.6f} != recorded {expected}",
        )
    out.details["recorded_p"] = f"matched the {len(recorded)} cells recorded for seed {seed}"


def replay_p_table(seed: int) -> dict[str, float]:
    """``p`` per cell for one seed (fixed linear variogram: p does not
    depend on the model, and this is cheap)."""
    problems: list[str] = []
    cells = _replay_sweep(record_replay_setups(seed), Tally(), problems, variogram="linear")
    if problems:
        raise RuntimeError("\n".join(problems))
    return {f"{name}:d{d}": round(stats.p_percent, 6) for (name, d), (_, stats) in cells.items()}


def run_replay(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_s, setup_times, setups = _median_setup(
        lambda: record_replay_setups(seed), 1 if trace else REPLAY_SETUPS
    )

    def sweep() -> tuple[float, dict]:
        return _timed(_replay_sweep, setups, out.tally, out.problems)

    if trace:
        untraced_s, cells = sweep()
        recorder, patcher = SpanRecorder(), Patcher()
        with patcher:
            install_program_wrappers(recorder, patcher)
            for setup, _ in setups:
                install_simulate_wrapper(recorder, patcher, setup.problem)
            traced_s, traced_cells = _timed(
                recorder.call, "workload", "replay-sweep", _replay_sweep,
                setups, out.tally, out.problems,
            )
        totals = put_layer_metrics(
            out, recorder.spans, recorder.counters, estimator_counts(recorder.instances)
        )
        put_ledger(out, totals, traced_s, untraced_s)
        put_no_service(out)
        out.put("optimization.evals", 0.0, "no optimizer runs in a replay")
        out.put(
            "optimization.solution_cost",
            sum(setup.reference_result.cost for setup, _ in setups),
            "summed over the recorded (pure-simulation) runs",
        )
        out.details["spans"] = recorder.to_json()
        sweeps = [cells, traced_cells]
    else:
        timed = _until(seconds, sweep)
        sweep_times = [t for t, _ in timed]
        sweeps = [cells for _, cells in timed]
        first = sweeps[0]
        n_configs = sum(stats.n_configs for _, stats in first.values())
        errors = np.concatenate([stats.errors for _, stats in first.values()])
        out.put("setup_s", setup_s, f"median of {len(setup_times)} build+record rounds")
        out.put(
            "wall_s", statistics.median(sweep_times), f"median of {len(timed)} sweeps of 16 cells"
        )
        out.put(
            "queries_per_s",
            n_configs * len(timed) / sum(sweep_times),
            f"{n_configs} configurations per sweep",
        )
        # A replay answers each cell with one batch call, so no single
        # configuration's latency can be observed; cells of 0.2-4 s are also
        # too short to time steadily on a shared host.  Both percentiles are
        # the per-configuration time of the median sweep.
        per_config_ms = 1000.0 * statistics.median(sweep_times) / n_configs
        for name in ("latency_p50_ms", "latency_p99_ms"):
            out.put(name, per_config_ms, f"median sweep / {n_configs} configurations")
        out.put(
            "interp_pct",
            100.0 * sum(stats.n_interpolated for _, stats in first.values()) / n_configs,
            "interpolated / configurations over the 16 cells",
        )
        out.put("mean_error", float(np.mean(errors)), f"bits (Eq. 11), n={errors.size}")
        out.put("simulations", sum(stats.n_simulated for _, stats in first.values()), "per sweep")
        out.put("peak_rss_mb", measure.peak_rss_mb(), "client VmHWM")
        out.put("solution_cost", sum(setup.reference_result.cost for setup, _ in setups))
        out.details["cells"] = {
            f"{name}:d{d}": {
                "seconds": [sw[(name, d)][0] for sw in sweeps if (name, d) in sw],
                "p_percent": stats.p_percent,
                "mean_error": stats.mean_error,
                "n_simulated": stats.n_simulated,
            }
            for (name, d), (_, stats) in first.items()
        }
        out.details["setup_times"] = setup_times
    _check_replay(out, seed, setups, sweeps)
    return out


# ---------------------------------------------------------------------------
# inloop-hevc
# ---------------------------------------------------------------------------
def inloop_settings() -> dict:
    """The estimator settings of ``measure_decision_divergence``."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(measure_decision_divergence).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


class TimedEvaluator(KrigingMetricEvaluator):
    """Times every call the optimizer makes into the evaluator."""

    def __init__(self, estimator: KrigingEstimator, tally: Tally) -> None:
        super().__init__(estimator)
        self.latencies: list[float] = []
        self._tally = tally

    def _call(self, method, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = method(*args, **kwargs)
        except Exception:
            self._tally.record(False)
            raise
        self.latencies.append(time.perf_counter() - start)
        self._tally.record(True)
        return result

    def evaluate(self, configuration, *, phase: str = ""):
        return self._call(super().evaluate, configuration, phase=phase)

    def evaluate_batch(self, configurations, *, phase: str = ""):
        return self._call(super().evaluate_batch, configurations, phase=phase)

    def ensure_simulated(self, configuration, *, phase: str = ""):
        return self._call(super().ensure_simulated, configuration, phase=phase)


def _inloop_run(setup, tally: Tally):
    estimator = KrigingEstimator(
        setup.problem.simulate, setup.problem.num_variables, **inloop_settings()
    )
    evaluator = TimedEvaluator(estimator, tally)
    result = setup.run_reference_optimization(evaluator)
    return estimator, evaluator, result


def _decisions(evaluator) -> list[tuple]:
    return [(record.configuration, record.value) for record in evaluator.trace.records]


def _fastest_calls(out: Outcome, runs) -> tuple[np.ndarray, float]:
    """Each evaluator call's fastest time over identical runs, and the
    fastest time a run spent outside evaluator calls.

    The optimizer and the estimator are deterministic, so every run makes
    the same calls in the same order; a run that does not fails the check
    and is left out.
    """
    first = runs[0][1][1]
    same = [
        (seconds, evaluator)
        for seconds, (_, evaluator, _) in runs
        if len(evaluator.latencies) == len(first.latencies)
        and _decisions(evaluator) == _decisions(first)
    ]
    out.check(len(same) == len(runs), "repeated optimizer runs made different calls")
    calls = np.min([evaluator.latencies for _, evaluator in same], axis=0)
    outside_s = min(seconds - sum(evaluator.latencies) for seconds, evaluator in same)
    return calls, outside_s


def _committed_errors(setup, evaluator) -> np.ndarray:
    """Eq. 11 error of the interpolated answers the optimizer went on to
    commit: each committed step is simulated, so the truth comes for free."""
    estimates: dict[tuple, float] = {}
    errors = []
    for record in evaluator.trace.records:
        if not record.simulated and not record.exact_hit:
            estimates.setdefault(record.configuration, record.value)
        elif record.simulated and record.configuration in estimates:
            errors.append(setup.metric_kind.error(estimates[record.configuration], record.value))
    return np.asarray(errors)


def _check_inloop(out: Outcome, setup, estimator, evaluator, result, errors) -> None:
    out.check(
        evaluator.trace.n_simulated == estimator.stats.n_simulated,
        "trace and estimator disagree on the simulation count",
    )
    measured = float(setup.problem.simulate(np.asarray(result.solution)))
    out.check(
        setup.problem.satisfied(measured),
        f"solution {result.solution} misses the constraint: {measured}",
    )
    out.check(
        float(np.mean(errors)) < TABLE1_CHECKS["hevc"]["max_mean_error"],
        f"in-loop mean error {np.mean(errors):.4f} bits outside TABLE1_CHECKS['hevc']",
    )


def run_inloop(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup = registry.build_hevc("full", seed=seed)
    if trace:
        untraced_s, _ = _timed(_inloop_run, setup, out.tally)
        recorder, patcher = SpanRecorder(), Patcher()
        with patcher:
            install_program_wrappers(recorder, patcher)
            install_simulate_wrapper(recorder, patcher, setup.problem)
            traced_s, (estimator, evaluator, result) = _timed(
                recorder.call, "workload", "inloop-run", _inloop_run, setup, out.tally
            )
        totals = put_layer_metrics(
            out, recorder.spans, recorder.counters, estimator_counts(recorder.instances)
        )
        put_ledger(out, totals, traced_s, untraced_s)
        put_no_service(out)
        out.put("optimization.evals", len(evaluator.trace), "configurations asked of the evaluator")
        out.put("optimization.solution_cost", result.cost)
        out.details["spans"] = recorder.to_json()
    else:
        setup_times: list[float] = []
        cpus = sorted(os.sched_getaffinity(0))
        turn = itertools.count()

        def unit():
            # Each optimizer run, with its set-up samples, goes to the next
            # CPU in turn: one CPU can stay slow for minutes, and the other
            # then still gives each call a fast copy.
            os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})
            for _ in range(INLOOP_SETUPS):
                setup_times.append(_timed(registry.build_hevc, "full", seed=seed)[0])
            return _timed(_inloop_run, setup, out.tally)

        try:
            runs = _until(seconds, unit, at_least=INLOOP_REPEATS)
        finally:
            os.sched_setaffinity(0, cpus)
        calls, outside_s = _fastest_calls(out, runs)
        estimator, evaluator, result = runs[0][1]
        n_queries = len(evaluator.trace)
        wall_s = float(calls.sum()) + outside_s
        fastest_of = f"each of {calls.size} evaluator calls at its fastest of {len(runs)} runs"
        out.put(
            "setup_s",
            measure.fast_median(setup_times),
            f"median of the fastest quarter of {len(setup_times)} build_hevc calls,"
            f" {INLOOP_SETUPS} before each optimizer run",
        )
        out.put("wall_s", wall_s, f"{fastest_of}, plus the fastest time outside them")
        out.put("queries_per_s", n_queries / wall_s, f"{n_queries} queries per run / wall_s")
        latencies_ms = list(1000.0 * calls)
        out.put("latency_p50_ms", statistics.median(latencies_ms), fastest_of)
        percentile, value = measure.tail(latencies_ms)
        out.put("latency_p99_ms", value, f"p{percentile:.1f}; {fastest_of}")
        out.put(
            "interp_pct",
            100.0 * estimator.stats.interpolated_fraction,
            "(interpolated + exact hits) / queries",
        )
        out.put("simulations", estimator.stats.n_simulated)
        out.put("peak_rss_mb", measure.peak_rss_mb(), "client VmHWM")
        out.put("solution_cost", result.cost)
        out.details["setup_times"] = setup_times
        out.details["run_times"] = [run_s for run_s, _ in runs]
    errors = _committed_errors(setup, evaluator)
    if not trace:
        out.put(
            "mean_error",
            float(np.mean(errors)),
            f"bits (Eq. 11) at the n={errors.size} committed steps that had been interpolated",
        )
    _check_inloop(out, setup, estimator, evaluator, result, errors)
    return out
