"""Batch query engine equivalence (the vectorized hot path's contract).

``KrigingEstimator.evaluate_batch`` must produce outcomes identical to an
equivalent sequence of ``evaluate`` calls: same values, same
simulate/interpolate decisions, same final cache contents.  Verified here
over two real workloads (FIR and SqueezeNet recorded trajectories — one
minplusone word-length problem, one descent sensitivity problem) plus
synthetic stress cases (variogram refitting, universal kriging,
max_neighbors caps).  The performance layer underneath — the factor
cache's exact-signature reuse — must never change outcomes; it is
exercised here against the sequential reference with and without the
cached factors reaching the grouped solver.
"""

import numpy as np
import pytest

from repro.core.estimator import KrigingEstimator
from repro.experiments.registry import build_benchmark


def _make_pair(simulate, nv, **kwargs):
    return (
        KrigingEstimator(simulate, nv, **kwargs),
        KrigingEstimator(simulate, nv, **kwargs),
    )


def assert_equivalent(configs, simulate, nv, **kwargs):
    sequential, batched = _make_pair(simulate, nv, **kwargs)
    seq_out = [sequential.evaluate(config) for config in configs]
    bat_out = batched.evaluate_batch(configs)

    assert [o.interpolated for o in seq_out] == [o.interpolated for o in bat_out]
    assert [o.exact_hit for o in seq_out] == [o.exact_hit for o in bat_out]
    assert [o.n_neighbors for o in seq_out] == [o.n_neighbors for o in bat_out]
    np.testing.assert_allclose(
        [o.value for o in seq_out], [o.value for o in bat_out], rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        [o.variance for o in seq_out],
        [o.variance for o in bat_out],
        rtol=1e-6,
        atol=1e-9,
    )
    # Same cache contents, bit for bit (same configurations simulated, in
    # the same order, with the same measured values).
    np.testing.assert_array_equal(sequential.cache.points, batched.cache.points)
    np.testing.assert_array_equal(sequential.cache.values, batched.cache.values)
    # Same aggregate statistics.
    assert sequential.stats.n_simulated == batched.stats.n_simulated
    assert sequential.stats.n_interpolated == batched.stats.n_interpolated
    assert sequential.stats.n_exact_hits == batched.stats.n_exact_hits
    assert sequential.stats.neighbor_count_sum == batched.stats.neighbor_count_sum
    return seq_out


def _workload_configs(name):
    setup = build_benchmark(name, "small")
    trace = setup.record_trajectory()
    unique = trace.unique_first_visits()
    configs = np.asarray(unique.configurations, dtype=np.float64)
    truth = {tuple(c): float(v) for c, v in zip(configs.tolist(), unique.values)}

    def lookup(config):
        return truth[tuple(np.asarray(config, dtype=np.float64).tolist())]

    return configs, lookup


@pytest.mark.parametrize("name", ["fir", "squeezenet"])
@pytest.mark.parametrize("distance", [2, 3])
def test_workload_trajectory_equivalence(name, distance):
    """Acceptance check on two paper workloads' recorded trajectories."""
    configs, lookup = _workload_configs(name)
    outcomes = assert_equivalent(
        configs,
        lookup,
        configs.shape[1],
        distance=distance,
        nn_min=1,
        variogram="auto",
        min_fit_points=4,
        refit_interval=1,
    )
    assert any(o.interpolated for o in outcomes)
    assert any(not o.interpolated for o in outcomes)


@pytest.mark.parametrize("factor_cache", [True, False])
def test_workload_equivalence_reuse_on_off(factor_cache, monkeypatch):
    """Factor reuse is a pure performance layer: batch outcomes must match
    the sequential path whether the grouped solver receives the cached
    factors (on) or solves every group fresh, ``factors=None`` (off)."""
    if not factor_cache:
        from repro.core import estimator as estimator_module
        from repro.core.kriging import ordinary_kriging_grouped

        def fresh(groups, variogram, *, factors=None, **kwargs):
            return ordinary_kriging_grouped(groups, variogram, **kwargs)

        monkeypatch.setattr(estimator_module, "ordinary_kriging_grouped", fresh)
    configs, lookup = _workload_configs("fir")
    outcomes = assert_equivalent(
        configs,
        lookup,
        configs.shape[1],
        distance=3,
        nn_min=1,
        variogram="auto",
        min_fit_points=4,
        refit_interval=1,
    )
    assert any(o.interpolated for o in outcomes)


def _smooth_field(config):
    c = np.asarray(config, dtype=float)
    coeffs = np.resize(np.array([1.0, -2.0, 0.5, 0.25]), c.size)
    return float(c @ coeffs + 3.0)


def test_equivalence_with_refitting_and_revisits():
    rng = np.random.default_rng(11)
    configs = rng.integers(2, 9, size=(150, 3)).astype(float)  # dense: revisits
    assert_equivalent(
        configs, _smooth_field, 3,
        distance=3, variogram="linear", min_fit_points=4, refit_interval=2,
    )


def test_equivalence_universal_interpolator():
    rng = np.random.default_rng(5)
    configs = rng.integers(2, 10, size=(80, 3)).astype(float)
    assert_equivalent(
        configs, _smooth_field, 3,
        distance=4, interpolator="universal", variogram="linear",
    )


def test_equivalence_with_max_neighbors():
    rng = np.random.default_rng(9)
    configs = rng.integers(0, 8, size=(120, 2)).astype(float)
    assert_equivalent(
        configs, _smooth_field, 2, distance=6, max_neighbors=3,
    )


def test_equivalence_with_max_variance_guard():
    """max_variance forces the sequential fallback — still equivalent."""
    rng = np.random.default_rng(13)
    configs = rng.integers(0, 10, size=(60, 2)).astype(float)
    assert_equivalent(
        configs, _smooth_field, 2, distance=5, max_variance=2.0,
    )


def test_batch_empty_and_validation():
    est = KrigingEstimator(_smooth_field, 3)
    assert est.evaluate_batch(np.empty((0, 3))) == []
    with pytest.raises(ValueError, match="shape"):
        est.evaluate_batch(np.zeros((4, 2)))


def test_grouped_rejects_mismatched_factors():
    from repro.core.kriging import ordinary_kriging_grouped
    from repro.core.models import LinearVariogram

    with pytest.raises(ValueError, match="factors length"):
        ordinary_kriging_grouped(
            [(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 2)))],
            LinearVariogram(1.0),
            factors=[None, None],
        )


def test_grouped_matches_per_group_reference():
    """The estimator's grouped (size-binned, stacked) solves against a
    per-group ``ordinary_kriging_batch`` reference over the same decisions:
    a twin estimator whose grouped solver is replaced by that loop must make
    the same simulate/interpolate decisions, cache the same points and
    answer within 1e-9."""
    from repro.core import estimator as estimator_module
    from repro.core.kriging import ordinary_kriging_batch

    def per_group(groups, variogram, *, metric, factors=None, phases=None, **_):
        return [
            ordinary_kriging_batch(points, values, queries, variogram, metric=metric)
            for points, values, queries in groups
        ]

    configs, lookup = _workload_configs("fir")
    nv = configs.shape[1]
    kwargs = dict(
        distance=3, variogram="auto", min_fit_points=4, refit_interval=1,
    )
    estimator = KrigingEstimator(lookup, nv, **kwargs)
    out = estimator.evaluate_batch(configs)
    cache_points = estimator.cache.points.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator_module, "ordinary_kriging_grouped", per_group)
        reference = KrigingEstimator(lookup, nv, **kwargs)
        ref = reference.evaluate_batch(configs)
    assert any(o.interpolated for o in ref)
    assert [o.interpolated for o in out] == [o.interpolated for o in ref]
    np.testing.assert_allclose(
        [o.value for o in out], [o.value for o in ref], rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        [o.variance for o in out], [o.variance for o in ref], rtol=1e-9, atol=1e-12
    )
    np.testing.assert_array_equal(cache_points, reference.cache.points)
