"""Snapshot/restore round-trips: state hooks and session snapshot files.

The contract: a restored estimator/session makes **bit-identical** decisions
and cache additions to the snapshotted one fed the same queries, its stats
counters and quantile-sketch markers round-trip exactly, and two restores of
one snapshot answer queries bit-identically (the originating instance, whose
factor cache may be warm, agrees within the engine's ~1e-9 envelope).
"""

import json
import warnings

import numpy as np
import pytest

from repro.core.cache import SimulationCache
from repro.core.estimator import KrigingEstimator
from repro.core.models import (
    ExponentialVariogram,
    GaussianVariogram,
    LinearVariogram,
    NuggetVariogram,
    PowerVariogram,
    SphericalVariogram,
    variogram_from_state,
)
from repro.experiments.registry import build_benchmark
from repro.service.session import EstimatorSession, load_snapshot, make_simulator
from repro.utils.quantiles import QuantileSketch


def _json_roundtrip(state):
    """Snapshot manifests travel as JSON: every non-array state must survive."""
    return json.loads(json.dumps(state))


class TestModelState:
    @pytest.mark.parametrize(
        "model",
        [
            LinearVariogram(slope=0.125),
            SphericalVariogram(sill=3.5, range_=7.25, nugget_=0.5),
            ExponentialVariogram(sill=25.0, range_=8.0),
            GaussianVariogram(sill=1.0, range_=2.0, nugget_=0.125),
            PowerVariogram(scale=0.3, exponent=1.5),
            NuggetVariogram(nugget_=2.0),
        ],
    )
    def test_roundtrip_bitwise(self, model):
        restored = variogram_from_state(_json_roundtrip(model.to_state()))
        assert restored == model
        h = np.linspace(0.0, 20.0, 64)
        np.testing.assert_array_equal(np.asarray(model(h)), np.asarray(restored(h)))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            variogram_from_state({"family": "FancyVariogram", "params": {}})

    def test_malformed_state_rejected(self):
        with pytest.raises(ValueError):
            variogram_from_state({"params": {}})


class TestCacheState:
    def test_roundtrip_bitwise_and_keys(self):
        cache = SimulationCache(3)
        rng = np.random.default_rng(0)
        rows = rng.uniform(-5, 5, size=(150, 3))
        rows[0, 0] = -0.0  # signed-zero key normalization must survive
        for row in rows:
            cache.add(row, float(row.sum()))
        restored = SimulationCache.from_state(cache.to_state())
        np.testing.assert_array_equal(cache.points, restored.points)
        np.testing.assert_array_equal(cache.values, restored.values)
        assert len(restored) == len(cache)
        # Exact-hit index rebuilt: lookups and duplicate rejection work.
        assert restored.lookup(rows[7]) == cache.lookup(rows[7])
        assert restored.lookup(np.array([0.0, rows[0][1], rows[0][2]])) is not None
        with pytest.raises(ValueError):
            restored.add(rows[3], 1.0)
        # And it keeps growing past the restored size.
        restored.add([99.0, 99.0, 99.0], 5.0)
        assert len(restored) == 151

    def test_version_guard(self):
        cache = SimulationCache(2)
        state = cache.to_state()
        state["version"] = 99
        with pytest.raises(ValueError):
            SimulationCache.from_state(state)


class TestSketchState:
    def test_streaming_continues_identically(self):
        rng = np.random.default_rng(1)
        first, second = rng.normal(10, 3, size=400), rng.normal(12, 2, size=300)
        sketch = QuantileSketch()
        for x in first:
            sketch.update(float(x))
        restored = QuantileSketch.from_state(_json_roundtrip(sketch.to_state()))
        assert restored.to_state() == sketch.to_state()
        for x in second:
            sketch.update(float(x))
            restored.update(float(x))
        assert sketch.summary() == restored.summary()  # bitwise equal markers

    def test_empty_sketch_roundtrip(self):
        restored = QuantileSketch.from_state(_json_roundtrip(QuantileSketch().to_state()))
        assert restored.count == 0 and np.isnan(restored.mean)


class TestEstimatorState:
    def _simulate(self, config):
        c = np.asarray(config, dtype=float)
        return float(c @ np.array([1.0, -2.0, 0.5]) - 6.0)

    def _loaded(self, **kwargs):
        est = KrigingEstimator(self._simulate, 3, distance=4.0, **kwargs)
        rng = np.random.default_rng(3)
        pts = np.unique(rng.integers(0, 6, size=(50, 3)), axis=0).astype(float)
        est.evaluate_batch(pts)  # all simulate
        est.evaluate_batch(pts[:20] + 0.25)  # interpolations feed the sketch
        return est, pts

    def test_roundtrip_preserves_stats_and_decisions(self):
        est, pts = self._loaded(variogram="auto", min_fit_points=6, refit_interval=7)
        state = est.to_state()
        # "cache" holds raw arrays (NPZ members in the file format);
        # everything else must survive a JSON round trip.
        manifest = _json_roundtrip({k: v for k, v in state.items() if k != "cache"})
        manifest["cache"] = state["cache"]
        twin_a = KrigingEstimator.from_state(self._simulate, manifest)
        twin_b = KrigingEstimator.from_state(self._simulate, manifest)

        assert twin_a.stats.to_state() == est.stats.to_state()
        np.testing.assert_array_equal(est.cache.points, twin_a.cache.points)

        # Mixed follow-up (interpolations + fresh simulations): the two
        # restored twins are bitwise identical; the original, whose factor
        # cache is warm, matches decisions
        # and cache bitwise, values to the engine envelope.
        follow = np.vstack([pts[:10] + 0.4, pts[:4], np.array([[9.0, 9.0, 9.0]])])
        out_o = est.evaluate_batch(follow)
        out_a = twin_a.evaluate_batch(follow)
        out_b = twin_b.evaluate_batch(follow)
        assert [o.value for o in out_a] == [o.value for o in out_b]
        assert [o.variance for o in out_a] == [o.variance for o in out_b]
        assert [o.interpolated for o in out_o] == [o.interpolated for o in out_a]
        assert [o.exact_hit for o in out_o] == [o.exact_hit for o in out_a]
        np.testing.assert_allclose(
            [o.value for o in out_o], [o.value for o in out_a], rtol=1e-9, atol=1e-12
        )
        np.testing.assert_array_equal(est.cache.points, twin_a.cache.points)
        np.testing.assert_array_equal(est.cache.values, twin_a.cache.values)
        assert est.stats.n_simulated == twin_a.stats.n_simulated
        assert (
            est.stats.neighbor_sketch.to_state()
            == twin_a.stats.neighbor_sketch.to_state()
        )

    def test_fitted_model_travels(self):
        est, _ = self._loaded(variogram="exponential", min_fit_points=6)
        est.variogram  # force the identification
        state = est.to_state()
        assert state["fitted"]["family"] == "ExponentialVariogram"
        twin = KrigingEstimator.from_state(self._simulate, state)
        assert twin._fitted == est._fitted
        assert twin._fitted_at == est._fitted_at

    def test_custom_callable_spec_rejected(self):
        est = KrigingEstimator(self._simulate, 3, variogram=lambda h: h)
        with pytest.raises(ValueError):
            est.to_state()

    def test_overrides_apply(self):
        est, _ = self._loaded(variogram="linear")
        twin = KrigingEstimator.from_state(
            self._simulate, est.to_state(), max_neighbors=5
        )
        assert twin._max_neighbors == 5
        assert twin.to_state()["max_neighbors"] == 5

    def test_older_factor_cache_keys_ignored(self):
        """States written while the factor cache was persisted carry its
        on/off switch and entries; both are ignored, malformed or not, and
        the restore is cold with the cache on."""
        est, pts = self._loaded(variogram="linear")
        state = {
            **est.to_state(),
            "factor_cache": False,
            "factor_entries": {"version": 99, "entries": "garbage"},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            twin = KrigingEstimator.from_state(self._simulate, state)
        assert len(twin._factor_cache) == 0
        assert twin.stats.to_state() == est.stats.to_state()
        np.testing.assert_array_equal(twin.cache.points, est.cache.points)
        twin.evaluate_batch(pts[:10] + 0.4)
        assert twin.stats.factor.requests > 0

    def test_version_guard(self):
        est, _ = self._loaded(variogram="linear")
        state = est.to_state()
        state["version"] = 0
        with pytest.raises(ValueError):
            KrigingEstimator.from_state(self._simulate, state)


class TestSessionSnapshotFile:
    def test_file_roundtrip_bitwise(self, tmp_path):
        simulate, nv = make_simulator({"kind": "quadratic", "center": [2.0, 2.0]}, 2)
        est = KrigingEstimator(simulate, nv, distance=3.0, variogram="linear")
        session = EstimatorSession("file-test", est, {"kind": "quadratic", "center": [2.0, 2.0]})
        rng = np.random.default_rng(5)
        pts = np.unique(rng.integers(0, 5, size=(30, 2)), axis=0).astype(float)
        session.evaluate_batch(pts)
        session.evaluate_batch(pts[:8] + 0.3)

        path = session.snapshot(tmp_path / "snap")
        assert path.suffix == ".npz"
        restored = EstimatorSession.restore(path)
        assert restored.name == "file-test"
        assert restored.simulator_spec == session.simulator_spec
        np.testing.assert_array_equal(
            session.estimator.cache.points, restored.estimator.cache.points
        )
        assert (
            restored.estimator.stats.to_state() == session.estimator.stats.to_state()
        )
        # Snapshotting the restored session reproduces the state exactly.
        again = load_snapshot(restored.snapshot(tmp_path / "snap2"))
        first = load_snapshot(path)
        np.testing.assert_array_equal(
            first["estimator"]["cache"]["points"],
            again["estimator"]["cache"]["points"],
        )
        np.testing.assert_array_equal(
            first["estimator"]["cache"]["values"],
            again["estimator"]["cache"]["values"],
        )

        def strip(state):
            return {k: v for k, v in state["estimator"].items() if k != "cache"}

        assert json.dumps(strip(first), sort_keys=True) == json.dumps(
            strip(again), sort_keys=True
        )

    def test_dimension_mismatch_rejected(self, tmp_path):
        simulate, nv = make_simulator({"kind": "linear"}, 2)
        est = KrigingEstimator(simulate, nv, variogram="linear")
        session = EstimatorSession("dims", est, {"kind": "benchmark", "name": "fir"})
        # FIR has Nv=2 as well, so fake a mismatch via a 3-var estimator.
        state = session.to_state()
        state["estimator"]["cache"]["num_variables"] = 7
        with pytest.raises(ValueError):
            EstimatorSession.from_state(state)

    def test_simulator_registry(self):
        with pytest.raises(ValueError):
            make_simulator({"kind": "warp-drive"}, 2)
        with pytest.raises(ValueError):
            make_simulator({"kind": "linear"})  # needs num_variables
        simulate, nv = make_simulator({"kind": "benchmark", "name": "fir"}, None)
        assert nv == 2


class TestFirMidReplaySnapshot:
    """The satellite scenario: snapshot taken mid-replay of the FIR benchmark."""

    def test_mid_replay_roundtrip(self, tmp_path):
        setup = build_benchmark("fir", "small")
        unique = setup.record_trajectory().unique_first_visits()
        configs = np.asarray(unique.configurations, dtype=np.float64)
        truth = {
            tuple(c): float(v) for c, v in zip(configs.tolist(), unique.values)
        }

        def lookup(config):
            return truth[tuple(np.asarray(config, dtype=np.float64).tolist())]

        kwargs = dict(
            distance=3.0,
            variogram="auto",
            min_fit_points=4,
            refit_interval=1,
        )
        est = KrigingEstimator(lookup, configs.shape[1], **kwargs)
        half = configs.shape[0] // 2
        est.evaluate_batch(configs[:half])

        session = EstimatorSession("fir-mid", est, {"kind": "benchmark", "name": "fir"})
        path = session.snapshot(tmp_path / "fir-mid")
        sketch_at_snapshot = est.stats.neighbor_sketch.to_state()

        restored_a = EstimatorSession.restore(path)
        restored_b = EstimatorSession.restore(path)
        assert (
            restored_a.estimator.stats.neighbor_sketch.to_state()
            == sketch_at_snapshot
        )
        assert restored_a.estimator.stats.to_state() == est.stats.to_state()

        rest = configs[half:]
        out_o = est.evaluate_batch(rest)
        out_a = restored_a.estimator.evaluate_batch(rest)
        out_b = restored_b.estimator.evaluate_batch(rest)

        # Cold twins: bitwise. Warm original: identical decisions/cache,
        # values within the engine envelope.
        assert [o.value for o in out_a] == [o.value for o in out_b]
        assert [o.interpolated for o in out_o] == [o.interpolated for o in out_a]
        np.testing.assert_allclose(
            [o.value for o in out_o], [o.value for o in out_a], rtol=1e-9, atol=1e-12
        )
        np.testing.assert_array_equal(
            est.cache.points, restored_a.estimator.cache.points
        )
        np.testing.assert_array_equal(
            est.cache.values, restored_a.estimator.cache.values
        )
        assert est.stats.n_simulated == restored_a.estimator.stats.n_simulated
        assert est.stats.n_interpolated == restored_a.estimator.stats.n_interpolated
        assert (
            est.stats.neighbor_sketch.to_state()
            == restored_a.estimator.stats.neighbor_sketch.to_state()
        )
        # The mid-replay restore finishes exactly like an uninterrupted run.
        full = KrigingEstimator(lookup, configs.shape[1], **kwargs)
        full.evaluate_batch(configs)
        np.testing.assert_array_equal(full.cache.points, restored_a.estimator.cache.points)
        assert full.stats.n_simulated == restored_a.estimator.stats.n_simulated
