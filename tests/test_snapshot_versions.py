"""Snapshot format-version compatibility (:mod:`repro.service.session`).

Snapshots are written as format v2 without any factor-cache state.  The
compatibility contract: version-1 files and version-2 files with or without
a factor-cache section (``factor{i}_*`` members, even corrupted ones) load
*silently* and restore with a cold factor cache; an unknown version is
rejected outright.  A snapshot written while the factor cache still bridged
near signatures by rank-1 edits and was persisted
(``data/parent_v2_session.npz``: format v2, ``n_jobs=2``, factors in permuted
row order) answers its recorded queries as it did when written.
"""

import json
import pathlib
import warnings
import zipfile

import numpy as np
import pytest

from repro.core.estimator import KrigingEstimator
from repro.service.session import (
    SNAPSHOT_VERSION,
    EstimatorSession,
    load_snapshot,
    save_snapshot,
)

PARENT_SNAPSHOT = pathlib.Path(__file__).parent / "data" / "parent_v2_session.npz"

COEFFS = np.array([1.0, -2.0, 0.5, 0.25])


def _simulate(config):
    c = np.asarray(config, dtype=float)
    return float(c @ np.resize(COEFFS, c.size) - 6.0)


def _warm_session(tmp_path):
    """A session snapshotted while its factor cache was warm, plus its
    queries."""
    rng = np.random.default_rng(17)
    est = KrigingEstimator(_simulate, 3, distance=4.0, nn_min=1, variogram="linear")
    pts = np.unique(rng.integers(0, 6, size=(120, 3)), axis=0).astype(float)
    for p in pts:
        est.cache.add(p, _simulate(p))
    queries = pts[:12] + 0.25
    est.evaluate_batch(queries)
    assert dict(est.stats.factor.as_pairs())["fresh"] > 0
    path = save_snapshot(
        tmp_path / "warm",
        {
            "name": "versions",
            "simulator": {"kind": "linear", "num_variables": 3},
            "estimator": est.to_state(),
        },
    )
    return est, path, queries


def _fresh_delta(state, queries):
    est = KrigingEstimator.from_state(_simulate, state)
    before = dict(est.stats.factor.as_pairs())["fresh"]
    est.evaluate_batch(queries)
    return dict(est.stats.factor.as_pairs())["fresh"] - before


def _rewrite(src, dst, *, drop=(), patch_manifest=None):
    """Copy an .npz, dropping members and/or editing the JSON manifest."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            if info.filename.removesuffix(".npy") in drop:
                continue
            data = zin.read(info.filename)
            if info.filename == "manifest.npy" and patch_manifest is not None:
                # The manifest member is a raw uint8 .npy; its JSON payload
                # sits after the numpy header.
                header_end = data.index(b"\n") + 1
                manifest = json.loads(data[header_end:].decode())
                manifest = patch_manifest(manifest)
                payload = json.dumps(manifest).encode()
                arr = np.frombuffer(payload, dtype=np.uint8)
                import io

                buf = io.BytesIO()
                np.save(buf, arr)
                data = buf.getvalue()
            zout.writestr(info.filename, data)
    return dst


def _parent_answers():
    recorded = json.loads(PARENT_SNAPSHOT.with_suffix(".json").read_text())
    return (
        np.asarray(recorded["queries"]),
        [float.fromhex(v) for v in recorded["values"]],
        [float.fromhex(v) for v in recorded["variances"]],
    )


def _load_silently(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_snapshot(path)


def _assert_cold_replay(estimator):
    """The parent fixture's recorded queries, answered from a cold cache."""
    queries, values, variances = _parent_answers()
    assert len(estimator._factor_cache) == 0
    before = dict(estimator.stats.factor.as_pairs())
    out = estimator.evaluate_batch(queries)
    after = dict(estimator.stats.factor.as_pairs())
    assert all(o.interpolated for o in out)
    assert after["fresh"] > before["fresh"]  # restored cold
    np.testing.assert_allclose([o.value for o in out], values, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose([o.variance for o in out], variances, rtol=1e-9, atol=1e-9)


class TestCurrentVersion:
    def test_written_snapshot_has_no_factor_section(self, tmp_path):
        """The factor cache never reaches a snapshot, warm or not."""
        est, path, _ = _warm_session(tmp_path)
        assert len(est._factor_cache) > 0
        assert not [
            name for name in zipfile.ZipFile(path).namelist() if name.startswith("factor")
        ]
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["manifest"].tobytes()).decode())
        assert manifest["snapshot_version"] == SNAPSHOT_VERSION == 2
        for key in ("factor_section", "factor_entries", "factor_cache"):
            assert key not in manifest["estimator"]
            assert key not in est.to_state()

    def test_restore_is_cold_and_answers_alike(self, tmp_path):
        est, path, queries = _warm_session(tmp_path)
        state = load_snapshot(path)["estimator"]
        assert _fresh_delta(state, queries) > 0
        restored = KrigingEstimator.from_state(_simulate, state)
        np.testing.assert_allclose(
            [o.value for o in restored.evaluate_batch(queries)],
            [o.value for o in est.evaluate_batch(queries)],
            rtol=1e-9,
            atol=1e-12,
        )

    def test_two_restores_do_not_share_factors(self, tmp_path):
        """Each restore builds its own factor cache: work in one twin must
        not leak into the other's answers."""
        _, path, queries = _warm_session(tmp_path)
        state = load_snapshot(path)["estimator"]
        twin_a = KrigingEstimator.from_state(_simulate, state)
        twin_b = KrigingEstimator.from_state(_simulate, state)
        twin_a.cache.add([9.0, 9.0, 9.0], _simulate([9.0, 9.0, 9.0]))
        twin_a.evaluate_batch(queries)
        out_b = twin_b.evaluate_batch(queries)
        ref = KrigingEstimator.from_state(_simulate, load_snapshot(path)["estimator"])
        out_ref = ref.evaluate_batch(queries)
        assert [o.value for o in out_b] == [o.value for o in out_ref]


class TestPreviousVersion:
    def test_v1_snapshot_restores_cold_silently(self, tmp_path):
        _, path, queries = _warm_session(tmp_path)

        def to_v1(manifest):
            manifest["snapshot_version"] = 1
            return manifest

        v1 = _rewrite(path, tmp_path / "v1.npz", patch_manifest=to_v1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent: no deprecation theatre
            state = load_snapshot(v1)
        assert state["snapshot_version"] == 1
        assert _fresh_delta(state["estimator"], queries) > 0  # cold, but works

    def test_state_with_removed_solve_knobs_restores(self, tmp_path):
        """Snapshots written before the solve path was reduced to one carry
        ``backend``/``shm``/``stacking`` and ``stats.pool_failures``, and
        those written before the neighbour index was removed carry
        ``neighbor_index``.  They restore with those keys ignored and then
        decide exactly as the original estimator does."""
        est, path, _ = _warm_session(tmp_path)
        state = est.to_state()
        for key in ("backend", "shm", "stacking", "neighbor_index"):
            assert key not in state
        assert "pool_failures" not in state["stats"]

        def to_old_format(manifest):
            manifest["estimator"].update(
                backend="process", shm=True, stacking=False, neighbor_index="kdtree"
            )
            manifest["estimator"]["stats"]["pool_failures"] = 2
            return manifest

        old = _rewrite(path, tmp_path / "old.npz", patch_manifest=to_old_format)
        old_state = load_snapshot(old)["estimator"]
        # The keys really are there.
        assert old_state["backend"] == "process"
        assert old_state["neighbor_index"] == "kdtree"
        restored = KrigingEstimator.from_state(_simulate, old_state)

        # Interpolations near the support plus far points that must simulate.
        rng = np.random.default_rng(23)
        queries = np.vstack(
            [
                rng.integers(0, 6, size=(20, 3)) + rng.uniform(0.1, 0.4, size=(20, 3)),
                rng.integers(20, 30, size=(4, 3)).astype(float),
            ]
        )
        expected = est.evaluate_batch(queries)
        out = restored.evaluate_batch(queries)
        assert [o.interpolated for o in out] == [o.interpolated for o in expected]
        assert any(o.interpolated for o in out)
        assert any(not o.interpolated for o in out)
        np.testing.assert_allclose(
            [o.value for o in out], [o.value for o in expected], rtol=1e-9, atol=1e-12
        )
        np.testing.assert_array_equal(restored.cache.points, est.cache.points)

    def test_parent_v2_state_with_bridged_factors_restores_cold(self):
        """The estimator state of a snapshot written with ``n_jobs=2`` and a
        persisted factor cache holding rank-1-derived factors: ``n_jobs``,
        ``neighbor_index`` and every factor-cache key are ignored, and the
        recorded queries answer as they did when written."""
        assert [
            name for name in zipfile.ZipFile(PARENT_SNAPSHOT).namelist()
            if name.startswith("factor")
        ]  # the factor members really are there
        state = _load_silently(PARENT_SNAPSHOT)["estimator"]
        assert state["version"] == 2 and state["n_jobs"] == 2
        assert state["neighbor_index"] == "auto"
        assert "factor_section" not in state and "factor_cache" not in state
        assert dict(map(tuple, state["stats"]["factor"]))["updates"] > 0

        estimator = KrigingEstimator.from_state(_simulate, state)
        for key in ("n_jobs", "neighbor_index", "factor_cache", "factor_entries"):
            assert key not in estimator.to_state()
        _assert_cold_replay(estimator)

    def test_parent_v2_snapshot_restores_as_session(self):
        """Restored through the session path, with no ``RuntimeWarning``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = EstimatorSession.restore(PARENT_SNAPSHOT)
        assert session.name == "parent"
        _assert_cold_replay(session.estimator)

    def test_parent_snapshot_resaved_has_no_factor_section(self, tmp_path):
        """Loading the parent file and writing it back drops its factor
        members and keys; the rewritten file answers alike."""
        path = save_snapshot(tmp_path / "resaved", _load_silently(PARENT_SNAPSHOT))
        assert not [
            name for name in zipfile.ZipFile(path).namelist() if name.startswith("factor")
        ]
        state = _load_silently(path)
        assert "factor_cache" not in state["estimator"]
        _assert_cold_replay(KrigingEstimator.from_state(_simulate, state["estimator"]))

    def test_unknown_version_rejected(self, tmp_path):
        _, path, _ = _warm_session(tmp_path)

        def to_v99(manifest):
            manifest["snapshot_version"] = SNAPSHOT_VERSION + 97
            return manifest

        bad = _rewrite(path, tmp_path / "v99.npz", patch_manifest=to_v99)
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_snapshot(bad)


class TestCorruption:
    """A corrupted factor section of an older file is never read, so it
    cannot fail or warn: the restore is cold either way."""

    def test_missing_factor_member_degrades_to_cold(self, tmp_path):
        truncated = _rewrite(PARENT_SNAPSHOT, tmp_path / "trunc.npz", drop=["factor0_chol"])
        state = _load_silently(truncated)
        _assert_cold_replay(KrigingEstimator.from_state(_simulate, state["estimator"]))

    def test_shift_count_mismatch_degrades_to_cold(self, tmp_path):
        def drop_a_shift(manifest):
            manifest["estimator"]["factor_section"]["shifts"].pop()
            return manifest

        bad = _rewrite(PARENT_SNAPSHOT, tmp_path / "shift.npz", patch_manifest=drop_a_shift)
        state = _load_silently(bad)
        _assert_cold_replay(KrigingEstimator.from_state(_simulate, state["estimator"]))
