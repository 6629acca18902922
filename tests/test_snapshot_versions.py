"""Snapshot format-version compatibility (:mod:`repro.service.session`).

Format v2 added the factor-cache section (warm-start restores).  The
compatibility contract: the current version round-trips the factor cache
byte for byte and replays with **zero** fresh factorizations; a version-1
snapshot restores cold *silently*; a corrupted factor section degrades to
a cold restore with a warning instead of failing the load; an unknown
version is rejected outright.  A snapshot written while the factor cache
still bridged near signatures by rank-1 edits (``data/parent_v2_session.npz``:
format v2, ``n_jobs=2``, factors in permuted row order) restores warm and
answers as it did when written.
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
    """A snapshotted session whose factor cache is warm, plus its queries."""
    rng = np.random.default_rng(17)
    est = KrigingEstimator(_simulate, 3, distance=4.0, nn_min=1, variogram="linear")
    pts = np.unique(rng.integers(0, 6, size=(120, 3)), axis=0).astype(float)
    for p in pts:
        row = est.cache.add(p, _simulate(p))
        est.neighbor_index.insert(p, row)
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


class TestCurrentVersion:
    def test_factor_cache_roundtrips_byte_for_byte(self, tmp_path):
        est, path, _ = _warm_session(tmp_path)
        source = est.to_state()["factor_entries"]
        restored = load_snapshot(path)["estimator"]["factor_entries"]
        assert restored is not None
        assert restored["version"] == source["version"]
        assert len(restored["entries"]) == len(source["entries"])
        for a, b in zip(source["entries"], restored["entries"]):
            assert a["shift"] == b["shift"]
            np.testing.assert_array_equal(a["rows"], b["rows"])
            np.testing.assert_array_equal(a["gamma"], b["gamma"])
            np.testing.assert_array_equal(a["chol"], b["chol"])

    def test_warm_restore_refactorizes_nothing(self, tmp_path):
        _, path, queries = _warm_session(tmp_path)
        state = load_snapshot(path)["estimator"]
        assert _fresh_delta(state, queries) == 0
        # Stripping the section reproduces the cold (v1) behaviour.
        assert _fresh_delta({**state, "factor_entries": None}, queries) > 0

    def test_two_restores_do_not_share_factors(self, tmp_path):
        """Entries are copied per restore: work in one twin must not leak
        into the other's factors."""
        _, path, queries = _warm_session(tmp_path)
        state = load_snapshot(path)["estimator"]
        twin_a = KrigingEstimator.from_state(_simulate, state)
        twin_b = KrigingEstimator.from_state(_simulate, state)
        twin_a.cache.add([9.0, 9.0, 9.0], _simulate([9.0, 9.0, 9.0]))
        twin_a.neighbor_index.insert(
            np.array([9.0, 9.0, 9.0]), len(twin_a.cache) - 1
        )
        out_a = twin_a.evaluate_batch(queries)
        out_b = twin_b.evaluate_batch(queries)
        del out_a
        # twin_b's factors are untouched by twin_a's work: replaying the
        # original queries stays warm and bitwise-stable.
        ref = KrigingEstimator.from_state(_simulate, load_snapshot(path)["estimator"])
        out_ref = ref.evaluate_batch(queries)
        assert [o.value for o in out_b] == [o.value for o in out_ref]


class TestPreviousVersion:
    def test_v1_snapshot_restores_cold_silently(self, tmp_path):
        _, path, queries = _warm_session(tmp_path)
        factor_members = [
            name.removesuffix(".npy")
            for name in zipfile.ZipFile(path).namelist()
            if name.startswith("factor")
        ]
        assert factor_members  # the warm snapshot really has a section

        def to_v1(manifest):
            manifest["snapshot_version"] = 1
            manifest["estimator"].pop("factor_section", None)
            return manifest

        v1 = _rewrite(path, tmp_path / "v1.npz", drop=factor_members,
                      patch_manifest=to_v1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent: no deprecation theatre
            state = load_snapshot(v1)
        assert state["estimator"]["factor_entries"] is None
        assert _fresh_delta(state["estimator"], queries) > 0  # cold, but works

    def test_state_with_removed_solve_knobs_restores(self, tmp_path):
        """Snapshots written before the solve path was reduced to one carry
        ``backend``/``shm``/``stacking`` and ``stats.pool_failures``.  They
        restore with those keys ignored and then decide exactly as the
        original estimator does."""
        est, path, _ = _warm_session(tmp_path)
        state = est.to_state()
        for key in ("backend", "shm", "stacking"):
            assert key not in state
        assert "pool_failures" not in state["stats"]

        def to_old_format(manifest):
            manifest["estimator"].update(backend="process", shm=True, stacking=False)
            manifest["estimator"]["stats"]["pool_failures"] = 2
            return manifest

        old = _rewrite(path, tmp_path / "old.npz", patch_manifest=to_old_format)
        old_state = load_snapshot(old)["estimator"]
        assert old_state["backend"] == "process"  # the keys really are there
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

    @staticmethod
    def _parent_answers():
        recorded = json.loads(PARENT_SNAPSHOT.with_suffix(".json").read_text())
        return (
            np.asarray(recorded["queries"]),
            [float.fromhex(v) for v in recorded["values"]],
            [float.fromhex(v) for v in recorded["variances"]],
        )

    def _assert_warm_replay(self, estimator):
        queries, values, variances = self._parent_answers()
        before = dict(estimator.stats.factor.as_pairs())
        out = estimator.evaluate_batch(queries)
        after = dict(estimator.stats.factor.as_pairs())
        assert all(o.interpolated for o in out)
        assert after["fresh"] == before["fresh"]  # every group is an exact hit
        assert after["hits"] > before["hits"]
        assert after["updates"] == before["updates"]
        np.testing.assert_allclose([o.value for o in out], values, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            [o.variance for o in out], variances, rtol=1e-9, atol=1e-9
        )

    def test_parent_v2_state_with_bridged_factors_restores_warm(self):
        """The estimator state of a snapshot written with ``n_jobs=2`` and a
        factor cache holding rank-1-derived factors: ``n_jobs`` is ignored,
        the derived factors load under their sorted signatures, and the
        recorded queries replay with zero fresh factorizations."""
        state = load_snapshot(PARENT_SNAPSHOT)["estimator"]
        assert state["version"] == 2 and state["n_jobs"] == 2
        rows = [entry["rows"].tolist() for entry in state["factor_entries"]["entries"]]
        assert any(r != sorted(r) for r in rows)  # bridged factors really are there
        assert dict(map(tuple, state["stats"]["factor"]))["updates"] > 0

        estimator = KrigingEstimator.from_state(_simulate, state)
        assert "n_jobs" not in estimator.to_state()
        assert len(estimator.factor_cache) == len(rows)
        self._assert_warm_replay(estimator)

    def test_parent_v2_snapshot_restores_as_session(self):
        session = EstimatorSession.restore(PARENT_SNAPSHOT)
        assert session.name == "parent"
        self._assert_warm_replay(session.estimator)

    def test_unknown_version_rejected(self, tmp_path):
        _, path, _ = _warm_session(tmp_path)

        def to_v99(manifest):
            manifest["snapshot_version"] = SNAPSHOT_VERSION + 97
            return manifest

        bad = _rewrite(path, tmp_path / "v99.npz", patch_manifest=to_v99)
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_snapshot(bad)


class TestCorruption:
    def test_missing_factor_member_degrades_to_cold(self, tmp_path):
        _, path, queries = _warm_session(tmp_path)
        truncated = _rewrite(path, tmp_path / "trunc.npz", drop=["factor0_chol"])
        with pytest.warns(RuntimeWarning, match="corrupted factor-cache section"):
            state = load_snapshot(truncated)
        assert state["estimator"]["factor_entries"] is None
        assert _fresh_delta(state["estimator"], queries) > 0

    def test_shift_count_mismatch_degrades_to_cold(self, tmp_path):
        _, path, _ = _warm_session(tmp_path)

        def drop_a_shift(manifest):
            manifest["estimator"]["factor_section"]["shifts"].pop()
            return manifest

        bad = _rewrite(path, tmp_path / "shift.npz", patch_manifest=drop_a_shift)
        with pytest.warns(RuntimeWarning, match="corrupted factor-cache section"):
            state = load_snapshot(bad)
        assert state["estimator"]["factor_entries"] is None
