"""Unit tests for repro.core.distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distances import (
    DistanceMetric,
    cross_distances,
    distance,
    distances_to,
    pairwise_distances,
)

vectors = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8)


class TestCoerce:
    def test_from_string(self):
        assert DistanceMetric.coerce("l1") is DistanceMetric.L1
        assert DistanceMetric.coerce("L2") is DistanceMetric.L2
        assert DistanceMetric.coerce("linf") is DistanceMetric.LINF

    def test_from_enum(self):
        assert DistanceMetric.coerce(DistanceMetric.L1) is DistanceMetric.L1

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown distance metric"):
            DistanceMetric.coerce("manhattan")


class TestDistance:
    def test_l1(self):
        assert distance([1, 2, 3], [2, 0, 3], "l1") == 3.0

    def test_l2(self):
        assert distance([0, 0], [3, 4], "l2") == 5.0

    def test_linf(self):
        assert distance([1, 2, 3], [4, 2, 1], "linf") == 3.0

    def test_paper_algorithm_uses_l1_semantics(self):
        # Algorithms 1-2: dCur = ||w - w_sim||_1.
        w = np.array([16, 16, 16])
        w_sim = np.array([16, 15, 14])
        assert distance(w, w_sim) == 3.0

    @given(vectors)
    def test_identity(self, v):
        for metric in DistanceMetric:
            assert distance(v, v, metric) == 0.0

    @given(vectors, st.data())
    def test_symmetry(self, a, data):
        b = data.draw(
            st.lists(
                st.integers(min_value=-20, max_value=20),
                min_size=len(a),
                max_size=len(a),
            )
        )
        for metric in DistanceMetric:
            assert distance(a, b, metric) == distance(b, a, metric)

    @given(vectors, st.data())
    def test_norm_ordering(self, a, data):
        b = data.draw(
            st.lists(
                st.integers(min_value=-20, max_value=20),
                min_size=len(a),
                max_size=len(a),
            )
        )
        linf = distance(a, b, "linf")
        l2 = distance(a, b, "l2")
        l1 = distance(a, b, "l1")
        assert linf <= l2 + 1e-9
        assert l2 <= l1 + 1e-9


class TestBatch:
    def test_distances_to(self):
        pts = np.array([[0, 0], [1, 1], [2, 2]])
        np.testing.assert_allclose(distances_to(pts, [0, 0]), [0.0, 2.0, 4.0])

    def test_distances_to_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            distances_to(np.zeros((3, 2)), np.zeros(3))

    def test_pairwise_symmetric_zero_diag(self):
        pts = np.array([[0, 0], [1, 2], [3, 1]])
        d = pairwise_distances(pts)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)

    def test_pairwise_matches_scalar(self):
        pts = np.array([[0, 1, 2], [2, 2, 2], [5, 0, 1]])
        for metric in DistanceMetric:
            d = pairwise_distances(pts, metric)
            for i in range(3):
                for j in range(3):
                    assert d[i, j] == pytest.approx(
                        distance(pts[i], pts[j], metric)
                    )

    def test_triangle_inequality_pairwise(self, rng):
        pts = rng.integers(0, 10, size=(12, 4))
        for metric in DistanceMetric:
            d = pairwise_distances(pts, metric)
            for i in range(12):
                for j in range(12):
                    for k in range(12):
                        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestCrossDistances:
    def test_matches_scalar(self):
        from repro.core.distances import cross_distances

        a = np.array([[0, 0], [1, 2]])
        b = np.array([[3, 1], [0, 0], [2, 2]])
        for metric in DistanceMetric:
            d = cross_distances(a, b, metric)
            assert d.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert d[i, j] == pytest.approx(distance(a[i], b[j], metric))

    def test_dimension_mismatch_rejected(self):
        from repro.core.distances import cross_distances

        with pytest.raises(ValueError, match="dimension"):
            cross_distances(np.zeros((2, 3)), np.zeros((2, 4)))


class TestBlockedPairwise:
    """The block path must agree exactly with the naive broadcast."""

    @pytest.mark.parametrize("metric", list(DistanceMetric))
    def test_blocked_equals_naive(self, metric, monkeypatch):
        import repro.core.distances as mod

        rng = np.random.default_rng(17)
        pts = rng.normal(size=(73, 5))
        naive = pts[:, None, :] - pts[None, :, :]
        expected = pairwise_distances(pts, metric)  # small n: naive path
        # Force the blocked path by shrinking the temp budget.
        monkeypatch.setattr(mod, "_PAIRWISE_BLOCK_BYTES", 4096)
        blocked = pairwise_distances(pts, metric)
        np.testing.assert_array_equal(blocked, expected)
        assert naive.shape == (73, 73, 5)

    def test_blocked_single_row_blocks(self, monkeypatch):
        import repro.core.distances as mod

        pts = np.arange(24, dtype=float).reshape(8, 3)
        expected = pairwise_distances(pts)
        monkeypatch.setattr(mod, "_PAIRWISE_BLOCK_BYTES", 1)  # block size 1
        np.testing.assert_array_equal(pairwise_distances(pts), expected)


def _last_axis_reduction(a, b, metric):
    """The reduction the batch functions used to run: the broadcast
    ``(na, nb, Nv)`` difference cube reduced along its last axis."""
    diff = a[:, None, :] - b[None, :, :]
    if metric is DistanceMetric.L1:
        return np.sum(np.abs(diff), axis=-1)
    if metric is DistanceMetric.L2:
        return np.sqrt(np.sum(diff * diff, axis=-1))
    return np.max(np.abs(diff), axis=-1)


def _index_order(a, b, metric):
    """Coordinates combined one at a time, in index order."""
    terms = a[:, None, :] - b[None, :, :]
    terms = terms * terms if metric is DistanceMetric.L2 else np.abs(terms)
    total = terms[..., 0].copy()
    for k in range(1, terms.shape[-1]):
        if metric is DistanceMetric.LINF:
            total = np.maximum(total, terms[..., k])
        else:
            total = total + terms[..., k]
    return np.sqrt(total) if metric is DistanceMetric.L2 else total


def _assert_bits(got, expected):
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _all_routes(a, b, metric):
    """(route result, oracle inputs) for every public batch function."""
    return [
        (cross_distances(a, b, metric), (a, b)),
        (pairwise_distances(a, metric), (a, a)),
        (distances_to(b, a[0], metric)[None, :], (a[:1], b)),
    ]


class TestCoordinateOrderKernel:
    """One coordinates-outer reduction serves every batch function."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        metric=st.sampled_from(list(DistanceMetric)),
        integer=st.booleans(),
    )
    def test_equals_last_axis_reduction(self, data, metric, integer):
        # Bitwise on any finite floats up to Nv = 7 (numpy sums short rows
        # in index order), and on integer coordinates of any Nv (exact).
        nv = data.draw(st.integers(1, 40 if integer else 7), label="nv")
        na = data.draw(st.integers(1, 9), label="na")
        nb = data.draw(st.integers(1, 9), label="nb")
        if integer:
            elements = st.integers(-(2**20), 2**20).map(float)
        else:
            elements = st.floats(allow_nan=False, allow_infinity=False, width=64)
        a = data.draw(hnp.arrays(np.float64, (na, nv), elements=elements), label="a")
        b = data.draw(hnp.arrays(np.float64, (nb, nv), elements=elements), label="b")
        with np.errstate(over="ignore", invalid="ignore"):
            for got, (x, y) in _all_routes(a, b, metric):
                _assert_bits(got, _last_axis_reduction(x, y, metric))

    @pytest.mark.parametrize("metric", list(DistanceMetric))
    @pytest.mark.parametrize("nv", [1, 2, 7, 8, 23])
    def test_index_order_for_every_shape(self, metric, nv, monkeypatch):
        # A lone pair, single rows and columns, one block and many blocks
        # all combine coordinates in the same order.
        import repro.core.distances as mod

        rng = np.random.default_rng(nv)
        # Many lone pairs: numpy's pairwise sum of one row often, not
        # always, rounds like index order.
        for na, nb in [(1, 1)] * 20 + [(1, 5), (5, 1), (6, 9)]:
            a = rng.normal(size=(na, nv)) * 10.0 ** rng.uniform(-2, 2, size=nv)
            b = rng.normal(size=(nb, nv)) * 10.0 ** rng.uniform(-2, 2, size=nv)
            for got, (x, y) in _all_routes(a, b, metric):
                _assert_bits(got, _index_order(x, y, metric))
        a = rng.normal(size=(40, nv))
        whole = _all_routes(a, a, metric)
        monkeypatch.setattr(mod, "_PAIRWISE_BLOCK_BYTES", 8 * nv * 40 * 3)  # 3-row blocks
        for (got, (x, y)), (blocked, _) in zip(whole, _all_routes(a, a, metric)):
            _assert_bits(got, _index_order(x, y, metric))
            _assert_bits(blocked, got)

    @pytest.mark.parametrize("metric", list(DistanceMetric))
    @pytest.mark.parametrize("nv", [8, 12, 23])
    def test_many_float_coordinates_within_4_ulp(self, metric, nv):
        # From Nv = 8 numpy's last-axis sum is pairwise, so non-integer
        # coordinates may round differently, by a few ulp at most.
        rng = np.random.default_rng(100 + nv)
        a = rng.normal(size=(30, nv)) * 10.0 ** rng.uniform(-1, 1, size=nv)
        b = rng.normal(size=(40, nv)) * 10.0 ** rng.uniform(-1, 1, size=nv)
        for got, (x, y) in _all_routes(a, b, metric):
            np.testing.assert_array_max_ulp(got, _last_axis_reduction(x, y, metric), maxulp=4)
