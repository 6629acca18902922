"""Unit tests for repro.core.neighborhood and repro.core.cache."""

import numpy as np
import pytest

from repro.core.cache import SimulationCache
from repro.core.neighborhood import find_neighbors


class TestFindNeighbors:
    PTS = np.array([[0, 0], [1, 0], [2, 2], [5, 5]])

    def test_within_distance(self):
        idx = find_neighbors(self.PTS, np.array([0, 0]), 2.0)
        assert set(idx.tolist()) == {0, 1}

    def test_ordering_by_distance(self):
        idx = find_neighbors(self.PTS, np.array([1, 1]), 10.0)
        dists = [abs(self.PTS[i] - [1, 1]).sum() for i in idx]
        assert dists == sorted(dists)

    def test_boundary_inclusive(self):
        # Algorithms 1-2: dCur <= d keeps the configuration.
        idx = find_neighbors(self.PTS, np.array([0, 0]), 1.0)
        assert 1 in idx.tolist()

    def test_empty_points(self):
        idx = find_neighbors(np.empty((0, 2)), np.array([0, 0]), 3.0)
        assert idx.size == 0

    def test_max_neighbors_cap(self):
        idx = find_neighbors(self.PTS, np.array([0, 0]), 100.0, max_neighbors=2)
        assert idx.tolist() == [0, 1]

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            find_neighbors(self.PTS, np.array([0, 0]), -1.0)

    def test_bad_max_neighbors_rejected(self):
        with pytest.raises(ValueError, match="max_neighbors"):
            find_neighbors(self.PTS, np.array([0, 0]), 1.0, max_neighbors=0)

    def test_metric_choice(self):
        idx_l1 = find_neighbors(self.PTS, np.array([1, 1]), 2.0, metric="l1")
        idx_linf = find_neighbors(self.PTS, np.array([1, 1]), 2.0, metric="linf")
        assert set(idx_linf.tolist()) >= set(idx_l1.tolist())

    @pytest.mark.parametrize("max_neighbors", [None, 7])
    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_lattice_ties_keep_insertion_order(self, metric, max_neighbors):
        # Integer lattice points in a small box: most distances are shared
        # by many points, so the order inside each tie is what is pinned.
        rng = np.random.default_rng(7)
        cache = SimulationCache(5)
        for point in rng.integers(0, 5, size=(300, 5)).astype(float):
            if cache.lookup(point) is None:
                cache.add(point, 0.0)
        pts = cache.points
        norms = {
            "l1": lambda diff: np.abs(diff).sum(axis=1),
            "l2": lambda diff: np.sqrt((diff * diff).sum(axis=1)),
            "linf": lambda diff: np.abs(diff).max(axis=1),
        }[metric]
        for _ in range(20):
            query = rng.integers(0, 5, size=5).astype(float)
            radius = float(rng.integers(1, 6))
            dist = norms(pts - query)
            inside = np.flatnonzero(dist <= radius)
            expected = inside[np.argsort(dist[inside], kind="stable")][:max_neighbors]
            got = find_neighbors(
                pts, query, radius, metric=metric, max_neighbors=max_neighbors
            )
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
            ties = np.diff(dist[got]) == 0
            assert np.all(np.diff(got)[ties] > 0)


class TestSimulationCache:
    def test_empty_cache(self):
        cache = SimulationCache(3)
        assert len(cache) == 0
        assert cache.points.shape == (0, 3)
        assert cache.values.shape == (0,)
        assert cache.lookup([1, 2, 3]) is None

    def test_add_and_lookup(self):
        cache = SimulationCache(2)
        cache.add([4, 5], -60.0)
        assert len(cache) == 1
        assert cache.lookup([4, 5]) == -60.0
        assert [4, 5] in cache
        assert [4, 6] not in cache

    def test_points_values_aligned(self):
        cache = SimulationCache(2)
        cache.add([1, 1], 1.0)
        cache.add([2, 2], 2.0)
        np.testing.assert_array_equal(cache.points, [[1, 1], [2, 2]])
        np.testing.assert_array_equal(cache.values, [1.0, 2.0])

    def test_duplicate_rejected(self):
        cache = SimulationCache(2)
        cache.add([1, 1], 1.0)
        with pytest.raises(ValueError, match="already simulated"):
            cache.add([1, 1], 2.0)

    def test_shape_validation(self):
        cache = SimulationCache(2)
        with pytest.raises(ValueError, match="shape"):
            cache.add([1, 2, 3], 1.0)

    def test_nonfinite_value_rejected(self):
        cache = SimulationCache(1)
        with pytest.raises(ValueError, match="finite"):
            cache.add([1], float("nan"))

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            SimulationCache(0)

    def test_int_and_float_representations_match(self):
        cache = SimulationCache(2)
        cache.add(np.array([1.0, 2.0]), 5.0)
        assert cache.lookup(np.array([1, 2])) == 5.0

    def test_non_lattice_configurations_are_distinct(self):
        """Keys are exact coordinates: no round-to-int collisions."""
        cache = SimulationCache(1)
        cache.add([0.4], 1.0)
        cache.add([0.2], 2.0)  # seed keyed both to int 0 -> false duplicate
        cache.add([0.6], 3.0)
        assert cache.lookup([0.4]) == 1.0
        assert cache.lookup([0.2]) == 2.0
        assert cache.lookup([0.6]) == 3.0
        assert cache.lookup([0.0]) is None
        assert len(cache) == 3

    def test_malformed_shapes_rejected_by_lookup(self):
        """A (1, Nv) array must not byte-collide with its (Nv,) key."""
        cache = SimulationCache(2)
        cache.add([1.0, 2.0], 5.0)
        with pytest.raises(ValueError, match="shape"):
            cache.lookup(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="shape"):
            np.array([[1.0, 2.0]]) in cache
        with pytest.raises(ValueError, match="shape"):
            cache.lookup([1.0, 2.0, 3.0])

    def test_negative_zero_folds_to_zero(self):
        cache = SimulationCache(1)
        cache.add([0.0], 7.0)
        assert cache.lookup([-0.0]) == 7.0

    def test_points_is_o1_view_and_readonly(self):
        cache = SimulationCache(2)
        for i in range(5):
            cache.add([i, i], float(i))
        pts = cache.points
        assert pts.base is not None  # a view, not a fresh vstack
        assert not pts.flags.writeable
        assert not cache.values.flags.writeable

    def test_growth_preserves_contents_and_indices(self):
        cache = SimulationCache(3)
        rows = [cache.add([i, 2 * i, 3 * i], float(i)) for i in range(200)]
        assert rows == list(range(200))
        np.testing.assert_array_equal(
            cache.points,
            np.array([[i, 2 * i, 3 * i] for i in range(200)], dtype=float),
        )
        np.testing.assert_array_equal(cache.values, np.arange(200, dtype=float))

    def test_views_survive_growth(self):
        cache = SimulationCache(1)
        cache.add([1.0], 1.0)
        old = cache.points
        for i in range(2, 300):
            cache.add([float(i)], float(i))
        # The pre-growth view still shows the rows it covered.
        np.testing.assert_array_equal(old, [[1.0]])
