"""Unit tests for repro.experiments.reporting and small experiment helpers."""

import numpy as np
import pytest

from repro.experiments.figure1 import surface_is_monotone
from repro.experiments.replay import MetricKind, ReplayStats, replay_trajectory
from repro.experiments.reporting import (
    format_neighbor_distribution,
    format_row,
    format_table1,
)
from repro.experiments.table1 import Table1Row
from repro.experiments.timing import SpeedupProjection


def make_row(**overrides):
    defaults = dict(
        benchmark="fft",
        metric_label="Noise Power",
        nv=10,
        distance=3.0,
        p_percent=78.31,
        mean_neighbors=2.12,
        max_error=2.35,
        mean_error=0.26,
        n_configs=272,
        metric_kind=MetricKind.NOISE_POWER_DB,
    )
    defaults.update(overrides)
    return Table1Row(**defaults)


class TestFormatRow:
    def test_noise_power_row(self):
        text = format_row(make_row())
        assert "fft" in text
        assert "78.31" in text
        assert "0.26" in text

    def test_rate_row_percent_format(self):
        row = make_row(
            benchmark="squeezenet",
            metric_label="Classification rate",
            metric_kind=MetricKind.RATE,
            max_error=0.0619,
            mean_error=0.0146,
        )
        text = format_row(row)
        assert "6.19%" in text
        assert "1.46%" in text

    def test_nan_errors_render_dash(self):
        row = make_row(max_error=float("nan"), mean_error=float("nan"))
        text = format_row(row)
        assert text.count("-") >= 2


class TestFormatTable:
    def test_header_and_grouping(self):
        rows = [
            make_row(distance=2.0),
            make_row(distance=3.0),
            make_row(benchmark="iir", nv=5, distance=2.0),
        ]
        text = format_table1(rows)
        lines = text.splitlines()
        assert "p(%)" in lines[0]
        assert "" in lines  # blank separator between benchmarks

    def test_empty_table(self):
        text = format_table1([])
        assert "p(%)" in text


class TestSurfaceMonotone:
    def test_monotone_surface(self):
        surface = -np.add.outer(np.arange(5), np.arange(5)).astype(float)
        assert surface_is_monotone(surface)

    def test_non_monotone_surface(self):
        surface = -np.add.outer(np.arange(5), np.arange(5)).astype(float)
        surface[2, 2] = 10.0
        assert not surface_is_monotone(surface)

    def test_tolerance_absorbs_ripple(self):
        surface = -np.add.outer(np.arange(5), np.arange(5)).astype(float)
        surface[2, 2] += 0.5
        assert surface_is_monotone(surface, tolerance_db=1.0)


class TestNeighborDistribution:
    def _stats(self, **overrides):
        defaults = dict(
            benchmark="fir",
            metric_kind=MetricKind.NOISE_POWER_DB,
            distance=3.0,
            nn_min=1,
            n_configs=40,
            n_interpolated=25,
            n_simulated=15,
            mean_neighbors=2.4,
            errors=np.zeros(25),
            neighbor_quantiles=((0.25, 2.0), (0.5, 2.0), (0.9, 4.0)),
        )
        defaults.update(overrides)
        return ReplayStats(**defaults)

    def test_renders_quantiles_from_sketch(self):
        line = format_neighbor_distribution(self._stats())
        assert "fir" in line
        assert "j_mean= 2.40" in line
        assert "p25= 2.00" in line and "p90= 4.00" in line

    def test_no_interpolations_placeholder(self):
        stats = self._stats(
            n_interpolated=0, errors=np.zeros(0), neighbor_quantiles=()
        )
        assert "no interpolations" in format_neighbor_distribution(stats)

    def test_replay_fills_quantiles(self):
        """End to end: the replay's sketch feeds the distribution renderer."""
        rng = np.random.default_rng(2)
        configs = rng.integers(2, 8, size=(60, 2))
        configs = np.unique(configs, axis=0)
        values = configs.astype(float) @ np.array([-2.0, -1.0])
        stats = replay_trajectory(configs, values, distance=4, variogram="linear")
        assert stats.n_interpolated > 0
        assert stats.neighbor_quantiles
        assert stats.neighbor_quantile(0.5) >= 1.0
        assert np.isnan(stats.neighbor_quantile(0.123))
        line = format_neighbor_distribution(stats)
        assert "p50=" in line


class TestSpeedupEdgeCases:
    def test_full_interpolation_infinite_ideal(self):
        proj = SpeedupProjection(
            benchmark="x", p_fraction=1.0, t_simulation=1.0, t_kriging=0.0
        )
        assert proj.ideal_speedup == float("inf")
        assert proj.speedup == float("inf")

    def test_no_interpolation_no_speedup(self):
        proj = SpeedupProjection(
            benchmark="x", p_fraction=0.0, t_simulation=1.0, t_kriging=1e-6
        )
        assert proj.speedup == pytest.approx(1.0)


class TestSolvePhases:
    def _stats(self, **overrides):
        defaults = dict(
            benchmark="fir",
            metric_kind=MetricKind.NOISE_POWER_DB,
            distance=3.0,
            nn_min=1,
            n_configs=40,
            n_interpolated=25,
            n_simulated=15,
            mean_neighbors=2.4,
            errors=np.zeros(25),
            solve_phases=(
                ("assembly_seconds", 0.6),
                ("factorize_seconds", 0.3),
                ("backsolve_seconds", 0.1),
                ("n_flushes", 12.0),
            ),
        )
        defaults.update(overrides)
        return ReplayStats(**defaults)

    def test_renders_split_with_shares(self):
        from repro.experiments.reporting import format_solve_phases

        line = format_solve_phases(self._stats())
        assert "assembly=0.600s" in line
        assert "60.0%" in line
        assert "factorize=0.300s" in line
        assert "backsolve=0.100s" in line
        assert "flushes=12" in line

    def test_no_flushes_placeholder(self):
        from repro.experiments.reporting import format_solve_phases

        assert "n/a" in format_solve_phases(self._stats(solve_phases=()))

    def test_accessor_defaults_to_zero(self):
        stats = self._stats()
        assert stats.solve_phase("assembly_seconds") == pytest.approx(0.6)
        assert stats.solve_phase("no_such_phase") == 0.0

    def test_replay_surfaces_solve_phase_split(self):
        """End to end: the estimator's per-flush phase split reaches
        ReplayStats whenever the replay interpolates anything."""
        rng = np.random.default_rng(6)
        configs = np.unique(rng.integers(2, 8, size=(60, 2)), axis=0)
        values = configs.astype(float) @ np.array([-2.0, -1.0])
        stats = replay_trajectory(
            configs, values, distance=4, variogram="exponential"
        )
        assert stats.n_interpolated > 0
        phases = dict(stats.solve_phases)
        assert phases["n_flushes"] >= 1.0
        assert (
            phases["assembly_seconds"]
            + phases["factorize_seconds"]
            + phases["backsolve_seconds"]
        ) > 0.0


class TestIdentification:
    def test_renders_fit_share_next_to_solves(self):
        from repro.experiments.reporting import format_identification

        stats = TestSolvePhases()._stats(
            n_fits=14, variogram_seconds=0.5, fit_seconds=3.5
        )
        line = format_identification(stats)
        assert "fits=14" in line
        # Shares are of identification plus the 1.0 s of solve phases.
        assert "variogram=0.500s (10.0%)" in line
        assert "fit=3.500s (70.0%)" in line

    def test_no_fits_placeholder(self):
        from repro.experiments.reporting import format_identification

        assert "n/a" in format_identification(TestSolvePhases()._stats())

    def test_replay_surfaces_identification_cost(self):
        rng = np.random.default_rng(6)
        configs = np.unique(rng.integers(2, 8, size=(60, 2)), axis=0)
        values = configs.astype(float) @ np.array([-2.0, -1.0])
        stats = replay_trajectory(configs, values, distance=4, variogram="auto")
        assert stats.n_fits >= 1
        assert stats.fit_seconds > 0.0
