"""Unit tests for the HEVC motion-compensation benchmark (repro.video)."""

import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.registry import build_hevc
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.video.blocks import BlockWorkload, synthetic_frame
from repro.video.filters import HEVC_LUMA_FILTERS, N_TAPS, luma_filter
from repro.video.motion_comp import MotionCompensationBenchmark

GOLDEN = Path(__file__).parent / "data" / "hevc_golden.json"


@pytest.fixture(scope="module")
def mc():
    workload = BlockWorkload.generate(n_blocks=12, seed=3)
    return MotionCompensationBenchmark(workload=workload)


class TestFilters:
    def test_four_phases(self):
        assert set(HEVC_LUMA_FILTERS) == {0, 1, 2, 3}

    def test_unit_dc_gain(self):
        for phase, taps in HEVC_LUMA_FILTERS.items():
            assert np.sum(taps) == pytest.approx(1.0), f"phase {phase}"

    def test_phase0_is_identity(self):
        taps = luma_filter(0)
        assert taps[3] == 1.0
        assert np.count_nonzero(taps) == 1

    def test_half_pel_symmetric(self):
        taps = luma_filter(2)
        np.testing.assert_allclose(taps, taps[::-1])

    def test_quarter_and_three_quarter_mirrored(self):
        q1 = luma_filter(1)
        q3 = luma_filter(3)
        np.testing.assert_allclose(q1, q3[::-1])

    def test_standard_coefficients(self):
        np.testing.assert_allclose(
            luma_filter(2) * 64, [-1, 4, -11, 40, 40, -11, 4, -1]
        )

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            luma_filter(4)

    def test_returns_copy(self):
        taps = luma_filter(1)
        taps[0] = 99.0
        assert luma_filter(1)[0] != 99.0


class TestWorkload:
    def test_frame_in_range(self):
        frame = synthetic_frame(64, 64, seed=0)
        assert frame.min() >= 0.0
        assert frame.max() < 1.0

    def test_frame_too_small_rejected(self):
        with pytest.raises(ValueError):
            synthetic_frame(8, 64)

    def test_workload_shapes(self):
        wl = BlockWorkload.generate(n_blocks=10, seed=1)
        assert wl.positions.shape == (10, 2)
        assert wl.phases.shape == (10, 2)
        assert wl.n_blocks == 10

    def test_no_integer_motion_vectors(self):
        wl = BlockWorkload.generate(n_blocks=50, seed=2)
        assert np.all((wl.phases[:, 0] != 0) | (wl.phases[:, 1] != 0))

    def test_margins_respected(self):
        wl = BlockWorkload.generate(n_blocks=50, seed=4)
        assert np.all(wl.positions >= N_TAPS)

    def test_deterministic(self):
        a = BlockWorkload.generate(n_blocks=5, seed=9)
        b = BlockWorkload.generate(n_blocks=5, seed=9)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.frame, b.frame)


class TestBenchmark:
    def test_nv_is_23(self, mc):
        assert mc.NUM_VARIABLES == 23
        assert len(mc.VARIABLE_NAMES) == 23

    def test_reference_shape(self, mc):
        assert mc.reference().shape == (12, 8, 8)

    def test_high_precision_converges(self, mc):
        out = mc.simulate([26] * 23)
        assert np.max(np.abs(out - mc.reference())) < 1e-4

    def test_monotone_improvement(self, mc):
        assert mc.noise_power_db([8] * 23) > mc.noise_power_db([14] * 23) + 20

    def test_separable_interpolation_against_direct(self, mc):
        """Reference output equals direct 2-D separable filtering."""
        wl = mc.workload
        idx = 0
        r, c = wl.positions[idx]
        pv, ph = int(wl.phases[idx, 0]), int(wl.phases[idx, 1])
        h = HEVC_LUMA_FILTERS[ph]
        v = HEVC_LUMA_FILTERS[pv]
        expected = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                patch = wl.frame[r + i - 3 : r + i + 5, c + j - 3 : c + j + 5]
                expected[i, j] = v @ (patch @ h)
        np.testing.assert_allclose(
            mc.reference()[idx], np.clip(expected, 0.0, 1.0), atol=1e-10
        )

    def test_wrong_length_rejected(self, mc):
        with pytest.raises(ValueError, match="expected 23"):
            mc.simulate([8] * 22)

    def test_output_in_pixel_range(self, mc):
        out = mc.simulate([10] * 23)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_deterministic(self, mc):
        w = list(range(8, 31))
        np.testing.assert_array_equal(mc.simulate(w), mc.simulate(w))


def _per_group_oracle(bench, word_lengths):
    """The simulator as one pass per (vertical, horizontal) phase group.

    An independent statement of the pipeline: regions are copied block by
    block, blocks sharing a phase pair are filtered together with that
    pair's scalar taps, and every node is quantized per group.
    """
    wl = bench.workload
    regions = np.empty((wl.n_blocks, 15, 15))
    for i, (r, c) in enumerate(wl.positions):
        regions[i] = wl.frame[r - 3 : r + 12, c - 3 : c + 12]
    groups = {}
    for i, (pv, ph) in enumerate(wl.phases):
        groups.setdefault((int(pv), int(ph)), []).append(i)

    def q(values, node, integer_bits, signed=True):
        if word_lengths is None:
            return values
        w = int(word_lengths[bench.VARIABLE_NAMES.index(node)])
        return quantize(values, QFormat(integer_bits, w - int(signed) - integer_bits, signed))

    out = np.empty((wl.n_blocks, 8, 8))
    for (pv, ph), indices in groups.items():
        data = q(regions[indices], "input", 0, signed=False)
        h_taps = q(HEVC_LUMA_FILTERS[ph], "h_coeff", 0)
        v_taps = q(HEVC_LUMA_FILTERS[pv], "v_coeff", 0)
        windows = np.lib.stride_tricks.sliding_window_view(data, N_TAPS, axis=2)
        acc = np.zeros(windows.shape[:3])
        for k in range(N_TAPS):
            acc = q(acc + h_taps[k] * windows[..., k], f"h_mac{k}", 1)
        intermediate = q(q(acc, "h_out", 1), "buffer", 1)
        windows = np.lib.stride_tricks.sliding_window_view(intermediate, N_TAPS, axis=1)
        acc = np.zeros(windows.shape[:3])
        for k in range(N_TAPS):
            acc = q(acc + v_taps[k] * windows[..., k], f"v_mac{k}", 1)
        out[indices] = np.clip(q(q(acc, "v_out", 1), "output", 0, signed=False), 0.0, 1.0)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestOnePassKernel:
    """The one-pass simulator against the per-phase-group oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def all_phases(self):
        pairs = [p for p in itertools.product(range(4), repeat=2) if p != (0, 0)]
        base = BlockWorkload.generate(n_blocks=2 * len(pairs), seed=11)
        workload = BlockWorkload(
            frame=base.frame, positions=base.positions, phases=np.array(pairs * 2)
        )
        return MotionCompensationBenchmark(workload=workload)

    def test_workload_covers_every_fractional_phase_pair(self, all_phases):
        pairs = {tuple(p) for p in all_phases.workload.phases.tolist()}
        assert len(pairs) == 15 and (0, 0) not in pairs

    def test_reference_matches_oracle(self, all_phases):
        assert _same_bits(all_phases.reference(), _per_group_oracle(all_phases, None))

    def test_random_word_lengths_match_oracle(self, all_phases):
        rng = np.random.default_rng(7)
        for w in rng.integers(4, 21, size=(40, 23)):
            assert _same_bits(all_phases.simulate(w), _per_group_oracle(all_phases, w))

    @pytest.mark.parametrize("h_coeff, v_coeff", [(4, 12), (12, 4), (5, 20), (20, 6)])
    def test_distinct_coefficient_precisions_match_oracle(self, all_phases, h_coeff, v_coeff):
        w = np.full(23, 18)
        w[1], w[12] = h_coeff, v_coeff
        assert _same_bits(all_phases.simulate(w), _per_group_oracle(all_phases, w))

    def test_default_workload_matches_oracle(self):
        bench = build_hevc("full", seed=1).substrate
        rng = np.random.default_rng(8)
        for w in rng.integers(4, 21, size=(10, 23)):
            assert _same_bits(bench.simulate(w), _per_group_oracle(bench, w))


class TestGolden:
    """Outputs pinned bit for bit against values recorded from the per-group kernel.

    ``tests/data/hevc_golden.json`` holds ``float.hex`` of the noise power
    for 64 word-length vectors (the all-4 and all-20 corners, then 62 drawn
    uniformly from [4, 20]) and of the reference's sum, for two workloads.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("case", ["full_seed1", "small_seed3"])
    def test_noise_power_is_bit_identical(self, golden, case):
        spec = golden["cases"][case]
        bench = build_hevc(spec["scale"], seed=spec["seed"]).substrate
        assert float.hex(float(bench.reference().sum())) == spec["reference_sum"]
        got = [float.hex(bench.noise_power_db(w)) for w in golden["vectors"]]
        assert got == spec["noise_power_db"]


class TestResume:
    """A simulation restarts from the deepest node it shares with the last one."""

    @pytest.fixture()
    def bench(self):
        return MotionCompensationBenchmark(workload=BlockWorkload.generate(n_blocks=12, seed=5))

    @pytest.mark.parametrize("node", range(23))
    def test_one_node_edits_match_oracle(self, bench, node):
        base = np.random.default_rng(node).integers(6, 19, size=23)
        up, down = base.copy(), base.copy()
        up[node] += 1
        down[node] -= 2
        for w in (base, up, down, base, down):
            assert _same_bits(bench.simulate(w), _per_group_oracle(bench, w))

    def test_min_plus_one_trajectory_matches_fresh_instances(self):
        from repro.optimization.evaluator import SimulationEvaluator

        setup = build_hevc("small")
        bench = setup.substrate
        calls = []

        def simulate(w):
            value = bench.noise_power_db(w)
            calls.append((np.array(w), float.hex(value)))
            return value

        setup.run_reference_optimization(SimulationEvaluator(simulate))
        assert len(calls) > 1000
        for w, value in calls[::3]:
            fresh = MotionCompensationBenchmark(workload=bench.workload)
            assert float.hex(fresh.noise_power_db(w)) == value

    @pytest.mark.parametrize("case", ["full_seed1", "small_seed3"])
    def test_golden_vectors_forward_then_reversed(self, case):
        golden = json.loads(GOLDEN.read_text())
        spec = golden["cases"][case]
        bench = build_hevc(spec["scale"], seed=spec["seed"]).substrate
        vectors = golden["vectors"]
        got = [float.hex(bench.noise_power_db(w)) for w in vectors + vectors[::-1]]
        assert got == spec["noise_power_db"] + spec["noise_power_db"][::-1]

    def test_mutating_a_result_leaves_later_results_alone(self, bench):
        w = np.full(23, 12)
        edited = w.copy()
        edited[15] = 9
        want = _per_group_oracle(bench, w)
        first = bench.simulate(w)
        first[...] = 0.5
        again = bench.simulate(w)
        assert _same_bits(again, want)
        again[...] = 0.25
        assert _same_bits(bench.simulate(edited), _per_group_oracle(bench, edited))
        assert _same_bits(bench.simulate(w), want)

    def test_threads_get_their_own_answers(self, bench):
        rng = np.random.default_rng(12)
        base = rng.integers(6, 19, size=23)
        vectors = []
        for node in rng.integers(0, 23, size=24):
            w = base.copy()
            w[node] += 1
            vectors.append(w)
        want = [_per_group_oracle(bench, w) for w in vectors]
        barrier = threading.Barrier(4)

        def work(offset):
            barrier.wait(timeout=60)
            order = [(offset + 5 * i) % len(vectors) for i in range(3 * len(vectors))]
            return all(_same_bits(bench.simulate(vectors[i]), want[i]) for i in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert all(pool.map(work, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)

    def test_trail_holds_one_vector(self):
        bench = build_hevc("full", seed=1).substrate
        assert bench._trail == ((), ())  # the reference run leaves no trail
        rng = np.random.default_rng(2)
        for w in rng.integers(4, 21, size=(5, 23)):
            bench.simulate(w)
        last, states = bench._trail
        assert last == tuple(w.tolist())
        assert len(states) == 23
        assert sum(state.nbytes for state in states) <= 1.5e6
        assert not any(state.flags.writeable for state in states)
