"""HEVC luma motion-compensation pipeline with 23 fixed-point nodes.

The module interpolates 8x8 blocks at quarter-pel motion-vector positions
with the standard separable 8-tap DCT-IF filters: a horizontal pass over a
``15 x 15`` source region produces a ``15 x 8`` intermediate buffer, and a
vertical pass reduces it to the ``8 x 8`` prediction block.  All blocks are
filtered in one pass: the four phase filters form a ``(4, 8)`` table that is
quantized once per simulation, and each block gathers its own horizontal and
vertical taps from it by its phase, so a simulation makes one
:func:`~repro.fixedpoint.quantize.quantize` call per node (23) whatever the
mix of motion-vector phases.

The 23 optimizable word-length variables (``Nv = 23`` in the paper's Table I)
are the quantization nodes of that pipeline:

====  =======================  ==========================================
idx   name                     role
====  =======================  ==========================================
0     ``input``                pixel read precision
1     ``h_coeff``              horizontal filter coefficients
2-9   ``h_mac0`` … ``h_mac7``  horizontal MAC-chain partial sums
10    ``h_out``                horizontal filter output rounding
11    ``buffer``               intermediate (row buffer) precision
12    ``v_coeff``              vertical filter coefficients
13-20 ``v_mac0`` … ``v_mac7``  vertical MAC-chain partial sums
21    ``v_out``                vertical filter output rounding
22    ``output``               final prediction register
====  =======================  ==========================================
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise import noise_power_db
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.utils.validation import check_integer_vector
from repro.video.blocks import BlockWorkload
from repro.video.filters import HEVC_LUMA_FILTERS, N_TAPS

__all__ = ["MotionCompensationBenchmark"]

BLOCK_SIZE = 8
_REGION = BLOCK_SIZE + N_TAPS - 1  # 15: pixels needed per dimension
_TAPS = np.stack([HEVC_LUMA_FILTERS[phase] for phase in range(4)])  # (4, 8), row = phase


def _node_names() -> tuple[str, ...]:
    names = ["input", "h_coeff"]
    names += [f"h_mac{k}" for k in range(N_TAPS)]
    names += ["h_out", "buffer", "v_coeff"]
    names += [f"v_mac{k}" for k in range(N_TAPS)]
    names += ["v_out", "output"]
    return tuple(names)


_NODE_INDEX = {name: i for i, name in enumerate(_node_names())}


class MotionCompensationBenchmark:
    """Fixed-point HEVC luma interpolator over a block workload.

    Parameters
    ----------
    workload:
        The :class:`~repro.video.blocks.BlockWorkload` to interpolate; a
        default 64-block workload is generated when omitted.
    seed:
        Seed for the default workload.
    """

    NUM_VARIABLES = 23
    VARIABLE_NAMES = _node_names()

    def __init__(self, *, workload: BlockWorkload | None = None, seed: int = 3) -> None:
        self.workload = workload if workload is not None else BlockWorkload.generate(seed=seed)
        self._regions = self._gather_regions()
        self._reference = self._run(None)

    # ------------------------------------------------------------------
    # workload preparation
    # ------------------------------------------------------------------
    def _gather_regions(self) -> np.ndarray:
        """Copy the ``(n, 15, 15)`` source region of every block out of the frame."""
        wl = self.workload
        windows = np.lib.stride_tricks.sliding_window_view(wl.frame, (_REGION, _REGION))
        corners = wl.positions - (N_TAPS // 2 - 1)  # 3 taps left of / above the sample
        return windows[corners[:, 0], corners[:, 1]]

    # ------------------------------------------------------------------
    # fixed-point helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _fmt(word_length: int, integer_bits: int, *, signed: bool = True) -> QFormat:
        return QFormat(
            integer_bits=integer_bits,
            frac_bits=int(word_length) - int(signed) - integer_bits,
            signed=signed,
        )

    def _run(self, word_lengths: np.ndarray | None) -> np.ndarray:
        """Interpolate every block; quantize pipeline nodes when ``word_lengths`` given.

        All blocks go through one pass: each block's taps are gathered from
        the quantized filter table by its phase and broadcast over its
        region, so a block's result is bit for bit that of filtering it alone.

        Returns an ``(n_blocks, 8, 8)`` array of prediction blocks.
        """

        def q(values: np.ndarray, node: str, integer_bits: int, signed: bool = True) -> np.ndarray:
            if word_lengths is None:
                return values
            fmt = self._fmt(word_lengths[_NODE_INDEX[node]], integer_bits, signed=signed)
            return quantize(values, fmt)

        phases = self.workload.phases
        h_taps = q(_TAPS, "h_coeff", 0)[phases[:, 1], None, None, :]  # (n, 1, 1, 8)
        v_taps = q(_TAPS, "v_coeff", 0)[phases[:, 0], None, None, :]

        # Horizontal pass: (n, 15, 15) -> (n, 15, 8).
        regions = q(self._regions, "input", 0, signed=False)
        windows = np.lib.stride_tricks.sliding_window_view(regions, N_TAPS, axis=2)
        acc = np.zeros(windows.shape[:3])
        for k in range(N_TAPS):
            acc = q(acc + h_taps[..., k] * windows[..., k], f"h_mac{k}", 1)
        intermediate = q(q(acc, "h_out", 1), "buffer", 1)

        # Vertical pass: (n, 15, 8) -> (n, 8, 8).
        windows = np.lib.stride_tricks.sliding_window_view(intermediate, N_TAPS, axis=1)
        acc = np.zeros(windows.shape[:3])
        for k in range(N_TAPS):
            acc = q(acc + v_taps[..., k] * windows[..., k], f"v_mac{k}", 1)
        blocks = q(q(acc, "v_out", 1), "output", 0, signed=False)
        return np.clip(blocks, 0.0, 1.0, out=blocks)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def reference(self) -> np.ndarray:
        """Double-precision prediction blocks (the baseline)."""
        return self._reference

    def simulate(self, word_lengths: object) -> np.ndarray:
        """Bit-accurate fixed-point prediction blocks for the 23-vector ``w``."""
        w = check_integer_vector("word_lengths", word_lengths, minimum=1)
        if w.size != self.NUM_VARIABLES:
            raise ValueError(f"expected {self.NUM_VARIABLES} word-lengths, got {w.size}")
        return self._run(w)

    def noise_power_db(self, word_lengths: object) -> float:
        """Output noise power (dB) — the quality metric of the HEVC rows."""
        return noise_power_db(self.simulate(word_lengths), self._reference)

    def psnr_db(self, word_lengths: object) -> float:
        """PSNR (dB) of the fixed-point predictions against the reference.

        A Quality-of-Service metric in the video-coding sense (peak signal
        1.0 for the normalized pixel range).  Demonstrates the paper's
        metric-genericity claim: the same kriging policy applies to this
        higher-is-better metric unchanged.
        """
        return -noise_power_db(self.simulate(word_lengths), self._reference)
