"""HEVC luma motion-compensation pipeline with 23 fixed-point nodes.

The module interpolates 8x8 blocks at quarter-pel motion-vector positions
with the standard separable 8-tap DCT-IF filters: a horizontal pass over a
``15 x 15`` source region produces a ``15 x 8`` intermediate buffer, and a
vertical pass reduces it to the ``8 x 8`` prediction block.  All blocks are
filtered in one pass: the four phase filters form a ``(4, 8)`` table that is
quantized once per simulation, and each block gathers its own horizontal and
vertical taps from it by its phase, so the pipeline is one
:func:`~repro.fixedpoint.quantize.quantize` call per node whatever the mix of
motion-vector phases.

Each node reads only arrays of earlier nodes and its own word length.  The
simulator keeps a *trail*: the last simulated vector and the array after each
of its nodes.  A vector that shares its first ``k`` word lengths with the
trail starts from the array after node ``k - 1`` and runs nodes ``k … 22``
only, ``23 - k`` ``quantize`` calls; the output is bit for bit that of a full
run.  The min+1 optimizer changes one word length per step, so ``k`` is about
10 on average.  The trail is one immutable ``(tuple(w), arrays)`` pair,
replaced in one assignment, whose arrays are never written again (about
1.1 MB on 64 blocks); results are fresh arrays.

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


_INPUT, _H_COEFF, _H_MAC, _H_OUT, _BUFFER, _V_COEFF, _V_MAC, _V_OUT, _OUTPUT = (
    0, 1, 2, 10, 11, 12, 13, 21, 22
)
#: ``(integer_bits, signed)`` of every node's fixed-point format.
_NODE_FORMATS = (
    [(0, False), (0, True)]
    + [(1, True)] * (N_TAPS + 2)  # h_mac0 … h_mac7, h_out, buffer
    + [(0, True)]
    + [(1, True)] * (N_TAPS + 1)  # v_mac0 … v_mac7, v_out
    + [(0, False)]
)


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
        self._reference = np.clip(self._extend(None, [])[_OUTPUT], 0.0, 1.0)
        # The last simulated vector and the arrays after each of its nodes,
        # replaced whole and never written, so concurrent calls stay exact.
        self._trail: tuple[tuple[int, ...], tuple[np.ndarray, ...]] = ((), ())

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

    def _extend(self, word_lengths: tuple[int, ...] | None, states: list) -> list:
        """Append to ``states``, the arrays after nodes ``0 … k-1``, those after ``k … 22``.

        Node ``i`` reads only arrays of earlier nodes and ``word_lengths[i]``;
        nodes are quantized when ``word_lengths`` is given.  All blocks go
        through one pass: each block's taps are gathered from the quantized
        filter table by its phase and broadcast over its region, so a
        block's result is bit for bit that of filtering it alone.  The last
        array is the unclipped ``(n_blocks, 8, 8)`` output.
        """

        def q(node: int, values: np.ndarray) -> np.ndarray:
            if word_lengths is None:
                return values
            integer_bits, signed = _NODE_FORMATS[node]
            return quantize(values, self._fmt(word_lengths[node], integer_bits, signed=signed))

        window = np.lib.stride_tricks.sliding_window_view
        phases = self.workload.phases
        h_windows = v_windows = None
        for node in range(len(states), self.NUM_VARIABLES):
            if node == _INPUT:
                state = q(node, self._regions)
            elif node == _H_COEFF:
                state = q(node, _TAPS)[phases[:, 1], None, None, :]  # (n, 1, 1, 8)
            elif node < _H_OUT:  # horizontal pass: (n, 15, 15) -> (n, 15, 8)
                if h_windows is None:
                    h_windows = window(states[_INPUT], N_TAPS, axis=2)
                k = node - _H_MAC
                acc = states[-1] if k else np.zeros(h_windows.shape[:3])
                state = q(node, acc + states[_H_COEFF][..., k] * h_windows[..., k])
            elif node == _V_COEFF:
                state = q(node, _TAPS)[phases[:, 0], None, None, :]
            elif _V_MAC <= node < _V_OUT:  # vertical pass: (n, 15, 8) -> (n, 8, 8)
                if v_windows is None:
                    v_windows = window(states[_BUFFER], N_TAPS, axis=1)
                k = node - _V_MAC
                acc = states[-1] if k else np.zeros(v_windows.shape[:3])
                state = q(node, acc + states[_V_COEFF][..., k] * v_windows[..., k])
            else:  # h_out, buffer, v_out, output: round the node before
                state = q(node, states[-1])
            states.append(state)
        return states

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
        # Resume after the longest prefix shared with the last vector: every
        # node before it saw the same inputs and word lengths.
        key = tuple(w.tolist())
        last, states = self._trail
        shared = 0
        while shared < len(last) and key[shared] == last[shared]:
            shared += 1
        states = self._extend(key, list(states[:shared]))
        for state in states[shared:]:
            state.flags.writeable = False
        self._trail = (key, tuple(states))
        return np.clip(states[_OUTPUT], 0.0, 1.0)

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
