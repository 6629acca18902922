"""Named estimator sessions and their versioned snapshot files.

A session is one long-lived :class:`~repro.core.estimator.KrigingEstimator`
— simulation cache, variogram and statistics — shared by every client that
names it.  Sessions are what make the service pay: parallel design-space
searches over the same application share one support cache, so each
client's simulations become every other client's interpolation
neighbours.

Snapshots serialize a session to a single ``.npz`` file: a versioned JSON
manifest (configuration, fitted variogram, statistics including the
quantile-sketch markers) plus the cache arrays stored as raw float64 — so a
restore reproduces decisions and cache contents **bit for bit**.  The
simulate callable does not serialize; it is rebuilt from the session's
JSON *simulator spec* (:func:`make_simulator`), which is stored in the
manifest.

Files are written as format version 2; versions 1 and 2 both load.  Older
version-2 files may carry a factor-cache section (``factor{i}_*`` NPZ
members and a ``factor_section`` manifest key): readers ignore it, and every
restored session starts with a cold factor cache.

Simulator specs
---------------

``{"kind": "linear", "coefficients": [...], "offset": o}``
    ``value = config @ coefficients + offset`` (coefficients cycle over the
    dimension when shorter) — the load generator's smooth field.
``{"kind": "quadratic", "center": [...], "scale": s, "offset": o}``
    ``value = offset + scale * ||config - center||^2`` — a curved field for
    exercising non-linear variograms.
``{"kind": "benchmark", "name": "fir", "scale": "small"}``
    The real thing: ``problem.simulate`` of a registry benchmark
    (FIR/IIR/FFT/DCT/HEVC/SqueezeNet word-length or sensitivity problems).
    ``num_variables`` is taken from the problem.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import re
from typing import Callable, Sequence

import numpy as np

from repro.core.estimator import EstimationOutcome, KrigingEstimator
from repro.service.batcher import MicroBatcher
from repro.service.protocol import Deadline

__all__ = [
    "SNAPSHOT_VERSION",
    "EstimatorSession",
    "make_simulator",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_VERSION = 2

#: Snapshot versions this build can read.
_READABLE_VERSIONS = (1, 2)

#: Session (and snapshot) names must be filesystem- and protocol-safe
#: (matched with fullmatch: unlike ``$``, it rejects trailing newlines).
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")

SimulateFn = Callable[[np.ndarray], float]


def check_name(name: object) -> str:
    """Validate a session/snapshot name (no separators, no traversal)."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(
            f"invalid name {name!r}: expected [A-Za-z0-9._-]+ starting with an "
            "alphanumeric, at most 128 characters"
        )
    return name


# ---------------------------------------------------------------------------
# simulator registry
# ---------------------------------------------------------------------------
def _linear_simulator(num_variables: int, spec: dict) -> SimulateFn:
    coefficients = np.resize(
        np.asarray(spec.get("coefficients", [1.0]), dtype=np.float64), num_variables
    )
    offset = float(spec.get("offset", 0.0))

    def simulate(config: np.ndarray) -> float:
        return float(np.asarray(config, dtype=np.float64) @ coefficients + offset)

    return simulate


def _quadratic_simulator(num_variables: int, spec: dict) -> SimulateFn:
    center = np.resize(
        np.asarray(spec.get("center", [0.0]), dtype=np.float64), num_variables
    )
    scale = float(spec.get("scale", 1.0))
    offset = float(spec.get("offset", 0.0))

    def simulate(config: np.ndarray) -> float:
        delta = np.asarray(config, dtype=np.float64) - center
        return float(offset + scale * (delta @ delta))

    return simulate


def make_simulator(spec: dict, num_variables: int | None = None) -> tuple[SimulateFn, int]:
    """Build a simulate callable from a JSON spec.

    Returns ``(simulate, num_variables)`` — benchmark simulators define
    their own dimension; analytic kinds require ``num_variables``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"simulator spec must be an object with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "benchmark":
        # Imported lazily: the registry pulls in every benchmark substrate.
        from repro.experiments.registry import build_benchmark

        setup = build_benchmark(spec.get("name", "fir"), spec.get("scale", "small"))
        return setup.problem.simulate, setup.problem.num_variables
    if num_variables is None:
        raise ValueError(f"simulator kind {kind!r} requires num_variables")
    if kind == "linear":
        return _linear_simulator(num_variables, spec), num_variables
    if kind == "quadratic":
        return _quadratic_simulator(num_variables, spec), num_variables
    raise ValueError(
        f"unknown simulator kind {kind!r}; expected 'linear', 'quadratic' or 'benchmark'"
    )


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------
def save_snapshot(path: object, state: dict) -> pathlib.Path:
    """Write a session state to ``path`` as a single ``.npz`` file.

    The cache arrays travel as raw float64 NPZ members (bitwise); the rest
    of the state is a JSON manifest embedded as a uint8 member.  ``.npz``
    is appended when missing (numpy's convention).
    """
    state = dict(state)
    estimator = dict(state["estimator"])
    cache = dict(estimator["cache"])
    points = np.ascontiguousarray(cache.pop("points"), dtype=np.float64)
    values = np.ascontiguousarray(cache.pop("values"), dtype=np.float64)
    estimator["cache"] = cache
    state["estimator"] = estimator
    manifest = json.dumps({"snapshot_version": SNAPSHOT_VERSION, **state})
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        manifest=np.frombuffer(manifest.encode(), dtype=np.uint8),
        cache_points=points,
        cache_values=values,
    )
    return path


def load_snapshot(path: object) -> dict:
    """Read a :func:`save_snapshot` file back into a session state dict."""
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        try:
            manifest = bytes(archive["manifest"].tobytes()).decode()
            state = json.loads(manifest)
            points = np.ascontiguousarray(archive["cache_points"], dtype=np.float64)
            values = np.ascontiguousarray(archive["cache_values"], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(f"{path} is not a session snapshot: missing {exc}") from exc
        version = state.get("snapshot_version")
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported snapshot version {version!r} in {path}")
    # Factor-cache keys of older files are dropped: the cache restores cold.
    for key in ("factor_section", "factor_cache"):
        state["estimator"].pop(key, None)
    state["estimator"]["cache"]["points"] = points
    state["estimator"]["cache"]["values"] = values
    return state


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------
class EstimatorSession:
    """One named, long-lived estimator shared by many clients.

    Wraps the estimator with the pieces the server needs per session: the
    asyncio write lock serializing every mutation (micro-batch flushes,
    direct simulations, refits, restores), the
    :class:`~repro.service.batcher.MicroBatcher` coalescing concurrent
    evaluations, and snapshot/restore.

    Direct (non-asyncio) use is fine too — tests and the snapshot tooling
    call :meth:`evaluate_batch` / :meth:`snapshot` synchronously.
    """

    def __init__(
        self,
        name: str,
        estimator: KrigingEstimator,
        simulator_spec: dict,
        *,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        tracer: object | None = None,
        queue_wait_hist: object | None = None,
        flush_wait_hist: object | None = None,
    ) -> None:
        self.name = check_name(name)
        self.estimator = estimator
        self.simulator_spec = dict(simulator_spec)
        self.lock = asyncio.Lock()
        #: Requests shed at the dispatch door because their deadline had
        #: already expired (the batcher counts its own flush-time sheds).
        self.deadline_misses = 0
        # Observability rides along but never into snapshots: to_state()
        # must stay byte-identical with tracing on or off.
        self.batcher = MicroBatcher(
            self.evaluate_batch,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            lock=self.lock,
            tracer=tracer,
            phase_totals=self.solve_phase_totals,
            queue_wait_hist=queue_wait_hist,
            flush_wait_hist=flush_wait_hist,
        )

    # -- query paths ----------------------------------------------------
    def evaluate_batch(self, configs: Sequence[object]) -> list[EstimationOutcome]:
        """Synchronous batch evaluation (the batcher's flush function)."""
        return self.estimator.evaluate_batch(np.asarray(configs, dtype=np.float64))

    async def evaluate(
        self,
        config: object,
        deadline: Deadline | None = None,
        *,
        span: object | None = None,
        waits: dict | None = None,
    ) -> EstimationOutcome:
        """One query through the micro-batcher (coalesces across clients).

        ``span``/``waits`` forward to :meth:`MicroBatcher.submit`: the
        request's dispatch span when traced, and an optional sink for its
        measured queue/flush waits.
        """
        return await self.batcher.submit(config, deadline, span=span, waits=waits)

    def solve_phase_totals(self) -> tuple[float, float, float]:
        """Cumulative assembly/factorize/backsolve seconds (the batcher
        takes before/after deltas around each flush to synthesize
        solve-phase spans)."""
        solve = self.estimator.stats.solve
        return (
            solve.assembly_seconds,
            solve.factorize_seconds,
            solve.backsolve_seconds,
        )

    def simulate(self, config: object, value: float | None = None) -> EstimationOutcome:
        """Force a simulation — or record a client-measured ``value``."""
        if value is None:
            return self.estimator.force_simulate(config)
        return self.estimator.record_measurement(config, value)

    def refit(self) -> dict:
        """Force a variogram re-identification; returns a description."""
        model = self.estimator.refit_variogram()
        described: object = None
        to_state = getattr(model, "to_state", None)
        if callable(to_state):
            described = to_state()
        return {"model": described if described is not None else repr(model)}

    def stats(self) -> dict:
        """JSON-safe statistics: estimator counters plus batcher coalescing."""
        stats = self.estimator.stats
        return {
            "session": self.name,
            "num_variables": self.estimator.cache.num_variables,
            "cache_size": len(self.estimator.cache),
            "n_simulated": stats.n_simulated,
            "n_interpolated": stats.n_interpolated,
            "n_exact_hits": stats.n_exact_hits,
            "interpolated_fraction": stats.interpolated_fraction,
            "neighbor_sketch": stats.neighbor_sketch.summary(),
            "factor": dict(stats.factor.as_pairs()),
            "deadline_misses": self.deadline_misses
            + self.batcher.stats.deadline_misses,
            "batcher": self.batcher.stats.summary(),
        }

    # -- snapshot / restore ---------------------------------------------
    def to_state(self) -> dict:
        """Session state (estimator state plus name and simulator spec)."""
        return {
            "name": self.name,
            "simulator": self.simulator_spec,
            "estimator": self.estimator.to_state(),
        }

    def snapshot(self, path: object) -> pathlib.Path:
        """Write this session to a snapshot file (see :func:`save_snapshot`).

        Callers on the event loop must drain the batcher and hold the
        session lock around this (the server's ``snapshot`` verb does), so
        a snapshot never lands mid-batch.
        """
        return save_snapshot(path, self.to_state())

    @classmethod
    def from_state(
        cls,
        state: dict,
        *,
        name: str | None = None,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        tracer: object | None = None,
        queue_wait_hist: object | None = None,
        flush_wait_hist: object | None = None,
        **overrides: object,
    ) -> "EstimatorSession":
        """Rebuild a session from a state dict (``name`` optionally renames).

        The simulate callable is rebuilt from the stored simulator spec;
        ``overrides`` forward to
        :meth:`~repro.core.estimator.KrigingEstimator.from_state`.
        """
        spec = state["simulator"]
        num_variables = int(state["estimator"]["cache"]["num_variables"])
        simulate, spec_nv = make_simulator(spec, num_variables)
        if spec_nv != num_variables:
            raise ValueError(
                f"simulator dimension {spec_nv} != snapshot dimension {num_variables}"
            )
        estimator = KrigingEstimator.from_state(simulate, state["estimator"], **overrides)
        return cls(
            name if name is not None else state["name"],
            estimator,
            spec,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            tracer=tracer,
            queue_wait_hist=queue_wait_hist,
            flush_wait_hist=flush_wait_hist,
        )

    @classmethod
    def restore(cls, path: object, **kwargs: object) -> "EstimatorSession":
        """Load a snapshot file into a fresh session."""
        return cls.from_state(load_snapshot(path), **kwargs)
