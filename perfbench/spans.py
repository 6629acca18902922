"""Layer spans recorded from outside the program.

A traced run replaces the public names each layer exposes — as they are
bound in their caller, e.g. ``repro.core.estimator.select_variogram`` — with
timing wrappers, and puts the originals back afterwards.  The program itself
is not instrumented.  Spans are kept in memory as ``(id, layer, name, start,
end, parent)`` tuples; the parent is the span open on the same thread when
the call began, so the flush threads of the server each build their own
trees.  Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC``), which
is shared by every process on the host, so server spans can be cut to a
client's load window.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Iterable

#: Every layer a span can belong to, callers first.  ``workload`` is the
#: benchmark's own root span around one timed unit; its self time is the
#: part of the unit no layer accounts for (the ledger's untracked time).
LAYERS = (
    "workload",
    "optimization",
    "estimator",
    "fitting",
    "variogram",
    "neighborhood",
    "factor_cache",
    "kriging",
    "simulate",
)

_MISSING = object()


class SpanRecorder:
    """Thread-safe in-memory span and counter sink."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self.instances: list[object] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, layer, name, start, end, parent))

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        return traced

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def tally(self, counter: str, fn: Callable, amount: Callable) -> Callable:
        """``fn`` with ``amount(args, result)`` added to ``counter`` per call."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(counter, amount(args, result))
            return result

        return counted

    def registering(self, init: Callable) -> Callable:
        """A constructor that also keeps every instance it builds."""

        @functools.wraps(init)
        def register(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            with self._lock:
                self.instances.append(instance)

        return register

    def to_json(self) -> dict:
        with self._lock:
            return {
                "spans": [list(span) for span in self.spans],
                "counters": dict(self.counters),
            }


class Patcher:
    """Replaces attributes and restores them exactly, in reverse order.

    An attribute that was inherited or provided lazily (absent from the
    owner's ``__dict__``) is deleted again on restore rather than pinned.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[object], object]) -> None:
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


class _ModuleProxy:
    """A module stand-in overriding some attributes, delegating the rest."""

    def __init__(self, module: object, **overrides: object) -> None:
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name: str) -> object:
        return getattr(self._module, name)


def install_program_wrappers(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap each layer's public entry points as bound in their callers."""
    import repro.core.estimator as estimator
    import repro.core.fitting as fitting
    from repro.core.factor_cache import FactorCache
    from repro.optimization.minplusone import MinPlusOneOptimizer

    def span(layer: str) -> Callable:
        return lambda fn: recorder.wrap(layer, fn)

    for name in ("select_variogram", "fit_variogram"):
        patcher.replace(estimator, name, span("fitting"))
    patcher.replace(
        fitting,
        "optimize",
        lambda module: _ModuleProxy(
            module,
            least_squares=recorder.tally(
                "fitting.nfev", module.least_squares, lambda args, result: result.nfev
            ),
        ),
    )
    patcher.replace(estimator, "empirical_semivariogram", span("variogram"))
    patcher.replace(estimator, "find_neighbors", span("neighborhood"))
    patcher.replace(FactorCache, "factor_for", span("factor_cache"))
    patcher.replace(
        estimator,
        "ordinary_kriging_grouped",
        lambda fn: recorder.tally(
            "kriging.groups", recorder.wrap("kriging", fn), lambda args, result: len(args[0])
        ),
    )
    patcher.replace(estimator, "ordinary_kriging", span("kriging"))
    for method in ("evaluate", "evaluate_batch", "force_simulate"):
        patcher.replace(estimator.KrigingEstimator, method, span("estimator"))
    patcher.replace(estimator.KrigingEstimator, "__init__", recorder.registering)
    patcher.replace(MinPlusOneOptimizer, "run", span("optimization"))


def install_simulate_wrapper(recorder: SpanRecorder, patcher: Patcher, problem) -> None:
    """Wrap one problem's ``simulate`` (bound on the problem instance)."""
    patcher.replace(problem, "simulate", lambda fn: recorder.wrap("simulate", fn))


def install_simulator_factory_wrapper(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every simulate callable the service builds for its sessions."""
    import repro.service.server as server

    def make(factory: Callable) -> Callable:
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            simulate, num_variables = factory(*args, **kwargs)
            return recorder.wrap("simulate", simulate), num_variables

        return traced_factory

    patcher.replace(server, "make_simulator", make)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------
def in_windows(spans: Iterable[tuple], windows: list[tuple[float, float]]) -> list[tuple]:
    """Spans that started inside one of ``windows``."""
    return [s for s in spans if any(lo <= s[3] <= hi for lo, hi in windows)]


def layer_totals(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``busy_s`` (summed span time) and ``self_s``.

    A span's self time is its duration minus the time its child spans
    cover.  Children run on their parent's thread, one after another, so
    the part they cover is the sum of their durations.
    """
    spans = list(spans)
    child_time: dict[int, float] = {}
    for span_id, _layer, _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for span_id, layer, _name, start, end, _parent in spans:
        row = totals.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = end - start
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - child_time.get(span_id, 0.0)
    return totals


def untracked_seconds(wall_s: float, totals: dict[str, dict[str, float]]) -> float:
    """Wall time no program layer accounts for (the ledger's remainder)."""
    tracked = sum(row["self_s"] for layer, row in totals.items() if layer != "workload")
    return wall_s - tracked
