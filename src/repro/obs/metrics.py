"""Unified metrics registry (counters, gauges, P²-sketch histograms).

One :class:`MetricsRegistry` per server instance (worker service or cluster
router) replaces the scattered per-verb stat dicts.  Three primitive kinds:

``counter``
    Monotone float, ``inc()`` only — deadline misses, breaker
    fast-fails.
``gauge``
    Point-in-time float, ``set()`` — breaker state, inflight requests.
``histogram``
    Streaming distribution on the existing P²
    :class:`~repro.utils.quantiles.QuantileSketch` — queue wait, flush
    wait, request latency.  No samples are stored, so a histogram costs a
    few hundred bytes however hot the path is.

Components that already keep their own counters (the batcher's
``BatcherStats``, the breaker's ``trips``, the estimator's
``FactorCacheStats``) do not migrate their storage; the registry reads
them at collect time through callback-backed metrics (:meth:`counter_fn` /
:meth:`gauge_fn`), so there is exactly one source of truth and zero extra
hot-path work.

``collect()`` returns a JSON-safe *family list* — the one snapshot shape
both the ``metrics`` verb and the Prometheus renderings are derived from:

.. code-block:: python

    {"name": "repro_deadline_misses_total", "type": "counter",
     "help": "...", "samples": [{"labels": {}, "value": 3.0}]}

Router aggregation (:func:`aggregate_families`) merges worker fan-out into
the *same* shape, which is what makes the router's ``metrics`` output
structurally identical to a worker's.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

from repro.utils.quantiles import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "aggregate_families",
    "render_prometheus",
]

#: Quantiles every histogram tracks (rendered as Prometheus summary
#: quantile labels).
HISTOGRAM_PROBS = (0.5, 0.9, 0.99)


def _finite(value: float) -> float | None:
    """JSON-safe float: NaN/inf (empty-histogram extremes) become None."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value


class Counter:
    """Monotone counter; ``inc`` is thread-safe (flushes run off-loop)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def family(self) -> dict:
        return {
            "name": self.name,
            "type": "counter",
            "help": self.help,
            "samples": [{"labels": {}, "value": self._value}],
        }


class Gauge:
    """Point-in-time value (breaker state, inflight count)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def family(self) -> dict:
        return {
            "name": self.name,
            "type": "gauge",
            "help": self.help,
            "samples": [{"labels": {}, "value": self._value}],
        }


class Histogram:
    """Streaming distribution on a P² sketch; ``observe`` is thread-safe."""

    __slots__ = ("name", "help", "_sketch", "_lock")

    def __init__(
        self, name: str, help: str = "", probs: Sequence[float] = HISTOGRAM_PROBS
    ) -> None:
        self.name = name
        self.help = help
        self._sketch = QuantileSketch(probs=probs)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sketch.update(value)

    @property
    def count(self) -> int:
        return self._sketch.count

    def family(self) -> dict:
        with self._lock:
            sketch = self._sketch
            sample = {
                "labels": {},
                "count": sketch.count,
                "sum": sketch.sum,
                "min": _finite(sketch.min),
                "max": _finite(sketch.max),
                "quantiles": {
                    repr(p): _finite(v) for p, v in sketch.quantiles().items()
                },
            }
        return {
            "name": self.name,
            "type": "histogram",
            "help": self.help,
            "samples": [sample],
        }


class _CallbackMetric:
    """Counter/gauge whose value lives elsewhere, read at collect time.

    ``fn`` returns either a plain number (one unlabeled sample) or an
    iterable of ``(labels_dict, value)`` pairs (e.g. one breaker-state
    sample per worker).
    """

    __slots__ = ("name", "type", "help", "fn")

    def __init__(self, name: str, kind: str, fn: Callable, help: str = "") -> None:
        self.name = name
        self.type = kind
        self.help = help
        self.fn = fn

    def family(self) -> dict:
        produced = self.fn()
        if isinstance(produced, (int, float)):
            samples = [{"labels": {}, "value": float(produced)}]
        else:
            samples = [
                {"labels": dict(labels), "value": float(value)}
                for labels, value in produced
            ]
        return {
            "name": self.name,
            "type": self.type,
            "help": self.help,
            "samples": samples,
        }


class MetricsRegistry:
    """All metrics of one server instance, collected as one snapshot.

    Per *instance*, not per process: the test suite runs several servers in
    one interpreter and their counters must not bleed into each other.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _register(self, metric) -> None:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = Counter(name, help)
        self._register(metric)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = Gauge(name, help)
        self._register(metric)
        return metric

    def histogram(
        self, name: str, help: str = "", probs: Sequence[float] = HISTOGRAM_PROBS
    ) -> Histogram:
        metric = Histogram(name, help, probs)
        self._register(metric)
        return metric

    def counter_fn(self, name: str, fn: Callable, help: str = "") -> None:
        """Counter whose storage stays where it is (read via ``fn``)."""
        self._register(_CallbackMetric(name, "counter", fn, help))

    def gauge_fn(self, name: str, fn: Callable, help: str = "") -> None:
        """Gauge read via ``fn`` at collect time."""
        self._register(_CallbackMetric(name, "gauge", fn, help))

    def collect(self) -> list[dict]:
        """JSON-safe family list, sorted by metric name."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted((m.family() for m in metrics), key=lambda f: f["name"])

    def value(self, name: str) -> float:
        """One metric's current scalar (samples summed across label sets).

        The single-source-of-truth accessor: ``ping`` and ``stats`` both
        read ``repro_deadline_misses_total`` through here, so the two verbs
        can never disagree about the count again.
        """
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            raise KeyError(f"no metric named {name!r}")
        family = metric.family()
        if family["type"] == "histogram":
            return float(sum(s.get("count", 0) or 0 for s in family["samples"]))
        return float(sum(s.get("value", 0.0) for s in family["samples"]))


def aggregate_families(family_lists: Iterable[list[dict]]) -> list[dict]:
    """Merge fan-out snapshots into one family list of the same shape.

    Counters and gauges merge per label set by summation (distinct label
    sets — one breaker-state gauge per worker — simply union).  Histograms
    sum ``count``/``sum``, take min-of-min / max-of-max, and combine
    quantile estimates by count-weighted average: an approximation, but the
    component sketches are approximations already and the merged p50/p90
    stay honest for same-order distributions.
    """
    merged: dict[str, dict] = {}
    for families in family_lists:
        for family in families:
            name = family["name"]
            into = merged.get(name)
            if into is None:
                merged[name] = {
                    "name": name,
                    "type": family["type"],
                    "help": family.get("help", ""),
                    "samples": [dict(s) for s in family["samples"]],
                }
                continue
            for sample in family["samples"]:
                _merge_sample(into, sample)
    return sorted(merged.values(), key=lambda f: f["name"])


def _merge_sample(family: dict, sample: dict) -> None:
    labels = sample.get("labels", {})
    target = next(
        (s for s in family["samples"] if s.get("labels", {}) == labels), None
    )
    if target is None:
        family["samples"].append(dict(sample))
        return
    if family["type"] in ("counter", "gauge"):
        target["value"] = float(target.get("value", 0.0)) + float(
            sample.get("value", 0.0)
        )
        return
    # Histogram merge.
    count_a = float(target.get("count", 0) or 0)
    count_b = float(sample.get("count", 0) or 0)
    total = count_a + count_b
    target["count"] = int(total)
    target["sum"] = float(target.get("sum", 0.0) or 0.0) + float(
        sample.get("sum", 0.0) or 0.0
    )
    for key, pick in (("min", min), ("max", max)):
        values = [v for v in (target.get(key), sample.get(key)) if v is not None]
        target[key] = pick(values) if values else None
    quantiles: dict[str, float | None] = {}
    qa, qb = target.get("quantiles", {}), sample.get("quantiles", {})
    for prob in set(qa) | set(qb):
        a, b = qa.get(prob), qb.get(prob)
        if a is None or count_a == 0:
            quantiles[prob] = b
        elif b is None or count_b == 0:
            quantiles[prob] = a
        else:
            quantiles[prob] = (a * count_a + b * count_b) / total
    target["quantiles"] = quantiles


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: dict, extra: dict | None = None) -> str:
    pairs = dict(labels)
    if extra:
        pairs.update(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in sorted(pairs.items()))
    return "{" + body + "}"


def _prom_value(value: float | None) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(families: list[dict]) -> str:
    """Prometheus text exposition of a :func:`aggregate_families`-shaped
    family list (histograms render as summaries: quantile-labeled samples
    plus ``_sum`` and ``_count``)."""
    lines: list[str] = []
    for family in families:
        name, kind = family["name"], family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {'summary' if kind == 'histogram' else kind}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_label_str(labels)} {_prom_value(sample.get('value'))}"
                )
                continue
            for prob, value in sorted(sample.get("quantiles", {}).items()):
                lines.append(
                    f"{name}{_label_str(labels, {'quantile': prob})} "
                    f"{_prom_value(value)}"
                )
            lines.append(
                f"{name}_sum{_label_str(labels)} {_prom_value(sample.get('sum', 0.0))}"
            )
            lines.append(f"{name}_count{_label_str(labels)} {int(sample.get('count', 0))}")
    return "\n".join(lines) + "\n"
