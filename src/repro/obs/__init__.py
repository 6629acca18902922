"""repro.obs: observability for the serving stack.

Three cooperating pieces, all stdlib-only:

``trace``
    Wire-level request tracing.  Clients stamp a ``trace_id`` and a
    ``parent_span`` onto requests (exactly like the ``deadline_ms``
    budget); every hop that handles a traced request opens monotonic-clock
    spans around the work it does — dispatch, admission-queue wait,
    session-lock wait, batch-flush membership, the solve-phase split — and
    keeps finished spans in a bounded per-process ring buffer.  Traces
    whose root span exceeds a configurable threshold are *always* captured
    into a separate slow-trace buffer and logged, whatever the sampling
    rate did at the edge.
``metrics``
    A unified counter/gauge/histogram registry (histograms ride the
    existing P² :class:`~repro.utils.quantiles.QuantileSketch`).  The
    previously scattered counters — deadline misses, breaker states,
    batcher stats, factor-cache reuse — register here, and both the ``metrics`` verb and the
    optional ``--metrics-port`` HTTP listener render the same snapshot
    (JSON families, or Prometheus text exposition).
``logs``
    Structured JSON logging on stdlib ``logging``, with ``trace_id``
    correlation through a :mod:`contextvars` variable the servers set
    around dispatch.

Nothing in this package changes what the estimator computes: evaluate
results are bit-identical with observability on or off.
"""

from repro.obs.logs import configure_logging, get_logger, trace_id_var
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_families,
    render_prometheus,
)
from repro.obs.trace import Span, Tracer, wire_context

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "aggregate_families",
    "configure_logging",
    "get_logger",
    "render_prometheus",
    "trace_id_var",
    "wire_context",
]
