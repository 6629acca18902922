"""Cross-client micro-batching for the evaluation service.

The batch query engine gets *better* the more queries it sees at once:
queries sharing a support set share one factorization
(:func:`~repro.core.kriging.ordinary_kriging_batch`), and same-size
support sets are stacked into one batched solve.  A
network service naively answering each request with a single
:meth:`~repro.core.estimator.KrigingEstimator.evaluate` call would throw
that away — every client would pay a full solve even when eight clients ask
about the same neighbourhood in the same millisecond (exactly what parallel
word-length searches do).

:class:`MicroBatcher` closes the gap: concurrent ``evaluate`` requests for
one session are collected into a pending list and flushed as a **single**
``evaluate_batch`` call, either when :attr:`~MicroBatcher.max_batch`
requests have accumulated or when the oldest has waited
:attr:`~MicroBatcher.max_delay_ms` milliseconds — whichever comes first.
Lone requests on an idle session therefore pay at most ``max_delay_ms`` of
extra latency, while bursts coalesce into shared factorizations.

Flushes are serialized on the session's lock and the batch preserves
arrival order, so decisions stay deterministic given the arrival sequence;
the flush itself runs on a worker thread (``asyncio.to_thread``), so the
event loop keeps accepting — and coalescing — the *next* batch while the
solves run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.estimator import EstimationOutcome
from repro.obs.metrics import Histogram
from repro.obs.trace import Span, Tracer
from repro.service.protocol import Deadline, DeadlineExceeded
from repro.utils.quantiles import QuantileSketch

__all__ = ["BatcherStats", "MicroBatcher"]

FlushFn = Callable[[Sequence[object]], "list[EstimationOutcome]"]

#: One queued request: (config, future, deadline, dispatch span, waits
#: sink, submit timestamp).  A plain tuple — this is the hot path.
_PendingRequest = tuple

#: Duration pairs the solve-phase span synthesis consumes: the names of the
#: spans and the order they execute in inside one flush.
PHASE_SPAN_NAMES = ("solve.assembly", "solve.factorize", "solve.backsolve")


@dataclass
class BatcherStats:
    """Coalescing effectiveness counters of one :class:`MicroBatcher`."""

    requests: int = 0
    flushes: int = 0
    deadline_misses: int = 0
    """Requests shed at flush time because their deadline had expired."""
    batch_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    """Distribution of flushed batch sizes (P² quantile sketch)."""

    @property
    def mean_batch(self) -> float:
        """Mean requests per flush (the coalescing factor)."""
        return self.batch_sketch.mean

    @property
    def max_batch_seen(self) -> float:
        """Largest batch flushed so far."""
        return self.batch_sketch.max

    def summary(self) -> dict:
        """JSON-safe summary for the service's ``stats`` verb."""
        return {
            "requests": self.requests,
            "flushes": self.flushes,
            "deadline_misses": self.deadline_misses,
            "batch_size": self.batch_sketch.summary(),
        }


class MicroBatcher:
    """Coalesce concurrent evaluate requests into ``evaluate_batch`` flushes.

    Parameters
    ----------
    flush_fn:
        Called with the coalesced configuration list, in arrival order;
        returns one outcome per configuration.  Runs on a worker thread —
        for the service this is the session's
        ``estimator.evaluate_batch``.
    max_batch:
        Flush as soon as this many requests are pending, and never put
        more than this many in one flush (a burst beyond it flushes in
        consecutive chunks).  ``1`` disables coalescing — every request
        solves alone, which is the fair baseline the load generator
        compares against.
    max_delay_ms:
        Upper bound on how long an incomplete batch may wait after its
        first request.  The batcher flushes *earlier* as soon as the
        pending set stops growing for a couple of event-loop iterations —
        i.e. every request already in flight has been read and coalesced —
        so a burst of blocked clients never pays the full delay; the bound
        only matters for stragglers trickling in mid-burst.  ``0`` flushes
        immediately.
    lock:
        Flush serialization lock — pass the session's lock so flushes,
        direct simulations and snapshots never interleave.
    tracer / phase_totals:
        Optional observability hooks.  A traced request's dispatch span
        rides into the pending tuple; at flush time one ``batch.flush``
        span is emitted linked to every coalesced member, with
        ``server.lock_wait`` and the solve-phase split (``phase_totals``
        returns the cumulative assembly/factorize/backsolve seconds; the
        flush takes before/after deltas) as children.  Untraced requests
        cost nothing beyond two clock reads.
    queue_wait_hist / flush_wait_hist:
        Optional :class:`~repro.obs.metrics.Histogram` sinks fed the
        per-request queue wait (submit → session lock acquired) and flush
        wait (lock acquired → outcomes ready), tracing or not.
    """

    def __init__(
        self,
        flush_fn: FlushFn,
        *,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        lock: asyncio.Lock | None = None,
        tracer: Tracer | None = None,
        phase_totals: Callable[[], tuple[float, float, float]] | None = None,
        queue_wait_hist: Histogram | None = None,
        flush_wait_hist: Histogram | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self._flush_fn = flush_fn
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.tracer = tracer
        self._phase_totals = phase_totals
        self._queue_wait_hist = queue_wait_hist
        self._flush_wait_hist = flush_wait_hist
        self._lock = lock if lock is not None else asyncio.Lock()
        self._pending: list[_PendingRequest] = []
        self._timer: asyncio.Task | None = None
        # Strong references to in-flight flush tasks: the event loop only
        # holds tasks weakly, and an unreferenced task's failure would
        # surface as "exception was never retrieved" GC noise instead of
        # being observed here.
        self._flush_tasks: set[asyncio.Task] = set()
        self.stats = BatcherStats()

    @property
    def pending(self) -> int:
        """Requests waiting for the next flush."""
        return len(self._pending)

    async def submit(
        self,
        config: object,
        deadline: Deadline | None = None,
        *,
        span: Span | None = None,
        waits: dict | None = None,
    ) -> EstimationOutcome:
        """Enqueue one configuration; resolves with its outcome after the
        flush it lands in completes.

        A ``deadline`` that expires before the request's flush starts sheds
        the request with :class:`~repro.service.protocol.DeadlineExceeded`
        instead of spending a solve on an answer nobody is waiting for —
        and, because a flush solves many clients' requests together,
        instead of delaying everyone else's batch with it.

        ``span`` is the request's dispatch span when it is traced (the
        flush links to it and parents a ``server.queue_wait`` child on it).
        ``waits`` is an optional dict the flush fills with the request's
        measured ``queue_wait_ms``/``flush_wait_ms`` before resolving — the
        server attaches them to the response so clients and the bench
        harness can trend hop-level latency.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((config, future, deadline, span, waits, time.perf_counter()))
        self.stats.requests += 1
        if len(self._pending) >= self.max_batch:
            self._cancel_timer()
            self._spawn_flush(loop)
        elif len(self._pending) == 1 and self._timer is None:
            if self.max_delay_ms <= 0:
                self._spawn_flush(loop)
            else:
                self._timer = loop.create_task(self._delayed_flush())
                self._timer.add_done_callback(self._flush_done)
        return await future

    def _spawn_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        task = loop.create_task(self._flush())
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_done)

    def _flush_done(self, task: asyncio.Task) -> None:
        self._flush_tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            # _flush routes flush_fn errors into the request futures, so an
            # exception here is a batcher bug: report it deterministically
            # through the loop's handler instead of as GC-time noise.
            task.get_loop().call_exception_handler(
                {"message": "micro-batcher flush task failed", "exception": exc}
            )

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight flushes.

        The snapshot and shutdown paths call this so a snapshot can never
        cut a batch in half.
        """
        self._cancel_timer()
        await self._flush()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    #: Event-loop iterations the pending set must stay static before an
    #: early flush: 1 would race the loop still dispatching just-read
    #: frames into request tasks; 3+ only adds spin.
    IDLE_ITERATIONS = 2

    #: Grace period (seconds) before idle detection may flush early: long
    #: enough for a burst of concurrent requests to cross loopback TCP and
    #: land in the batch (tens of microseconds apart), short enough to be
    #: noise next to a kriging solve.
    IDLE_GRACE_SECONDS = 0.0003

    async def _delayed_flush(self) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay_ms / 1000.0
        grace = min(deadline, loop.time() + self.IDLE_GRACE_SECONDS)
        seen = len(self._pending)
        idle = 0
        try:
            await asyncio.sleep(max(0.0, grace - loop.time()))
            while loop.time() < deadline:
                # One full loop iteration: sockets are polled and ready
                # request tasks run (each may submit) before we resume.
                await asyncio.sleep(0)
                pending = len(self._pending)
                if pending >= self.max_batch:
                    break  # the size trigger scheduled its own flush
                if pending == seen:
                    idle += 1
                    if idle >= self.IDLE_ITERATIONS:
                        break
                else:
                    seen = pending
                    idle = 0
        except asyncio.CancelledError:
            return
        self._timer = None
        await self._flush()

    async def _flush(self) -> None:
        # Loop until nothing is pending: a flush scheduled while another
        # runs picks up everything that accumulated meanwhile, in chunks of
        # at most max_batch.  Taking each chunk *before* awaiting the lock
        # keeps arrival order (and makes the take atomic on the loop).
        if self._pending:
            self._cancel_timer()
        while self._pending:
            taken = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            # Shed expired requests at the door of the flush: their clients
            # have already given up, and a batch entry costs every coalesced
            # request solve time.
            batch = []
            for config, future, deadline, span, waits, t_submit in taken:
                if deadline is not None and deadline.expired:
                    self.stats.deadline_misses += 1
                    if not future.done():
                        future.set_exception(
                            DeadlineExceeded(
                                "evaluate: deadline expired "
                                f"{-deadline.remaining_ms():.0f} ms before the flush"
                            )
                        )
                    continue
                batch.append((config, future, span, waits, t_submit))
            if not batch:
                continue
            t_flush = time.perf_counter()
            async with self._lock:
                t_lock = time.perf_counter()
                # Read the cumulative phase totals only once the lock is
                # held: a concurrent flush of the same session mutates them,
                # and a pre-lock read would inflate this flush's deltas.
                phases_before = self._phase_totals() if self._phase_totals else None
                configs = [entry[0] for entry in batch]
                try:
                    outcomes = await asyncio.to_thread(self._flush_fn, configs)
                except Exception as exc:
                    for _, future, _, _, _ in batch:
                        if not future.done():
                            future.set_exception(exc)
                    continue
                t_done = time.perf_counter()
                phases_after = self._phase_totals() if phases_before is not None else None
            self.stats.flushes += 1
            self.stats.batch_sketch.update(float(len(batch)))
            flush_ms = (t_done - t_lock) * 1000.0
            if self._flush_wait_hist is not None:
                self._flush_wait_hist.observe(flush_ms)
            for _, _, _, _, t_submit in batch:
                if self._queue_wait_hist is not None:
                    self._queue_wait_hist.observe((t_lock - t_submit) * 1000.0)
            for _, _, _, waits, t_submit in batch:
                if waits is not None:
                    waits["queue_wait_ms"] = (t_lock - t_submit) * 1000.0
                    waits["flush_wait_ms"] = flush_ms
            self._emit_flush_spans(
                batch, phases_before, phases_after, t_flush, t_lock, t_done
            )
            for (_, future, _, _, _), outcome in zip(batch, outcomes):
                if not future.done():
                    future.set_result(outcome)

    def _emit_flush_spans(
        self,
        batch: list,
        phases_before: tuple[float, float, float] | None,
        phases_after: tuple[float, float, float] | None,
        t_flush: float,
        t_lock: float,
        t_done: float,
    ) -> None:
        """One ``batch.flush`` span linked to its N coalesced request spans.

        The flush span parents on the *first* traced member (batches have no
        span of their own on the wire) and carries every member's span id in
        its ``links`` attribute; each traced member additionally gets a
        ``server.queue_wait`` child of its own dispatch span.  Children of
        the flush: ``server.lock_wait`` and the synthesized solve phases.
        """
        tracer = self.tracer
        if tracer is None:
            return
        traced = [entry for entry in batch if entry[2] is not None]
        if not traced:
            return
        for _, _, span, _, t_submit in traced:
            tracer.emit("server.queue_wait", span.trace_id, span.span_id, t_submit, t_lock)
        anchor = traced[0][2]
        flush_record = tracer.emit(
            "batch.flush",
            anchor.trace_id,
            anchor.span_id,
            t_flush,
            t_done,
            attrs={
                "batch_size": len(batch),
                "traced": len(traced),
                "links": [entry[2].span_id for entry in traced],
            },
        )
        tracer.emit(
            "server.lock_wait",
            anchor.trace_id,
            flush_record["span_id"],
            t_flush,
            t_lock,
        )
        if phases_before is not None and phases_after is not None:
            tracer.record_phases(
                anchor.trace_id,
                flush_record["span_id"],
                t_lock,
                [
                    (name, phases_after[i] - phases_before[i])
                    for i, name in enumerate(PHASE_SPAN_NAMES)
                ],
            )
