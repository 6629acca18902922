"""The asyncio TCP front end of the kriging evaluation service.

One :class:`KrigingService` owns a set of named
:class:`~repro.service.session.EstimatorSession` instances and speaks the
newline-delimited JSON protocol of :mod:`repro.service.protocol` over
``asyncio.start_server`` (stdlib only — no web framework).

The transport machinery lives in :class:`JsonLineServer`, a small reusable
base (connection handling, per-request tasks, structured errors, graceful
drain); :class:`KrigingService` layers the session registry and verbs on
top.  The cluster router (:mod:`repro.cluster.router`) reuses the same base
to speak the same protocol.

Concurrency model
-----------------

* every connection gets a handler task; every *request* gets its own task,
  so a client may pipeline and its in-flight evaluations coalesce in the
  session's micro-batcher together with everyone else's (responses carry
  the request ``id`` and may return out of order);
* all mutation of a session — micro-batch flushes, direct simulations,
  refits, snapshot writes, restores — serializes on that session's asyncio
  lock, so decisions are deterministic given the arrival order and a
  snapshot can never observe a half-applied batch;
* the actual numeric work runs on worker threads (``asyncio.to_thread``),
  keeping the event loop free to accept and coalesce the next batch.

Verbs: ``ping``, ``create_session``, ``list_sessions``, ``evaluate``,
``simulate``, ``fit``, ``stats``, ``snapshot``, ``restore``,
``delete_session``, ``shutdown``.

Shutdown is graceful: a ``shutdown`` request — or SIGTERM/SIGINT when run
via ``repro serve`` — stops the listener first, then waits for every
in-flight request, flushes each session's micro-batcher, and only then
releases the sessions, so no accepted request is ever dropped mid-solve.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import pathlib
import signal
import time
from typing import Awaitable, Callable

from repro.core.estimator import KrigingEstimator
from repro.core.models import variogram_from_state
from repro.obs.httpexp import start_metrics_http
from repro.obs.logs import configure_logging, trace_id_var
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, wire_context
from repro.service import protocol
from repro.service.session import EstimatorSession, check_name, load_snapshot, make_simulator

__all__ = ["JsonLineServer", "KrigingService", "ServiceError", "run_server"]

#: Estimator constructor keywords ``create_session`` forwards verbatim.
#: Other keys, such as ``backend``, ``n_jobs``, ``factor_cache`` and
#: ``neighbor_index`` from older clients, are ignored.
ESTIMATOR_KEYS = (
    "distance",
    "nn_min",
    "metric",
    "variogram",
    "min_fit_points",
    "refit_interval",
    "max_neighbors",
    "max_variance",
    "interpolator",
)


class ServiceError(Exception):
    """A structured, client-visible error (becomes ``error.type`` on the wire).

    ``details`` travel as extra fields of the wire error object (e.g. the
    ``retry_after_ms`` hint of an ``Overloaded`` rejection).
    """

    def __init__(self, kind: str, message: str, **details: object) -> None:
        super().__init__(message)
        self.kind = kind
        self.details = details


def _bad_request(message: str) -> ServiceError:
    return ServiceError("BadRequest", message)


class JsonLineServer:
    """Transport core of a newline-delimited JSON verb server.

    Subclasses implement :meth:`dispatch` (verb -> result dict, raising
    :class:`ServiceError` for structured failures) and may override the
    lifecycle hooks: :meth:`_started` (after the socket binds),
    :meth:`_drained` (after the listener closed and every in-flight request
    finished — flush buffers here) and :meth:`_cleanup` (always, last).

    Request accounting hooks ``_request_begun``/``_request_ended`` bracket
    every dispatch; the base keeps the set of in-flight request tasks that
    the graceful drain waits on.
    """

    #: Ceiling on the graceful drain (seconds): how long ``serve`` waits for
    #: in-flight requests after the listener closed before giving up.
    drain_timeout: float = 30.0

    #: Prefix of this server's dispatch spans (the router overrides it, so
    #: a trace distinguishes the router hop from the worker hop by name).
    span_prefix: str = "server"

    def __init__(self) -> None:
        self.address: tuple[str, int] | None = None
        self._stopping = asyncio.Event()
        self._request_tasks: set[asyncio.Task] = set()
        #: Span collector; subclasses that trace set one.  ``None`` keeps
        #: the transport entirely tracing-free.
        self.tracer: Tracer | None = None

    # -- subclass surface ----------------------------------------------
    async def dispatch(self, request: dict) -> dict:
        raise NotImplementedError

    async def _started(self) -> None:
        """Hook: the socket is bound and :attr:`address` is set."""

    async def _drained(self) -> None:
        """Hook: listener closed, every in-flight request answered."""

    async def _cleanup(self) -> None:
        """Hook: final teardown (runs even when the drain timed out)."""

    def _request_begun(self, request: dict) -> None:
        """Hook: a request entered dispatch."""

    def _request_ended(self, request: dict) -> None:
        """Hook: the request's response is being written."""

    def _deadline_missed(self, request: dict) -> None:
        """Hook: a request was shed at the dispatch door — its deadline had
        already expired when its turn came (the micro-batcher counts its
        own flush-time sheds separately)."""

    # -- request plumbing ----------------------------------------------
    def stop(self) -> None:
        """Ask :meth:`serve` to exit (what the ``shutdown`` verb does after
        its response is on the wire, and what SIGTERM triggers)."""
        self._stopping.set()

    async def _respond(
        self,
        request: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = request.get("id")
        self._request_begun(request)
        # The dispatch span of a traced request: the per-process root every
        # downstream span (queue wait, flush, solve phases) hangs under.
        # trace_id_var correlates any log line emitted while handling it.
        span = None
        token = None
        tracer = self.tracer
        if tracer is not None:
            ctx = request.get("_trace")
            if ctx is not None:
                span = tracer.start(
                    f"{self.span_prefix}.dispatch",
                    None,
                    context=ctx,
                    attrs={"op": request.get("op")},
                )
                request["_span"] = span
                token = trace_id_var.set(span.trace_id)
        try:
            deadline = request.get("_deadline")
            if deadline is not None and deadline.expired:
                # Shed at the door: the client has already given up, so any
                # work done now — a solve, a snapshot write — is wasted and
                # delays requests someone *is* still waiting for.
                self._deadline_missed(request)
                deadline.raise_if_expired("dispatch")
            result = await self.dispatch(request)
            response = protocol.ok_response(request_id, result)
        except protocol.DeadlineExceeded as exc:
            response = protocol.error_response(request_id, "DeadlineExceeded", str(exc))
        except ServiceError as exc:
            response = protocol.error_response(
                request_id, exc.kind, str(exc), **exc.details
            )
        except (ValueError, KeyError, TypeError) as exc:
            response = protocol.error_response(request_id, type(exc).__name__, str(exc))
        except Exception as exc:  # keep the server alive on estimator bugs
            response = protocol.error_response(request_id, "InternalError", repr(exc))
        finally:
            self._request_ended(request)
            if token is not None:
                trace_id_var.reset(token)
        if span is not None:
            if not response.get("ok", False):
                error = response.get("error") or {}
                span.set(error=error.get("type", "Error"))
            # root=True: the dispatch span is this process's top of the
            # trace, so it is what the slow-trace threshold judges.
            tracer.finish(span, root=True)
        try:
            payload = protocol.encode(response)
        except protocol.ProtocolError as exc:
            # A result that does not serialize must still answer the
            # request — a swallowed frame would hang the client forever.
            # The request id itself may be the unserializable part (e.g. a
            # NaN literal, which json.loads accepts): fall back to a null
            # id rather than failing the fallback too.
            fallback = protocol.error_response(
                request_id, "ProtocolError", f"unserializable result: {exc}"
            )
            try:
                payload = protocol.encode(fallback)
            except protocol.ProtocolError:
                fallback["id"] = None
                payload = protocol.encode(fallback)
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
        except ConnectionError:
            return
        # The response is on the wire; now it is safe to stop accepting.
        if request.get("op") == "shutdown" and response.get("ok"):
            self._stopping.set()

    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read frames, answer each in its own task."""
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    request = await protocol.read_message(reader)
                except protocol.ProtocolError as exc:
                    async with write_lock:
                        await protocol.write_message(
                            writer,
                            protocol.error_response(None, "ProtocolError", str(exc)),
                        )
                    break
                if request is None:
                    break
                # Stamp the deadline now: the wire budget is relative to the
                # moment the frame is read, and everything downstream —
                # dispatch, batcher, proxied calls — shares this one object.
                request["_deadline"] = protocol.Deadline.from_request(request)
                # Same moment for the trace context: one dict lookup for
                # untraced requests (wire_context returns None), the parsed
                # (trace_id, parent_span) tuple for traced ones.  Underscore
                # fields never forward — the router restamps explicitly.
                if self.tracer is not None:
                    ctx = wire_context(request)
                    if ctx is not None:
                        request["_trace"] = ctx
                task = asyncio.create_task(self._respond(request, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Event-loop teardown after shutdown: close the transport and
            # exit quietly instead of surfacing a cancellation traceback.
            pass
        finally:
            # Cleanup must not surface a second CancelledError (e.g. the
            # event loop tearing down after ``shutdown``): a handler task
            # that ends "cancelled" would be logged as a callback error.
            with contextlib.suppress(asyncio.CancelledError):
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                await writer.wait_closed()

    async def _drain_requests(self) -> None:
        """Wait (bounded) for every in-flight request task to answer."""
        pending = [task for task in self._request_tasks if not task.done()]
        if not pending:
            return
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                asyncio.gather(*pending, return_exceptions=True), self.drain_timeout
            )

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        port_file: object | None = None,
        on_ready: Callable[[str, int], None] | None = None,
        handle_signals: bool = False,
    ) -> None:
        """Listen until a ``shutdown`` request (or handled signal) arrives.

        ``port=0`` binds an ephemeral port; the bound address lands in
        :attr:`address`, in ``port_file`` (just the port number — what the
        CI smoke job polls for) and in the ``on_ready`` callback.

        With ``handle_signals`` (the CLI entry points), SIGTERM and SIGINT
        trigger the same graceful path as ``shutdown``: stop accepting,
        drain in-flight requests, flush buffers, exit — so an operator's
        ``kill`` never drops an accepted request.
        """
        server = await asyncio.start_server(
            self.handle_client, host, port, limit=protocol.MAX_LINE_BYTES
        )
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        if port_file is not None:
            pathlib.Path(port_file).write_text(f"{self.address[1]}\n")
        handled_signals: list[signal.Signals] = []
        if handle_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(signum, self.stop)
                    handled_signals.append(signum)
        await self._started()
        if on_ready is not None:
            on_ready(self.address[0], self.address[1])
        try:
            async with server:
                await self._stopping.wait()
                # Graceful drain: stop accepting first, then let every
                # request already accepted run to completion and answer.
                server.close()
                await server.wait_closed()
                await self._drain_requests()
                await self._drained()
        finally:
            if handled_signals:
                loop = asyncio.get_running_loop()
                for signum in handled_signals:
                    with contextlib.suppress(NotImplementedError, RuntimeError):
                        loop.remove_signal_handler(signum)
            await self._cleanup()


class KrigingService(JsonLineServer):
    """Session registry plus request dispatch (transport-independent core).

    Parameters
    ----------
    snapshot_dir:
        Directory for named snapshots (``snapshot``/``restore`` with a
        ``name`` instead of a ``path``); created on first use.  Without
        it, those verbs require explicit paths.  Named snapshots may never
        resolve outside this directory (hostile names are rejected).
    max_batch / max_delay_ms:
        Default micro-batcher knobs for new sessions (overridable per
        session at ``create_session``).
    slow_trace_ms / trace_ring:
        Span ring-buffer size and the always-captured slow-trace threshold
        of this server's :class:`~repro.obs.trace.Tracer` (``None``
        disables slow-trace capture).  The server never *samples* — it
        traces whatever arrives already stamped with a ``trace_id``.
    metrics_port:
        When set, an HTTP listener on this port serves ``GET /metrics`` in
        Prometheus text format (same snapshot as the ``metrics`` verb).
    """

    def __init__(
        self,
        *,
        snapshot_dir: object | None = None,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        slow_trace_ms: float | None = None,
        trace_ring: int = 2048,
        metrics_port: int | None = None,
    ) -> None:
        super().__init__()
        self.sessions: dict[str, EstimatorSession] = {}
        self.snapshot_dir = pathlib.Path(snapshot_dir) if snapshot_dir is not None else None
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        #: Dispatch-door sheds of requests naming no (known) session —
        #: per-session sheds live on the sessions themselves.
        self.deadline_misses = 0
        self._inflight: dict[str, int] = {}
        self.tracer = Tracer(
            ring_size=trace_ring,
            slow_ms=float("inf") if slow_trace_ms is None else float(slow_trace_ms),
        )
        self.metrics_port = metrics_port
        self._metrics_http: asyncio.AbstractServer | None = None
        self.metrics = MetricsRegistry()
        self._register_metrics()
        self._ops: dict[str, Callable[[dict], Awaitable[dict]]] = {
            "ping": self._op_ping,
            "create_session": self._op_create_session,
            "list_sessions": self._op_list_sessions,
            "evaluate": self._op_evaluate,
            "simulate": self._op_simulate,
            "fit": self._op_fit,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "traces": self._op_traces,
            "snapshot": self._op_snapshot,
            "restore": self._op_restore,
            "delete_session": self._op_delete_session,
            "shutdown": self._op_shutdown,
        }

    def _register_metrics(self) -> None:
        """Re-register the scattered counters under one roof.

        Counters that components already keep (batcher stats, factor-cache
        stats) stay where they are and are read at
        collect time — one source of truth, no double bookkeeping.  Only
        the wait histograms are registry-owned storage, because nothing
        recorded them before.
        """
        m = self.metrics
        self._queue_wait_hist = m.histogram(
            "repro_queue_wait_ms",
            "per-request micro-batcher wait: submit to session lock acquired",
        )
        self._flush_wait_hist = m.histogram(
            "repro_flush_wait_ms",
            "per-flush solve time: session lock acquired to outcomes ready",
        )
        m.counter_fn(
            "repro_deadline_misses_total",
            lambda: float(self.total_deadline_misses()),
            "requests shed because their deadline budget ran out (all sheds)",
        )
        m.counter_fn(
            "repro_batcher_requests_total",
            lambda: float(sum(s.batcher.stats.requests for s in self.sessions.values())),
            "evaluate requests entering the micro-batchers",
        )
        m.counter_fn(
            "repro_batcher_flushes_total",
            lambda: float(sum(s.batcher.stats.flushes for s in self.sessions.values())),
            "micro-batcher flushes (coalesced solve calls)",
        )
        m.counter_fn(
            "repro_factor_cache_events_total",
            self._factor_cache_events,
            "factor-cache outcomes by event (hits, updates, fresh, ...)",
        )
        m.gauge_fn(
            "repro_sessions", lambda: float(len(self.sessions)), "live sessions"
        )
        m.gauge_fn(
            "repro_inflight_requests",
            lambda: float(self.inflight()),
            "requests currently in dispatch",
        )
        m.counter_fn(
            "repro_slow_traces_total",
            lambda: float(self.tracer.slow_traces_captured),
            "traces promoted to the slow-trace buffer",
        )

    def _factor_cache_events(self) -> list[tuple[dict, float]]:
        totals: dict[str, float] = {}
        for session in self.sessions.values():
            for event, value in session.estimator.stats.factor.as_pairs():
                totals[event] = totals.get(event, 0.0) + float(value)
        return [({"event": event}, value) for event, value in sorted(totals.items())]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _session(self, request: dict) -> EstimatorSession:
        name = request.get("session")
        if not isinstance(name, str):
            raise _bad_request("missing 'session' field")
        session = self.sessions.get(name)
        if session is None:
            raise ServiceError("UnknownSession", f"no session named {name!r}")
        return session

    @staticmethod
    def _configs(request: dict) -> tuple[list, bool]:
        """The request's configuration payload: ``(configs, was_batch)``."""
        if "configs" in request:
            configs = request["configs"]
            if not isinstance(configs, list) or not configs:
                raise _bad_request("'configs' must be a non-empty list")
            return configs, True
        if "config" in request:
            return [request["config"]], False
        raise _bad_request("missing 'config' or 'configs' field")

    @staticmethod
    def _checked_config(session: EstimatorSession, config: object) -> list[float]:
        """Validate one configuration *before* it enters the micro-batcher.

        A flush solves many clients' requests together, so a malformed
        config must be rejected at the door — inside the batch it would
        fail every coalesced request, not just its sender's.
        """
        nv = session.estimator.cache.num_variables
        if (
            not isinstance(config, list)
            or len(config) != nv
            or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in config
            )
        ):
            raise _bad_request(f"config must be a list of {nv} numbers")
        values = [float(x) for x in config]
        if not all(math.isfinite(x) for x in values):
            raise _bad_request("config contains non-finite values")
        return values

    def _snapshot_path(self, request: dict) -> pathlib.Path:
        if "path" in request:
            return pathlib.Path(str(request["path"]))
        if self.snapshot_dir is None:
            raise _bad_request(
                "no 'path' given and the server has no --snapshot-dir"
            )
        name = check_name(request.get("name", request.get("session")))
        path = self.snapshot_dir / f"{name}.npz"
        # check_name already forbids separators and leading dots, but a
        # *resolved* containment check closes what the regex cannot see —
        # e.g. a symlink planted inside the snapshot dir pointing outside
        # it.  resolve() follows symlinks in every existing component and
        # keeps the (possibly not-yet-created) tail.
        base = self.snapshot_dir.resolve()
        resolved = path.resolve()
        if resolved.parent != base and base not in resolved.parents:
            raise _bad_request(
                f"snapshot name {name!r} resolves outside the snapshot dir"
            )
        return path

    def _register(self, session: EstimatorSession, replace: bool) -> None:
        if session.name in self.sessions and not replace:
            raise ServiceError(
                "SessionExists",
                f"session {session.name!r} exists (pass replace=true to swap)",
            )
        self.sessions[session.name] = session

    # -- request accounting --------------------------------------------
    def _request_begun(self, request: dict) -> None:
        name = request.get("session")
        if isinstance(name, str):
            self._inflight[name] = self._inflight.get(name, 0) + 1

    def _request_ended(self, request: dict) -> None:
        name = request.get("session")
        if isinstance(name, str):
            left = self._inflight.get(name, 0) - 1
            if left > 0:
                self._inflight[name] = left
            else:
                self._inflight.pop(name, None)

    def inflight(self, session: str | None = None) -> int:
        """In-flight request count — one session's, or the whole server's."""
        if session is not None:
            return self._inflight.get(session, 0)
        return sum(self._inflight.values())

    def _deadline_missed(self, request: dict) -> None:
        name = request.get("session")
        session = self.sessions.get(name) if isinstance(name, str) else None
        if session is not None:
            session.deadline_misses += 1
        else:
            self.deadline_misses += 1

    def total_deadline_misses(self) -> int:
        """Every shed so far: dispatch-door plus flush-time, all sessions."""
        return self.deadline_misses + sum(
            session.deadline_misses + session.batcher.stats.deadline_misses
            for session in self.sessions.values()
        )

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    async def _op_ping(self, request: dict) -> dict:
        # deadline_misses comes from the metrics registry — the same single
        # source the stats verb reads, so the two can never drift apart.
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "sessions": len(self.sessions),
            "inflight": self.inflight(),
            "deadline_misses": int(self.metrics.value("repro_deadline_misses_total")),
        }

    async def _op_create_session(self, request: dict) -> dict:
        name = check_name(request.get("session"))
        spec = request.get("simulator")
        if spec is None:
            raise _bad_request("missing 'simulator' spec")
        num_variables = request.get("num_variables")
        kwargs = {key: request[key] for key in ESTIMATOR_KEYS if key in request}
        if isinstance(kwargs.get("variogram"), dict):
            # A fixed model shipped as its to_state() dict (kind strings
            # like "auto"/"exponential" identify from the data instead).
            kwargs["variogram"] = variogram_from_state(kwargs["variogram"])

        def build() -> tuple[KrigingEstimator, int]:
            # Off the loop: benchmark simulators construct whole substrates.
            simulate, nv = make_simulator(
                spec, int(num_variables) if num_variables is not None else None
            )
            return KrigingEstimator(simulate, nv, **kwargs), nv

        estimator, nv = await asyncio.to_thread(build)
        session = EstimatorSession(
            name,
            estimator,
            spec,
            max_batch=int(request.get("max_batch", self.max_batch)),
            max_delay_ms=float(request.get("max_delay_ms", self.max_delay_ms)),
            tracer=self.tracer,
            queue_wait_hist=self._queue_wait_hist,
            flush_wait_hist=self._flush_wait_hist,
        )
        self._register(session, bool(request.get("replace", False)))
        return {
            "session": name,
            "num_variables": nv,
            "max_batch": session.batcher.max_batch,
            "max_delay_ms": session.batcher.max_delay_ms,
        }

    async def _op_list_sessions(self, request: dict) -> dict:
        return {
            "sessions": [
                {
                    "session": session.name,
                    "num_variables": session.estimator.cache.num_variables,
                    "cache_size": len(session.estimator.cache),
                }
                for session in self.sessions.values()
            ]
        }

    async def _op_evaluate(self, request: dict) -> dict:
        session = self._session(request)
        configs, was_batch = self._configs(request)
        deadline = request.get("_deadline")
        span = request.get("_span")
        if was_batch:
            # A bulk request is already a batch: go straight to
            # evaluate_batch under the session lock (deterministic grouping,
            # no reason to trickle it through the coalescer).
            checked = [self._checked_config(session, config) for config in configs]
            t_wait = time.perf_counter()
            async with session.lock:
                t_lock = time.perf_counter()
                if span is not None:
                    self.tracer.emit(
                        "server.lock_wait", span.trace_id, span.span_id, t_wait, t_lock
                    )
                # Re-check after the lock wait: the budget may have run out
                # queueing behind other flushes — shed before the solve.
                if deadline is not None and deadline.expired:
                    session.deadline_misses += 1
                    deadline.raise_if_expired("evaluate")
                phases_before = session.solve_phase_totals() if span is not None else None
                outcomes = await asyncio.to_thread(session.evaluate_batch, checked)
                if span is not None and phases_before is not None:
                    after = session.solve_phase_totals()
                    self.tracer.record_phases(
                        span.trace_id,
                        span.span_id,
                        t_lock,
                        [
                            ("solve.assembly", after[0] - phases_before[0]),
                            ("solve.factorize", after[1] - phases_before[1]),
                            ("solve.backsolve", after[2] - phases_before[2]),
                        ],
                    )
            wired = [protocol.outcome_to_wire(outcome) for outcome in outcomes]
            return {"outcomes": wired}
        waits: dict = {}
        outcome = await session.evaluate(
            self._checked_config(session, configs[0]), deadline, span=span, waits=waits
        )
        wired_one = protocol.outcome_to_wire(outcome)
        # Hop-level latency in the response itself (tracing-independent):
        # how long this request sat in the coalescer and how long its flush
        # solved.  Extra keys are ignored by outcome_from_wire.
        wired_one.update(waits)
        return wired_one

    async def _op_simulate(self, request: dict) -> dict:
        session = self._session(request)
        configs, was_batch = self._configs(request)
        values = request.get("values")
        if values is None and "value" in request:
            values = [request["value"]]
        if values is not None and (
            not isinstance(values, list) or len(values) != len(configs)
        ):
            raise _bad_request(
                f"'values' must be a list matching the {len(configs)} configurations"
            )

        # Same door check as evaluate: simulate *permanently* mutates the
        # shared cache, so a NaN coordinate would poison every client's
        # future variogram fits (and any snapshot taken afterwards).
        checked = [self._checked_config(session, config) for config in configs]

        def run() -> list[dict]:
            return [
                protocol.outcome_to_wire(
                    session.simulate(
                        config, None if values is None else float(values[i])
                    )
                )
                for i, config in enumerate(checked)
            ]

        async with session.lock:
            wired = await asyncio.to_thread(run)
        return {"outcomes": wired} if was_batch else wired[0]

    async def _op_fit(self, request: dict) -> dict:
        session = self._session(request)
        async with session.lock:
            return protocol.json_safe(await asyncio.to_thread(session.refit))

    async def _op_stats(self, request: dict) -> dict:
        # Statistics legitimately contain NaN (empty sketches): scrub to
        # null so the response stays strict JSON.
        if "session" in request:
            session = self._session(request)
            stats = session.stats()
            stats["inflight"] = self.inflight(session.name)
            return protocol.json_safe(stats)
        return protocol.json_safe(
            {
                "sessions": [session.stats() for session in self.sessions.values()],
                # Registry-derived, like ping's: one assembly, no drift.
                "deadline_misses": int(
                    self.metrics.value("repro_deadline_misses_total")
                ),
            }
        )

    async def _op_metrics(self, request: dict) -> dict:
        return protocol.json_safe({"families": self.metrics.collect()})

    async def _op_traces(self, request: dict) -> dict:
        trace_id = request.get("trace_id")
        return protocol.json_safe(
            {
                "spans": self.tracer.spans(
                    trace_id if isinstance(trace_id, str) else None
                ),
                "slow_traces": self.tracer.slow_traces(),
            }
        )

    async def _op_snapshot(self, request: dict) -> dict:
        session = self._session(request)
        path = self._snapshot_path(request)
        # Drain first (the flush needs the lock drain waits on), then write
        # under the lock so no new flush interleaves with the file write.
        await session.batcher.drain()
        async with session.lock:
            written = await asyncio.to_thread(session.snapshot, path)
        return {"session": session.name, "path": str(written)}

    async def _op_restore(self, request: dict) -> dict:
        if "path" not in request and "name" not in request and "session" not in request:
            raise _bad_request("missing 'path' (or snapshot 'name')")
        path = self._snapshot_path(request)
        def rebuild() -> EstimatorSession:
            # Off the loop: reading and rebuilding a large snapshot takes
            # a while.
            state = load_snapshot(path)
            return EstimatorSession.from_state(
                state,
                name=request.get("session"),
                max_batch=int(request.get("max_batch", self.max_batch)),
                max_delay_ms=float(request.get("max_delay_ms", self.max_delay_ms)),
                tracer=self.tracer,
                queue_wait_hist=self._queue_wait_hist,
                flush_wait_hist=self._flush_wait_hist,
            )

        try:
            session = await asyncio.to_thread(rebuild)
        except FileNotFoundError as exc:
            raise ServiceError("UnknownSnapshot", str(exc)) from exc
        self._register(session, bool(request.get("replace", False)))
        return {
            "session": session.name,
            "path": str(path),
            "cache_size": len(session.estimator.cache),
        }

    async def _op_delete_session(self, request: dict) -> dict:
        session = self._session(request)
        # Drain the batcher first so no coalesced request is dropped, then
        # unregister.
        await session.batcher.drain()
        self.sessions.pop(session.name, None)
        return {"session": session.name, "deleted": True}

    async def _op_shutdown(self, request: dict) -> dict:
        return {"stopping": True}

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    async def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = self._ops.get(op) if isinstance(op, str) else None
        if handler is None:
            raise ServiceError("UnknownOp", f"unknown op {op!r}")
        return await handler(request)

    async def _started(self) -> None:
        if self.metrics_port is not None and self.address is not None:
            self._metrics_http = await start_metrics_http(
                lambda: self.metrics.collect(), self.address[0], self.metrics_port
            )

    async def _drained(self) -> None:
        # Every request task has answered; flush whatever the batchers
        # still hold (e.g. requests whose flush task had not run yet).
        for session in list(self.sessions.values()):
            await session.batcher.drain()

    async def _cleanup(self) -> None:
        if self._metrics_http is not None:
            self._metrics_http.close()
            with contextlib.suppress(Exception):
                await self._metrics_http.wait_closed()
            self._metrics_http = None


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    snapshot_dir: object | None = None,
    max_batch: int = 64,
    max_delay_ms: float = 2.0,
    port_file: object | None = None,
    on_ready: Callable[[str, int], None] | None = None,
    slow_trace_ms: float | None = None,
    trace_ring: int = 2048,
    metrics_port: int | None = None,
    log_level: str = "info",
) -> None:
    """Blocking entry point used by ``repro serve``.

    Installs SIGTERM/SIGINT handlers: either signal triggers the graceful
    drain (stop accepting, answer in-flight requests, flush batchers) and
    the process exits 0.
    """
    configure_logging(log_level)
    service = KrigingService(
        snapshot_dir=snapshot_dir,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        slow_trace_ms=slow_trace_ms,
        trace_ring=trace_ring,
        metrics_port=metrics_port,
    )
    asyncio.run(
        service.serve(
            host, port, port_file=port_file, on_ready=on_ready, handle_signals=True
        )
    )
