"""The prediction serving daemon: HTTP/JSON over the batch predict path.

``PredictionDaemon`` wraps a trained
:class:`~repro.api.QueryPerformancePredictor` in a thread-per-connection
``socketserver`` speaking the HTTP subset of :mod:`repro.serve.wire`,
and multiplexes every concurrent client onto
the one-kernel-cross ``forecast_many`` path through a
:class:`~repro.serve.batcher.MicroBatcher`; a request whose every
statement the service's memo answers runs its batch of one on its own
handler thread, since it has nothing to share.  After each prediction an
:class:`~repro.serve.admission.AdmissionController` reviews the
forecast — per-client quotas and bowling-ball shedding, the paper's own
workload-management use case — and rejections come back as 429/503 with
machine-readable retry hints, never bare 500s.

Model artifacts hot-reload on SIGHUP or ``POST /admin/reload`` by
swapping an immutable ``_Runtime`` snapshot; in-flight batches hold the
old snapshot, so a reload never drops or mixes responses (every
response names the ``model_version`` that produced it).

Requests may carry a ``deadline_ms`` budget, threaded as a
:class:`~repro.resilience.deadline.Deadline` through
``optimize → featurize → predict``; a spent budget is a structured 504
(*never* a silently late answer); and ``repro.serve.supervisor`` runs
the whole daemon as a health-checked child with crash recovery on an
inherited socket.

Each decision on the request path is written once: :data:`ROUTES` maps
a method and path to its handler and the body fields it reads,
:data:`OUTCOMES` maps what a forecast request raised to its answer, and
a :class:`~repro.serve.batcher.ForecastRequest` built once from the
validated body is what the batcher queues.  See docs/SERVING.md for the
operational guide.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.analysis.sanitizer import guarded_by, make_lock, note_access
from repro.engine.metrics import METRIC_NAMES
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFault,
    OptimizerError,
    ReproError,
    ServeError,
    SQLError,
)
from repro.obs.metrics import Histogram, enable_metrics, get_registry
from repro.obs.seam import stage
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.resilience.faults import fault_site
from repro.serve.admission import AdmissionController
from repro.serve.batcher import (
    BatchTooLargeError,
    ForecastRequest,
    MicroBatcher,
    QueueFullError,
)
from repro.serve.config import ServeConfig
from repro.serve import wire

__all__ = ["OUTCOMES", "PredictionDaemon", "ROUTES", "forecast_payload"]

#: How long a handler waits for its batch result before answering 503.
_REQUEST_TIMEOUT_S = 30.0
#: How long shutdown waits for the queue, then for in-flight requests.
_DRAIN_TIMEOUT_S = 10.0
#: Open time before the serving breaker half-opens.
_BREAKER_RESET_S = 30.0
#: Largest request body read; a longer one is refused unread (413).
_MAX_BODY_BYTES = 1 << 20
#: How long a connection closed after a refusal keeps reading (and
#: discarding) what its client still sends: closing a socket with unread
#: input resets the connection, which can destroy the refusal unread.
_LINGER_S = 1.0


def forecast_payload(forecast) -> dict:
    """JSON-able view of a :class:`~repro.api.Forecast`.

    Floats pass through ``json`` at full ``repr`` precision, so a
    decoded payload compares bitwise-equal to the in-process forecast —
    the property the black-box identity tests rely on.
    """
    confidence = forecast.confidence
    return {
        "metrics": {
            name: float(getattr(forecast.metrics, name))
            for name in METRIC_NAMES
        },
        "category": forecast.category,
        "optimizer_cost": float(forecast.optimizer_cost),
        "confidence": {
            "distance": float(confidence.distance),
            "zscore": float(confidence.zscore),
            "anomalous": bool(confidence.anomalous),
        },
        "served_by": forecast.served_by,
        "warnings": [
            {
                "rule_id": warning.rule_id,
                "operator": warning.operator,
                "message": warning.message,
                "severity": warning.severity,
            }
            for warning in forecast.warnings
        ],
    }


class _Runtime:
    """An immutable (service, version) snapshot.

    Reload builds a new ``_Runtime`` and swaps the daemon's reference;
    batches snapshot the reference once, so every statement in a batch
    is served by exactly one model version.
    """

    __slots__ = ("service", "version")

    def __init__(self, service, version: str) -> None:
        self.service = service
        self.version = version


class _Server(socketserver.ThreadingTCPServer):
    """One thread per connection, with a deep accept backlog.

    The stock backlog of 5 resets connections when a burst of clients
    connects at once — exactly the serving scenario — so it is raised
    well past the admission layer's own shedding thresholds (the daemon
    rejects with structured 429/503s, never TCP resets).

    Connections are persistent (HTTP/1.1 keep-alive), so a handler
    thread lives as long as its client keeps the connection.  The server
    tracks each one with its socket: :meth:`close_connections` is how
    ``PredictionDaemon.stop`` ends the idle ones, so that no handler
    thread outlives the daemon.
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._connections: dict[threading.Thread, socket.socket] = {}
        self._connections_lock = make_lock("serve.daemon.connections")
        guarded_by("serve.daemon.connections", self._connections_lock)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-serve-conn",
            daemon=True,
        )
        with self._connections_lock:
            note_access("serve.daemon.connections")
            self._connections[thread] = request
        thread.start()

    def shutdown_request(self, request) -> None:
        # Runs on the handler thread, last thing before it exits.
        with self._connections_lock:
            note_access("serve.daemon.connections")
            self._connections.pop(threading.current_thread(), None)
        super().shutdown_request(request)

    def close_connections(self, timeout_s: float) -> None:
        """End every open connection and wait for its handler thread.

        Only the read side is shut: a handler blocked waiting for the
        next request sees end-of-stream and exits, while one still
        writing a response finishes it first and exits on its next read.
        """
        with self._connections_lock:
            note_access("serve.daemon.connections")
            connections = list(self._connections.items())
        for _, request in connections:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already closed it
        deadline = time.monotonic() + timeout_s
        for thread, _ in connections:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


class _Outcome(NamedTuple):
    """The answer to a forecast request that raised."""

    status: int
    error: str
    #: None: no retry hint.  Else the hint is at least this many seconds,
    #: and at least the configured ``retry_after_s``.
    retry_s: Optional[float]
    #: Whether the serving breaker counts a failure.
    trips: bool
    #: Which ``requests.*`` count grows.
    counter: str
    #: The payload's fields after ``error``: ``detail`` is the message,
    #: ``breaker`` the breaker's state, ``max_queue`` the queue cap, and
    #: any other the error's attribute of that name.
    fields: tuple[str, ...] = ()


_EXPIRED = _Outcome(
    504, "deadline_exceeded", 0.0, False, "expired",
    ("stage", "budget_ms", "elapsed_ms"),
)
_BAD_STATEMENT = _Outcome(
    400, "bad_statement", None, False, "rejected", ("detail", "position")
)
_INTERNAL = _Outcome(500, "internal", None, False, "failed", ("detail",))

#: What a forecast request that raised answers, keyed on the exception's
#: type (its nearest class listed) and on where it was raised: on the
#: handler's thread, or in its batch (the record's ``error``).  A
#: statement that does not compile is its sender's error, and a spent
#: budget the caller's: neither is a breaker failure.  A
#: :class:`~repro.serve.wire.WireError` — an admission refusal — answers
#: with its own status and payload, counted as rejected.
OUTCOMES: dict[tuple[type, str], _Outcome] = {
    (DeadlineExceededError, "handler"): _EXPIRED,
    (CircuitOpenError, "handler"): _Outcome(
        503, "breaker_open", _BREAKER_RESET_S, False, "rejected", ("breaker",)
    ),
    (BatchTooLargeError, "handler"): _Outcome(
        400, "batch_too_large", None, False, "rejected", ("detail", "max_queue")
    ),
    (QueueFullError, "handler"): _Outcome(
        503, "queue_full", 0.0, False, "rejected", ("detail",)
    ),
    (ServeError, "handler"): _Outcome(503, "shutting_down", 0.0, False, "rejected"),
    (TimeoutError, "handler"): _Outcome(
        503, "request_timeout", 0.0, False, "rejected"
    ),
    (InjectedFault, "handler"): _Outcome(
        503, "injected_fault", 0.0, True, "rejected", ("detail",)
    ),
    (ReproError, "handler"): _Outcome(
        503, "prediction_failed", 0.0, False, "rejected", ("detail",)
    ),
    (Exception, "handler"): _INTERNAL,
    (DeadlineExceededError, "batch"): _EXPIRED,
    (SQLError, "batch"): _BAD_STATEMENT,
    (OptimizerError, "batch"): _BAD_STATEMENT,
    (ReproError, "batch"): _Outcome(
        503, "prediction_failed", 0.0, True, "rejected", ("detail", "breaker")
    ),
    (Exception, "batch"): _INTERNAL._replace(trips=True),
}

#: The Prometheus counter each ``requests.*`` count but ``ok`` also feeds.
_COUNTER_SERIES = {
    "rejected": ("repro_serve_rejections_total", "rejected requests"),
    "failed": ("repro_serve_errors_total", "failed requests"),
    "expired": (
        "repro_serve_deadline_expired_total",
        "requests answered 504: deadline budget spent",
    ),
}


class PredictionDaemon:
    """Long-running serving daemon over a trained predictor.

    Args:
        service: an already-trained predictor to serve (in-memory mode;
            hot reload then requires an explicit artifact path).
        artifact: path to a saved model artifact; loaded through
            :func:`repro.api.resolve_artifact`, whose content digest
            becomes the served ``model_version``.
        config: all serving knobs (:class:`~repro.serve.config.ServeConfig`).
        clock: monotonic time source, injectable for tests (shared with
            the admission controller and serving breaker).
    """

    def __init__(
        self,
        service=None,
        artifact: Optional[Path] = None,
        config: Optional[ServeConfig] = None,
        clock=time.monotonic,
    ) -> None:
        if service is None and artifact is None:
            raise ServeError("PredictionDaemon needs a service or an artifact")
        self.config = config or ServeConfig()
        self._clock = clock
        self._artifact_path = Path(artifact) if artifact is not None else None
        if service is not None:
            # An in-memory service has no artifact digest to be named by.
            self._runtime = _Runtime(service, "mem-1")
        else:
            self._runtime = self._load_runtime(self._artifact_path)
        self._reload_lock = make_lock("serve.daemon.reload")
        self._state_lock = make_lock("serve.daemon.state")
        # The runtime *swap* is guarded; lock-free reads snapshot the
        # immutable _Runtime reference atomically (see docs/CONCURRENCY.md).
        guarded_by("serve.daemon.runtime_swap", self._reload_lock)
        guarded_by("serve.daemon.state", self._state_lock)
        self._inflight = 0
        self._stopping = False
        self._started_at: Optional[float] = None
        self.reloads = 0
        self._requests = dict.fromkeys(
            ("total", "ok", "rejected", "failed", "expired"), 0
        )
        self._latency = Histogram(
            "serve_request_seconds", "per-request serving latency"
        )
        self.breaker = CircuitBreaker(
            name="serve_batch",
            failure_threshold=self.config.breaker_failures,
            reset_timeout=_BREAKER_RESET_S,
            clock=clock,
        )
        self.admission = AdmissionController(
            quota_rate=self.config.quota_rate,
            quota_burst=self.config.effective_quota_burst,
            heavy_seconds=self.config.heavy_seconds,
            shed_inflight=self.config.shed_inflight,
            retry_after_s=self.config.retry_after_s,
            clock=clock,
        )
        self.batcher = MicroBatcher(
            self._predict_batch,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            clock=clock,
        )
        self._server: Optional[_Server] = None
        self._server_thread: Optional[threading.Thread] = None
        self._previous_sighup = None

    # -- model runtime ---------------------------------------------------

    def _load_runtime(self, path: Path) -> _Runtime:
        from repro.api import resolve_artifact

        fingerprint, service = resolve_artifact(path)
        return _Runtime(service, fingerprint)

    @property
    def model_version(self) -> str:
        return self._runtime.version

    def reload(self, artifact: Optional[Path] = None) -> str:
        """Atomically swap in a (re)loaded artifact; returns its version.

        In-flight batches keep the runtime they snapshotted, so no
        request is ever dropped or served by a mix of versions.
        """
        with self._reload_lock:
            path = Path(artifact) if artifact is not None else self._artifact_path
            if path is None:
                raise ServeError(
                    "no artifact to reload: daemon serves an in-memory "
                    "service; pass an artifact path"
                )
            runtime = self._load_runtime(path)
            note_access("serve.daemon.runtime_swap")
            self._artifact_path = path
            self._runtime = runtime
            self.reloads += 1
            get_registry().counter(
                "repro_serve_reloads_total", "model hot reloads"
            ).inc()
            return runtime.version

    def _predict_batch(self, sqls: list[str]) -> list:
        """One micro-batch → one ``forecast_many`` call (one kernel
        cross), tagged with the runtime version that served it."""
        with stage("serve.batch", n=len(sqls)):
            runtime = self._runtime
            forecasts = runtime.service.forecast_many(sqls)
        return [(forecast, runtime.version) for forecast in forecasts]

    # -- request path ----------------------------------------------------

    def dispatch_forecast(
        self,
        sqls: Sequence[str],
        client: str,
        deadline_ms: Optional[float] = None,
    ) -> tuple[int, dict]:
        """Full request path with accounting; returns (status, payload).

        ``deadline_ms`` is the request's budget; None takes the
        configured default, and with none configured it is unbounded.
        """
        arrived = self._clock()
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = None
        if deadline_ms is not None:
            deadline = Deadline.after_ms(deadline_ms, clock=self._clock)
        request = ForecastRequest(sqls, client, deadline, arrived)
        with self._state_lock:
            note_access("serve.daemon.state")
            self._inflight += 1
            inflight = self._inflight
        try:
            payload = self._forecast(request, inflight)
            status, counter = 200, "ok"
        except Exception as error:  # never leak a stack trace as a bare 500
            where = "batch" if error is request.error else "handler"
            status, payload, counter = self._refusal(error, where)
        elapsed = self._clock() - arrived
        self._latency.observe(elapsed)
        registry = get_registry()
        registry.histogram(
            "repro_serve_request_seconds", "serving request latency"
        ).observe(elapsed)
        registry.counter("repro_serve_requests_total", "serving requests").inc()
        if counter in _COUNTER_SERIES:
            registry.counter(*_COUNTER_SERIES[counter]).inc()
        with self._state_lock:
            note_access("serve.daemon.state")
            self._inflight -= 1
            self._requests["total"] += 1
            self._requests[counter] += 1
        return status, payload

    def _forecast(self, request: ForecastRequest, inflight: int) -> dict:
        """The success payload for ``request``; raises for every other
        outcome (:data:`OUTCOMES`), its batch's error included."""
        fault_site("serve.handler", client=request.client, n=len(request.sqls))
        if self._stopping:
            raise ServeError("daemon is shutting down")
        deadline = request.deadline
        if deadline is not None:
            # A budget already spent on arrival is refused before any
            # compute is spent on it.
            deadline.check("arrival")
        held = self._runtime.service.held_forecasts(request.sqls)
        if not self.breaker.allow():
            raise CircuitOpenError(f"breaker {self.breaker.name!r} is open")
        # A request the memo answers in full costs less than waking the
        # collector and being woken by it: its batch runs right here.
        (self.batcher.submit if held is None else self.batcher.run)(request)
        timeout_s = _REQUEST_TIMEOUT_S
        if deadline is not None:
            # No point waiting past the caller's own budget; the margin
            # lets the batcher's own expiry land first.
            timeout_s = min(timeout_s, deadline.remaining_s() + 0.05)
        if not request.event.wait(timeout_s):
            if deadline is not None:
                deadline.check("wait")
            raise TimeoutError(f"no batch result within {timeout_s:.3f} s")
        if request.error is not None:
            raise request.error
        self.breaker.record_success()
        results = request.results
        predicted_seconds = sum(
            float(forecast.metrics.elapsed_time) for forecast, _ in results
        )
        decision = self.admission.review(
            request.client, predicted_seconds, inflight
        )
        if not decision.admitted:
            raise wire.WireError(
                decision.status,
                decision.reason,
                admission=decision.to_payload(),
                predicted_seconds=predicted_seconds,
                retry_after_s=round(decision.retry_after_s, 3),
            )
        payload = {
            "forecasts": [forecast_payload(f) for f, _ in results],
            "model_version": results[0][1],
            "served_by": results[0][0].served_by,
            "weight_class": decision.weight_class,
            "predicted_seconds": predicted_seconds,
            "client": request.client,
        }
        if deadline is not None:
            payload["deadline"] = deadline.to_payload()
        return payload

    def _refusal(self, error: Exception, where: str) -> tuple[int, dict, str]:
        """``(status, payload, counter)`` for a request that raised
        ``error`` ``where`` (:data:`OUTCOMES`); counts the breaker
        failure the table asks for."""
        if isinstance(error, wire.WireError):
            return error.status, error.payload, "rejected"
        outcome = next(
            OUTCOMES[kind, where]
            for kind in type(error).__mro__
            if (kind, where) in OUTCOMES
        )
        if outcome.trips:
            self.breaker.record_failure(str(error))
        payload = {"error": outcome.error}
        for name in outcome.fields:
            if name == "detail":
                payload[name] = str(error)
            elif name == "breaker":
                payload[name] = self.breaker.status()
            elif name == "max_queue":
                payload[name] = self.config.max_queue
            else:
                value = getattr(error, name, None)
                payload[name] = round(value, 3) if isinstance(value, float) else value
        if outcome.retry_s is not None:
            retry_after_s = max(self.config.retry_after_s, outcome.retry_s)
            if retry_after_s > 0:
                payload["retry_after_s"] = round(retry_after_s, 3)
        return outcome.status, payload, outcome.counter

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """The ``/admin/status`` document."""
        with self._state_lock:
            note_access("serve.daemon.state")
            inflight = self._inflight
            counters = dict(self._requests)
        percentiles = self._latency.percentiles()
        p99_ms = percentiles["p99"] * 1e3
        slo = {
            "p50_ms": round(percentiles["p50"] * 1e3, 3),
            "p99_ms": round(p99_ms, 3),
            "target_p99_ms": self.config.slo_p99_ms,
            "met": (
                None
                if self.config.slo_p99_ms is None or not counters["total"]
                else p99_ms <= self.config.slo_p99_ms
            ),
        }
        service = self._runtime.service
        batcher = self.batcher.stats()
        return {
            "model_version": self.model_version,
            "artifact": (
                str(self._artifact_path) if self._artifact_path else None
            ),
            "uptime_s": (
                round(self._clock() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
            "stopping": self._stopping,
            "inflight": inflight,
            "reloads": self.reloads,
            "requests": counters,
            "slo": slo,
            "batcher": batcher,
            "admission": self.admission.status(),
            "breaker": self.breaker.status(),
            "memo": service.memo.stats(),
            "templates": service.optimizer.templates.stats(),
            "deadline": {
                "default_deadline_ms": self.config.default_deadline_ms,
                "expired_requests": batcher["expired_requests"],
                "stage_ms": batcher["stage_ms"],
            },
        }

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise ServeError("daemon is not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Bind, start the batcher + HTTP threads, return the address."""
        if self._server is not None:
            raise ServeError("daemon already started")
        server = _Server((self.config.host, self.config.port), _RequestHandler)
        return self._start_server(server)

    def start_on_socket(self, sock: socket.socket) -> tuple[str, int]:
        """Serve on an already-bound, already-listening socket.

        The supervisor's restart path: the parent owns the listening
        socket and hands it (fork-inherited) to every child generation,
        so the address never closes across crashes — clients see a
        structured 503 from the parent during the gap, never a
        connection reset.
        """
        if self._server is not None:
            raise ServeError("daemon already started")
        host, port = sock.getsockname()[:2]
        server = _Server((host, port), _RequestHandler, bind_and_activate=False)
        server.socket.close()  # replace the unbound stock socket
        sock.setblocking(True)  # a parent-side timeout must not leak in
        server.socket = sock
        server.server_address = sock.getsockname()
        return self._start_server(server)

    def _start_server(self, server: _Server) -> tuple[str, int]:
        # ``/metrics`` serves the process registry: library spans and
        # counters record alongside the serving series.
        enable_metrics()
        server.repro_daemon = self  # type: ignore[attr-defined]
        self._server = server
        self.batcher.start()
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        self._started_at = self._clock()
        self._install_sighup()
        return self.address

    def _install_sighup(self) -> None:
        from repro.serve.supervisor import install_signal_handler

        def _on_sighup(signum, frame) -> None:
            def _reload() -> None:
                try:
                    self.reload()
                except ReproError:
                    pass  # surfaced via /admin/status reload counter

            threading.Thread(
                target=_reload, name="repro-serve-sighup", daemon=True
            ).start()

        self._previous_sighup = install_signal_handler(
            "SIGHUP", _on_sighup
        )

    def stop(self, drain: bool = True) -> None:
        """Shut down: refuse new work, drain the queue, stop accepting,
        close the kept-alive connections, close the socket."""
        if self._server is None:
            return
        self._stopping = True
        self.batcher.stop(drain=drain, timeout_s=_DRAIN_TIMEOUT_S)
        deadline = self._clock() + _DRAIN_TIMEOUT_S
        while self._clock() < deadline:
            with self._state_lock:
                note_access("serve.daemon.state")
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        self._server.shutdown()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
        self._server.close_connections(timeout_s=5.0)
        self._server.server_close()
        self._server = None
        self._server_thread = None
        if self._previous_sighup is not None:
            from repro.serve.supervisor import install_signal_handler

            install_signal_handler("SIGHUP", self._previous_sighup)
            self._previous_sighup = None

    def __enter__(self) -> "PredictionDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _json_body(raw: bytes) -> dict:
    """A request body as a JSON object; ``{}`` when there is none."""
    if not raw:
        return {}
    try:
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # json.loads recurses per nesting level: deep is bad JSON too.
        raise wire.WireError(400, "bad_json", detail=str(error)) from error
    if not isinstance(document, dict):
        raise wire.WireError(
            400, "bad_json", detail="request body must be a JSON object"
        )
    return document


# -- body field validators: the value → the handler's argument, or
# -- ValueError (a 400 ``bad_request`` with the message as its detail)


def _statement(value) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError("missing 'sql'")
    return value


def _statements(value) -> list:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(s, str) and s.strip() for s in value)
    ):
        raise ValueError("'sqls' must be a non-empty list of SQL")
    return value


def _deadline_ms(value) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("'deadline_ms' must be a number")
    try:
        # json.loads accepts NaN and Infinity; neither is a budget,
        # and either would be echoed back as invalid JSON.
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ValueError("'deadline_ms' must be finite")
    if value <= 0:
        raise ValueError("'deadline_ms' must be positive")
    return float(value)


def _artifact(value) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ValueError("'artifact' must be a path string")
    return value


# -- route handlers: (daemon, **validated fields) → (status, payload)


def _healthz(daemon: PredictionDaemon) -> tuple[int, dict]:
    status = "stopping" if daemon._stopping else "ok"
    return 200, {"status": status, "model_version": daemon.model_version}


def _forecast_one(daemon: PredictionDaemon, sql: str, **fields) -> tuple[int, dict]:
    status, payload = daemon.dispatch_forecast([sql], **fields)
    if status == 200:
        payload["forecast"] = payload.pop("forecasts")[0]
    return status, payload


def _reload(daemon: PredictionDaemon, artifact: Optional[str]) -> tuple[int, dict]:
    try:
        version = daemon.reload(artifact)
    except ReproError as error:
        raise wire.WireError(409, "reload_failed", detail=str(error)) from error
    return 200, {"status": "reloaded", "model_version": version}


class _Route(NamedTuple):
    handler: Callable[..., tuple[int, Union[dict, str]]]
    #: Body field → validator; a route without fields never parses its body.
    fields: dict[str, Callable] = {}


#: ``client`` falls back to the ``X-Repro-Client`` header, then the peer.
_FORECAST_FIELDS = {"deadline_ms": _deadline_ms, "client": str}

#: Every endpoint: ``(method, path)`` → its handler and the body fields
#: it reads.  A request's route is looked up before its body is parsed
#: (404 / 501), and only that route's fields are validated.
ROUTES: dict[tuple[str, str], _Route] = {
    ("GET", "/healthz"): _Route(_healthz),
    ("GET", "/metrics"): _Route(
        lambda daemon: (200, get_registry().render_prometheus())
    ),
    ("GET", "/admin/status"): _Route(lambda daemon: (200, daemon.status())),
    ("POST", "/v1/forecast"): _Route(
        _forecast_one, {**_FORECAST_FIELDS, "sql": _statement}
    ),
    ("POST", "/v1/forecast_batch"): _Route(
        PredictionDaemon.dispatch_forecast, {**_FORECAST_FIELDS, "sqls": _statements}
    ),
    ("POST", "/admin/reload"): _Route(_reload, {"artifact": _artifact}),
}
_METHODS = {method for method, _ in ROUTES}


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: read a request, route it, write the response, until
    the client closes, idles out or sends what cannot be framed.  Every
    decision lives in the daemon; the framing lives in
    :mod:`repro.serve.wire`."""

    #: Seconds a persistent connection may sit without a request before
    #: the handler closes it (clients reconnect transparently).
    timeout = 30.0
    # A kept-alive exchange is one small write each way; with Nagle on,
    # each response would wait ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        while True:
            try:
                request = wire.read_request(self.rfile, _MAX_BODY_BYTES, self.wfile)
            except wire.WireError as refused:
                self._refuse(refused)
                return
            except OSError:
                return  # idle timeout, reset, or shut down by the daemon
            if request is None:
                return
            try:
                self.wfile.write(self._respond(request))
            except OSError:
                return  # client went away mid-response
            if not request.keep_alive:
                return

    def _refuse(self, refused: wire.WireError) -> None:
        """Answer a request that cannot be framed, then close: end our
        side and discard what the client still sends for a while, so the
        close does not reset the connection under the answer."""
        try:
            self.wfile.write(wire.refusal(refused))
            self.connection.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + _LINGER_S
            while time.monotonic() < deadline:
                self.connection.settimeout(deadline - time.monotonic())
                if not self.rfile.read1(65536):
                    break
        except (OSError, ValueError):
            pass  # the client went away: nothing left to protect

    def _respond(self, request: wire.Request) -> bytes:
        """The whole response to one framed request."""
        daemon: PredictionDaemon = self.server.repro_daemon  # type: ignore[attr-defined]
        try:
            status, payload = self._route(daemon, request)
        except Exception as error:  # a refusal, or a bug: never a bare 500
            status, payload, _ = daemon._refusal(error, "handler")
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4"
            retry_after_s = 0.0
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
            retry_after_s = payload.get("retry_after_s", 0.0)
        if not request.keep_alive:
            connection: Optional[str] = "close"
        elif request.version == "HTTP/1.0":
            connection = "keep-alive"
        else:
            connection = None
        return wire.response(status, body, content_type, connection, retry_after_s)

    def _route(
        self, daemon: PredictionDaemon, request: wire.Request
    ) -> tuple[int, Union[dict, str]]:
        """``(status, payload)``: a JSON-able dict, or text for /metrics."""
        route = ROUTES.get((request.method, request.target))
        if route is None:
            if request.method not in _METHODS:
                raise wire.WireError(
                    501,
                    "not_implemented",
                    detail=f"method {request.method[:16]!r} is not served; "
                    "use GET or POST",
                )
            raise wire.WireError(404, "not_found", path=request.target)
        body = _json_body(request.body) if route.fields else {}
        values = {}
        for name, check in route.fields.items():
            value = body.get(name)
            if name == "client" and not value:
                value = (
                    request.headers.get("x-repro-client") or self.client_address[0]
                )
            try:
                values[name] = check(value)
            except ValueError as error:
                raise wire.WireError(400, "bad_request", detail=str(error)) from error
        return route.handler(daemon, **values)
