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
(*never* a silently late answer).  Under sustained pressure a
:class:`~repro.serve.degrade.DegradeController` steps the daemon down
explicit service tiers — and back up hysteretically — trading quality
for survival; and ``repro.serve.supervisor`` runs the whole daemon as a
health-checked child with crash recovery on an inherited socket.

Endpoints::

    GET  /healthz             liveness + model version
    GET  /metrics             Prometheus text exposition
    GET  /admin/status        batching/admission/breaker/SLO/degrade snapshot
    POST /v1/forecast         {"sql": "...", "client": "...", "deadline_ms": 250}
    POST /v1/forecast_batch   {"sqls": [...], "client": "...", "deadline_ms": 250}
    POST /admin/reload        {"artifact": "path"}  (optional body)

See docs/SERVING.md for the operational guide.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.sanitizer import guarded_by, make_lock, note_access
from repro.engine.metrics import METRIC_NAMES
from repro.errors import (
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
from repro.serve.batcher import BatchTooLargeError, MicroBatcher, QueueFullError
from repro.serve.config import ServeConfig
from repro.serve.degrade import DegradeController
from repro.serve import wire

__all__ = ["PredictionDaemon", "forecast_payload"]

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
    confidence = None
    if forecast.confidence is not None:
        confidence = {
            "distance": float(forecast.confidence.distance),
            "zscore": float(forecast.confidence.zscore),
            "anomalous": bool(forecast.confidence.anomalous),
        }
    return {
        "metrics": {
            name: float(getattr(forecast.metrics, name))
            for name in METRIC_NAMES
        },
        "category": forecast.category,
        "optimizer_cost": float(forecast.optimizer_cost),
        "confidence": confidence,
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


class _Response(Exception):
    """Control-flow carrier for a non-200 structured response."""

    def __init__(
        self, status: int, reason: str, retry_after_s: float = 0.0, **extra
    ) -> None:
        super().__init__(reason)
        self.status = status
        self.payload = {"error": reason, **extra}
        if retry_after_s > 0:
            self.payload["retry_after_s"] = round(retry_after_s, 3)
        self.retry_after_s = retry_after_s


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
        self.requests_total = 0
        self.requests_ok = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self.requests_expired = 0
        self.served_stale = 0
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
        self.degrade: Optional[DegradeController] = None
        if self.config.degrade or self.config.degrade_force_tier is not None:
            self.degrade = DegradeController(
                queue_depth=self.config.degrade_queue_depth,
                slo_p99_ms=self.config.slo_p99_ms,
                down_after_s=self.config.degrade_down_after_s,
                up_after_s=self.config.degrade_up_after_s,
                force_tier=self.config.degrade_force_tier,
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
        cross), tagged with the runtime version that served it.

        Applies the current degradation tier's quality lever: tier 1+
        floors the fallback chain at the cheap regression stage for this
        batch.
        """
        with stage("serve.batch", n=len(sqls)):
            runtime = self._runtime
            floor = None
            if self.degrade is not None:
                floor = self.degrade.fallback_floor()
            chain = runtime.service.fallback_chain()
            if chain is not None:
                chain.set_floor(floor)
            try:
                forecasts = runtime.service.forecast_many(sqls)
            finally:
                if chain is not None:
                    chain.set_floor(None)
        return [(forecast, runtime.version) for forecast in forecasts]

    # -- degradation ladder ----------------------------------------------

    def _observe_pressure(self) -> int:
        """Feed one pressure observation to the ladder; returns the tier."""
        if self.degrade is None:
            return 0
        p99_ms: Optional[float] = None
        if self.requests_total:
            p99_ms = self._latency.percentiles()["p99"] * 1e3
        return self.degrade.evaluate(
            queue_depth=self.batcher.depth(),
            p99_ms=p99_ms,
            breaker_open=self.breaker.state == "open",
        )

    def _serve_stale(
        self, forecasts: list, version: str, client: str, tier: int
    ) -> dict:
        """A full response from the memo's last forecasts (tier ``stale``;
        the caller has checked that the memo holds every statement: a
        mixed-freshness response would be impossible to reason about)."""
        with self._state_lock:
            note_access("serve.daemon.state")
            self.served_stale += 1
        if self.config.metrics:
            get_registry().counter(
                "repro_serve_stale_served_total",
                "responses served from the statement memo's last forecasts",
            ).inc()
        return {
            "forecasts": [forecast_payload(f) for f in forecasts],
            "model_version": version,
            "served_by": "stale_cache",
            "degrade_tier": tier,
            "stale": True,
            "client": client,
        }

    # -- request path ----------------------------------------------------

    def _deadline_for(self, deadline_ms: Optional[float]) -> Optional[Deadline]:
        """The request's deadline: its own budget, else the configured
        default, else unbounded (None)."""
        budget_ms = (
            deadline_ms
            if deadline_ms is not None
            else self.config.default_deadline_ms
        )
        if budget_ms is None:
            return None
        return Deadline.after_ms(budget_ms, clock=self._clock)

    def _expired_response(self, error: DeadlineExceededError) -> _Response:
        """The structured 504 a spent budget maps to."""
        return _Response(
            504,
            "deadline_exceeded",
            retry_after_s=self.config.retry_after_s,
            stage=error.stage,
            budget_ms=round(error.budget_ms, 3),
            elapsed_ms=round(error.elapsed_ms, 3),
        )

    def handle_forecast(
        self,
        sqls: Sequence[str],
        client: str,
        deadline_ms: Optional[float] = None,
    ) -> dict:
        """Predict ``sqls`` for ``client`` through the batch path.

        Returns the success payload; raises :class:`_Response` for every
        structured non-200 outcome (bad statement, shed, quota, breaker,
        fault, spent deadline).
        """
        with self._state_lock:
            note_access("serve.daemon.state")
            self._inflight += 1
            inflight = self._inflight
        try:
            fault_site("serve.handler", client=client, n=len(sqls))
            if self._stopping:
                raise _Response(
                    503, "shutting_down", retry_after_s=self.config.retry_after_s
                )
            deadline = self._deadline_for(deadline_ms)
            tier = self._observe_pressure()
            if deadline is not None and deadline.expired():
                # The client shipped an already-dead budget: 504 before
                # any compute is spent on it.
                raise _Response(
                    504,
                    "deadline_exceeded",
                    retry_after_s=self.config.retry_after_s,
                    stage="arrival",
                    budget_ms=round(deadline.budget_ms or 0.0, 3),
                    elapsed_ms=round(deadline.elapsed_s() * 1e3, 3),
                )
            runtime = self._runtime
            held, current = runtime.service.held_forecasts(sqls)
            stale_ok = self.degrade is not None and self.degrade.stale_ok()
            if held is not None and stale_ok:
                return self._serve_stale(held, runtime.version, client, tier)
            if not self.breaker.allow():
                raise _Response(
                    503,
                    "breaker_open",
                    retry_after_s=max(
                        self.config.retry_after_s, _BREAKER_RESET_S
                    ),
                    breaker=self.breaker.status(),
                )
            # A request the memo answers in full costs less than waking the
            # collector and being woken by it: its batch runs right here.
            run = self.batcher.run if current else self.batcher.submit
            try:
                pending = run(sqls, client, deadline=deadline)
            except BatchTooLargeError as error:
                # No retry can fit it: the sender's error, so no retry
                # hint and no breaker failure.
                raise _Response(
                    400,
                    "batch_too_large",
                    detail=str(error),
                    max_queue=self.config.max_queue,
                ) from error
            except QueueFullError as error:
                raise _Response(
                    503,
                    "queue_full",
                    retry_after_s=self.config.retry_after_s,
                    detail=str(error),
                ) from error
            except ServeError as error:
                raise _Response(
                    503, "shutting_down", retry_after_s=self.config.retry_after_s
                ) from error
            timeout_s = _REQUEST_TIMEOUT_S
            if deadline is not None and deadline.budget_s is not None:
                # No point waiting past the caller's own budget; the
                # margin lets the batcher's own expiry land first.
                timeout_s = min(timeout_s, deadline.remaining_s() + 0.05)
            if not pending.event.wait(timeout_s):
                if deadline is not None and deadline.expired():
                    raise _Response(
                        504,
                        "deadline_exceeded",
                        retry_after_s=self.config.retry_after_s,
                        stage="wait",
                        budget_ms=round(deadline.budget_ms or 0.0, 3),
                        elapsed_ms=round(deadline.elapsed_s() * 1e3, 3),
                    )
                raise _Response(
                    503,
                    "request_timeout",
                    retry_after_s=self.config.retry_after_s,
                )
            if pending.error is not None:
                if isinstance(pending.error, DeadlineExceededError):
                    # The client's budget ran out, not a daemon fault:
                    # the breaker does not count it.
                    raise self._expired_response(pending.error)
                if isinstance(pending.error, (SQLError, OptimizerError)):
                    # The sender's statement does not parse or bind:
                    # nothing to retry and no daemon fault, so neither a
                    # retry hint nor a breaker failure.
                    raise _Response(
                        400,
                        "bad_statement",
                        detail=str(pending.error),
                        position=getattr(pending.error, "position", None),
                    )
                self.breaker.record_failure(str(pending.error))
                if isinstance(pending.error, (InjectedFault, ReproError)):
                    raise _Response(
                        503,
                        "prediction_failed",
                        retry_after_s=self.config.retry_after_s,
                        detail=str(pending.error),
                        breaker=self.breaker.status(),
                    )
                raise pending.error
            self.breaker.record_success()
            results = pending.results
            predicted_seconds = sum(
                float(forecast.metrics.elapsed_time) for forecast, _ in results
            )
            decision = self.admission.review(client, predicted_seconds, inflight)
            if not decision.admitted:
                raise _Response(
                    decision.status,
                    decision.reason,
                    retry_after_s=decision.retry_after_s,
                    admission=decision.to_payload(),
                    predicted_seconds=predicted_seconds,
                )
            payload = {
                "forecasts": [forecast_payload(f) for f, _ in results],
                "model_version": results[0][1],
                "served_by": results[0][0].served_by,
                "weight_class": decision.weight_class,
                "predicted_seconds": predicted_seconds,
                "client": client,
            }
            if self.degrade is not None:
                payload["degrade_tier"] = tier
            if deadline is not None:
                payload["deadline"] = deadline.to_payload()
            return payload
        except InjectedFault as error:
            self.breaker.record_failure(str(error))
            raise _Response(
                503,
                "injected_fault",
                retry_after_s=self.config.retry_after_s,
                detail=str(error),
            ) from error
        finally:
            with self._state_lock:
                note_access("serve.daemon.state")
                self._inflight -= 1

    def dispatch_forecast(
        self,
        sqls: Sequence[str],
        client: str,
        deadline_ms: Optional[float] = None,
    ) -> tuple[int, dict]:
        """Full request path with accounting; returns (status, payload)."""
        start = self._clock()
        try:
            payload = self.handle_forecast(sqls, client, deadline_ms=deadline_ms)
            status = 200
        except _Response as response:
            status, payload = response.status, response.payload
        except DeadlineExceededError as error:
            response = self._expired_response(error)
            status, payload = response.status, response.payload
        except ReproError as error:
            status = 503
            payload = {
                "error": "prediction_failed",
                "detail": str(error),
                "retry_after_s": self.config.retry_after_s,
            }
        except Exception as error:  # never leak a stack trace as a bare 500
            status = 500
            payload = {"error": "internal", "detail": str(error)}
        elapsed = self._clock() - start
        self._latency.observe(elapsed)
        registry = get_registry()
        registry.histogram(
            "repro_serve_request_seconds", "serving request latency"
        ).observe(elapsed)
        registry.counter("repro_serve_requests_total", "serving requests").inc()
        with self._state_lock:
            note_access("serve.daemon.state")
            self.requests_total += 1
            if status == 200:
                self.requests_ok += 1
            elif status == 504:
                self.requests_expired += 1
                registry.counter(
                    "repro_serve_deadline_expired_total",
                    "requests answered 504: deadline budget spent",
                ).inc()
            elif status in (400, 429, 503):
                self.requests_rejected += 1
                registry.counter(
                    "repro_serve_rejections_total", "rejected requests"
                ).inc()
            else:
                self.requests_failed += 1
                registry.counter(
                    "repro_serve_errors_total", "failed requests"
                ).inc()
        return status, payload

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """The ``/admin/status`` document."""
        with self._state_lock:
            note_access("serve.daemon.state")
            inflight = self._inflight
            counters = {
                "total": self.requests_total,
                "ok": self.requests_ok,
                "rejected": self.requests_rejected,
                "failed": self.requests_failed,
                "expired": self.requests_expired,
                "served_stale": self.served_stale,
            }
        percentiles = self._latency.percentiles()
        p99_ms = percentiles["p99"] * 1e3
        slo = {
            "p50_ms": round(percentiles["p50"] * 1e3, 3),
            "p99_ms": round(p99_ms, 3),
            "target_p99_ms": self.config.slo_p99_ms,
            "met": (
                None
                if self.config.slo_p99_ms is None or not self.requests_total
                else p99_ms <= self.config.slo_p99_ms
            ),
        }
        service = self._runtime.service
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
            "batcher": self.batcher.stats(),
            "admission": self.admission.status(),
            "breaker": self.breaker.status(),
            "resilience": service.resilience_status(),
            "degrade": (
                self.degrade.status() if self.degrade is not None else None
            ),
            "memo": service.memo.stats(),
            "templates": service.optimizer.templates.stats(),
            "deadline": {
                "default_deadline_ms": self.config.default_deadline_ms,
                "expired_requests": self.batcher.expired_requests,
                "stage_ms": self.batcher.stats()["stage_ms"],
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
        if self.config.metrics:
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
    document = json.loads(raw.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("request body must be a JSON object")
    return document


def _deadline_ms(body: dict) -> Optional[float]:
    """The request's ``deadline_ms``, validated (ValueError on junk)."""
    value = body.get("deadline_ms")
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
        try:
            status, payload = self._route(request)
        except Exception as error:  # never leak a stack trace as a bare 500
            status, payload = 500, {"error": "internal", "detail": str(error)}
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

    def _route(self, request: wire.Request) -> tuple[int, Union[dict, str]]:
        """``(status, payload)``: a JSON-able dict, or text for /metrics."""
        daemon: PredictionDaemon = self.server.repro_daemon  # type: ignore[attr-defined]
        path = request.target
        if request.method == "GET":
            if path == "/healthz":
                return 200, {
                    "status": "stopping" if daemon._stopping else "ok",
                    "model_version": daemon.model_version,
                }
            if path == "/metrics":
                return 200, get_registry().render_prometheus()
            if path == "/admin/status":
                return 200, daemon.status()
            return 404, {"error": "not_found", "path": path}
        if request.method != "POST":
            return 501, {
                "error": "not_implemented",
                "detail": f"method {request.method[:16]!r} is not served; "
                "use GET or POST",
            }
        try:
            body = _json_body(request.body)
        except (ValueError, UnicodeDecodeError, RecursionError) as error:
            # json.loads recurses per nesting level: deep is bad JSON too.
            return 400, {"error": "bad_json", "detail": str(error)}
        try:
            deadline_ms = _deadline_ms(body)
        except ValueError as error:
            return 400, {"error": "bad_request", "detail": str(error)}
        client = str(
            body.get("client")
            or request.headers.get("x-repro-client")
            or self.client_address[0]
        )
        if path == "/v1/forecast":
            sql = body.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                return 400, {"error": "bad_request", "detail": "missing 'sql'"}
            status, payload = daemon.dispatch_forecast(
                [sql], client, deadline_ms=deadline_ms
            )
            if status == 200:
                payload = dict(payload)
                payload["forecast"] = payload.pop("forecasts")[0]
            return status, payload
        if path == "/v1/forecast_batch":
            sqls = body.get("sqls")
            if (
                not isinstance(sqls, list)
                or not sqls
                or not all(isinstance(s, str) and s.strip() for s in sqls)
            ):
                return 400, {
                    "error": "bad_request",
                    "detail": "'sqls' must be a non-empty list of SQL",
                }
            return daemon.dispatch_forecast(sqls, client, deadline_ms=deadline_ms)
        if path == "/admin/reload":
            artifact = body.get("artifact")
            if artifact is not None and not isinstance(artifact, str):
                return 400, {
                    "error": "bad_request",
                    "detail": "'artifact' must be a path string",
                }
            try:
                version = daemon.reload(artifact)
            except ReproError as error:
                return 409, {"error": "reload_failed", "detail": str(error)}
            return 200, {"status": "reloaded", "model_version": version}
        return 404, {"error": "not_found", "path": path}
