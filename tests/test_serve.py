"""Black-box tests for the prediction serving daemon.

Every daemon in this file listens on a real loopback socket (port 0 →
ephemeral) and is exercised through :class:`repro.serve.ServeClient` —
the same HTTP/JSON surface an external workload manager would use.  The
headline guarantees:

* concurrent clients land in shared micro-batches (asserted by counting
  ``gaussian_kernel_cross`` invocations — N requests, < N crosses);
* a served forecast is bitwise-identical to an in-process
  ``service.forecast`` call;
* admission rejections are structured 429/503s with machine-readable
  retry hints, never bare 500s;
* hot reload swaps artifacts atomically — responses are never dropped
  and never mix model versions;
* shutdown drains the queue before closing the socket.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import repro.core.predictor as predictor_module
from repro.api import (
    QueryPerformancePredictor,
    artifact_fingerprint,
    clear_artifact_cache,
    resolve_artifact,
)
from repro.errors import (
    OptimizerError,
    ParseError,
    ServeBadStatementError,
    ServeError,
    ServeRejectedError,
    ServeUnavailableError,
)
from repro.resilience.faults import FaultPlan, armed
from repro.serve import (
    AdmissionController,
    BatchTooLargeError,
    MicroBatcher,
    PredictionDaemon,
    QueueFullError,
    ServeClient,
    ServeConfig,
    TokenBucket,
)
from repro.serve.daemon import OUTCOMES, ROUTES, forecast_payload
from repro.serve.loadgen import run_load
from tests._artifacts import damage

SQL_LIGHT = "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 30"
SQL_JOIN = (
    "SELECT i.i_category, sum(ss.ss_net_profit) AS total FROM store_sales ss "
    "JOIN item i ON ss.ss_item_sk = i.i_item_sk GROUP BY i.i_category"
)
#: Literals no other request carries (see :func:`fresh_light`).
_FRESH_LITERALS = itertools.count(100_000)


def fresh_light() -> str:
    """``SQL_LIGHT`` with a literal no request has carried before: the
    (session-wide) service's memo cannot answer it, so its request queues
    for the collector instead of running on its handler thread."""
    return SQL_LIGHT.replace("> 30", f"> {next(_FRESH_LITERALS)}")


def start_daemon(service, **overrides) -> PredictionDaemon:
    """A daemon on an ephemeral loopback port with test-friendly knobs."""
    defaults = dict(max_batch=8)
    defaults.update(overrides)
    daemon = PredictionDaemon(service=service, config=ServeConfig(**defaults))
    daemon.start()
    return daemon


def client_for(daemon: PredictionDaemon, client_id="test") -> ServeClient:
    host, port = daemon.address
    return ServeClient(host, port, timeout_s=30.0, client_id=client_id)


def raw_post(daemon: PredictionDaemon, path: str, body: bytes):
    """POST ``body`` byte for byte over a bare socket — what a client
    that is not ours may send; returns (status, header block, body)."""
    request = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection(daemon.address, timeout=30.0) as sock:
        sock.sendall(request)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head.decode("latin-1"), payload.decode("utf-8")


def raw_exchange(daemon: PredictionDaemon, data: bytes) -> list:
    """Send ``data`` in one write over a bare socket, read until the
    daemon closes; returns each response as (status, headers, body)."""
    with socket.create_connection(daemon.address, timeout=30.0) as sock:
        sock.sendall(data)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    responses = []
    while raw:
        head, separator, raw = raw.partition(b"\r\n\r\n")
        assert separator, head
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append((int(status), headers, raw[:length]))
        raw = raw[length:]
    return responses


def strict_json(text: str):
    """Parse as a strict client would: NaN/Infinity are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# ----------------------------------------------------------------------
# Plumbing: health, metrics, error shapes
# ----------------------------------------------------------------------


class TestEndpoints:
    def test_healthz_reports_model_version(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            health = client_for(daemon).health()
            assert health["status"] == "ok"
            assert health["model_version"] == daemon.model_version
        finally:
            daemon.stop()

    def test_metrics_exposes_prometheus_text(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            client.forecast(SQL_LIGHT)
            text = client.metrics_text()
        finally:
            daemon.stop()
        assert "repro_serve_requests_total" in text
        # Valid exposition text: every non-comment line is "name value".
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.partition(" ")
            assert name and value, line
            float(value)

    def test_unknown_path_is_structured_404(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            status, payload = client._request("POST", "/v1/nope", {})
            assert status == 404
            assert payload["error"] == "not_found"
            # The route is looked up before the body is parsed, and a
            # route validates only the fields it reads.
            status, _head, text = raw_post(daemon, "/v1/nope", b"{not json")
            assert (status, strict_json(text)["error"]) == (404, "not_found")
            status, payload = client._request(
                "POST", "/admin/reload", {"deadline_ms": -1}
            )
            assert status != 400, payload
        finally:
            daemon.stop()

    def test_outcome_and_route_tables_are_the_documented_ones(self):
        """docs/SERVING.md's endpoint table lists exactly the daemon's
        routes, and its status table every error the outcome table (and
        admission, whose refusals answer as they are) can emit, under
        the same status."""
        doc = (Path(__file__).resolve().parents[1] / "docs" / "SERVING.md").read_text()

        def table(heading: str) -> list:
            """The rows of the first table after ``heading``, as cells."""
            lines = doc.split(heading, 1)[1].splitlines()
            lines = itertools.dropwhile(lambda line: line[:1] != "|", lines)
            rows = itertools.takewhile(lambda line: line[:1] == "|", lines)
            return [[cell.strip() for cell in row.strip("|").split("|")]
                    for row in list(rows)[2:]]

        endpoints = {(row[0], row[1].strip("`")) for row in table("## Endpoints")}
        assert endpoints == set(ROUTES)
        documented = {
            (int(row[0]), error)
            for row in table("Status codes of")
            if row[0].isdigit()
            for error in re.findall(r"`([a-z_]+)`", row[1])
        }
        emitted = {(outcome.status, outcome.error) for outcome in OUTCOMES.values()}
        admission = AdmissionController(
            quota_rate=1.0, quota_burst=1.0, heavy_seconds=1.0, shed_inflight=0,
            clock=lambda: 0.0,
        )
        for inflight in (1, 0, 0):  # shed while busy, charge, over quota
            decision = admission.review("c", 5.0, inflight)
            if not decision.admitted:
                emitted.add((decision.status, decision.reason))
        assert {error for _, error in emitted} >= {"shed_heavy", "quota_exhausted"}
        assert emitted <= documented, emitted - documented

    def test_bad_json_and_missing_sql_are_400(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            status, payload = client._request("POST", "/v1/forecast", {})
            assert (status, payload["error"]) == (400, "bad_request")
            status, payload = client._request(
                "POST", "/v1/forecast_batch", {"sqls": []}
            )
            assert (status, payload["error"]) == (400, "bad_request")
        finally:
            daemon.stop()

    def test_oversize_body_is_413_unread_and_closes(self, serve_service):
        """Only the headers are sent: the daemon must refuse on
        ``Content-Length`` alone (reading would block on a body that
        never comes) and close, since the unread body would otherwise
        be parsed as the connection's next request."""
        daemon = start_daemon(serve_service)
        try:
            head = (
                "POST /v1/forecast HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {(1 << 20) + 1}\r\n\r\n"
            ).encode("ascii")
            with socket.create_connection(daemon.address, timeout=10.0) as sock:
                sock.sendall(head)
                raw = b""
                while chunk := sock.recv(65536):  # b"" once the daemon closes
                    raw += chunk
            headers, _, text = raw.partition(b"\r\n\r\n")
            assert headers.split(b" ", 2)[1] == b"413"
            assert b"connection: close" in headers.lower()
            payload = strict_json(text.decode("utf-8"))
            assert payload == {"error": "body_too_large", "max_bytes": 1 << 20}
            # The limit itself is served, and so is the next connection.
            body = json.dumps({"sql": SQL_LIGHT}).encode()
            status, _head, _text = raw_post(
                daemon, "/v1/forecast", body + b" " * ((1 << 20) - len(body))
            )
            assert status == 200
            assert client_for(daemon).forecast(SQL_LIGHT)["forecast"]
        finally:
            daemon.stop()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_deadline_is_400(self, serve_service, literal):
        # json.loads accepts all three; NaN even passes a "<= 0" check.
        daemon = start_daemon(serve_service)
        try:
            for path, field in (
                ("/v1/forecast", f'"sql": "{SQL_LIGHT}"'),
                ("/v1/forecast_batch", f'"sqls": ["{SQL_LIGHT}"]'),
            ):
                body = f'{{{field}, "deadline_ms": {literal}}}'.encode()
                status, _head, text = raw_post(daemon, path, body)
                assert status == 400, text
                payload = strict_json(text)
                assert payload["error"] == "bad_request"
                assert "deadline_ms" in payload["detail"]
            # A real budget is served, and its echo is valid JSON.
            body = f'{{"sql": "{SQL_LIGHT}", "deadline_ms": 30000}}'.encode()
            status, _head, text = raw_post(daemon, "/v1/forecast", body)
            assert status == 200, text
            assert strict_json(text)["deadline"]["budget_ms"] == 30000.0
        finally:
            daemon.stop()

    def test_deeply_nested_json_is_400(self, serve_service):
        """json.loads recurses once per level: this body was a 500."""
        daemon = start_daemon(serve_service)
        try:
            body = b"[" * 100_000 + b"]" * 100_000
            status, _head, text = raw_post(daemon, "/v1/forecast", body)
            assert status == 400, text
            assert strict_json(text)["error"] == "bad_json"
            assert client_for(daemon).forecast(SQL_LIGHT)["forecast"]
            assert daemon.status()["breaker"]["state"] == "closed"
        finally:
            daemon.stop()

    def test_chunked_body_is_one_structured_411(self, serve_service):
        """A chunked body is refused on its ``Transfer-Encoding`` alone.
        Its chunks, unread, used to be parsed as a second request: two
        responses to one request, the second an HTML error page."""
        body = json.dumps({"sql": SQL_LIGHT}).encode()
        request = (
            b"POST /v1/forecast HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
        )
        daemon = start_daemon(serve_service)
        try:
            responses = raw_exchange(daemon, request)
            assert [status for status, _, _ in responses] == [411]
            _, headers, text = responses[0]
            assert headers["connection"] == "close"
            assert headers["content-type"] == "application/json"
            assert strict_json(text.decode())["error"] == "length_required"
            assert daemon.status()["breaker"]["state"] == "closed"
        finally:
            daemon.stop()

    @pytest.mark.parametrize(
        "data,status,error",
        [
            pytest.param(
                b"PUT /v1/forecast HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 2\r\n\r\n{}",
                501, "not_implemented", id="put",
            ),
            pytest.param(
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n",
                414, "request_line_too_long", id="long-request-line",
            ),
            pytest.param(
                b"GET /healthz HTTP/2.0\r\nHost: t\r\n\r\n",
                505, "http_version_not_supported", id="http-2.0",
            ),
            pytest.param(b"hello\r\n", 400, "bad_request_line", id="hello"),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-Header-%d: v\r\n" % i for i in range(101))
                + b"\r\n",
                431, "too_many_headers", id="101-headers",
            ),
            pytest.param(
                b"POST /v1/forecast HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: abc\r\n\r\n{}",
                400, "bad_content_length", id="content-length-abc",
            ),
        ],
    )
    def test_transport_refusals_are_structured(
        self, serve_service, data, status, error
    ):
        """Every request the framing refuses gets a status line and a JSON
        error.  The connection closes unless the refused request was read
        whole (an unserved method): then the next request on it is
        served."""
        follow = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        daemon = start_daemon(serve_service)
        try:
            responses = raw_exchange(daemon, data + follow)
            got, headers, text = responses[0]
            assert got == status, text
            assert headers["content-type"] == "application/json"
            assert strict_json(text.decode())["error"] == error
            if status == 501:
                assert "connection" not in headers
                assert [r[0] for r in responses] == [501, 200]
            else:
                assert headers["connection"] == "close"
                assert len(responses) == 1
            assert daemon.status()["breaker"]["state"] == "closed"
            assert client_for(daemon).forecast(SQL_LIGHT)["forecast"]
        finally:
            daemon.stop()

    def test_pipelined_requests_are_answered_in_order(self, serve_service):
        requests = b""
        sqls = [SQL_JOIN, SQL_LIGHT]
        for index, sql in enumerate(sqls):
            body = json.dumps({"sql": sql}).encode()
            close = b"Connection: close\r\n" if index == len(sqls) - 1 else b""
            requests += (
                b"POST /v1/forecast HTTP/1.1\r\nHost: t\r\n" + close
                + b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
        daemon = start_daemon(serve_service)
        try:
            responses = raw_exchange(daemon, requests)
        finally:
            daemon.stop()
        assert [status for status, _, _ in responses] == [200, 200]
        for (_, _, text), sql in zip(responses, sqls):
            expected = forecast_payload(serve_service.forecast(sql))
            assert json.loads(text)["forecast"] == expected

    def test_expect_100_continue_is_answered_before_the_body(
        self, serve_service
    ):
        """A client that waits for ``100 Continue`` (curl, for a large
        body) is told to send its body, then gets its answer."""
        body = json.dumps({"sql": SQL_LIGHT}).encode()
        head = (
            b"POST /v1/forecast HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        daemon = start_daemon(serve_service)
        try:
            with socket.create_connection(daemon.address, timeout=10.0) as sock:
                sock.sendall(head)
                interim = sock.recv(65536)
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(body)
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
        finally:
            daemon.stop()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n"), raw[:200]
        text = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(text)["forecast"] == forecast_payload(
            serve_service.forecast(SQL_LIGHT)
        )

    def test_admin_status_shape(self, serve_service):
        daemon = start_daemon(serve_service, slo_p99_ms=30_000.0)
        try:
            client = client_for(daemon)
            client.forecast(SQL_LIGHT)
            status = client.status()
        finally:
            daemon.stop()
        for key in (
            "model_version", "uptime_s", "inflight", "requests", "slo",
            "batcher", "admission", "breaker", "resilience", "memo",
            "templates",
        ):
            assert key in status, key
        assert set(status["memo"]) == {
            "size", "max_entries", "bytes", "max_bytes", "hits", "misses"
        }
        assert set(status["templates"]) == {
            "size", "max_entries", "hits", "misses"
        }
        assert status["requests"]["ok"] >= 1
        assert status["slo"]["p99_ms"] >= status["slo"]["p50_ms"] >= 0
        assert status["slo"]["met"] is True
        assert status["breaker"]["state"] == "closed"


# ----------------------------------------------------------------------
# Prediction identity and micro-batching
# ----------------------------------------------------------------------


class TestPredictions:
    def test_served_forecast_bitwise_equals_direct(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            payload = client_for(daemon).forecast(SQL_JOIN)
        finally:
            daemon.stop()
        direct = serve_service.forecast(SQL_JOIN)
        served = payload["forecast"]["metrics"]
        for name, value in served.items():
            assert value == float(getattr(direct.metrics, name)), name
        assert payload["forecast"]["category"] == direct.category
        assert payload["forecast"]["optimizer_cost"] == float(
            direct.optimizer_cost
        )

    def test_batch_endpoint_bitwise_equals_sequential(self, serve_service):
        sqls = [SQL_LIGHT, SQL_JOIN, SQL_LIGHT]
        daemon = start_daemon(serve_service)
        try:
            payload = client_for(daemon).forecast_batch(sqls)
        finally:
            daemon.stop()
        assert len(payload["forecasts"]) == 3
        for served, sql in zip(payload["forecasts"], sqls):
            direct = serve_service.forecast(sql)
            for name, value in served["metrics"].items():
                assert value == float(getattr(direct.metrics, name)), name

    def test_concurrent_requests_share_micro_batches(self, serve_service):
        n_clients = 12
        calls = []
        original = predictor_module.gaussian_kernel_cross

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            return original(*args, **kwargs)

        daemon = start_daemon(
            serve_service, max_batch=n_clients
        )
        barrier = threading.Barrier(n_clients)
        results = []
        sqls = [fresh_light() for _ in range(n_clients)]

        def one(index: int) -> None:
            client = client_for(daemon, client_id=f"c{index}")
            # Connect first, so that the requests leave together.
            client.health()
            barrier.wait()
            results.append(client.forecast(sqls[index]))

        predictor_module.gaussian_kernel_cross = counting
        try:
            threads = [
                threading.Thread(target=one, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            predictor_module.gaussian_kernel_cross = original
            daemon.stop()
        assert len(results) == n_clients
        # The whole point of micro-batching: far fewer kernel crosses
        # than requests (a full collapse is 1; scheduling may split it).
        assert 1 <= len(calls) < n_clients
        assert daemon.batcher.largest_batch > 1

    def test_32_concurrent_clients_all_answered(self, serve_service):
        n_clients = 32
        daemon = start_daemon(
            serve_service, max_batch=16, max_queue=256
        )
        barrier = threading.Barrier(n_clients)
        outcomes = []
        lock = threading.Lock()
        sqls = [fresh_light() for _ in range(n_clients)]

        def one(index: int) -> None:
            client = client_for(daemon, client_id=f"c{index}")
            barrier.wait()
            payload = client.forecast(sqls[index])
            with lock:
                outcomes.append(payload["model_version"])

        try:
            threads = [
                threading.Thread(target=one, args=(i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = daemon.batcher.stats()
        finally:
            daemon.stop()
        assert len(outcomes) == n_clients
        assert set(outcomes) == {daemon.model_version}
        assert stats["batches"] < n_clients
        assert stats["largest_batch"] > 1

    def test_single_and_batched_results_identical(self, serve_service):
        """The same statement answered solo and inside a shared batch
        must produce byte-identical numbers (batching is pure routing)."""
        daemon = start_daemon(serve_service, max_batch=1)
        try:
            solo = client_for(daemon).forecast(SQL_JOIN)["forecast"]
        finally:
            daemon.stop()
        daemon = start_daemon(serve_service, max_batch=8)
        try:
            batched = client_for(daemon).forecast_batch(
                [SQL_LIGHT, SQL_JOIN, SQL_LIGHT]
            )["forecasts"][1]
        finally:
            daemon.stop()
        assert solo["metrics"] == batched["metrics"]
        assert solo["optimizer_cost"] == batched["optimizer_cost"]


def batch_threads(daemon: PredictionDaemon) -> list:
    """Grows by the name of the thread each of ``daemon``'s batches runs on."""
    names = []
    run_batch = daemon.batcher._run_batch

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return run_batch(*args, **kwargs)

    daemon.batcher._run_batch = recording
    return names


class TestMemoAnsweredRequests:
    """A request whose every statement the memo answers runs its batch of
    one on its own handler thread, through the path a queued batch takes;
    a miss queues for the collector."""

    def test_a_repeat_leaves_the_collector_idle(self, serve_service):
        sql = fresh_light()
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            threads = batch_threads(daemon)
            first = client.forecast(sql)
            before = daemon.batcher.stats()
            repeats = [client.forecast(sql) for _ in range(5)]
            both = client.forecast_batch([sql, sql])
            after = daemon.batcher.stats()
        finally:
            daemon.stop()
        assert (before["batches"], before["inline_batches"]) == (1, 0)
        assert (after["batches"], after["inline_batches"]) == (1, 6)
        assert threads == ["repro-serve-batcher"] + ["repro-serve-conn"] * 6
        direct = forecast_payload(serve_service.forecast(sql))
        assert all(r["forecast"] == direct for r in [first, *repeats])
        assert both["forecasts"] == [direct, direct]

    @pytest.mark.parametrize("site", ["serve.handler", "serve.batch"])
    def test_a_fault_answers_alike_on_either_thread(self, serve_service, site):
        outcomes, ran_on = {}, {}
        for kind in ("queued", "inline"):
            sql = fresh_light()
            daemon = start_daemon(serve_service)
            try:
                client = client_for(daemon)
                if kind == "inline":
                    client.forecast(sql)  # from here on the memo holds it
                threads = batch_threads(daemon)
                with armed(FaultPlan(seed=4).on(site, calls={1})):
                    outcomes[kind] = client.try_forecast(sql)
                assert client.forecast(sql)["forecast"]  # and it serves on
                ran_on[kind] = set(threads)
            finally:
                daemon.stop()
        status, payload = outcomes["queued"]
        assert status == 503, payload
        assert payload["error"] == (
            "injected_fault" if site == "serve.handler" else "prediction_failed"
        )
        assert outcomes["inline"] == outcomes["queued"]
        assert ran_on == {
            "queued": {"repro-serve-batcher"}, "inline": {"repro-serve-conn"}
        }

    def test_a_spent_budget_is_the_same_504_on_either_thread(
        self, serve_service
    ):
        """The budget runs out before the batch starts (a fake clock jumps
        2 s): a queued and a memo-answered request expire alike."""
        outcomes, ran_on = {}, {}
        for kind in ("queued", "inline"):
            sql = fresh_light()
            now = [0.0]
            daemon = PredictionDaemon(
                service=serve_service,
                config=ServeConfig(max_batch=8),
                clock=lambda: now[0],
            )
            daemon.start()
            try:
                client = client_for(daemon)
                if kind == "inline":
                    client.forecast(sql)
                threads = batch_threads(daemon)
                run_batch = daemon.batcher._run_batch

                def late(*args, **kwargs):
                    now[0] += 2.0
                    return run_batch(*args, **kwargs)

                daemon.batcher._run_batch = late
                outcomes[kind] = client.try_forecast(sql, deadline_ms=1000.0)
                ran_on[kind] = threads
            finally:
                daemon.stop()
        assert outcomes["queued"] == outcomes["inline"] == (
            504,
            {
                "error": "deadline_exceeded",
                "retry_after_s": 1.0,
                "stage": "queue",
                "budget_ms": 1000.0,
                "elapsed_ms": 2000.0,
            },
        )
        assert ran_on == {
            "queued": ["repro-serve-batcher"], "inline": ["repro-serve-conn"]
        }


# ----------------------------------------------------------------------
# A statement that does not compile is its sender's error
# ----------------------------------------------------------------------


_DEEP_PREFIX = "SELECT count(*) AS c FROM item i WHERE "

#: Statements, all far under the 1 MiB body cap, that nest deeper than
#: the interpreter's stack: in the parser's productions or, where the
#: parser loops, in the optimizer's walks over the left-deep tree it built.
DEEP_STATEMENTS = {
    "and": (OptimizerError, _DEEP_PREFIX + " AND ".join(
        f"i.i_item_sk > {n}" for n in range(1000))),
    "parens": (ParseError, _DEEP_PREFIX + "(" * 2000 + "i.i_item_sk > 1"
               + ")" * 2000),
    "not": (ParseError, _DEEP_PREFIX + "NOT " * 2000 + "i.i_item_sk > 1"),
    "or": (OptimizerError, _DEEP_PREFIX + " OR ".join(
        f"i.i_item_sk = {n}" for n in range(1500))),
    "sum": (OptimizerError, _DEEP_PREFIX + "i.i_item_sk > "
            + " + ".join(["1"] * 3000)),
}


class TestBadStatement:
    @pytest.mark.parametrize("shape", list(DEEP_STATEMENTS))
    def test_deep_nesting_is_a_typed_error(self, serve_service, shape):
        kind, sql = DEEP_STATEMENTS[shape]
        with pytest.raises(kind, match="nests too deeply"):
            serve_service.forecast(sql)

    def test_deep_nesting_is_400_for_its_sender_only(self, serve_service):
        """Five untyped failures used to open the breaker for everybody."""
        daemon = start_daemon(serve_service)
        try:
            nester = client_for(daemon, "nester")
            shapes = list(DEEP_STATEMENTS.values())
            for _kind, sql in shapes + shapes[:1]:
                status, payload = nester.try_forecast(sql)
                assert (status, payload["error"]) == (400, "bad_statement")
                assert "nests too deeply" in payload["detail"]
                # Another client, in between, is served as ever.
                payload = client_for(daemon, "bystander").forecast(SQL_LIGHT)
                assert payload["forecast"]["metrics"]["elapsed_time"] > 0
            status = daemon.status()
            assert status["breaker"]["state"] == "closed"
            assert status["requests"]["failed"] == 0
            assert status["requests"]["rejected"] == 6
        finally:
            daemon.stop()

    @pytest.mark.parametrize(
        "sql, position",
        [
            ("selec 1", 0),                       # ParseError
            ("select \u00b2 from item", 7),         # TokenizeError (was a bare ValueError)
            ("SELECT count(*) AS c FROM no_such_table t", None),  # OptimizerError
        ],
    )
    def test_answered_400_with_message_and_position(
        self, serve_service, sql, position
    ):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            status, payload = client.try_forecast(sql)
            assert status == 400
            assert payload["error"] == "bad_statement"
            assert payload["detail"]
            assert payload["position"] == position
            assert "retry_after_s" not in payload
            with pytest.raises(ServeBadStatementError) as excinfo:
                client.forecast(sql)
            assert excinfo.value.position == position
            assert not isinstance(excinfo.value, ServeRejectedError)
            assert not hasattr(excinfo.value, "retry_after_s")
        finally:
            daemon.stop()

    def test_twenty_typos_leave_the_breaker_closed(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            typist = client_for(daemon, "typist")
            for _ in range(20):
                status, _payload = typist.try_forecast("selec 1")
                assert status == 400
            status = daemon.status()
            assert status["breaker"]["state"] == "closed"
            assert status["requests"]["failed"] == 0
            assert status["requests"]["rejected"] == 20
            # Another client is served as if nothing had happened.
            payload = client_for(daemon, "bystander").forecast(SQL_LIGHT)
            assert payload["forecast"]["metrics"]["elapsed_time"] > 0
        finally:
            daemon.stop()

    def test_numbers_too_large_for_a_float_are_400(self, serve_service):
        """An integer literal of 309+ digits was an untyped OverflowError
        from the optimizer: five of them opened the breaker for everyone."""
        huge = "9" * 400
        daemon = start_daemon(serve_service)
        try:
            sender = client_for(daemon, "sender")
            for n in range(10):
                sql = SQL_LIGHT.replace("30", huge + str(n))
                status, payload = sender.try_forecast(sql)
                assert (status, payload["error"]) == (400, "bad_statement")
                assert payload["position"] == SQL_LIGHT.index("30")
            status = daemon.status()
            assert status["breaker"]["state"] == "closed"
            assert status["requests"]["failed"] == 0
            payload = client_for(daemon, "bystander").forecast(SQL_LIGHT)
            assert payload["forecast"]["metrics"]["elapsed_time"] > 0
        finally:
            daemon.stop()

    def test_lone_surrogates_are_planned_or_400(self, serve_service):
        """JSON may carry a lone surrogate ("\\ud800"), which has no UTF-8
        form: inside a string literal the statement is planned, outside
        one it is a tokenize error.  Neither is a 500 for the breaker."""
        daemon = start_daemon(serve_service)
        try:
            for n in range(6):  # distinct texts: past the memo, to the optimizer
                quoted = f"SELECT count(*) AS c FROM item i WHERE i.i_brand = '\ud800{n}'"
                bare = f"SELECT \ud800 FROM item i WHERE i.i_item_sk > {n}"
                for sql, expected in ((quoted, 200), (bare, 400)):
                    body = json.dumps({"sql": sql, "client": "sender"}).encode()
                    status, _head, text = raw_post(daemon, "/v1/forecast", body)
                    assert status == expected, text
                    if expected == 400:
                        payload = strict_json(text)
                        assert payload["error"] == "bad_statement"
                        assert payload["position"] == 7
            status = daemon.status()
            assert status["breaker"]["state"] == "closed"
            assert status["requests"]["failed"] == 0
        finally:
            daemon.stop()

    def test_co_batched_good_requests_are_still_served(self, serve_service):
        daemon = start_daemon(serve_service, max_batch=16)
        statements = [SQL_LIGHT, "selec 1", SQL_JOIN, "select 1 from", SQL_LIGHT,
                      "SELECT x FROM no_such_table t"] * 4
        outcomes: list = [None] * len(statements)
        barrier = threading.Barrier(len(statements))

        def send(index: int) -> None:
            client = client_for(daemon, f"c{index}")
            barrier.wait(10)
            outcomes[index] = client.try_forecast(statements[index])
            client.close()

        try:
            threads = [
                threading.Thread(target=send, args=(i,))
                for i in range(len(statements))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            expected = serve_service.forecast(SQL_LIGHT).metrics.elapsed_time
            for sql, (status, payload) in zip(statements, outcomes):
                if sql in (SQL_LIGHT, SQL_JOIN):
                    assert status == 200, payload
                else:
                    assert (status, payload["error"]) == (400, "bad_statement")
                if sql == SQL_LIGHT:
                    assert payload["forecast"]["metrics"]["elapsed_time"] == expected
            assert daemon.status()["breaker"]["state"] == "closed"
        finally:
            daemon.stop()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_quota_exhaustion_returns_429_with_retry_hint(self, serve_service):
        daemon = start_daemon(
            serve_service, quota_rate=0.001, quota_burst=0.001
        )
        try:
            client = client_for(daemon, client_id="greedy")
            with pytest.raises(ServeRejectedError) as excinfo:
                for _ in range(50):
                    client.forecast(SQL_JOIN)
        finally:
            daemon.stop()
        rejection = excinfo.value
        assert rejection.status == 429
        assert rejection.retry_after_s > 0
        assert rejection.payload["error"] == "quota_exhausted"
        assert rejection.payload["admission"]["reason"] == "quota_exhausted"

    def test_quota_is_per_client(self, serve_service):
        daemon = start_daemon(
            serve_service, quota_rate=0.001, quota_burst=0.001
        )
        try:
            greedy = client_for(daemon, client_id="greedy")
            with pytest.raises(ServeRejectedError):
                for _ in range(50):
                    greedy.forecast(SQL_JOIN)
            # A different client still has its own full bucket.
            fresh = client_for(daemon, client_id="fresh")
            assert fresh.forecast(SQL_LIGHT)["weight_class"] == "feather"
            status = daemon.admission.status()
        finally:
            daemon.stop()
        assert status["quota_rejections"] >= 1
        assert "greedy" in status["clients"] and "fresh" in status["clients"]

    def test_heavy_queries_are_classified_bowling_ball(self, serve_service):
        predicted = serve_service.forecast(SQL_JOIN).metrics.elapsed_time
        daemon = start_daemon(
            serve_service, heavy_seconds=predicted / 2.0, shed_inflight=64
        )
        try:
            payload = client_for(daemon).forecast(SQL_JOIN)
        finally:
            daemon.stop()
        assert payload["weight_class"] == "bowling_ball"
        assert payload["predicted_seconds"] > predicted / 2.0

    def test_batch_that_can_never_fit_is_400_not_a_retry_hint(
        self, serve_service
    ):
        # 503 queue_full + Retry-After told the client to retry a batch
        # that no retry could ever fit (the queue was empty).
        daemon = start_daemon(serve_service, max_queue=4)
        try:
            status, payload = daemon.dispatch_forecast([SQL_LIGHT] * 6, "c")
            assert (status, payload["error"]) == (400, "batch_too_large")
            assert payload["max_queue"] == 4
            assert "retry_after_s" not in payload
            body = json.dumps({"sqls": [SQL_LIGHT] * 6}).encode()
            status, head, text = raw_post(daemon, "/v1/forecast_batch", body)
            assert (status, strict_json(text)["error"]) == (400, "batch_too_large")
            assert "retry-after" not in head.lower()
            snapshot = daemon.status()
            assert snapshot["breaker"]["state"] == "closed"
            assert snapshot["requests"]["rejected"] == 2
            assert snapshot["requests"]["failed"] == 0
            # A batch that fits the cap is served as before.
            status, payload = daemon.dispatch_forecast([SQL_LIGHT] * 4, "c")
            assert status == 200 and len(payload["forecasts"]) == 4
        finally:
            daemon.stop()

    def test_retry_after_header_on_rejection(self, serve_service):
        daemon = start_daemon(
            serve_service, quota_rate=0.001, quota_burst=0.001,
            retry_after_s=7.0,
        )
        try:
            client = client_for(daemon, client_id="greedy")
            status = 200
            for _ in range(50):
                status, payload = client.try_forecast(SQL_JOIN)
                if status != 200:
                    break
            assert status == 429
            assert payload["retry_after_s"] >= 7.0
        finally:
            daemon.stop()


class TestAdmissionUnits:
    """Sleep-free unit coverage via the injectable clock."""

    def test_token_bucket_refills_on_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=10.0, clock=lambda: now[0])
        ok, _ = bucket.try_charge(10.0)
        assert ok
        ok, retry = bucket.try_charge(4.0)
        assert not ok
        assert retry == pytest.approx(2.0)
        now[0] += 2.0  # 4 tokens refilled
        ok, _ = bucket.try_charge(4.0)
        assert ok

    def test_controller_sheds_heavy_only_under_load(self):
        controller = AdmissionController(
            heavy_seconds=10.0, shed_inflight=4, clock=lambda: 0.0
        )
        light = controller.review("c", 1.0, inflight=100)
        assert light.admitted and light.weight_class == "feather"
        heavy_idle = controller.review("c", 60.0, inflight=1)
        assert heavy_idle.admitted
        heavy_busy = controller.review("c", 60.0, inflight=5)
        assert not heavy_busy.admitted
        assert heavy_busy.status == 503
        assert heavy_busy.reason == "shed_heavy"
        assert heavy_busy.retry_after_s >= 60.0

    def test_shed_does_not_charge_quota(self):
        controller = AdmissionController(
            quota_rate=1.0, quota_burst=100.0, heavy_seconds=10.0,
            shed_inflight=0, clock=lambda: 0.0,
        )
        controller.review("c", 50.0, inflight=1)  # shed, not charged
        decision = controller.review("c", 50.0, inflight=0)  # admitted
        assert decision.admitted
        assert controller.status()["clients"]["c"] == pytest.approx(50.0)

    def test_full_buckets_leave_the_table(self):
        """One bucket per sender-chosen ``client`` string, never dropped,
        was a table that grows without bound."""
        now = [0.0]
        controller = AdmissionController(quota_rate=1.0, clock=lambda: now[0])
        for n in range(10_000):
            assert controller.review(f"client-{n}", 1.0, inflight=0).admitted
        now[0] += 3600.0  # every bucket refills to its burst
        assert controller.status()["clients"] == {}
        assert controller._buckets == {}
        assert controller.review("client-0", 1.0, inflight=0).admitted
        assert list(controller.status()["clients"]) == ["client-0"]

    def test_sweeping_changes_no_decision(self, monkeypatch):
        """A bucket refilled to its burst decides as a fresh one: a seeded
        sequence gets the same verdicts and hints with and without sweeps."""
        import random

        def decide() -> tuple[list, AdmissionController]:
            rng = random.Random(2000)
            now = [0.0]
            controller = AdmissionController(
                quota_rate=1.0, quota_burst=5.0, clock=lambda: now[0]
            )
            verdicts = []
            for _ in range(2000):
                now[0] += rng.expovariate(20.0)
                decision = controller.review(
                    f"c{rng.randrange(50)}", rng.uniform(0.0, 4.0), inflight=0
                )
                verdicts.append((decision.status, decision.retry_after_s))
                if rng.random() < 0.05:
                    controller.status()  # sweeps the table
            controller.status()
            return verdicts, controller

        swept, swept_controller = decide()
        monkeypatch.setattr(AdmissionController, "_sweep_locked", lambda self: None)
        kept, kept_controller = decide()
        assert swept == kept
        assert {status for status, _ in swept} == {200, 429}
        assert len(swept_controller._buckets) < len(kept_controller._buckets) == 50


# ----------------------------------------------------------------------
# Batcher units (fake clock, no daemon)
# ----------------------------------------------------------------------


class TestBatcherUnits:
    def test_queue_full_raises(self):
        batcher = MicroBatcher(lambda sqls: sqls, max_queue=2)
        # Collector not started: submissions just queue up.
        batcher.submit(["a"])
        batcher.submit(["b"])
        with pytest.raises(QueueFullError):
            batcher.submit(["c"])
        # Can never fit, however empty the queue gets: a different error.
        with pytest.raises(BatchTooLargeError):
            batcher.submit(["c", "d", "e"])

    def test_submit_after_stop_is_refused(self):
        batcher = MicroBatcher(lambda sqls: sqls)
        batcher.start()
        assert batcher.stop()
        with pytest.raises(ServeError):
            batcher.submit(["a"])

    def test_stop_drains_queued_requests(self):
        batcher = MicroBatcher(lambda sqls: [s.upper() for s in sqls])
        first = batcher.submit(["a", "b"])
        second = batcher.submit(["c"])
        batcher.start()
        assert batcher.stop(drain=True)
        assert first.results == ["A", "B"]
        assert second.results == ["C"]

    def test_stop_without_drain_fails_queued_pendings(self):
        # Collector never started: the pending is provably still queued
        # when the no-drain stop clears the queue.
        batcher = MicroBatcher(lambda sqls: sqls)
        pending = batcher.submit(["a"])
        assert batcher.stop(drain=False)
        assert pending.event.is_set()
        assert isinstance(pending.error, ServeError)
        assert batcher.depth() == 0

    def test_batch_error_fans_out_to_all_pendings(self):
        def boom(sqls):
            raise ValueError("model fell over")

        batcher = MicroBatcher(boom, max_batch=8)
        first = batcher.submit(["a"])
        second = batcher.submit(["b"])
        batcher.start()
        assert first.event.wait(5) and second.event.wait(5)
        assert isinstance(first.error, ValueError)
        assert isinstance(second.error, ValueError)
        batcher.stop()

    def test_unparsable_statement_fails_only_its_own_request(self):
        # Collector not started yet: the three requests leave as one batch.
        calls = []

        def predict(sqls):
            calls.append(list(sqls))
            if "bad" in sqls:
                raise ParseError("expected 'SELECT', found 'bad'", 0)
            return [s.upper() for s in sqls]

        batcher = MicroBatcher(predict, max_batch=8)
        good = batcher.submit(["a"])
        bad = batcher.submit(["bad", "b"])
        also_good = batcher.submit(["c", "d"])
        batcher.start()
        try:
            for pending in (good, bad, also_good):
                assert pending.event.wait(5)
            assert good.results == ["A"] and good.error is None
            assert also_good.results == ["C", "D"] and also_good.error is None
            assert isinstance(bad.error, ParseError) and bad.results is None
            assert calls == [["a", "bad", "b", "c", "d"], ["a"], ["bad", "b"], ["c", "d"]]
        finally:
            batcher.stop()

    def test_result_length_mismatch_is_an_error(self):
        batcher = MicroBatcher(lambda sqls: [1])
        pending = batcher.submit(["a", "b"])
        batcher.start()
        assert pending.event.wait(5)
        assert isinstance(pending.error, ServeError)
        batcher.stop()

    def test_idle_collector_predicts_a_lone_request_at_once(self):
        # The clock never advances: nothing in the collector waits on it.
        batcher = MicroBatcher(lambda sqls: list(sqls), clock=lambda: 0.0)
        batcher.start()
        try:
            pending = batcher.submit(["a"])
            assert pending.event.wait(5)
            assert pending.results == ["a"]
            assert batcher.stats()["batches"] == 1
        finally:
            batcher.stop()

    def test_requests_arriving_during_predict_form_the_next_batches(self):
        batches = []
        entered = threading.Event()
        release = threading.Event()

        def predict(sqls):
            batches.append(list(sqls))
            entered.set()
            assert release.wait(5)
            return list(sqls)

        batcher = MicroBatcher(predict, max_batch=4, clock=lambda: 0.0)
        batcher.start()
        try:
            first = batcher.submit(["first"])
            assert entered.wait(5)
            # Queued while the collector is busy: one statement, a pair,
            # one more (4 = max_batch), then two that no longer fit.
            later = [
                batcher.submit(sqls)
                for sqls in (["a"], ["b", "c"], ["d"], ["e"], ["f"])
            ]
            release.set()
            for pending in [first, *later]:
                assert pending.event.wait(5)
        finally:
            release.set()
            batcher.stop()
        assert batches == [["first"], ["a", "b", "c", "d"], ["e", "f"]]
        assert [p.results for p in later] == [
            ["a"], ["b", "c"], ["d"], ["e"], ["f"]
        ]


# ----------------------------------------------------------------------
# Hot reload
# ----------------------------------------------------------------------


def train_artifact(tmp_path, name, tpcds_catalog, config, mini_corpus, **kw):
    service = QueryPerformancePredictor(tpcds_catalog, config=config, **kw)
    # Embed the session catalog's recipe (set before fit_corpus, which
    # snapshots it into the pipeline metadata) so load()/resolve_artifact
    # can rebuild the environment from the artifact alone.
    service._catalog_spec = {
        "kind": "tpcds", "scale_factor": 0.15, "seed": 123,
    }
    service.fit_corpus(mini_corpus)
    path = tmp_path / name
    service.save(path)
    return path, service


class TestHotReload:
    def test_admin_reload_swaps_model_version(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        path_a, _ = train_artifact(
            tmp_path, "a.npz", tpcds_catalog, config, mini_corpus
        )
        path_b, _ = train_artifact(
            tmp_path, "b.npz", tpcds_catalog, config, mini_corpus,
            k_neighbors=5,
        )
        daemon = PredictionDaemon(
            artifact=path_a, config=ServeConfig(max_batch=4)
        )
        daemon.start()
        try:
            client = client_for(daemon)
            version_a = client.health()["model_version"]
            assert version_a == artifact_fingerprint(path_a)
            reloaded = client.reload(str(path_b))
            assert reloaded["model_version"] == artifact_fingerprint(path_b)
            assert client.health()["model_version"] != version_a
        finally:
            daemon.stop()

    def test_reload_without_artifact_is_structured_409(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            status, payload = client._request("POST", "/admin/reload", {})
            assert status == 409
            assert payload["error"] == "reload_failed"
        finally:
            daemon.stop()

    @pytest.mark.parametrize(
        "shape",
        ["alpha_all_nan", "state_without_model", "x_scaler_mean_five_entries",
         "catalog_table_missing"],
    )
    def test_reload_of_a_damaged_body_is_409_and_the_old_model_serves(
        self, shape, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        """A readable artifact with a wrong body is a failed reload (it
        was a ``500 internal``, or — the NaN model — a successful one)."""
        path, service = train_artifact(
            tmp_path, "a.npz", tpcds_catalog, config, mini_corpus
        )
        damaged = damage(shutil.copy(path, tmp_path / "damaged.npz"), shape)
        daemon = PredictionDaemon(artifact=path, config=ServeConfig())
        daemon.start()
        try:
            client = client_for(daemon)
            version = client.health()["model_version"]
            status, payload = client._request(
                "POST", "/admin/reload", {"artifact": str(damaged)}
            )
            assert (status, payload["error"]) == (409, "reload_failed")
            assert str(damaged) in payload["detail"]
            assert client.health()["model_version"] == version
            served = client.forecast(SQL_LIGHT)
            assert served["model_version"] == version
            assert served["forecast"]["metrics"]["elapsed_time"] == float(
                service.forecast(SQL_LIGHT).metrics.elapsed_time
            )
        finally:
            daemon.stop()

    def test_reload_with_non_string_artifact_is_400(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            status, payload = client_for(daemon)._request(
                "POST", "/admin/reload", {"artifact": 5}
            )
            assert (status, payload["error"]) == (400, "bad_request")
        finally:
            daemon.stop()

    def test_sighup_triggers_reload(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        path_a, service_a = train_artifact(
            tmp_path, "a.npz", tpcds_catalog, config, mini_corpus
        )
        path_b, _ = train_artifact(
            tmp_path, "b.npz", tpcds_catalog, config, mini_corpus,
            k_neighbors=5,
        )
        daemon = PredictionDaemon(artifact=path_a, config=ServeConfig())
        daemon.start()
        try:
            # Repoint the daemon's artifact path, then poke it with
            # SIGHUP — the operational "new model dropped" signal.
            daemon._artifact_path = path_b
            signal.raise_signal(signal.SIGHUP)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if daemon.model_version == artifact_fingerprint(path_b):
                    break
                time.sleep(0.01)
            assert daemon.model_version == artifact_fingerprint(path_b)
        finally:
            daemon.stop()

    def test_reload_under_load_never_drops_or_mixes(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        path_a, service_a = train_artifact(
            tmp_path, "a.npz", tpcds_catalog, config, mini_corpus
        )
        path_b, service_b = train_artifact(
            tmp_path, "b.npz", tpcds_catalog, config, mini_corpus,
            k_neighbors=5,
        )
        version_a = artifact_fingerprint(path_a)
        version_b = artifact_fingerprint(path_b)
        expected = {
            version_a: float(service_a.forecast(SQL_JOIN).metrics.elapsed_time),
            version_b: float(service_b.forecast(SQL_JOIN).metrics.elapsed_time),
        }
        daemon = PredictionDaemon(
            artifact=path_a,
            config=ServeConfig(max_batch=4),
        )
        host, port = daemon.start()
        outcomes = []
        lock = threading.Lock()
        stop_firing = threading.Event()

        def fire(index: int) -> None:
            client = ServeClient(host, port, client_id=f"c{index}")
            while not stop_firing.is_set():
                payload = client.forecast(SQL_JOIN)
                with lock:
                    outcomes.append(
                        (
                            payload["model_version"],
                            payload["forecast"]["metrics"]["elapsed_time"],
                        )
                    )

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            reload_client = ServeClient(host, port)
            for _ in range(20):
                if len(outcomes) >= 8:
                    break
                time.sleep(0.05)
            reload_client.reload(str(path_b))
            for _ in range(40):
                with lock:
                    if any(v == version_b for v, _ in outcomes):
                        break
                time.sleep(0.05)
            stop_firing.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop_firing.set()
            daemon.stop()
        assert outcomes, "no responses collected"
        versions = {version for version, _ in outcomes}
        assert versions <= {version_a, version_b}
        assert version_b in versions, "reload never took effect"
        # No mixed responses: every answer matches the exact numbers of
        # the version that claims to have served it.
        for version, elapsed in outcomes:
            assert elapsed == expected[version], (version, elapsed)


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------


class TestShutdown:
    def test_stop_drains_inflight_requests(self, serve_service):
        # The first batch hangs in predict, so the four requests behind
        # it are provably still queued when stop() arrives.
        daemon = start_daemon(serve_service, max_batch=8)
        host, port = daemon.address
        results = []
        lock = threading.Lock()
        sqls = [fresh_light() for _ in range(5)]

        def one(index: int) -> None:
            with ServeClient(host, port, client_id=f"c{index}") as client:
                payload = client.forecast(sqls[index])
            with lock:
                results.append(payload["model_version"])

        def wait_for(condition) -> None:
            deadline = time.monotonic() + 30.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert condition()

        plan = FaultPlan(seed=3).on(
            "serve.batch", mode="hang", delay=1.5, calls={1}
        )
        threads = [threading.Thread(target=one, args=(i,)) for i in range(5)]
        with armed(plan):
            threads[0].start()
            wait_for(lambda: plan.fired.get("serve.batch") == 1)
            for thread in threads[1:]:
                thread.start()
            wait_for(
                lambda: daemon.batcher.stats()["queued_statements"] >= 4
            )
            daemon.stop(drain=True)  # must answer what is queued, not drop it
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 5

    def test_stopped_daemon_refuses_politely(self, serve_service):
        daemon = start_daemon(serve_service)
        daemon.stop()
        with pytest.raises(ServeError):
            daemon.address  # noqa: B018 (property raises once stopped)

    def test_context_manager_lifecycle(self, serve_service):
        with PredictionDaemon(
            service=serve_service, config=ServeConfig()
        ) as daemon:
            payload = client_for(daemon).forecast(SQL_LIGHT)
            assert payload["model_version"] == daemon.model_version
        with pytest.raises(ServeError):
            daemon.address  # noqa: B018


# ----------------------------------------------------------------------
# The persistent client connection
# ----------------------------------------------------------------------


def count_accepts(daemon: PredictionDaemon) -> list:
    """Grows by one element for every connection the daemon accepts."""
    accepted = []
    get_request = daemon._server.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    daemon._server.get_request = counting
    return accepted


def median_exchange_s(client: ServeClient, n: int = 50) -> float:
    """Median wall time of ``n`` sequential forecasts on one client."""
    latencies = []
    for _ in range(n):
        start = time.perf_counter()
        client.forecast(SQL_LIGHT)
        latencies.append(time.perf_counter() - start)
    return sorted(latencies)[n // 2]


class TestPersistentConnection:
    def test_sequential_calls_share_one_connection(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            accepted = count_accepts(daemon)
            with client_for(daemon) as client:
                for _ in range(5):
                    client.forecast(SQL_LIGHT)
                client.health()
                client.status()
                client.metrics_text()
            assert len(accepted) == 1
        finally:
            daemon.stop()

    def test_kept_alive_forecasts_do_not_stall(self, serve_service):
        """Nagle x delayed ACK costs ~40 ms per kept-alive exchange when
        either end writes a message in two pieces without TCP_NODELAY."""
        daemon = start_daemon(serve_service)
        try:
            with client_for(daemon) as client:
                assert median_exchange_s(client) < 0.020
        finally:
            daemon.stop()

    @pytest.mark.skipif(
        not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK"
    )
    def test_stock_http_server_peer_does_not_stall_either(self):
        """``http.server`` as shipped writes header and body separately
        with Nagle on; the client must not wait out a delayed ACK."""

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = b'{"forecast": {}}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient("127.0.0.1", server.server_address[1]) as client:
                assert median_exchange_s(client) < 0.020
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_http10_peer_without_length_is_read_to_end_of_stream(self):
        """A response with no ``Content-Length`` ends where the stream
        does; the client keeps no connection to such a peer."""
        listener = socket.create_server(("127.0.0.1", 0))
        served = []

        def serve() -> None:
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b'HTTP/1.0 200 OK\r\n\r\n{"forecast": {"n": 1}}')
                served.append(True)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServeClient(*listener.getsockname()[:2], timeout_s=10.0) as client:
                assert client.forecast(SQL_LIGHT) == {"forecast": {"n": 1}}
                assert client.forecast(SQL_LIGHT) == {"forecast": {"n": 1}}
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert len(served) == 2
        finally:
            listener.close()

    def test_restart_costs_one_silent_reconnect(self, serve_service):
        daemon = start_daemon(serve_service)
        host, port = daemon.address
        client = ServeClient(host, port, timeout_s=10.0)
        try:
            before = client.forecast(SQL_LIGHT)["forecast"]
            daemon.stop()  # closes the connection the client kept
            daemon = start_daemon(serve_service, port=port)
            accepted = count_accepts(daemon)
            assert client.forecast(SQL_LIGHT)["forecast"] == before
            assert len(accepted) == 1
        finally:
            daemon.stop()
        # Nobody listens any more: the reconnect is refused, and that is
        # a typed error, not a second retry.
        with pytest.raises(ServeUnavailableError):
            client.forecast(SQL_LIGHT)
        client.close()

    def test_client_shared_by_threads(self, serve_service):
        sqls = [
            f"SELECT count(*) AS c FROM store_sales ss "
            f"WHERE ss.ss_quantity > {10 + index}"
            for index in range(8)
        ]
        expected = [
            float(serve_service.forecast(sql).metrics.elapsed_time)
            for sql in sqls
        ]
        answers: list = [None] * len(sqls)
        daemon = start_daemon(serve_service)
        try:
            with client_for(daemon) as client:
                barrier = threading.Barrier(len(sqls))

                def one(index: int) -> None:
                    barrier.wait()
                    payload = client.forecast(sqls[index])
                    answers[index] = payload["forecast"]["metrics"][
                        "elapsed_time"
                    ]

                threads = [
                    threading.Thread(target=one, args=(i,))
                    for i in range(len(sqls))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            daemon.stop()
        assert answers == expected

    def test_no_handler_thread_outlives_the_daemon(self, serve_service):
        def serve_threads() -> set:
            return {
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("repro-serve")
            }

        before = serve_threads()
        daemon = start_daemon(serve_service)
        clients = [client_for(daemon) for _ in range(3)]
        try:
            for client in clients:
                client.forecast(SQL_LIGHT)  # three idle kept connections
            names = [thread.name for thread in serve_threads() - before]
            assert names.count("repro-serve-conn") == 3
        finally:
            daemon.stop()
        assert serve_threads() - before == set()
        for client in clients:
            client.close()


# ----------------------------------------------------------------------
# Load generator + drills
# ----------------------------------------------------------------------


class TestLoadGenerator:
    def test_schedule_is_deterministic(self, load_schedule):
        first = load_schedule(50, seed=11, n_clients=3)
        second = load_schedule(50, seed=11, n_clients=3)
        assert first == second
        assert [r.offset_s for r in first] == sorted(
            r.offset_s for r in first
        )
        assert {r.client for r in first} <= {f"client-{i}" for i in range(3)}

    def test_different_seeds_differ(self, load_schedule):
        a = load_schedule(30, seed=1)
        b = load_schedule(30, seed=2)
        assert [r.sql for r in a] != [r.sql for r in b]

    def test_load_drill_zero_drops(self, serve_service, load_schedule):
        daemon = start_daemon(
            serve_service, max_batch=16, max_queue=512
        )
        try:
            schedule = load_schedule(60, seed=5, n_clients=4)
            report = run_load(daemon.address, schedule, max_workers=8)
            stats = daemon.batcher.stats()
        finally:
            daemon.stop()
        assert report.total == 60
        assert report.dropped == 0
        assert report.ok == 60
        assert stats["batches"] < 60  # micro-batching collapsed requests
        summary = report.summary()
        assert summary["p99_ms"] >= summary["p50_ms"] > 0


# ----------------------------------------------------------------------
# Artifact resolution (shared CLI/daemon fingerprint cache)
# ----------------------------------------------------------------------


class TestResolveArtifact:
    def test_cache_hit_returns_same_service(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        clear_artifact_cache()
        path, _ = train_artifact(
            tmp_path, "m.npz", tpcds_catalog, config, mini_corpus
        )
        fingerprint_a, service_a = resolve_artifact(path)
        fingerprint_b, service_b = resolve_artifact(path)
        assert fingerprint_a == fingerprint_b == artifact_fingerprint(path)
        assert service_a is service_b
        assert service_a.artifact_fingerprint == fingerprint_a

    def test_stale_cache_after_retrain_is_evicted(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        """Regression: retraining over the same path must invalidate the
        in-process cache (previously the CLI served the stale model)."""
        clear_artifact_cache()
        path, _ = train_artifact(
            tmp_path, "m.npz", tpcds_catalog, config, mini_corpus
        )
        fingerprint_old, service_old = resolve_artifact(path)
        # Retrain with different hyperparameters and overwrite in place.
        _, retrained = train_artifact(
            tmp_path, "m.npz", tpcds_catalog, config, mini_corpus,
            k_neighbors=5,
        )
        fingerprint_new, service_new = resolve_artifact(path)
        assert fingerprint_new != fingerprint_old
        assert service_new is not service_old
        assert (
            float(service_new.forecast(SQL_JOIN).metrics.elapsed_time)
            == float(retrained.forecast(SQL_JOIN).metrics.elapsed_time)
        )

    def test_missing_artifact_is_model_error(self, tmp_path):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            artifact_fingerprint(tmp_path / "nope.npz")

    def test_uncached_resolution_always_reloads(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        clear_artifact_cache()
        path, _ = train_artifact(
            tmp_path, "m.npz", tpcds_catalog, config, mini_corpus
        )
        _, service_a = resolve_artifact(path, cache=False)
        _, service_b = resolve_artifact(path, cache=False)
        assert service_a is not service_b
