"""The open loop charges a stall to the requests it delays."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import ServeClient

from bench import loadgen
from bench.spans import Tracer

STALL_S = 0.30


@pytest.fixture()
def stalling_server():
    """Answers every forecast at once, except one request that stalls."""
    seen = {"count": 0}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            with lock:
                seen["count"] += 1
                stall = seen["count"] == 5
            if stall:
                time.sleep(STALL_S)
            body = json.dumps({"forecast": {}, "deadline": {
                "elapsed_ms": 0.1, "stage_ms": {"queue": 0.05}}}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_stall_is_charged_from_due_time_and_lateness_is_reported(stalling_server):
    client = ServeClient("127.0.0.1", stalling_server)
    offsets = [0.02 * i for i in range(30)]
    outcomes = loadgen.open_loop([client], ["SELECT 1"] * 30, offsets)
    assert loadgen.tally(outcomes) == {
        "attempted": 30, "ok": 30, "refused": 0, "failed": 0, "dropped": 0}
    stalled = outcomes[4]
    assert stalled.latency_ms >= STALL_S * 1e3
    # The single sender was busy while the next requests fell due: they
    # were sent late, and that wait is in their latency although the
    # server answered each of them at once.
    delayed = outcomes[5:10]
    assert all(o.late_ms > 100 for o in delayed)
    assert all(o.latency_ms > 100 for o in delayed)
    assert all((o.done - o.sent) * 1e3 < 50 for o in delayed)
    assert max(o.late_ms for o in outcomes[:4]) < 20
    # ... and the generator catches up once the backlog is sent.
    assert outcomes[-1].late_ms < 20


def test_closed_loop_sends_every_statement_once_and_traces_requests(stalling_server):
    clients = [ServeClient("127.0.0.1", stalling_server) for _ in range(2)]
    tracer = Tracer()
    outcomes = loadgen.closed_loop(
        clients, [f"SELECT {i}" for i in range(12)], deadline_ms=1000, tracer=tracer)
    assert [o.index for o in outcomes] == list(range(12))
    assert all(o.late_ms == 0 for o in outcomes)
    spans = tracer.named("serve.client_request")
    assert len(spans) == 12
    assert {s["request_id"] for s in spans} == {f"r{i}" for i in range(12)}
    assert all(s["server"]["stage_ms"]["queue"] == 0.05 for s in spans)


def test_unreachable_daemon_counts_as_dropped():
    client = ServeClient("127.0.0.1", 9, timeout_s=0.5)
    outcomes = loadgen.closed_loop([client], ["SELECT 1"] * 3)
    assert loadgen.tally(outcomes)["dropped"] == 3
