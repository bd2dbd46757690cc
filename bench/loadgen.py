"""The benchmark's own load generator: one open loop, one closed loop.

Both drive the repo's public :class:`~repro.serve.ServeClient`, one
instance per sender thread, and never use more sender threads than the
caller hands them clients.  With so few connections an open-loop backlog
lives here, in the generator, and it is charged to the requests it
delays: open-loop latency runs from the time a request was *due*, not
from the time a sender got round to it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ServeUnavailableError
from repro.serve import ServeClient

from bench.spans import Tracer

REFUSED_STATUSES = (429, 503, 504)


@dataclass
class Outcome:
    """One request as the client saw it (times from ``perf_counter``)."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # 0: no answer at all (transport drop)

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def tally(outcomes: Sequence[Outcome]) -> dict:
    """Every attempted request lands in exactly one bucket."""
    counts = {"attempted": len(outcomes), "ok": 0, "refused": 0,
              "failed": 0, "dropped": 0}
    for outcome in outcomes:
        if outcome.status == 200:
            counts["ok"] += 1
        elif outcome.status in REFUSED_STATUSES:
            counts["refused"] += 1
        elif outcome.status == 0:
            counts["dropped"] += 1
        else:
            counts["failed"] += 1
    return counts


def send(
    client: ServeClient,
    index: int,
    sql: str,
    due: Optional[float],
    deadline_ms: Optional[float],
    tracer: Optional[Tracer],
) -> Outcome:
    """One request through ``client``; ``due`` None means due when sent.
    A traced request records a span carrying the response's size and the
    server's own stage accounting."""
    sent = time.perf_counter()
    try:
        if tracer is not None and tracer.enabled:
            with tracer.span("serve.client_request", request_id=f"r{index}") as span:
                status, payload = client.try_forecast(sql, deadline_ms=deadline_ms)
                span["status"] = status
                span["server"] = payload.get("deadline")
                span["response_bytes"] = len(json.dumps(payload))
        else:
            status, _ = client.try_forecast(sql, deadline_ms=deadline_ms)
    except ServeUnavailableError:
        status = 0
    done = time.perf_counter()
    return Outcome(index, sent if due is None else due, sent, done, status)


def open_loop(
    clients: Sequence[ServeClient],
    statements: Sequence[str],
    offsets: Sequence[float],
    deadline_ms: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> list[Outcome]:
    """Send ``statements[i]`` at ``offsets[i]`` seconds, whatever came back.

    Each sender takes the next unsent request, sleeps until it is due and
    sends it; a sender still busy when a request falls due sends it late,
    and that wait is part of the request's latency.
    """
    base = time.perf_counter() + 0.05
    return _drive(
        clients, statements[: len(offsets)], lambda index: base + offsets[index],
        float("inf"), deadline_ms, tracer,
    )


def closed_loop(
    clients: Sequence[ServeClient],
    statements: Sequence[str],
    seconds: Optional[float] = None,
    deadline_ms: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> list[Outcome]:
    """Each client sends its next request as soon as the last answered.

    Clients share one statement sequence and stop taking from it after
    ``seconds`` (never, when None: the sequence is sent to its end); a
    request in flight at that moment still completes.
    """
    stop_at = float("inf") if seconds is None else time.perf_counter() + seconds
    return _drive(clients, statements, lambda index: None, stop_at, deadline_ms, tracer)


def _drive(clients, statements, due_at, stop_at, deadline_ms, tracer) -> list[Outcome]:
    """One thread per client, all drawing request numbers from one counter."""
    ticket = itertools.count()
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    errors: list[BaseException] = []

    def sender(client: ServeClient) -> None:
        mine: list[Outcome] = []
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    index = next(ticket)
                if index >= len(statements):
                    break
                due = due_at(index)
                delay = 0.0 if due is None else due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                mine.append(
                    send(client, index, statements[index], due, deadline_ms, tracer)
                )
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)
        with lock:
            outcomes.extend(mine)

    threads = [
        threading.Thread(target=sender, args=(client,), name=f"bench-sender-{i}")
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes
