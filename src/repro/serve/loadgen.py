"""Deterministic load generation for the serving daemon.

Builds seeded request schedules — Poisson arrivals over SQL sampled
from a workload spec — and replays them against a daemon as fast as the
worker pool allows.  No wall-clock sleeps anywhere, so tests stay fast
and deterministic; the arrival offsets only order the requests (the
gate's open-loop generator, ``bench/loadgen.py``, is the one that keeps
a rate and times from the due instant).

The schedule itself is a pure function of ``(seed, workload, n)`` via
``repro.rng.child_generator``, so the same drill replays bitwise the
same request stream on every machine — the property the CI serve-smoke
job and the chaos drills rely on.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.sanitizer import make_lock
from repro.errors import (
    ServeBadStatementError,
    ServeRejectedError,
    ServeUnavailableError,
)
from repro.rng import child_generator
from repro.serve.client import ServeClient
from repro.workloads.generator import generate_pool

__all__ = ["LoadRequest", "LoadReport", "generate_load", "run_load"]


@dataclass(frozen=True)
class LoadRequest:
    """One scheduled request: who sends what, and when."""

    index: int
    offset_s: float
    sql: str
    client: str


@dataclass
class LoadReport:
    """Outcome of a load drill.

    ``dropped`` counts transport-level failures (connection refused,
    truncated response) — a healthy daemon under chaos still answers
    *something* structured for every request, so drills assert
    ``dropped == 0`` even when many requests are rejected.
    """

    total: int = 0
    ok: int = 0
    rejected: int = 0
    expired: int = 0
    dropped: int = 0
    retried: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    served_by: dict[str, int] = field(default_factory=dict)

    def observe(self, status: int, latency_s: float, stage: Optional[str]) -> None:
        self.total += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latencies_s.append(latency_s)
        if status == 200:
            self.ok += 1
            if stage:
                self.served_by[stage] = self.served_by.get(stage, 0) + 1
        elif status == 504:
            self.expired += 1
        elif status in (429, 503):
            self.rejected += 1
        elif status == 0:
            self.dropped += 1

    @property
    def structured(self) -> int:
        """Requests that got *some* structured answer (everything but
        transport drops) — the chaos drills' 100% target."""
        return self.total - self.dropped

    def percentile_ms(self, q: float) -> float:
        """Latency percentile in milliseconds (nearest-rank)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank] * 1e3

    def summary(self) -> dict:
        return {
            "total": self.total,
            "ok": self.ok,
            "rejected": self.rejected,
            "expired": self.expired,
            "dropped": self.dropped,
            "retried": self.retried,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "served_by": dict(sorted(self.served_by.items())),
            "p50_ms": round(self.percentile_ms(50), 3),
            "p99_ms": round(self.percentile_ms(99), 3),
        }


def generate_load(
    n_requests: int,
    seed: int = 0,
    workload: str = "tpcds",
    rate_per_s: float = 100.0,
    n_clients: int = 4,
) -> list[LoadRequest]:
    """Build a deterministic request schedule.

    Arrivals are exponential (Poisson process at ``rate_per_s``), SQL
    is sampled from ``workload``, and each request is attributed
    round-robin-free to a seeded client choice — all driven by
    independent child generators of ``seed`` so changing one knob does
    not reshuffle the others.
    """
    if n_requests < 1:
        return []
    arrivals = child_generator(seed, "serve.loadgen.arrivals")
    clients = child_generator(seed, "serve.loadgen.clients")
    pool = generate_pool(n_requests, seed=seed, workload=workload)
    schedule: list[LoadRequest] = []
    offset = 0.0
    for index, instance in enumerate(pool):
        offset += float(arrivals.exponential(1.0 / rate_per_s))
        client = f"client-{int(clients.integers(0, n_clients))}"
        schedule.append(
            LoadRequest(
                index=index, offset_s=offset, sql=instance.sql, client=client
            )
        )
    return schedule


def run_load(
    address: tuple[str, int],
    schedule: Sequence[LoadRequest],
    max_workers: int = 8,
    timeout_s: float = 30.0,
    deadline_ms: Optional[float] = None,
    retry_unavailable: int = 0,
    retry_backoff_s: float = 0.05,
) -> LoadReport:
    """Replay ``schedule`` against a daemon at ``address``.

    Every scheduled request produces exactly one observation in the
    returned :class:`LoadReport`: 200s, structured rejections
    (429/503/504) and transport drops (status 0) are all counted, so
    callers can assert invariants like "zero drops under chaos".

    Args:
        address: daemon (or supervisor) host/port.
        schedule: the seeded request schedule.
        max_workers: concurrent replay threads.
        timeout_s: per-request client timeout.
        deadline_ms: attach this end-to-end budget to every request.
        retry_unavailable: retries per request on a transport-level
            failure (:class:`ServeUnavailableError`) — the supervised
            drill mode, where a restart gap is survivable by backing
            off briefly; 0 records the failure as a drop immediately.
        retry_backoff_s: sleep between unavailable retries.
    """
    host, port = address
    report = LoadReport()
    lock = make_lock("serve.loadgen.report")
    with ThreadPoolExecutor(max_workers=max_workers) as executor:
        for request in schedule:
            executor.submit(
                _replay_one, host, port, timeout_s, request, report, lock,
                deadline_ms, retry_unavailable, retry_backoff_s,
            )
    return report


def _replay_one(
    host: str,
    port: int,
    timeout_s: float,
    request: LoadRequest,
    report: LoadReport,
    lock: threading.Lock,
    deadline_ms: Optional[float] = None,
    retry_unavailable: int = 0,
    retry_backoff_s: float = 0.05,
) -> None:
    """Fire one scheduled request and record its outcome."""
    client = ServeClient(host, port, timeout_s=timeout_s, client_id=request.client)
    start = time.monotonic()
    status = 0
    stage: Optional[str] = None
    attempts = 0
    while True:
        try:
            payload = client.forecast(request.sql, deadline_ms=deadline_ms)
            status = 200
            stage = payload.get("served_by")
        except ServeRejectedError as rejection:
            status = rejection.status
        except ServeBadStatementError:
            status = 400
        except ServeUnavailableError:
            if attempts < retry_unavailable:
                attempts += 1
                with lock:
                    report.retried += 1
                time.sleep(retry_backoff_s)
                continue
            status = 0
        except OSError:
            status = 0
        break
    latency = time.monotonic() - start
    client.close()
    with lock:
        report.observe(status, latency, stage)
