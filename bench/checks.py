"""Output checks: a run whose outputs are wrong is not a measurement."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.metrics import within_fraction
from repro.errors import ReproError
from repro.serve import forecast_payload


class Checks:
    """Named pass/fail results; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(result["ok"] for result in self.results)


def payloads(service, statements: Sequence[str], batched: bool) -> list[dict]:
    """JSON views of in-process forecasts (floats compare bit for bit)."""
    if batched:
        return [forecast_payload(f) for f in service.forecast_many(list(statements))]
    return [forecast_payload(service.forecast(sql)) for sql in statements]


def check_identical(
    checks: Checks, name: str, left: Sequence[dict], right: Sequence[dict]
) -> bool:
    """Two lists of forecast payloads must be equal, bit for bit."""
    if len(left) != len(right):
        return checks.add(name, False, f"{len(left)} vs {len(right)} forecasts")
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return checks.add(name, False, f"statement {index} differs")
    return checks.add(name, True, f"{len(left)} statements")


#: Neighbour distances come from ``|a|^2 + |b|^2 - 2ab``, whose last
#: digits depend on the shape of the batch being projected: the same
#: statement scored alone or in a chunk agrees to ~1e-9, not to the bit.
#: Below the tolerance a statement coincides with training rows, and
#: which of several equidistant duplicates counts as "nearest" can flip.
DISTANCE_TOLERANCE = 1e-6


def _distance(payload: dict) -> float:
    confidence = payload["confidence"]
    return float("inf") if confidence is None else confidence["distance"]


def _without_distance(payload: dict) -> dict:
    confidence = payload["confidence"]
    return {
        **payload,
        "confidence": confidence and {"anomalous": confidence["anomalous"]},
    }


def check_batch_equals_single(checks: Checks, service, statements) -> bool:
    """``forecast_many(chunk)`` must equal per-statement ``forecast``:
    every predicted metric bit for bit, the neighbour distance to within
    :data:`DISTANCE_TOLERANCE`.  Statements that coincide with training
    rows are counted instead: there the two paths may pick different
    duplicates (a known gap in the batched == single guarantee)."""
    name = "forecast_many == per-statement forecast"
    batched = payloads(service, statements, batched=True)
    single = payloads(service, statements, batched=False)
    ties = 0
    for index, (a, b) in enumerate(zip(batched, single)):
        if min(_distance(a), _distance(b)) < DISTANCE_TOLERANCE:
            ties += 1
        elif (_without_distance(a) != _without_distance(b)
              or abs(_distance(a) - _distance(b)) > DISTANCE_TOLERANCE):
            return checks.add(name, False, f"statement {index} differs")
    return checks.add(
        name, True,
        f"{len(batched)} statements, {ties} coincide with training rows",
    )


def within20_elapsed(predicted_elapsed: Sequence[float], service, statements) -> float:
    """Share of statements whose predicted elapsed time is within 20 % of
    what the simulated system then measures."""
    actual = [service.measure(sql).elapsed_time for sql in statements]
    return within_fraction(
        np.asarray(predicted_elapsed, dtype=float), np.asarray(actual, dtype=float), 0.2
    )


def check_accounting(checks: Checks, counts: dict, sent: int, daemon: dict) -> bool:
    """Every request is counted once, and both ends agree: the client's
    tally of the measured requests adds up, and the daemon's own counters
    show every request this run sent it (``sent``), none of them failed."""
    buckets = counts["ok"] + counts["refused"] + counts["failed"] + counts["dropped"]
    return checks.add(
        "every request accounted for",
        buckets == counts["attempted"]
        and daemon["total"] == sent
        and daemon["failed"] == 0,
        f"client {counts}, sent {sent}, daemon {daemon}",
    )


def succeeds(operation, item) -> bool:
    """Run one in-process operation; a typed failure is a failed op."""
    try:
        operation(item)
    except ReproError:
        return False
    return True
