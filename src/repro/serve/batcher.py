"""Micro-batching collector for the serving daemon.

Handler threads :meth:`~MicroBatcher.submit` a :class:`ForecastRequest`
and block on its event; a single collector thread takes everything
queued — up to ``max_batch`` statements — and runs the daemon's batch
predict function **once** per batch.  The collector is work-conserving: it
never holds a batch open on a timer.  An idle collector dispatches a
lone request at once; requests that arrive while a batch is predicting
queue up and leave together as the next batch, so load, not a wait,
forms the batches.  That is the whole point: N concurrent requests
cost one kernel cross through ``forecast_many`` instead of N (the
property ``tests/test_serve.py`` asserts by counting crosses).

The batcher knows nothing about HTTP or models; it moves request
records between threads.  Failure of a batch fans the exception out to
every request in it — except a statement that does not parse or bind
(``SQLError`` / ``OptimizerError``): that is its sender's error, so the
members of such a batch are predicted again one by one and only the
request that carries the statement fails.  :meth:`stop` drains the
queue FIFO before the collector exits so shutdown never strands a
waiting handler.

A request that costs less than the two thread wake-ups a queued one
takes (the daemon's repeats, answered from the statement memo) is
:meth:`~MicroBatcher.run` instead: a batch of its own on the calling
thread, through the same expiry, deadline scope and failure handling,
counted in ``inline_batches`` apart from the collector's batches.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence, Union

from repro.analysis.sanitizer import guarded_by, make_condition, note_access
from repro.errors import (
    DeadlineExceededError,
    OptimizerError,
    ServeError,
    SQLError,
)
from repro.resilience.deadline import Deadline, deadline_scope

__all__ = [
    "ForecastRequest",
    "MicroBatcher",
    "QueueFullError",
    "BatchTooLargeError",
]


class QueueFullError(ServeError):
    """The batcher's submission queue is at capacity (shed with 503)."""


class BatchTooLargeError(ServeError):
    """One submission carries more statements than the queue can ever
    hold: retrying cannot help, so it is the sender's error (400)."""


class ForecastRequest:
    """One forecast request, built once from its validated body.

    It holds what the request asked (``sqls``, ``client``), its
    :class:`Deadline` (None for unbounded) and the clock reading at its
    arrival, and it is what the batcher queues.  The collector refuses
    to spend compute on a request whose budget is already gone, and
    never resolves a late result silently.  Its settle slots —
    ``results`` or ``error``, then ``event`` — are written once, by
    whichever thread ran its batch.
    """

    __slots__ = (
        "sqls", "client", "deadline", "arrived", "event", "results", "error"
    )

    def __init__(
        self,
        sqls: Sequence[str],
        client: str,
        deadline: Optional[Deadline],
        arrived: float,
    ) -> None:
        self.sqls = list(sqls)
        self.client = client
        self.deadline = deadline
        self.arrived = arrived
        self.event = threading.Event()
        self.results: Optional[list] = None
        self.error: Optional[BaseException] = None

    def resolve(self, results: list) -> None:
        self.results = results
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class MicroBatcher:
    """Coalesce concurrent submissions into single batch-predict calls.

    Args:
        predict_fn: called once per batch with the concatenated SQL
            list; returns one result per statement, in order.  The
            daemon passes a closure that snapshots the current model
            runtime, so a hot reload mid-batch is atomic per batch.
        max_batch: close a batch at this many statements.
        max_queue: cap on queued statements; beyond it submissions
            raise :class:`QueueFullError`.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        predict_fn: Callable[[list[str]], list],
        max_batch: int = 32,
        max_queue: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._predict_fn = predict_fn
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self._clock = clock
        self._queue: deque[ForecastRequest] = deque()
        self._queued_statements = 0
        self._cond = make_condition("serve.batcher.cond")
        guarded_by("serve.batcher.queue", self._cond)
        # Batches run on the collector and on handler threads (``run``).
        guarded_by("serve.batcher.counters", self._cond)
        self._stopping = False
        self.batches = 0
        self.batched_statements = 0
        self.largest_batch = 0
        self.inline_batches = 0
        self.expired_requests = 0
        self.stage_ms_total: dict[str, float] = {}
        self._thread = threading.Thread(
            target=self._collect, name="repro-serve-batcher", daemon=True
        )
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    # -- producer side ---------------------------------------------------

    def _admit(
        self, request: Union[ForecastRequest, Sequence[str]]
    ) -> ForecastRequest:
        """``request``, or bare statements as a request with no client
        and no deadline arriving now.

        Raises:
            BatchTooLargeError: it alone exceeds ``max_queue``.
        """
        if not isinstance(request, ForecastRequest):
            request = ForecastRequest(request, "", None, self._clock())
        if len(request.sqls) > self.max_queue:
            raise BatchTooLargeError(
                f"batch of {len(request.sqls)} statements exceeds the serve "
                f"queue cap of {self.max_queue}; split it"
            )
        return request

    def run(
        self, request: Union[ForecastRequest, Sequence[str]]
    ) -> ForecastRequest:
        """Predict ``request`` as a batch of its own on the calling thread,
        exactly as the collector would; returns it settled.

        Raises:
            BatchTooLargeError: it alone exceeds ``max_queue``.
        """
        request = self._admit(request)
        self._run_batch([request], inline=True)
        return request

    def submit(
        self, request: Union[ForecastRequest, Sequence[str]]
    ) -> ForecastRequest:
        """Queue ``request`` for the next batch; returns it.

        Raises:
            BatchTooLargeError: it alone exceeds ``max_queue``.
            QueueFullError: the queue is at ``max_queue`` statements.
            ServeError: the batcher is stopping.
        """
        request = self._admit(request)
        with self._cond:
            if self._stopping:
                raise ServeError("batcher is stopping; submission refused")
            if self._queued_statements + len(request.sqls) > self.max_queue:
                raise QueueFullError(
                    f"serve queue full ({self._queued_statements} statements "
                    f"queued, cap {self.max_queue})"
                )
            note_access("serve.batcher.queue")
            self._queue.append(request)
            self._queued_statements += len(request.sqls)
            self._cond.notify_all()
        return request

    # -- collector side --------------------------------------------------

    def _take_batch(self) -> Optional[list[ForecastRequest]]:
        """Block until something is queued, then take what is there (up
        to ``max_batch`` statements, FIFO); None when stopped and drained."""
        with self._cond:
            while not self._queue and not self._stopping:
                self._cond.wait()
            if not self._queue:
                return None  # stopping and drained
            note_access("serve.batcher.queue")
            batch = [self._queue.popleft()]
            size = len(batch[0].sqls)
            while (
                self._queue
                and size + len(self._queue[0].sqls) <= self.max_batch
            ):
                request = self._queue.popleft()
                batch.append(request)
                size += len(request.sqls)
            self._queued_statements -= size
            return batch

    def _expired(self, request: ForecastRequest, stage: str) -> bool:
        """Whether ``request``'s budget is spent at ``stage``; if so it is
        failed with the structured deadline error (→ 504)."""
        if request.deadline is None:
            return False
        try:
            request.deadline.check(stage)
        except DeadlineExceededError as error:
            with self._cond:
                note_access("serve.batcher.counters")
                self.expired_requests += 1
            request.fail(error)
            return True
        return False

    def _batch_deadline(self, batch: list[ForecastRequest]) -> Optional[Deadline]:
        """The deadline a batch predicts under; None when no member has one.

        It expires with the *loosest* member's budget (any unbounded
        member makes it unbounded): a batch is aborted mid-pipeline only
        when nobody in it can still be served; a member whose own budget
        lapses meanwhile is expired at resolve time.  It starts with no
        stage readings: what the batch's stages read is charged to every
        member."""
        deadlines = [request.deadline for request in batch]
        if all(deadline is None for deadline in deadlines):
            return None
        if any(deadline is None or deadline.budget_s is None
               for deadline in deadlines):
            return Deadline(clock=self._clock)
        return max(deadlines, key=Deadline.remaining_s).fork()

    def _run_batch(self, batch: list[ForecastRequest], inline: bool = False) -> None:
        # Refuse to burn compute on requests whose budget is already
        # spent: they are expired here (→ 504), before predict runs.
        # A request's queue stage runs from its arrival to this reading.
        live: list[ForecastRequest] = []
        now = self._clock()
        for request in batch:
            if request.deadline is not None:
                request.deadline.account("queue", now - request.arrived)
            if not self._expired(request, "queue"):
                live.append(request)
        if live:
            self._predict(live, inline)

    def _predict(self, live: list[ForecastRequest], inline: bool) -> None:
        """One predict call for ``live``; resolves or fails each member."""
        sqls = [sql for request in live for sql in request.sqls]
        batch_deadline = self._batch_deadline(live)
        try:
            with deadline_scope(batch_deadline):
                results = list(self._predict_fn(sqls))
        except (SQLError, OptimizerError) as error:
            # Somebody's statement does not compile.  Co-batched requests
            # must not pay for it: predict the members one at a time.
            if len(live) == 1:
                live[0].fail(error)
            else:
                for request in live:
                    self._predict([request], inline)
            return
        except BaseException as error:  # fan the failure out, keep running
            for request in live:
                request.fail(error)
            return
        finally:
            if batch_deadline is not None:
                for request in live:
                    if request.deadline is not None:
                        for stage, ms in batch_deadline.stage_ms.items():
                            request.deadline.account(stage, ms / 1e3)
        if len(results) != len(sqls):
            error = ServeError(
                f"batch predict returned {len(results)} results "
                f"for {len(sqls)} statements"
            )
            for request in live:
                request.fail(error)
            return
        with self._cond:
            note_access("serve.batcher.counters")
            if inline:
                self.inline_batches += 1
            else:
                self.batches += 1
                self.batched_statements += len(sqls)
                self.largest_batch = max(self.largest_batch, len(sqls))
            for request in live:
                if request.deadline is not None:
                    for stage, ms in request.deadline.stage_ms.items():
                        self.stage_ms_total[stage] = (
                            self.stage_ms_total.get(stage, 0.0) + ms
                        )
        cursor = 0
        for request in live:
            slice_ = results[cursor : cursor + len(request.sqls)]
            cursor += len(request.sqls)
            # An answer that arrives after the caller's budget is never
            # delivered silently.
            if not self._expired(request, "resolve"):
                request.resolve(slice_)

    def _collect(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._run_batch(batch)

    # -- shutdown --------------------------------------------------------

    def stop(self, drain: bool = True, timeout_s: float = 10.0) -> bool:
        """Stop the collector; optionally drain queued requests first.

        With ``drain=True`` the collector keeps batching until the
        queue is empty, so every already-accepted request still gets a
        real answer.  With ``drain=False`` queued requests are failed
        immediately.  Returns True when the collector thread exited
        within ``timeout_s``.
        """
        with self._cond:
            self._stopping = True
            if not drain:
                note_access("serve.batcher.queue")
                while self._queue:
                    request = self._queue.popleft()
                    self._queued_statements -= len(request.sqls)
                    request.fail(ServeError("daemon shutting down"))
            self._cond.notify_all()
        if not self._started:
            return True
        self._thread.join(timeout=timeout_s)
        return not self._thread.is_alive()

    def stats(self) -> dict:
        """JSON-able batching counters for ``/admin/status``."""
        with self._cond:
            note_access("serve.batcher.counters")
            batches = self.batches
            statements = self.batched_statements
            return {
                "batches": batches,
                "batched_statements": statements,
                "largest_batch": self.largest_batch,
                "mean_batch_size": (
                    round(statements / batches, 3) if batches else 0.0
                ),
                "inline_batches": self.inline_batches,
                "queued_statements": self._queued_statements,
                "max_batch": self.max_batch,
                "expired_requests": self.expired_requests,
                "stage_ms": {
                    stage: round(ms, 3)
                    for stage, ms in sorted(self.stage_ms_total.items())
                },
            }
