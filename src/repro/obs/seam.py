"""The stage seam: one context at every stage boundary of the hot path.

A *stage* is a named region of production work — planning one
statement, featurizing a batch, scoring it, executing a plan.  Four
concerns meet at its boundary: the request's
:class:`~repro.resilience.deadline.Deadline`, the trace span, the
stage's latency histogram and the chaos fault site.  :func:`stage` is
the one way to cross a boundary, and :data:`STAGES` the one table of
what a stage name feeds::

    with stage("api.forecast_many", n=len(sqls)) as current:
        current.set(memo_hits=hits)

On entry the context reads the clock once, checks the thread's deadline
against that reading and fires the stage's fault site when a plan is
armed; on exit it reads the clock once more.  That one interval is what
the deadline is charged, the histogram observes and the span records as
``wall_ms``: ``deadline.stage_ms``, ``/metrics`` and the trace agree
because they are the same number.  The clock is the installed
deadline's (injectable for tests), else ``time.perf_counter``.  When
nothing listens, :func:`stage` hands back one shared idle context.
"""

from __future__ import annotations

import time
from typing import Any, NamedTuple, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience import deadline as _deadline
from repro.resilience import faults as _faults

__all__ = ["STAGES", "StageRow", "stage", "boundary"]


class StageRow(NamedTuple):
    """What a stage feeds besides its span; every field is optional.

    Attributes:
        deadline: the ``Deadline.stage_ms`` key the stage is checked
            against on entry and charged on exit.
        fault_site: the registered fault site fired on entry (the
            stage's attributes are the site's match context).
        histogram: observes the stage's seconds while metrics are on.
        counter: grows by the stage's ``n`` attribute (else 1) for each
            stage that ends without raising, while metrics are on.
    """

    deadline: Optional[str] = None
    fault_site: Optional[str] = None
    histogram: Optional[str] = None
    counter: Optional[str] = None


_PREDICT = StageRow(
    histogram="repro_predict_seconds", counter="repro_predict_queries_total"
)

#: The only place a stage name maps to its deadline key, fault site,
#: histogram and counter.  A name not listed here is a span only.
STAGES: dict[str, StageRow] = {
    "optimizer.optimize": StageRow(
        deadline="optimize", fault_site="optimizer.optimize"
    ),
    "api.featurize": StageRow(deadline="featurize"),
    "pipeline.score_many": _PREDICT._replace(deadline="predict"),
    "pipeline.predict": _PREDICT,
    "pipeline.fit": StageRow(histogram="repro_pipeline_fit_seconds"),
    "engine.execute": StageRow(
        histogram="repro_execute_seconds",
        counter="repro_execute_queries_total",
    ),
    "corpus.execute": StageRow(fault_site="corpus.execute"),
    "serve.batch": StageRow(fault_site="serve.batch"),
}

_SPAN_ONLY = StageRow()


class _Stage:
    """One crossing of a stage boundary (see :func:`stage`)."""

    __slots__ = (
        "name", "row", "attributes", "deadline", "fault",
        "_clock", "_start", "_span",
    )

    def __init__(
        self,
        name: str,
        row: StageRow,
        attributes: dict[str, Any],
        deadline: Optional[_deadline.Deadline],
    ) -> None:
        self.name = name
        self.row = row
        self.attributes = attributes
        self.deadline = deadline
        #: The fired ``corrupt`` spec of the stage's fault site, or None.
        self.fault: Optional[_faults.FaultSpec] = None
        self._span: Optional[_trace.Span] = None

    def __enter__(self) -> "_Stage":
        deadline = self.deadline
        if deadline is None:
            self._clock = time.perf_counter
            self._start = time.perf_counter()
        else:
            self._clock = deadline.clock
            self._start = deadline.check(self.row.deadline)
        if _trace.tracing_enabled():
            self._span = _trace.open_span(self.name, self.attributes)
        site = self.row.fault_site
        if site is not None:
            try:
                self.fault = _faults.fault_site(site, **self.attributes)
            except BaseException as error:
                self.__exit__(type(error), error, None)
                raise
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        seconds = self._clock() - self._start
        row = self.row
        if self.deadline is not None:
            self.deadline.account(row.deadline, seconds)
        if row.histogram is not None and _metrics.metrics_enabled():
            registry = _metrics.get_registry()
            registry.histogram(row.histogram).observe(seconds)
            if row.counter is not None and exc_type is None:
                registry.counter(row.counter).inc(self.attributes.get("n", 1))
        if self._span is not None:
            _trace.close_span(self._span, seconds, exc_type, exc)
        return False  # never swallow exceptions

    def set(self, **attributes: Any) -> "_Stage":
        """Attach attributes to the stage (and so to its span)."""
        self.attributes.update(attributes)
        return self


class _Idle:
    """The shared context :func:`stage` returns when nothing listens."""

    __slots__ = ()
    fault = None

    def __enter__(self) -> "_Idle":
        return self

    def __exit__(self, *_exc: Any) -> bool:
        return False

    def set(self, **_attributes: Any) -> "_Idle":
        return self


_IDLE = _Idle()


def stage(name: str, **attributes: Any) -> Any:
    """Cross the boundary of stage ``name`` (a context manager).

    ``attributes`` annotate the span and are the fault site's match
    context; ``n`` is also what the stage's counter grows by.  The
    context's ``fault`` is the fired ``corrupt`` spec of the stage's
    fault site (for :func:`~repro.resilience.faults.corrupt_array`), or
    None.
    """
    row = STAGES.get(name, _SPAN_ONLY)
    deadline = None
    if row.deadline is not None:
        deadline = _deadline.current_deadline()
    if (
        deadline is None
        and not _trace.tracing_enabled()
        and (row.fault_site is None or _faults.armed_plan() is None)
        and (row.histogram is None or not _metrics.metrics_enabled())
    ):
        return _IDLE
    return _Stage(name, row, attributes, deadline)


def boundary(name: str) -> None:
    """Cross stage ``name`` for work already done: check the deadline and
    fire the fault site, with no span and nothing timed.

    What a statement the statement memo answers passes through in place
    of ``optimizer.optimize``: still a cancellation point and a fault
    site, and the stage still appears in ``deadline.stage_ms`` (charged
    nothing), so a response's stage list has one shape hit or miss.
    """
    row = STAGES[name]
    if row.deadline is not None:
        deadline = _deadline.current_deadline()
        if deadline is not None:
            deadline.check(row.deadline)
            deadline.account(row.deadline, 0.0)
    if row.fault_site is not None:
        _faults.fault_site(row.fault_site)
