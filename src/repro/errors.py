"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystems get
their own subclass so that tests (and users) can assert on the precise
failure mode without string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SQLError(ReproError):
    """Base class for SQL front-end errors."""


class TokenizeError(SQLError):
    """Raised when the tokenizer encounters an invalid character sequence.

    Attributes:
        position: character offset into the SQL text where the error occurred.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """Raised when the parser cannot build an AST from a token stream.

    Attributes:
        position: character offset of the offending token, or -1 when the
            input ended unexpectedly.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class CatalogError(ReproError):
    """Raised for unknown tables/columns or duplicate registrations."""


class StorageError(ReproError):
    """Raised on invalid storage-layer operations (schema mismatch etc.)."""


class PlanError(ReproError):
    """Raised when a physical plan is malformed or cannot be executed."""


class OptimizerError(ReproError):
    """Raised when the optimizer cannot produce a plan for a query."""


class ExecutionError(ReproError):
    """Raised when the execution engine fails while running a plan."""


class FeatureError(ReproError):
    """Raised when a feature vector cannot be constructed or aligned."""


class ModelError(ReproError):
    """Raised for invalid model state (e.g. predicting before training)."""


class NotFittedError(ModelError):
    """Raised when a model is used before :meth:`fit` has been called."""


class WorkloadError(ReproError):
    """Raised when a workload/template cannot be generated."""


class WorkloadSpecError(WorkloadError):
    """Raised for invalid workload specification files.

    Attributes:
        errors: the individual validation error messages.
    """

    def __init__(self, message: str, errors: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.errors = errors


class InjectedFault(ReproError):
    """Raised by an armed :class:`repro.resilience.FaultPlan` site.

    Attributes:
        site: the fault-site name the fault fired at.
        call_index: 1-based invocation count of the site when it fired.
    """

    def __init__(self, message: str, site: str = "", call_index: int = 0) -> None:
        super().__init__(message)
        self.site = site
        self.call_index = call_index


class RetryExhaustedError(ReproError):
    """Raised when a :class:`repro.resilience.RetryPolicy` gives up.

    Attributes:
        attempts: how many attempts were made.
        last_error: the exception the final attempt raised.
    """

    def __init__(
        self, message: str, attempts: int = 0, last_error: Exception | None = None
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ReproError):
    """Raised when a call is refused because its circuit breaker is open."""


class CheckpointError(ReproError):
    """Raised for unusable corpus checkpoints (wrong build, bad header)."""


class CorpusBuildError(ReproError):
    """Raised when a corpus build fails (worker crash, exhausted retries).

    Attributes:
        query_id: the first query that did not complete, when known.
        completed: how many queries had finished when the build failed.
    """

    def __init__(
        self, message: str, query_id: str | None = None, completed: int = 0
    ) -> None:
        super().__init__(message)
        self.query_id = query_id
        self.completed = completed


class DeadlineExceededError(ReproError):
    """Raised when a request's deadline budget is spent mid-pipeline.

    Cooperative cancellation: raised at stage boundaries by
    :meth:`repro.resilience.deadline.Deadline.check`, never by killing a
    thread.  The serving daemon maps it to a structured 504.

    Attributes:
        stage: the pipeline stage at whose boundary the budget ran out
            (``queue``, ``optimize``, ``featurize``, ``predict``, ...).
        budget_ms: the request's total deadline budget.
        elapsed_ms: how much wall time had elapsed at the check.
    """

    def __init__(
        self,
        message: str,
        stage: str = "",
        budget_ms: float = 0.0,
        elapsed_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms


class ServeError(ReproError):
    """Raised for prediction-serving daemon failures (bad config, no
    artifact to reload, shutdown races)."""


class SupervisorError(ServeError):
    """Raised for supervisor lifecycle failures (double start, fork
    errors, crash-loop give-up)."""


class ServeRejectedError(ServeError):
    """Client-side error for a structured rejection (429/503/504).

    Carries the machine-readable retry hints the daemon returned, so a
    caller can back off without parsing the response body itself.

    Attributes:
        status: the HTTP status code (429 quota, 503 shed/overload,
            504 deadline expired).
        retry_after_s: the daemon's suggested backoff in seconds.
        payload: the full decoded JSON error body.
    """

    def __init__(
        self,
        message: str,
        status: int = 503,
        retry_after_s: float = 0.0,
        payload: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s
        self.payload = payload or {}


class ServeBadStatementError(ServeError):
    """Client-side error for a 400 ``bad_statement``: the daemon could
    not parse or bind the statement.

    The same text fails the same way every time, so unlike
    :class:`ServeRejectedError` there is no retry hint.

    Attributes:
        position: character offset of the offending token (None when
            the statement parsed but did not bind to the catalog).
        payload: the full decoded JSON error body.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        payload: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.position = position
        self.payload = payload or {}


class ServeUnavailableError(ServeError):
    """Client-side error for a transport-level failure reaching the
    daemon (connection refused/reset, timeout) — the signature of a
    supervisor restarting its child.

    Unlike :class:`ServeRejectedError` (the daemon *answered* with a
    structured rejection), this error means no structured response
    arrived at all.  It still carries a ``retry_after_s`` hint so
    callers can back off and retry against the supervised endpoint.

    Attributes:
        retry_after_s: suggested backoff before retrying.
        cause: the underlying ``OSError`` (or None for timeouts).
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float = 0.5,
        cause: OSError | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.cause = cause
