"""Zero-dependency tracing spans for the train/serve hot path.

A *span* records one named region of work — wall-clock and CPU time plus
free-form attributes — and spans nest into a tree via a thread-local
stack.  The design goal is the LinkedIn operability lesson (see
PAPERS.md): the hard part of running a learned predictor is answering
"where did this 40 ms prediction go?", which needs per-stage timing on
the *production* path, not a profiler run on a benchmark.

Code does not open spans itself: it crosses stage boundaries with
:func:`repro.obs.seam.stage`, which records the stage's one clock
interval here (:func:`open_span` / :func:`close_span`) while tracing is
on.  Tracing is **off by default**, and then no span is allocated at all
(the gate benchmark measures the on-cost: ``trace.overhead_share``).

Worker processes (the ``build_corpus`` fan-out) cannot share the parent's
thread-local tree, so workers export their finished spans as plain dicts
(:func:`export_trace`) and the parent grafts them back into its live
trace with :func:`attach_spans` — one trace tree regardless of how many
processes did the work.

Usage::

    from repro import obs

    obs.enable_tracing()
    with obs.stage("kcca.fit", n=1000) as current:
        ...
        current.set(components=8)
    print(obs.pretty_trace())
    json.dump(obs.export_trace(drain=True), fh)
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Optional

__all__ = [
    "Span",
    "open_span",
    "close_span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "trace_roots",
    "drain_trace",
    "export_trace",
    "attach_spans",
    "pretty_trace",
    "reset_trace",
]

#: Module-level switch; the no-op fast path is one attribute load + truth
#: test.  Global (not thread-local) so enabling in the main thread also
#: traces worker threads.
_ENABLED = False


class _TraceState(threading.local):
    """Per-thread open-span stack and finished root spans."""

    def __init__(self) -> None:  # called once per thread on first access
        self.stack: list[Span] = []
        self.roots: list[Span] = []


_STATE = _TraceState()


class Span:
    """One timed, attributed region of work in a trace tree.

    Attributes:
        name: dotted span name (``"pipeline.score_many"``; see
            docs/OBSERVABILITY.md for the naming convention).
        attributes: free-form JSON-able key/values.
        children: spans opened (and closed) while this one was open.
        wall_ms / cpu_ms: elapsed wall-clock and process CPU time,
            filled in when the span closes.
        status: ``"ok"``, or ``"error"`` when the body raised.
        error: ``"ExcType: message"`` for failed spans, else None.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "wall_ms",
        "cpu_ms",
        "status",
        "error",
        "_cpu_start",
    )

    def __init__(self, name: str, attributes: Optional[dict] = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = {} if attributes is None else attributes
        self.children: list[Span] = []
        self.wall_ms: float = 0.0
        self.cpu_ms: float = 0.0
        self.status: str = "ok"
        self.error: Optional[str] = None
        self._cpu_start: float = 0.0

    # -- (de)serialisation ----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able representation (round-trips via :meth:`from_dict`)."""
        payload: dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 4),
            "cpu_ms": round(self.cpu_ms, 4),
            "status": self.status,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span tree exported by :meth:`to_dict`."""
        span = cls(payload["name"], payload.get("attributes"))
        span.wall_ms = float(payload.get("wall_ms", 0.0))
        span.cpu_ms = float(payload.get("cpu_ms", 0.0))
        span.status = payload.get("status", "ok")
        span.error = payload.get("error")
        span.children = [
            cls.from_dict(child) for child in payload.get("children", ())
        ]
        return span

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall_ms={self.wall_ms:.3f}, "
            f"children={len(self.children)})"
        )


def open_span(name: str, attributes: dict[str, Any]) -> Span:
    """Push a span named ``name`` onto this thread's open-span stack.

    The span keeps ``attributes`` itself (not a copy), so what the stage
    sets while it runs lands on the span.
    """
    span = Span(name, attributes)
    _STATE.stack.append(span)
    span._cpu_start = time.process_time()
    return span


def close_span(
    span: Span, seconds: float, exc_type: Any = None, exc: Any = None
) -> None:
    """Finish ``span`` as ``seconds`` of wall time (the stage's reading)
    and attach it to its parent, or to this thread's roots."""
    span.wall_ms = seconds * 1e3
    span.cpu_ms = (time.process_time() - span._cpu_start) * 1e3
    if exc_type is not None:
        span.status = "error"
        span.error = f"{exc_type.__name__}: {exc}"
    stack = _STATE.stack
    stack.remove(span)  # the top, unless stages misnest
    if stack:
        stack[-1].children.append(span)
    else:
        _STATE.roots.append(span)


# ----------------------------------------------------------------------
# Switches and trace access
# ----------------------------------------------------------------------


def enable_tracing() -> None:
    """Turn span recording on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable_tracing() -> None:
    """Turn span recording off; already-recorded spans are kept."""
    global _ENABLED
    _ENABLED = False


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _ENABLED


def trace_roots() -> list[Span]:
    """The calling thread's finished top-level spans (oldest first)."""
    return list(_STATE.roots)


def drain_trace() -> list[Span]:
    """Return and clear the calling thread's finished root spans."""
    roots = _STATE.roots
    _STATE.roots = []
    return roots


def export_trace(drain: bool = False) -> list[dict]:
    """The finished trace as a list of JSON-able span dicts."""
    roots = drain_trace() if drain else trace_roots()
    return [root.to_dict() for root in roots]


def attach_spans(payloads: list[dict]) -> None:
    """Graft exported span dicts into the live trace.

    The ``build_corpus`` worker-merge path: workers export their spans as
    dicts (picklable, version-free) and the parent calls this inside its
    open ``corpus.build`` span, so the merged trace looks exactly like a
    serial run's.  No-op while tracing is disabled.
    """
    if not _ENABLED or not payloads:
        return
    spans = [Span.from_dict(payload) for payload in payloads]
    stack = _STATE.stack
    if stack:
        stack[-1].children.extend(spans)
    else:
        _STATE.roots.extend(spans)


def reset_trace() -> None:
    """Drop all recorded spans and any open-span stack (test helper)."""
    _STATE.stack = []
    _STATE.roots = []


def pretty_trace(roots: Optional[list[Span]] = None) -> str:
    """Human-readable indented rendering of a trace tree."""
    lines: list[str] = []

    def render(span: Span, depth: int) -> None:
        attrs = ""
        if span.attributes:
            attrs = "  " + json.dumps(span.attributes, sort_keys=True, default=str)
        flag = "" if span.status == "ok" else f"  !! {span.error}"
        lines.append(
            f"{'  ' * depth}{span.name:<28} "
            f"wall {span.wall_ms:9.3f}ms  cpu {span.cpu_ms:9.3f}ms{attrs}{flag}"
        )
        for child in span.children:
            render(child, depth + 1)

    for root in roots if roots is not None else trace_roots():
        render(root, 0)
    return "\n".join(lines)
