"""In-memory spans recorded by the benchmark around calls into each layer.

Spans are taken from the benchmark's own files, outside the program: a
span brackets one call into a layer's public function.  They stay in
memory during the run and are written out once, at exit.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional


class Tracer:
    """Collects ``(name, start, end, parent, request id)`` spans.

    A disabled tracer records nothing, so one code path serves the
    traced and the untraced side of an overhead comparison.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(
        self, name: str, request_id: Optional[str] = None, **attrs
    ) -> Iterator[dict]:
        """Record one span; the yielded dict accepts late attributes."""
        if not self.enabled:
            yield {}
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": None,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request_id": request_id
            or (parent["request_id"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        with self._lock:
            record["id"] = len(self._spans)
            self._spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> list[dict]:
        """Every finished span called ``name``, in recording order."""
        return [
            s for s in self._spans if s["name"] == name and s["end"] is not None
        ]

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.named(name)]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"spans": self._spans}, stream)
