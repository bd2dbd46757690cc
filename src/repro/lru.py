"""The bounded LRU behind the statement memo (:class:`repro.api.StatementMemo`)
and the optimizer's template cache (``Optimizer.templates``)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional, Sequence

from repro.analysis.sanitizer import guarded_by, make_lock, note_access
from repro.obs.metrics import get_registry, metrics_enabled

__all__ = ["StampedLRU", "text_bytes"]


def text_bytes(text: str) -> int:
    """``text``'s length in UTF-8.  A lone surrogate, which JSON may carry
    and UTF-8 cannot encode, counts as its three bytes instead of raising."""
    return len(text.encode("utf-8", "surrogatepass"))


class StampedLRU:
    """Bounded LRU: key -> a value computed under the current *stamp*.

    Callers pass the stamp they compute under (a catalog version, a fitted
    pipeline): a new one empties the cache, and what was computed under an
    old one is not stored.  ``name`` names the lock (its state is
    ``<name>.entries``); lookups are counted in ``hits`` / ``misses`` and,
    with metrics on, in ``<counter>_{hits,misses}_total`` ("``what``
    lookups").
    """

    def __init__(self, name: str, max_entries: int, counter: str, what: str) -> None:
        self.max_entries = max_entries
        self._counter, self._what = counter, what
        self._state = f"{name}.entries"
        self._lock = make_lock(name)
        guarded_by(self._state, self._lock)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._stamp: object = None
        self.hits = self.misses = 0

    def lookup(self, stamp: object, keys: Sequence[Hashable],
               hit: Optional[Callable[[object], bool]] = None) -> tuple[dict, int]:
        """Entries held for ``keys``, now most recently used, and how many
        of them count as hits (those ``hit`` accepts; all by default)."""
        found, hits = {}, 0
        with self._lock:
            note_access(self._state)
            if stamp != self._stamp:
                self._entries.clear()
                self._stamp = stamp
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    found[key] = entry
                    hits += hit is None or hit(entry)
            self.hits += hits
            self.misses += len(keys) - hits
        if metrics_enabled():
            for outcome, count in (("hits", hits), ("misses", len(keys) - hits)):
                get_registry().counter(
                    f"{self._counter}_{outcome}_total", f"{self._what} lookups: {outcome}"
                ).inc(count)
        return found, hits

    def peek(self, stamp: object, keys: Sequence[Hashable]) -> dict:
        """Entries held for ``keys`` under ``stamp``, counted as no lookup
        and left where they are in the LRU order."""
        with self._lock:
            note_access(self._state)
            if stamp != self._stamp:
                return {}
            return {key: self._entries[key] for key in keys if key in self._entries}

    def store(self, stamp: object, entries: dict) -> None:
        """Hold ``entries`` if ``stamp`` is current, evicting the least
        recently used."""
        with self._lock:
            note_access(self._state)
            if stamp != self._stamp:
                return
            self._entries.update(entries)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def stats(self) -> dict:
        """JSON-able counters (a block of ``/admin/status``)."""
        with self._lock:
            note_access(self._state)
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        return {"size": len(self._entries), "max_entries": self.max_entries,
                "hits": self.hits, "misses": self.misses}
