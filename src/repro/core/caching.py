"""The shared cross-session result cache.

One :class:`ResultCache` lives on each :class:`~repro.core.soda.Soda`
instance; every :class:`~repro.core.serving.SearchSession` over that
engine (and every thread of the HTTP front end) serves repeated query
texts from it.  Entries are keyed by ``(query text, execute, limit)``
and each carries the :class:`~repro.stamps.DependencyStamp` of what its
answer depended on.  An entry is **validated when it is read** — the
session layer passes the predicate — and dropped (counted in
``invalidations``) only when something it depended on changed: a write
to a table none of its statements read, or to a token it never probed,
leaves it in place.

Thread-safe by a plain lock around each operation.  There is no check
at store time: a compute that raced a write is stamped with the marks
read *before* it started, so it fails its first validation instead of
being served (see :mod:`repro.stamps` for why a stamp can be too old
but never too new).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.concurrency import SharedRLock
from repro.obs.metrics import registry as _metrics_registry

#: results memoized per cache unless overridden (0 disables caching)
DEFAULT_RESULT_CACHE_SIZE = 64

# local counters keep the public cache_stats() dict shape; the same
# events are mirrored process-wide for `repro stats --metrics`
_METRICS = _metrics_registry()
_RESULT_HITS = _METRICS.counter("serving.result_cache.hits")
_RESULT_MISSES = _METRICS.counter("serving.result_cache.misses")
_RESULT_INVALIDATIONS = _METRICS.counter("serving.result_cache.invalidations")


class ResultCache:
    """A stamp-validated LRU of search results, safe to share across threads."""

    def __init__(self, capacity: int = DEFAULT_RESULT_CACHE_SIZE) -> None:
        self.capacity = max(0, capacity)
        self._lock = SharedRLock()
        self._entries: OrderedDict = OrderedDict()  # key -> (result, stamp)
        self.hits = 0
        self.misses = 0
        #: entries dropped because their stamp no longer validated
        self.invalidations = 0

    def lookup(self, key, valid):
        """The cached result for *key*, or None (a miss).

        *valid* is a predicate over the entry's stamp; an entry that
        fails it is dropped and counted as an invalidation + miss.
        """
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if valid(entry[1]):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    if _METRICS.enabled:
                        _RESULT_HITS.inc()
                    return entry[0]
                del self._entries[key]
                self.invalidations += 1
                if _METRICS.enabled:
                    _RESULT_INVALIDATIONS.inc()
            self.misses += 1
            if _METRICS.enabled:
                _RESULT_MISSES.inc()
            return None

    def store(self, key, result, stamp) -> None:
        """Insert a freshly computed result under its dependency stamp."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = (result, stamp)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
