"""An LRU cache of prepared plans with per-entry staleness validation.

SODA generates many template-shaped statements (same structure,
different literals are still frequent repeats across searches), so
skipping lower + optimize + compile for a statement seen before is a
direct win on the hot path.  Keys are the *normalized SQL* (the
canonical ``Select.to_sql()`` rendering of the parsed statement, which
collapses whitespace/keyword-case differences); staleness is handled by
an optional per-lookup ``validate`` callback rather than by baking a
whole-catalog fingerprint into the key: the planner stores each plan
with a :class:`~repro.stamps.DependencyStamp` (DDL version + the
versions of exactly the tables the plan scans, read before the
optimizer saw their statistics) and validates it here — a write to one
table drops only the plans that touch it, and prepared plans for every
other table keep serving hits.  The search-result cache and the lookup
memos validate the same way.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.concurrency import SharedRLock
from repro.obs.metrics import registry as _metrics_registry
from repro.sqlengine.config import DEFAULT_PLAN_CACHE_SIZE


@dataclass
class PlanCacheStats:
    """Counters exposed for benchmarks and monitoring."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: entries dropped because validation found them stale
    invalidations: int = 0


class PlanCache:
    """A bounded mapping from plan keys to prepared plans (LRU eviction).

    Thread-safe: concurrent serving sessions share one planner, so the
    LRU reorder in ``get`` and the insert/evict step in ``put`` run
    under a lock (an OrderedDict mutated from two threads at once can
    corrupt its ordering invariants).  Reading ``len()`` from a
    non-owner thread — the metrics gauges do — takes the same lock.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self.capacity = max(0, capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = SharedRLock()
        self.stats = PlanCacheStats()
        # per-cache stats stay the public shape; the same increments are
        # mirrored into the process-wide registry (handles cached here)
        self._metrics = _metrics_registry()
        self._hits_counter = self._metrics.counter("plan_cache.hits")
        self._misses_counter = self._metrics.counter("plan_cache.misses")
        self._evictions_counter = self._metrics.counter("plan_cache.evictions")
        self._invalidations_counter = self._metrics.counter(
            "plan_cache.invalidations"
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key, validate=None):
        """The cached entry for *key*, or None.

        With *validate* (a predicate over the stored entry), a stale
        entry is dropped and counted as an invalidation + miss instead
        of being returned.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                if self._metrics.enabled:
                    self._misses_counter.inc()
                return None
            if validate is not None and not validate(entry):
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                if self._metrics.enabled:
                    self._invalidations_counter.inc()
                    self._misses_counter.inc()
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self._metrics.enabled:
                self._hits_counter.inc()
            return entry

    def put(self, key, plan) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self._metrics.enabled:
                    self._evictions_counter.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
