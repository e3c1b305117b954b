"""Stateless serving sessions over one warm `Soda` instance.

One long-lived :class:`~repro.core.soda.Soda` holds the expensive
state — indexes, memoized term resolutions, join plans, the plan
cache — while many callers each get a cheap :class:`SearchSession`.
A session is frozen: it carries only per-caller presentation knobs and
never mutates the shared engine (relevance feedback in particular stays
a deliberate, explicit `Soda.feedback` operation), so sessions can be
created per request, shared, or discarded freely.

Repeated query texts are served from the engine's **shared**
:class:`~repro.core.caching.ResultCache` (one per `Soda`, used by every
session and every serving thread), keyed by the query text plus the
session's presentation knobs.  Every entry carries a
:class:`~repro.stamps.DependencyStamp` and is validated when read:

* marks are read **before** the search runs — the global mark
  (classification / graph / DDL versions, the open-transaction token,
  feedback identity + version), the inverted index's version, and one
  pass over the catalog's table versions;
* after it, the stamp is narrowed to what the answer depended on: the
  tokens the lookup step probed (``LookupResult.tokens``) and the
  tables its statements scan, which are also the tables whose row
  counts feed ``estimated_rows``.

So an INSERT / UPDATE / DELETE invalidates only the answers that read
the written table or probed a token of a written value; DDL, a graph
annotation, a classification change, new feedback or an open
transaction still invalidate everything (a search inside a transaction
is stamped with its token and never served after COMMIT / ROLLBACK).
The imprecision is all on the safe side: a table's version moves on a
write to any of its rows, a token counts as touched when only a value
count changed.  No caller can see a result the current engine state
would not produce.  A session can still opt into a private cache
(``result_cache_size=N``) or none at all (``result_cache_size=0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.caching import DEFAULT_RESULT_CACHE_SIZE, ResultCache
from repro.core.pipeline import SearchResult
from repro.core.soda import Soda
from repro.stamps import DependencyStamp

__all__ = ["DEFAULT_RESULT_CACHE_SIZE", "SearchSession"]


@dataclass(frozen=True)
class SearchSession:
    """One caller's view of a shared, warm `Soda` engine.

    >>> # session = SearchSession(soda, execute=False, limit=3)
    >>> # session.search("customers Zurich").statements  # at most 3
    """

    soda: Soda
    #: execute statements and attach snippets (False: SQL text only)
    execute: bool = True
    #: truncate each result's statement list (None: keep all)
    limit: "int | None" = None
    #: None (default): share the engine-wide result cache; N > 0: a
    #: private cache of that capacity; 0: no result caching at all
    result_cache_size: "int | None" = None
    #: the resolved cache object (None when caching is disabled)
    _cache: "ResultCache | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.result_cache_size is None:
            cache = self.soda.result_cache
        elif self.result_cache_size > 0:
            cache = ResultCache(self.result_cache_size)
        else:
            cache = None
        object.__setattr__(self, "_cache", cache)

    def search(self, text: str) -> SearchResult:
        """Run one query through the shared pipeline (cached)."""
        return self._serve(text)

    def search_many(self, texts) -> "list[SearchResult]":
        """Serve a batch (shared caches, deduplicated query texts)."""
        if self._cache is not None:
            # the result cache subsumes batch dedup: duplicate texts get
            # the same result object, and repeats across batches (or from
            # other sessions with the same knobs) are free
            return [self._serve(text) for text in texts]
        results = self.soda.search_many(texts, execute=self.execute)
        if self.limit is None:
            return results
        trimmed: dict = {}  # id(result) -> trimmed result; keeps dedup identity
        out = []
        for result in results:
            key = id(result)
            if key not in trimmed:
                trimmed[key] = self._trim(result)
            out.append(trimmed[key])
        return out

    def best_sql(self, text: str) -> "str | None":
        """The top-ranked generated statement's SQL (None: no results)."""
        result = self.soda.search(text, execute=False)
        return result.best.sql if result.best else None

    def explain(self, sql: str) -> str:
        return self.soda.explain(sql)

    # ------------------------------------------------------------------
    # result caching
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Hit/miss/size counters of this session's result cache.

        For a default session these are the *shared* engine-wide
        cache's counters (every session over the same `Soda` reports
        the same numbers); a private-cache session reports its own.
        ``invalidations`` counts entries dropped because something they
        depended on changed; ``lookup_invalidations`` is the engine's
        lookup-step term memo, by the same rule.
        """
        if self._cache is None:
            return {"hits": 0, "misses": 0, "size": 0, "capacity": 0}
        stats = self._cache.stats()
        stats["lookup_invalidations"] = self.soda._lookup.invalidations
        return stats

    def _global_mark(self) -> tuple:
        """What rarely moves; any change to it invalidates every entry."""
        soda = self.soda
        catalog = soda.warehouse.database.catalog
        return (
            soda.classification.version,
            soda.warehouse.graph.version,
            catalog.ddl_version,
            catalog.txn_token,
            id(soda.feedback),
            soda.feedback.version,
        )

    def _fresh(self, stamp: DependencyStamp) -> bool:
        warehouse = self.soda.warehouse
        return stamp.valid(
            self._global_mark(), warehouse.inverted, warehouse.database.catalog
        )

    def _key(self, text: str) -> tuple:
        # presentation knobs are part of the key: sessions with
        # different execute/limit settings produce different objects
        return (text, self.execute, self.limit)

    def cached(self, text: str) -> "SearchResult | None":
        """The cached answer for *text* if it still validates, else None.

        One :meth:`ResultCache.lookup` — it counts the hit, or the miss
        (and the invalidation when the entry's stamp failed) — and
        nothing else: stamp validation is lock-free and O(|tokens| +
        |tables|), and the cache's own lock is never held across a
        compute, so this is safe to call from an event loop.  A caller
        that gets None follows up with :meth:`compute`, not
        :meth:`search`, so every request is counted once.
        """
        if self._cache is None:
            return None
        return self._cache.lookup(self._key(text), self._fresh)

    def compute(self, text: str) -> SearchResult:
        """Run the search and cache it under its stamp (no lookup)."""
        cache = self._cache
        if cache is None:
            return self._trim(self.soda.search(text, execute=self.execute))
        # marks first, compute second, keys last (see repro.stamps)
        warehouse = self.soda.warehouse
        catalog = warehouse.database.catalog
        mark = self._global_mark()
        tick = warehouse.inverted.version
        versions = dict(catalog.table_versions(catalog.table_names()))
        result = self._trim(self.soda.search(text, execute=self.execute))
        tables = sorted(
            {name.lower() for scored in result.statements
             for name in scored.statement.tables}
        )
        cache.store(self._key(text), result, DependencyStamp(
            mark, tick, result.lookup.tokens,
            tuple((name, versions.get(name)) for name in tables),
        ))
        return result

    def _serve(self, text: str) -> SearchResult:
        hit = self.cached(text)
        return hit if hit is not None else self.compute(text)

    # ------------------------------------------------------------------
    def _trim(self, result: SearchResult) -> SearchResult:
        if self.limit is None or len(result.statements) <= self.limit:
            return result
        return SearchResult(
            query=result.query,
            lookup=result.lookup,
            statements=result.statements[: self.limit],
            timings=result.timings,
            trace=result.trace,
        )
