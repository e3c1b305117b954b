"""The SODA facade: the five-step pipeline of Figure 4.

``Soda.search("customers Zurich financial instruments")`` runs the
:class:`~repro.core.pipeline.SearchPipeline`:

1. **lookup** — terms to entry points (combinatorial product),
2. **rank and top N** — heuristic location scores, keep the best N,
3. **tables** — graph traversal + pattern matching for tables and joins,
4. **filters** — input operators, base-data predicates, business terms,
5. **SQL** — assemble executable statements,

then executes the top statements to produce result snippets (up to
twenty tuples each), just like the paper's Google-style result page.
A snippet is the first ``snippet_rows`` rows the statement produces:
each statement runs under ``LIMIT snippet_rows``, so the engine's work
is proportional to the snippet, not to the statement's full result.
Per-step wall-clock timings are recorded for the Table 4 / Fig. 4
reproductions.

A `Soda` instance is designed to stay *warm*: its indexes come from the
warehouse (incrementally maintained, snapshot-loadable), and its lookup
and tables steps memoize term resolutions and join plans, so the
second search is much cheaper than the first.  :meth:`Soda.search_many`
serves a whole batch of queries over those shared caches, deduplicating
identical query texts.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.core.caching import ResultCache
from repro.core.feedback import FeedbackStore
from repro.core.filters import FiltersStep
from repro.core.input_patterns import parse_query
from repro.core.lookup import Lookup
from repro.core.patterns import build_default_library
from repro.core.pipeline import (
    ExecuteStep,
    FiltersStage,
    FinalizeStep,
    LookupStep,
    RankStep,
    ScoredStatement,
    SearchContext,
    SearchPipeline,
    SearchResult,
    SqlGenStage,
    StepTimings,
    TablesStage,
)
from repro.core.query import SodaQuery
from repro.core.sqlgen import SqlGenerator
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.tracing import NULL_TRACER, Tracer, activate
from repro.resilience.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.core.tables import TablesResult, TablesStep
from repro.errors import SqlError
from repro.warehouse.warehouse import Warehouse

__all__ = [
    "ScoredStatement",
    "SearchResult",
    "Soda",
    "SodaConfig",
    "StepTimings",
]

#: slow searches log one structured JSON line here (stdlib logging, so
#: applications route/format it like any other `repro.*` logger)
_SLOW_QUERY_LOG = logging.getLogger("repro.soda.slow_query")

_METRICS = _metrics_registry()
_SLOW_QUERIES = _METRICS.counter("soda.slow_queries")


@dataclass
class SodaConfig:
    """Tunable knobs of the pipeline (all paper-motivated).

    Serving knobs: ``max_statements`` early-terminates SQL generation
    after that many distinct statements (None: generate all, the paper
    behaviour); ``batch_dedup`` lets :meth:`Soda.search_many` serve
    duplicate query texts in a batch from one computation (the repeated
    result objects are shared, not copied).
    """

    top_n: int = 10  # interpretations kept by Step 2
    join_depth: int = 16  # traversal bound for join discovery
    max_interpretations: int = 200  # lookup product safety cap
    use_dbpedia: bool = True  # include the DBpedia layer in lookup
    index_physical_names: bool = False  # register physical names for lookup
    snippet_rows: int = 20  # "up to twenty tuples" per result
    max_execution_rows: int = 1_000_000  # skip executing blow-up queries
    ranking: str = "location"  # "location" (paper) or "specificity"
    pattern_overrides: dict = field(default_factory=dict)
    max_statements: "int | None" = None  # early-stop SQL generation
    batch_dedup: bool = True  # dedup identical texts in search_many
    #: searches slower than this (whole pipeline, ms) log one JSON line
    #: on the ``repro.soda.slow_query`` logger; None disables the log
    slow_query_ms: "float | None" = None


class Soda:
    """Search over DAta warehouse."""

    def __init__(self, warehouse: Warehouse, config: SodaConfig | None = None):
        self.warehouse = warehouse
        self.config = config or SodaConfig()
        self.classification = warehouse.classification_index(
            include_dbpedia=self.config.use_dbpedia,
            include_physical=self.config.index_physical_names,
        )
        self.library = build_default_library(self.config.pattern_overrides)
        self._lookup = Lookup(
            self.classification,
            warehouse.inverted,
            max_interpretations=self.config.max_interpretations,
        )
        self._tables = TablesStep(
            warehouse.graph, self.library, join_depth=self.config.join_depth
        )
        self._filters = FiltersStep(warehouse.graph, warehouse.database.catalog)
        self._sqlgen = SqlGenerator(warehouse.database.catalog)
        #: relevance feedback (paper Section 6.3): like/dislike statements
        self.feedback = FeedbackStore()
        #: engine-wide result cache, shared by every SearchSession and
        #: serving thread over this instance (see repro.core.caching)
        self.result_cache = ResultCache()
        #: the staged engine behind :meth:`search`; hooks may be added
        self.pipeline = SearchPipeline(
            [
                LookupStep(self._lookup),
                RankStep(),
                TablesStage(self._tables),
                FiltersStage(self._filters),
                SqlGenStage(self._sqlgen),
                # read self.feedback live so reassigning it keeps working
                FinalizeStep(lambda: self.feedback, self._estimate_rows),
                ExecuteStep(self._attach_snippet),
            ]
        )

    # ------------------------------------------------------------------
    def parse(self, text: str) -> SodaQuery:
        """Parse the input query text (input patterns only)."""
        return parse_query(text)

    def explain(self, sql: str, analyze: bool = False) -> str:
        """EXPLAIN an SQL statement against the warehouse database.

        Renders the optimized plan tree the engine would execute —
        works for generated statements (``result.best.sql``) as well as
        hand-written SQL.  ``analyze=True`` runs the statement and adds
        per-operator actual rows/batches and self-time to each line.
        """
        return self.warehouse.database.explain(sql, analyze=analyze)

    def plan_cache_stats(self):
        """Hit/miss counters of the database's LRU plan cache."""
        return self.warehouse.database.planner.cache.stats

    def metrics(self) -> dict:
        """Snapshot of the process-wide metrics registry.

        Refreshes the point-in-time gauges this engine owns — the
        shared result cache's entry count and capacity — at dump time,
        alongside the database's plan-cache gauges (all safe to read
        from any thread).  The ``serving.result_cache.hits / misses /
        invalidations`` counters accumulate process-wide as the cache is
        used.
        """
        reg = _metrics_registry()
        reg.gauge("serving.result_cache.entries").set(len(self.result_cache))
        reg.gauge("serving.result_cache.capacity").set(
            self.result_cache.capacity
        )
        return self.warehouse.database.metrics()

    def search(
        self, text: str, execute: bool = True, trace: bool = False
    ) -> SearchResult:
        """Run the full staged pipeline for *text*.

        With ``trace=True`` the search runs under a fresh
        :class:`~repro.obs.tracing.Tracer`; the returned result's
        ``trace`` holds the span tree (search → pipeline steps →
        plan/execute), renderable via ``result.trace.render()`` or
        exportable with ``to_json()``.  Results are byte-identical with
        tracing on or off.
        """
        tracer = Tracer() if trace else NULL_TRACER
        context = SearchContext(
            text=text, config=self.config, execute=execute, tracer=tracer
        )
        hits_before = self.plan_cache_stats().hits
        started = time.perf_counter()
        with deadline_scope(self._default_deadline()):
            with activate(tracer):
                with tracer.span("search", query=text):
                    self.pipeline.run(context)
        self._log_if_slow(
            text, context, time.perf_counter() - started, hits_before
        )
        return context.result()

    def _default_deadline(self) -> "Deadline | None":
        """A deadline from ``EngineConfig(request_timeout_ms=)``.

        None when no engine default is configured or when the caller
        (the HTTP front end's per-request ``?timeout_ms=``) already
        installed a deadline for this thread — the outermost request
        budget always wins.
        """
        timeout_ms = self.warehouse.database.config.request_timeout_ms
        if timeout_ms is None or current_deadline() is not None:
            return None
        return Deadline(timeout_ms)

    def _log_if_slow(
        self,
        text: str,
        context: SearchContext,
        elapsed: float,
        hits_before: int,
    ) -> None:
        """One structured JSON log line for searches over the threshold."""
        threshold = self.config.slow_query_ms
        if threshold is None:
            return
        total_ms = elapsed * 1000.0
        if total_ms < threshold:
            return
        if _METRICS.enabled:
            _SLOW_QUERIES.inc()
        timings = context.timings
        payload = {
            "query": text,
            "total_ms": round(total_ms, 3),
            "threshold_ms": threshold,
            "steps_ms": {
                name: round(getattr(timings, name) * 1000.0, 3)
                for name in (
                    "lookup", "rank", "tables", "filters", "sql", "execute"
                )
            },
            "statements": len(context.statements),
            "plan_cache_hit": self.plan_cache_stats().hits > hits_before,
        }
        _SLOW_QUERY_LOG.warning(json.dumps(payload, sort_keys=True))

    def search_many(
        self, texts, execute: bool = True, workers: "int | None" = None
    ) -> "list[SearchResult]":
        """Serve a batch of queries over this warm instance.

        Lookup term memos and tables-step join plans are shared across
        the whole batch, and (with ``config.batch_dedup``) duplicate
        query texts are computed once — the returned list then contains
        the *same* :class:`SearchResult` object at each duplicate
        position.  Results are byte-identical to sequential
        :meth:`search` calls.

        With ``workers > 1`` the deduplicated query texts run
        concurrently on a thread pool (each on its own thread-local
        tracer, each SQL execution over its own pinned snapshots).  Result order still matches the
        input, and per-step timings stay per-query.
        """
        texts = list(texts)
        if workers is not None and workers > 1 and len(texts) > 1:
            unique = (
                list(dict.fromkeys(texts)) if self.config.batch_dedup else texts
            )
            with ThreadPoolExecutor(
                max_workers=min(workers, len(unique)),
                thread_name_prefix="soda-search",
            ) as pool:
                futures = [
                    pool.submit(self.search, text, execute) for text in unique
                ]
                computed = [future.result() for future in futures]
            if not self.config.batch_dedup:
                return computed
            memo = dict(zip(unique, computed))
            return [memo[text] for text in texts]
        results: list = []
        memo: dict = {}
        for text in texts:
            if self.config.batch_dedup and text in memo:
                results.append(memo[text])
                continue
            result = self.search(text, execute=execute)
            memo[text] = result
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def _estimate_rows(self, tables_result: TablesResult) -> int:
        """Crude upper-bound estimate: product over disconnected components."""
        estimate = 1
        for component in tables_result.components:
            component_rows = 1
            for table_name in component:
                if self.warehouse.database.catalog.has_table(table_name):
                    component_rows = max(
                        component_rows,
                        self.warehouse.database.row_count(table_name),
                    )
            estimate *= max(1, component_rows)
        return estimate

    def _attach_snippet(self, scored: ScoredStatement) -> None:
        """Execute a statement for its first ``snippet_rows`` tuples.

        The statement runs under ``LIMIT min(its own limit,
        snippet_rows)`` — an ordinary bounded SELECT through the same
        Limit/TopN/join operators as any other — so the engine stops
        producing rows once the snippet is full.  The snippet is the
        first ``snippet_rows`` rows the statement produces; a
        data-dependent error the full statement would only reach after
        those rows is, as with any LIMIT, not reported.
        """
        if scored.estimated_rows > self.config.max_execution_rows:
            scored.execution_error = (
                f"skipped: estimated {scored.estimated_rows} rows exceeds "
                f"the execution cap"
            )
            return
        select = scored.statement.select
        bound = self.config.snippet_rows
        if select.limit is None or select.limit > bound:
            select = replace(select, limit=bound)
        try:
            scored.snippet = self.warehouse.database.execute_select_ast(select)
        except SqlError as exc:
            scored.execution_error = str(exc)
