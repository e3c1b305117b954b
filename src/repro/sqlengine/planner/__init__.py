"""Cost-aware query planner: lower → optimize → compile → (cache) → run.

The planner turns a parsed :class:`~repro.sqlengine.ast_nodes.Select`
into a logical plan DAG (:mod:`.logical`), optimizes it with rule-based
rewrites driven by catalog statistics (:mod:`.optimizer`, :mod:`.stats`),
compiles it into physical operators (:mod:`.physical`) and memoizes the
result in an LRU plan cache (:mod:`.cache`) keyed by the normalized SQL
text.  Each cache entry carries a :class:`~repro.stamps.DependencyStamp`
— the DDL version plus the mutation versions of exactly the tables its
plan scans, read *before* the optimizer looks at their statistics — so
DML on one table invalidates only the plans that read it; prepared
plans for untouched tables survive.
``EXPLAIN`` output is rendered from the optimized logical plan
(:mod:`.explain`), annotated with the execution mode each operator runs
in.

Physical compilation targets one of two engines: the **vectorized
batch engine** (the default — operators exchange ~1024-row column
batches sliced straight out of the tables' columnar storage) or the
classic **row** volcano engine (one tuple at a time; the
compatibility/debug escape hatch).  Both produce byte-identical
results.

A planner reads every setting (plan-cache size, execution mode, fused
codegen, morsel workers) from the one
:class:`~repro.sqlengine.config.EngineConfig` it is built with, which
never changes; ``optimize=False`` gives the canonical (naive) plan, the
baseline the optimizer is tested against.
"""

from __future__ import annotations

from repro.obs.metrics import registry as _metrics_registry
from repro.obs.tracing import current_tracer
from repro.sqlengine.ast_nodes import Select
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.config import DEFAULT_CONFIG, EngineConfig
from repro.sqlengine.planner.analyze import Instrumenter
from repro.sqlengine.planner.cache import PlanCache, PlanCacheStats
from repro.sqlengine.planner.explain import render_plan
from repro.sqlengine.planner.logical import (
    LogicalNode,
    lower_select,
    referenced_tables,
)
from repro.sqlengine.planner.optimizer import optimize_plan
from repro.sqlengine.planner.physical import (
    BATCH_SIZE,
    PreparedPlan,
    build_physical,
)
from repro.sqlengine.planner.stats import HISTOGRAM_BINS, StatisticsProvider
from repro.sqlengine.segments import current_pins, pinned
from repro.stamps import DependencyStamp

__all__ = [
    "BATCH_SIZE",
    "Instrumenter",
    "PlanCache",
    "PlanCacheStats",
    "PreparedPlan",
    "QueryPlanner",
    "build_physical",
    "lower_select",
    "optimize_plan",
    "referenced_tables",
    "render_plan",
]

_METRICS = _metrics_registry()
_PARALLEL_WORKERS_GAUGE = _METRICS.gauge("engine.parallel_workers")


class QueryPlanner:
    """Plans and executes SELECT statements against one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig = DEFAULT_CONFIG,
        optimize: bool = True,
    ) -> None:
        self.catalog = catalog
        self.config = config
        self._statistics: "StatisticsProvider | None" = None
        self.cache = PlanCache(config.plan_cache_size)
        self._optimize = optimize
        _PARALLEL_WORKERS_GAUGE.set(config.parallel_workers)

    @property
    def statistics(self) -> StatisticsProvider:
        """The catalog's one statistics provider, resolved on first use.

        A provider registers itself as a catalog observer on its first
        ``table_stats`` call; a planner built later over the same
        catalog adopts that provider, summaries included, instead of
        stacking a second observer on every write.
        """
        if self._statistics is None:
            self._statistics = next(
                (
                    observer
                    for observer in self.catalog.observers()
                    if isinstance(observer, StatisticsProvider)
                    and observer.histogram_bins == HISTOGRAM_BINS
                ),
                None,
            ) or StatisticsProvider(self.catalog)
        return self._statistics

    # ------------------------------------------------------------------
    def prepare(self, select: Select) -> PreparedPlan:
        """Return a compiled plan, reusing a cached one when possible.

        Cache entries are keyed by the normalized SQL alone and stamped
        with the versions of exactly the tables the plan scans, so a
        write to one table invalidates only the plans that read it —
        prepared plans for untouched tables survive unrelated DML.
        The DDL version is the stamp's global mark because a DROP +
        re-CREATE swaps the underlying table object out from under the
        compiled operators.  The marks are read after lowering (which
        names the tables) and *before* optimizing (which reads their
        statistics), so a plan built from pre-write statistics is never
        stamped post-write.
        """
        key = select.to_sql()
        with current_tracer().span("plan") as span:
            entry = self.cache.get(key, validate=self._entry_is_fresh)
            if entry is not None:
                span.set(cache="hit")
                return entry[0]
            span.set(cache="miss")
            logical = lower_select(self.catalog, select)
            stamp = DependencyStamp(
                self.catalog.ddl_version,
                tables=self.catalog.table_versions(referenced_tables(logical)),
            )
            if self._optimize:
                logical = optimize_plan(logical, self.catalog, self.statistics)
            plan = build_physical(logical, self.catalog, self.config)
            self.cache.put(key, (plan, stamp))
            return plan

    def prepare_instrumented(self, select: Select):
        """A fresh instrumented plan plus its :class:`Instrumenter`.

        Built outside the plan cache on purpose: the counting/timing
        shims would tax every later execution of a cached plan, and
        their stats are single-use.
        """
        logical = self.plan_logical(select)
        instrumenter = Instrumenter()
        plan = build_physical(
            logical, self.catalog, self.config, instrument=instrumenter
        )
        return plan, instrumenter

    def _entry_is_fresh(self, entry: tuple) -> bool:
        """Validate one ``(plan, DependencyStamp)`` cache entry."""
        return entry[1].valid(self.catalog.ddl_version, catalog=self.catalog)

    def plan_logical(self, select: Select) -> LogicalNode:
        """Lower (and optionally optimize) without compiling or caching."""
        logical = lower_select(self.catalog, select)
        if self._optimize:
            logical = optimize_plan(logical, self.catalog, self.statistics)
        return logical

    # ------------------------------------------------------------------
    def _pin_scope(self, plan: PreparedPlan) -> pinned:
        """A pin scope for one execution of *plan*.

        With segmented storage enabled, every table the plan reads is
        snapshot-pinned in one atomic step so the whole execution —
        including morsel workers — observes a single consistent state
        regardless of concurrent DML.  With flat storage this is the
        no-op ``pinned(None)``.
        """
        if not self.catalog.segment_rows:
            return pinned(None)
        outer = current_pins()
        pins = self.catalog.pin_tables(referenced_tables(plan.logical))
        if outer:
            # a caller-installed pin scope (e.g. a multi-statement
            # consistent read) wins for the tables it covers; tables it
            # doesn't cover still get fresh per-execution snapshots
            merged = dict(pins or {})
            merged.update(outer)
            pins = merged or None
        return pinned(pins)

    def execute(self, select: Select):
        plan = self.prepare(select)
        with current_tracer().span("execute", mode=plan.mode) as span:
            with self._pin_scope(plan):
                if plan.parallel_nodes:
                    with current_tracer().span(
                        "parallel-execute", workers=self.config.parallel_workers
                    ):
                        result = plan.execute()
                else:
                    result = plan.execute()
            span.set(rows=len(result.rows))
        return result

    def explain(self, select: Select, analyze: bool = False) -> str:
        """The plan tree; ``analyze=True`` *runs the query* and adds
        each operator's actual rows/batches and self-time next to the
        optimizer's estimates (classic EXPLAIN ANALYZE semantics)."""
        if not analyze:
            plan = self.prepare(select)
            return render_plan(
                plan.logical,
                mode=self.config.execution_mode,
                catalog=self.catalog,
                parallel=plan.parallel_nodes,
            )
        plan, instrumenter = self.prepare_instrumented(select)
        with self._pin_scope(plan):
            plan.execute()
        return render_plan(
            plan.logical,
            mode=self.config.execution_mode,
            catalog=self.catalog,
            analyze=instrumenter,
        )
