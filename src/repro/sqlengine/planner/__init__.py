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

Knobs:

* ``cache_size`` — prepared plans kept per planner (default 128; 0
  disables caching),
* ``optimize`` — set False for the canonical (naive) plan, used by the
  planner-speedup benchmark as its baseline,
* ``execution_mode`` — ``"batch"`` (default) or ``"row"``,
* ``fused`` — compile filter/project expression chains into one
  generated function per batch (default True; batch mode only),
* ``parallel_workers`` — morsel-driven parallel scan pipelines when
  > 1 (default 1 = serial; batch mode only).

Every knob setter drops the plan cache when the value actually
changes, because cached plans bake the old configuration in.
"""

from __future__ import annotations

from repro.errors import SqlExecutionError
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.tracing import current_tracer
from repro.sqlengine.ast_nodes import Select
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.planner.analyze import Instrumenter
from repro.sqlengine.planner.cache import (
    DEFAULT_PLAN_CACHE_SIZE,
    PlanCache,
    PlanCacheStats,
)
from repro.sqlengine.planner.explain import render_plan
from repro.sqlengine.planner.logical import (
    LogicalNode,
    lower_select,
    referenced_tables,
)
from repro.sqlengine.planner.optimizer import optimize_plan
from repro.sqlengine.planner.parallel import MAX_PARALLEL_WORKERS
from repro.sqlengine.planner.physical import (
    BATCH_SIZE,
    EXECUTION_MODES,
    PreparedPlan,
    build_physical,
)
from repro.sqlengine.planner.stats import HISTOGRAM_BINS, StatisticsProvider
from repro.sqlengine.segments import current_pins, pinned
from repro.stamps import DependencyStamp

__all__ = [
    "BATCH_SIZE",
    "DEFAULT_EXECUTION_MODE",
    "DEFAULT_PLAN_CACHE_SIZE",
    "EXECUTION_MODES",
    "MAX_PARALLEL_WORKERS",
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

#: the engine new planners compile for unless told otherwise
DEFAULT_EXECUTION_MODE = "batch"

_METRICS = _metrics_registry()
_PARALLEL_WORKERS_GAUGE = _METRICS.gauge("engine.parallel_workers")


def _check_fused(fused) -> bool:
    if not isinstance(fused, bool):
        raise SqlExecutionError(
            f"fused must be True or False, got {fused!r}"
        )
    return fused


def _check_parallel_workers(workers) -> int:
    if not isinstance(workers, int) or isinstance(workers, bool) or not (
        1 <= workers <= MAX_PARALLEL_WORKERS
    ):
        raise SqlExecutionError(
            "parallel_workers must be an integer between 1 and "
            f"{MAX_PARALLEL_WORKERS}, got {workers!r}"
        )
    return workers


class QueryPlanner:
    """Plans and executes SELECT statements against one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        optimize: bool = True,
        execution_mode: str = DEFAULT_EXECUTION_MODE,
        fused: bool = True,
        parallel_workers: int = 1,
    ) -> None:
        if execution_mode not in EXECUTION_MODES:
            raise SqlExecutionError(
                f"unknown execution mode {execution_mode!r} (choose from "
                f"{', '.join(EXECUTION_MODES)})"
            )
        self.catalog = catalog
        self._statistics: "StatisticsProvider | None" = None
        self.cache = PlanCache(cache_size)
        self._optimize = optimize
        self._execution_mode = execution_mode
        self._fused = _check_fused(fused)
        self._parallel_workers = _check_parallel_workers(parallel_workers)
        _PARALLEL_WORKERS_GAUGE.set(self._parallel_workers)

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

    @property
    def execution_mode(self) -> str:
        return self._execution_mode

    @property
    def fused(self) -> bool:
        return self._fused

    @property
    def parallel_workers(self) -> int:
        return self._parallel_workers

    def set_execution_mode(self, mode: str) -> None:
        """Switch engines; cached plans for the old mode are dropped."""
        if mode not in EXECUTION_MODES:
            raise SqlExecutionError(
                f"unknown execution mode {mode!r} (choose from "
                f"{', '.join(EXECUTION_MODES)})"
            )
        if mode == self._execution_mode:
            return
        self._execution_mode = mode
        self.cache.clear()

    def set_fused(self, fused: bool) -> None:
        """Toggle fused expression codegen; drops cached plans."""
        fused = _check_fused(fused)
        if fused == self._fused:
            return
        self._fused = fused
        self.cache.clear()

    def set_parallel_workers(self, workers: int) -> None:
        """Set the morsel worker count; drops cached plans."""
        workers = _check_parallel_workers(workers)
        if workers == self._parallel_workers:
            return
        self._parallel_workers = workers
        _PARALLEL_WORKERS_GAUGE.set(workers)
        self.cache.clear()

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
            plan = build_physical(
                logical,
                self.catalog,
                mode=self._execution_mode,
                fused=self._fused,
                parallel_workers=self._parallel_workers,
            )
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
            logical,
            self.catalog,
            mode=self._execution_mode,
            instrument=instrumenter,
            fused=self._fused,
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
        return pinned(pins
        )

    def execute(self, select: Select):
        plan = self.prepare(select)
        with current_tracer().span("execute", mode=plan.mode) as span:
            with self._pin_scope(plan):
                if plan.parallel_nodes:
                    with current_tracer().span(
                        "parallel-execute", workers=self._parallel_workers
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
                mode=self._execution_mode,
                catalog=self.catalog,
                parallel=plan.parallel_nodes,
            )
        plan, instrumenter = self.prepare_instrumented(select)
        with self._pin_scope(plan):
            plan.execute()
        return render_plan(
            plan.logical,
            mode=self._execution_mode,
            catalog=self.catalog,
            analyze=instrumenter,
        )
