"""End-to-end experiment driver reproducing Tables 3 and 4.

For every workload query the runner executes the full SODA pipeline,
evaluates every produced statement against the gold standard, and
records the paper's measurements: best precision/recall, the counts of
results with P,R > 0 and P,R = 0, the query complexity, and the split
of runtime into SODA's analysis, the generated statements' execution
and their scoring (which includes running the gold standard once).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.evaluation import ZERO, PrecisionRecall, evaluate_sql
from repro.core.soda import Soda, SodaConfig
from repro.experiments.workload import WORKLOAD, ExperimentQuery
from repro.obs.metrics import registry as _metrics_registry
from repro.warehouse.minibank import build_minibank
from repro.warehouse.warehouse import Warehouse

_METRICS = _metrics_registry()
_QUERIES = _METRICS.counter("experiments.queries")
_SODA_SECONDS = _METRICS.histogram("experiments.soda.seconds")
_EXECUTE_SECONDS = _METRICS.histogram("experiments.execute.seconds")


@dataclass
class StatementOutcome:
    """Evaluation of one generated statement."""

    sql: str
    score: float
    metrics: PrecisionRecall
    disconnected: bool


@dataclass
class QueryOutcome:
    """Everything measured for one workload query (Tables 3 + 4)."""

    query: ExperimentQuery
    complexity: int
    statements: list
    soda_seconds: float
    execute_seconds: float  # the generated statements' execution only
    eval_seconds: float  # scoring, gold execution included
    step_timings: dict

    # ------------------------------------------------------------------
    @property
    def n_results(self) -> int:
        return len(self.statements)

    @property
    def best(self) -> PrecisionRecall:
        """First statement with the best (precision, recall): Table 3."""
        return max(
            (s.metrics for s in self.statements),
            key=lambda m: (m.precision, m.recall),
            default=ZERO,
        )

    @property
    def n_positive(self) -> int:
        return sum(1 for s in self.statements if s.metrics.is_positive)

    @property
    def n_zero(self) -> int:
        return self.n_results - self.n_positive


class _TimedDatabase:
    """A database whose ``execute`` adds up the seconds it takes."""

    def __init__(self, database) -> None:
        self.database = database
        self.seconds = 0.0

    def execute(self, sql: str):
        started = time.perf_counter()
        result = self.database.execute(sql)
        self.seconds += time.perf_counter() - started
        return result


class ExperimentRunner:
    """Runs the 13-query workload against a warehouse."""

    def __init__(
        self,
        warehouse: Warehouse | None = None,
        config: SodaConfig | None = None,
        seed: int = 42,
        scale: float = 1.0,
    ) -> None:
        self.warehouse = warehouse or build_minibank(seed=seed, scale=scale)
        self.config = config or SodaConfig()
        self.soda = Soda(self.warehouse, self.config)

    # ------------------------------------------------------------------
    def run_query(self, query: ExperimentQuery) -> QueryOutcome:
        """Execute one workload query and evaluate all its statements."""
        started = time.perf_counter()
        result = self.soda.search(query.text, execute=False)
        soda_seconds = time.perf_counter() - started
        return self._evaluate(query, result, soda_seconds)

    def _evaluate(self, query: ExperimentQuery, result, soda_seconds) -> QueryOutcome:
        """Score one search result against the query's gold standard."""
        started = time.perf_counter()
        golds = query.run_gold(self.warehouse.database)
        database = _TimedDatabase(self.warehouse.database)
        statements = [
            StatementOutcome(
                sql=scored.sql,
                score=scored.score,
                metrics=evaluate_sql(
                    database, scored.sql, golds, scored.estimated_rows,
                    self.config.max_execution_rows,
                ),
                disconnected=scored.disconnected,
            )
            for scored in result.statements
        ]
        execute_seconds = database.seconds
        eval_seconds = time.perf_counter() - started - execute_seconds

        if _METRICS.enabled:
            _QUERIES.inc()
            _SODA_SECONDS.observe(soda_seconds)
            _EXECUTE_SECONDS.observe(execute_seconds)

        return QueryOutcome(
            query=query,
            complexity=result.complexity,
            statements=statements,
            soda_seconds=soda_seconds,
            execute_seconds=execute_seconds,
            eval_seconds=eval_seconds,
            step_timings={
                "lookup": result.timings.lookup,
                "rank": result.timings.rank,
                "tables": result.timings.tables,
                "filters": result.timings.filters,
                "sql": result.timings.sql,
            },
        )

    def run_all(self, batch: bool = False) -> list:
        """Run the full Table 2 workload in order.

        With *batch*, the whole workload is served through
        :meth:`Soda.search_many` — one warm engine, shared lookup/join
        memos, deduplicated query texts — and each query's SODA time is
        its per-search pipeline total instead of a wall-clock split.
        """
        if not batch:
            return [self.run_query(query) for query in WORKLOAD]
        return self.run_batch(WORKLOAD)

    def run_batch(self, queries) -> list:
        """Serve *queries* (ExperimentQuery list) as one batch."""
        results = self.soda.search_many(
            [query.text for query in queries], execute=False
        )
        return [
            self._evaluate(query, result, result.timings.soda_total)
            for query, result in zip(queries, results)
        ]
