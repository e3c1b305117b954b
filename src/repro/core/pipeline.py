"""The staged search pipeline (paper Figure 4, as an explicit engine).

``Soda.search`` used to be one hard-coded five-step method; it is now a
:class:`SearchPipeline` — an ordered list of :class:`PipelineStep`
objects that communicate through a shared :class:`SearchContext`:

``lookup -> rank -> tables -> filters -> sqlgen -> finalize -> execute``

Each step's wall-clock time is recorded into :class:`StepTimings` under
its ``timing_field`` (the fields of the Fig. 4 / Table 4 reproduction
are unchanged), and *hooks* run between steps, so callers can
instrument or early-terminate a search without touching step code.
The batch stages (tables/filters/sqlgen) process the ranked
interpretations in rank order, exactly like the old per-interpretation
loop, so results are identical statement-for-statement.

Early termination comes in two forms:

* ``SodaConfig.max_statements`` stops SQL generation once that many
  distinct statements exist (the top-ranked interpretations win);
* a hook registered with :meth:`SearchPipeline.add_hook` may return
  truthy to stop the pipeline after the current step.
"""

from __future__ import annotations

import datetime
import json
import time
from dataclasses import dataclass, field

from repro.core.input_patterns import parse_query
from repro.core.ranking import rank
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.tracing import NULL_TRACER
from repro.resilience.deadline import current_deadline

_METRICS = _metrics_registry()
_SEARCHES = _METRICS.counter("pipeline.searches")
_SEARCH_SECONDS = _METRICS.histogram("pipeline.search.seconds")


def _json_value(value):
    """One snippet cell as a JSON-native value (dates become ISO strings)."""
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


@dataclass
class StepTimings:
    """Wall-clock seconds per pipeline step (Fig. 4 / Table 4)."""

    lookup: float = 0.0
    rank: float = 0.0
    tables: float = 0.0
    filters: float = 0.0
    sql: float = 0.0
    execute: float = 0.0

    @property
    def soda_total(self) -> float:
        """Time to produce SQL (excludes executing it), as in Table 4."""
        return self.lookup + self.rank + self.tables + self.filters + self.sql

    @property
    def total(self) -> float:
        return self.soda_total + self.execute


@dataclass
class ScoredStatement:
    """One generated SQL statement with its score and result snippet."""

    sql: str
    score: float
    statement: object  # GeneratedStatement
    tables_result: object  # TablesResult
    filters_result: object  # FiltersResult
    interpretation_description: str
    snippet: object = None  # ResultSet | None
    execution_error: str | None = None
    estimated_rows: int = 0

    @property
    def disconnected(self) -> bool:
        return self.statement.disconnected


@dataclass
class SearchResult:
    """Everything one `Soda.search` call produced."""

    query: object  # SodaQuery
    lookup: object  # LookupResult
    statements: list
    timings: StepTimings
    #: the request's Tracer when tracing was on, else None
    trace: object = None
    #: :meth:`to_wire`'s bytes once asked for; they live and die with
    #: this object (so with the `ResultCache` entry that owns it)
    _wire: "bytes | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def complexity(self) -> int:
        return self.lookup.complexity

    @property
    def best(self) -> "ScoredStatement | None":
        return self.statements[0] if self.statements else None

    def sql_texts(self) -> list:
        return [statement.sql for statement in self.statements]

    # ------------------------------------------------------------------
    # the stable wire contract (used by `repro serve` and --json)
    # ------------------------------------------------------------------
    def to_dict(self, limit: "int | None" = None) -> dict:
        """The result as JSON-native data — the serving wire contract.

        Shape (stable; the HTTP layer and ``repro search --json`` both
        emit exactly this):

        * ``query``: ``{"text", "description"}``
        * ``complexity``: the lookup's interpretation count
        * ``statements``: up to *limit* entries of ``{"sql", "score",
          "disconnected", "interpretation", "estimated_rows",
          "execution_error", "snippet"}`` where ``snippet`` is
          ``{"columns", "rows"}`` or None (DATE values as ISO strings)
        * ``timings``: the six per-step seconds plus ``soda_total`` and
          ``total``
        * ``trace``: the span tree when the search was traced, else
          absent
        """
        statements = self.statements if limit is None else self.statements[:limit]
        payload = {
            "query": {
                "text": self.query.raw,
                "description": self.query.describe(),
            },
            "complexity": self.complexity,
            "statements": [
                {
                    "sql": scored.sql,
                    "score": scored.score,
                    "disconnected": scored.disconnected,
                    "interpretation": scored.interpretation_description,
                    "estimated_rows": scored.estimated_rows,
                    "execution_error": scored.execution_error,
                    "snippet": None
                    if scored.snippet is None
                    else {
                        "columns": list(scored.snippet.columns),
                        "rows": [
                            [_json_value(value) for value in row]
                            for row in scored.snippet.rows
                        ],
                    },
                }
                for scored in statements
            ],
            "timings": {
                "lookup": self.timings.lookup,
                "rank": self.timings.rank,
                "tables": self.timings.tables,
                "filters": self.timings.filters,
                "sql": self.timings.sql,
                "execute": self.timings.execute,
                "soda_total": self.timings.soda_total,
                "total": self.timings.total,
            },
        }
        if self.trace is not None:
            payload["trace"] = self.trace.to_dict()
        return payload

    def to_json(self, limit: "int | None" = None, indent: "int | None" = None) -> str:
        """:meth:`to_dict` serialized deterministically (sorted keys)."""
        return json.dumps(self.to_dict(limit=limit), sort_keys=True, indent=indent)

    def to_wire(self) -> bytes:
        """The HTTP body of this result: sorted-key JSON, encoded once.

        Memoised on the object, so every request served the same
        (cached) result gets the same bytes — including the ``timings``
        of the search that computed it.  Racing first calls produce
        equal bytes; the last assignment wins.
        """
        wire = self._wire
        if wire is None:
            wire = self._wire = self.to_json().encode()
        return wire


@dataclass
class InterpretationState:
    """One ranked interpretation flowing through the batch stages."""

    ranked: object  # RankedInterpretation
    tables_result: object = None
    filters_result: object = None
    statement: object = None  # GeneratedStatement, set by sqlgen


@dataclass
class SearchContext:
    """Shared state of one search as it moves down the pipeline."""

    text: str
    config: object  # SodaConfig
    execute: bool = True
    query: object = None  # SodaQuery, set by the lookup step
    lookup: object = None  # LookupResult, set by the lookup step
    items: list = field(default_factory=list)  # InterpretationState list
    statements: list = field(default_factory=list)  # ScoredStatement list
    timings: StepTimings = field(default_factory=StepTimings)
    stopped_at: str | None = None
    #: the request's tracer (NULL_TRACER when tracing is off)
    tracer: object = NULL_TRACER

    def request_stop(self, step_name: str) -> None:
        """Skip all remaining pipeline steps (early-termination hook)."""
        self.stopped_at = step_name

    @property
    def stopped(self) -> bool:
        return self.stopped_at is not None

    def result(self) -> SearchResult:
        return SearchResult(
            query=self.query,
            lookup=self.lookup,
            statements=self.statements,
            timings=self.timings,
            trace=self.tracer if self.tracer.enabled else None,
        )


class PipelineStep:
    """One named stage; subclasses implement :meth:`run`.

    ``timing_field`` names the :class:`StepTimings` attribute the
    step's wall-clock time accumulates into (None: untimed).
    """

    name: str = "step"
    timing_field: "str | None" = None

    def active(self, context: SearchContext) -> bool:
        """Inactive steps are skipped entirely (no timing recorded)."""
        return True

    def run(self, context: SearchContext) -> None:
        raise NotImplementedError


class LookupStep(PipelineStep):
    """Step 1 — parse the text and map terms to entry points."""

    name = "lookup"
    timing_field = "lookup"

    def __init__(self, lookup) -> None:
        self._lookup = lookup

    def run(self, context: SearchContext) -> None:
        context.query = parse_query(context.text)
        context.lookup = self._lookup.run(context.query)


class RankStep(PipelineStep):
    """Step 2 — score interpretations, keep the top N."""

    name = "rank"
    timing_field = "rank"

    def run(self, context: SearchContext) -> None:
        ranked = rank(
            context.lookup,
            top_n=context.config.top_n,
            strategy=context.config.ranking,
        )
        context.items = [InterpretationState(ranked=r) for r in ranked]


class TablesStage(PipelineStep):
    """Step 3 — discover tables and joins for every interpretation."""

    name = "tables"
    timing_field = "tables"

    def __init__(self, tables_step) -> None:
        self._tables = tables_step

    def run(self, context: SearchContext) -> None:
        for item in context.items:
            item.tables_result = self._tables.run(item.ranked.interpretation)


class FiltersStage(PipelineStep):
    """Step 4 — collect predicates for every interpretation."""

    name = "filters"
    timing_field = "filters"

    def __init__(self, filters_step) -> None:
        self._filters = filters_step

    def run(self, context: SearchContext) -> None:
        for item in context.items:
            item.filters_result = self._filters.run(
                item.ranked.interpretation,
                context.lookup.slots,
                item.tables_result,
                context.query,
            )


class SqlGenStage(PipelineStep):
    """Step 5 — assemble one SQL statement per interpretation.

    Only SQL *generation* runs here (and hence lands in ``timings.sql``,
    matching the old hand-coded pipeline); deduplication bookkeeping is
    kept just to honour ``max_statements`` early termination, and the
    scored-statement construction happens untimed in
    :class:`FinalizeStep`.
    """

    name = "sqlgen"
    timing_field = "sql"

    def __init__(self, sqlgen) -> None:
        self._sqlgen = sqlgen

    def run(self, context: SearchContext) -> None:
        limit = context.config.max_statements
        seen_sql: set = set()
        for item in context.items:
            if limit is not None and len(seen_sql) >= limit:
                break
            statement = self._sqlgen.generate(
                context.query, item.tables_result, item.filters_result
            )
            if statement is None or statement.sql in seen_sql:
                continue
            seen_sql.add(statement.sql)
            item.statement = statement


class FinalizeStep(PipelineStep):
    """Build scored statements, apply feedback bonuses, sort (untimed)."""

    name = "finalize"
    timing_field = None

    def __init__(self, feedback_provider, estimate_rows) -> None:
        self._feedback_provider = feedback_provider
        self._estimate_rows = estimate_rows

    def run(self, context: SearchContext) -> None:
        for item in context.items:
            if item.statement is None:
                continue
            context.statements.append(
                ScoredStatement(
                    sql=item.statement.sql,
                    score=item.ranked.score,
                    statement=item.statement,
                    tables_result=item.tables_result,
                    filters_result=item.filters_result,
                    interpretation_description=item.ranked.interpretation.describe(
                        context.lookup.slots
                    ),
                    estimated_rows=self._estimate_rows(item.tables_result),
                )
            )
        feedback = self._feedback_provider()
        if len(feedback):
            for scored in context.statements:
                scored.score += feedback.bonus(scored.sql)
        context.statements.sort(key=lambda s: (-s.score, s.sql))


class ExecuteStep(PipelineStep):
    """Execute the statements to produce result snippets."""

    name = "execute"
    timing_field = "execute"

    def __init__(self, attach_snippet) -> None:
        self._attach_snippet = attach_snippet

    def active(self, context: SearchContext) -> bool:
        return context.execute

    def run(self, context: SearchContext) -> None:
        deadline = current_deadline()
        for scored in context.statements:
            # a statement boundary is a safe cancellation point: already
            # attached snippets stay, the rest of the request unwinds
            if deadline is not None:
                deadline.check("execute")
            self._attach_snippet(scored)


class SearchPipeline:
    """An ordered list of steps plus between-step hooks."""

    def __init__(self, steps, hooks=()) -> None:
        self.steps = list(steps)
        self._hooks = list(hooks)

    def add_hook(self, hook) -> None:
        """Register ``hook(context, step) -> bool``; truthy stops the run."""
        self._hooks.append(hook)

    def remove_hook(self, hook) -> None:
        if hook in self._hooks:
            self._hooks.remove(hook)

    def step_names(self) -> list:
        return [step.name for step in self.steps]

    def run(self, context: SearchContext) -> SearchContext:
        """Drive *context* through every step, timing each one."""
        tracer = context.tracer
        deadline = current_deadline()
        run_started = time.perf_counter()
        for step in self.steps:
            if context.stopped:
                break
            # cooperative cancellation: a request over its deadline
            # stops at the next step boundary and unwinds cleanly
            if deadline is not None:
                deadline.check("step:" + step.name)
            if not step.active(context):
                continue
            with tracer.span("step:" + step.name):
                started = time.perf_counter()
                step.run(context)
                elapsed = time.perf_counter() - started
            if step.timing_field is not None:
                setattr(
                    context.timings,
                    step.timing_field,
                    getattr(context.timings, step.timing_field) + elapsed,
                )
            if _METRICS.enabled and step.timing_field is not None:
                _METRICS.histogram(
                    f"pipeline.step.{step.name}.seconds"
                ).observe(elapsed)
            for hook in self._hooks:
                if hook(context, step):
                    context.request_stop(step.name)
                    break
        if _METRICS.enabled:
            _SEARCHES.inc()
            _SEARCH_SECONDS.observe(time.perf_counter() - run_started)
        return context
