"""A snippet is the first ``snippet_rows`` rows the statement produces.

``Soda._attach_snippet`` executes ``LIMIT min(own limit, snippet_rows)``
of each statement instead of the statement itself, so this must hold for
everything SODA generates::

    execute(select).rows[:N] == execute(bounded select).rows

It is checked through the real execute step — every statement of the
paper workload and of the perf ledger's 160-text pool (entity, entity +
attribute, bare value, entity + value), plus top-N texts whose own LIMIT
is below and above N — against full execution on the same engine, over
{3, 64} rows per segment x {plan cache on, off}; the full execution
itself must equal the row-at-a-time reference interpreter's.  Hand-written
statements add the shapes SODA never emits (DISTINCT, ORDER BY ties,
LIMIT 0).

One difference is intended and pinned by name: an error that full
execution only runs into after row N is not reported any more.
"""

import pytest

from repro.core.pipeline import ScoredStatement
from repro.core.soda import Soda, SodaConfig
from repro.errors import SqlExecutionError
from repro.experiments.workload import WORKLOAD
from repro.sqlengine.config import DEFAULT_PLAN_CACHE_SIZE, EngineConfig
from repro.sqlengine.parser import parse_select
from repro.warehouse.minibank import build_minibank

from stamp_oracle import load_ledger_workloads
from tests.sqlengine.reference_engine import reference_execute

ledger_workloads = load_ledger_workloads()

N = SodaConfig().snippet_rows

TOP_N_TEXTS = [
    "top 3 customers trading volume",  # own LIMIT 3 < N: min wins
    "top 50 customers trading volume",  # own LIMIT 50 > N
    "Who are my top ten customers in terms of revenue",
    "top 5 Zurich",
    "top 40 addresses",
]

HAND_WRITTEN = [
    # ORDER BY ties: TopN must keep the arrival order a stable sort keeps
    "SELECT id, currency_cd FROM investments_td ORDER BY currency_cd",
    "SELECT id, status_cd FROM orders_td ORDER BY status_cd DESC",
    "SELECT id, currency_cd, amount FROM money_transactions "
    "ORDER BY currency_cd DESC, amount",
    "SELECT id FROM transactions ORDER BY from_party_id LIMIT 35",
    "SELECT id FROM transactions ORDER BY to_party_id LIMIT 7",
    # DISTINCT
    "SELECT DISTINCT from_party_id FROM transactions",
    "SELECT DISTINCT currency_cd, status_cd FROM investments_td, orders_td "
    "WHERE investments_td.party_id = orders_td.party_id",
    "SELECT DISTINCT city FROM addresses ORDER BY city DESC",
    # GROUP BY, with and without HAVING / ORDER BY
    "SELECT party_id, count(*) FROM orders_td GROUP BY party_id",
    "SELECT party_id, count(*) FROM orders_td GROUP BY party_id "
    "HAVING count(*) > 1 ORDER BY count(*) DESC",
    # fan-out and LEFT JOIN padding order
    "SELECT a.id, b.id FROM money_transactions a, payment_orders b "
    "WHERE a.currency_cd = b.currency_cd",
    "SELECT p.id, o.id FROM parties p LEFT JOIN orders_td o "
    "ON p.id = o.party_id",
    "SELECT p.id, o.id FROM parties p LEFT JOIN orders_td o "
    "ON p.id = o.party_id AND o.status_cd <> 'OPEN'",
    "SELECT p.id, o.id FROM parties p LEFT JOIN orders_td o "
    "ON p.id > o.party_id WHERE p.id < 9",
    "SELECT a.id, c.currency_cd FROM addresses a, currencies c",
    # limits around the edge
    "SELECT id FROM addresses LIMIT 0",
    "SELECT id FROM addresses LIMIT 20",
    "SELECT id FROM addresses LIMIT 21",
]

#: plan_cache_size=0 compiles every execution afresh; with the default
#: cache, statements the corpus repeats run again from one compiled
#: plan, so the prefix must not depend on whether a plan ran before
ENGINES = [
    pytest.param(
        EngineConfig(segment_rows=segment, plan_cache_size=cache),
        id=f"segment_rows={segment}-plan_cache={cache}",
    )
    for segment in (3, 64)
    for cache in (DEFAULT_PLAN_CACHE_SIZE, 0)
]


@pytest.fixture(scope="module", params=ENGINES)
def soda(request):
    return Soda(
        build_minibank(seed=42, scale=1.0, engine_config=request.param),
        SodaConfig(),
    )


@pytest.fixture(scope="module")
def texts(warehouse):
    pool = ledger_workloads.http_pool(
        warehouse, ledger_workloads.FULL.http_pool
    )
    return list(
        dict.fromkeys([query.text for query in WORKLOAD] + pool + TOP_N_TEXTS)
    )


def _scored(sql: str) -> ScoredStatement:
    """A hand-written statement, as the execute step receives it."""

    class Generated:
        select = parse_select(sql)

    return ScoredStatement(
        sql=sql, score=0.0, statement=Generated, tables_result=None,
        filters_result=None, interpretation_description="",
    )


def _assert_is_prefix(soda: Soda, scored: ScoredStatement) -> int:
    """The attached snippet == the first N rows of full execution."""
    database = soda.warehouse.database
    full = database.execute_select_ast(scored.statement.select)
    reference = reference_execute(database, scored.statement.select.to_sql())
    assert (full.columns, full.rows) == (reference.columns, reference.rows)
    assert scored.execution_error is None, scored.sql
    assert scored.snippet.columns == full.columns, scored.sql
    assert scored.snippet.rows == full.rows[:N], scored.sql
    return len(full.rows)


def test_generated_statements(soda, texts):
    seen = set()
    beyond = limited = ordered = grouped = 0
    for text in texts:
        for scored in soda.search(text).statements:
            if scored.sql in seen:
                continue
            seen.add(scored.sql)
            select = scored.statement.select
            beyond += _assert_is_prefix(soda, scored) > N
            limited += select.limit is not None
            ordered += bool(select.order_by)
            grouped += bool(select.group_by)
    # the corpus really exercises what it claims to
    assert len(seen) > 150
    assert beyond > 40 and limited >= 4 and ordered >= 4 and grouped >= 4


@pytest.mark.parametrize("sql", HAND_WRITTEN)
def test_hand_written_shapes(soda, sql):
    scored = _scored(sql)
    soda._attach_snippet(scored)
    _assert_is_prefix(soda, scored)


def test_snippet_rows_is_the_bound(soda):
    narrow = Soda(soda.warehouse, SodaConfig(snippet_rows=3))
    scored = _scored("SELECT id FROM transactions ORDER BY from_party_id")
    narrow._attach_snippet(scored)
    full = soda.warehouse.database.execute_select_ast(scored.statement.select)
    assert scored.snippet.rows == full.rows[:3]


def test_error_past_the_snippet_is_not_reported(soda):
    """The documented difference (ordinary LIMIT semantics).

    The division fails on the very last row of a 22 500-row cross join;
    full execution raises, the snippet stops 22 480 rows earlier.
    """
    database = soda.warehouse.database
    top = database.execute("SELECT max(id) FROM addresses").rows[0][0]
    sql = (
        f"SELECT a.id, 1 / (a.id + b.id - {2 * top}) "
        "FROM addresses a, addresses b"
    )
    scored = _scored(sql)
    with pytest.raises(SqlExecutionError, match="division by zero"):
        database.execute_select_ast(scored.statement.select)
    soda._attach_snippet(scored)
    assert scored.execution_error is None
    assert len(scored.snippet.rows) == N


def test_error_within_the_snippet_is_still_reported(soda):
    scored = _scored("SELECT 1 / (id - id) FROM addresses")
    soda._attach_snippet(scored)
    assert scored.snippet is None
    assert "division by zero" in scored.execution_error


def test_oversized_statement_answer_is_unchanged(soda):
    capped = Soda(soda.warehouse, SodaConfig(max_execution_rows=10))
    skipped = [
        scored
        for scored in capped.search("Sara given name").statements
        if scored.execution_error
    ]
    assert skipped
    for scored in skipped:
        assert scored.snippet is None
        assert scored.execution_error == (
            f"skipped: estimated {scored.estimated_rows} rows exceeds "
            "the execution cap"
        )
