"""The batch-size invariant, checked at every operator boundary.

``planner/physical.py`` promises that every ``(cols, n)`` batch any
vectorized operator hands on has ``n <= BATCH_SIZE`` and columns of
exactly ``n`` values.  :class:`BatchBoundChecker` rides on
``build_physical``'s ``instrument`` hook (the one EXPLAIN ANALYZE uses),
wraps every operator of a plan and asserts that for every yield — over
the vectorized parity corpora with batches shrunk so the fixtures span
many of them, and over a synthetic fan-out join at the real size.

The second half locks what the invariant buys without a clock:
``LIMIT 20`` over a join that produces >= 100k rows moves
``engine.rows_joined`` by at most ``BATCH_SIZE`` per join level.
"""

import pytest

import repro.sqlengine.planner.physical as physical
from repro.obs.metrics import registry
from repro.sqlengine.database import Database
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.planner import build_physical

from tests.sqlengine.test_planner import NAIVE_EQUIVALENCE_QUERIES
from tests.sqlengine.test_vectorized_parity import (
    RICH_CORPUS,
    STRING_CORPUS,
    _populate_planner_schema,
    _populate_rich_schema,
    _populate_string_schema,
)


class _Checked:
    """One operator behind a bound-asserting shim (either protocol)."""

    def __init__(self, inner, label: str) -> None:
        self._inner = inner
        self._label = label
        self.scope = inner.scope
        if hasattr(inner, "pres_batches"):
            self.columns = inner.columns
            self.agg_slots = inner.agg_slots
            self.pres_batches = self._pres_batches
        else:
            self.batches = self._batches

    def _check(self, cols, n) -> None:
        assert 0 < n <= physical.BATCH_SIZE, (
            f"{self._label} yielded a {n}-row batch "
            f"(BATCH_SIZE={physical.BATCH_SIZE})"
        )
        for column in cols:
            assert len(column) == n, self._label

    def _batches(self):
        for cols, n in self._inner.batches():
            self._check(cols, n)
            yield cols, n

    def _pres_batches(self):
        for out_cols, pre_cols, n in self._inner.pres_batches():
            self._check(out_cols, n)
            self._check(pre_cols, n)
            yield out_cols, pre_cols, n


class BatchBoundChecker:
    """``build_physical(..., instrument=BatchBoundChecker())``."""

    def __init__(self) -> None:
        self.wrapped = 0

    def __call__(self, operator, node):
        self.wrapped += 1
        return _Checked(operator, type(operator).__name__)


def assert_batches_bounded(db: Database, sql: str):
    """Run *sql* with every operator checked; same rows as ``execute``.

    UNION chains are checked branch by branch; the last branch's result
    is returned.
    """
    statement = parse_sql(sql)
    for select in getattr(statement, "selects", (statement,)):
        checker = BatchBoundChecker()
        plan = build_physical(
            db.planner.plan_logical(select),
            db.catalog,
            db.config.replace(execution_mode="batch"),
            instrument=checker,
        )
        result = plan.execute()
        assert checker.wrapped
        assert result.rows == db.planner.execute(select).rows, sql
    return result


@pytest.fixture(scope="class")
def small_batches():
    """16-row batches: the few-hundred-row fixtures span many of them."""
    saved = physical.BATCH_SIZE
    physical.BATCH_SIZE = 16
    yield
    physical.BATCH_SIZE = saved


def _db(populate, **knobs) -> Database:
    db = Database(config=EngineConfig(**knobs))
    populate(db)
    return db


@pytest.fixture(scope="class")
def corpus_dbs(small_batches):
    return {
        "planner": [_db(_populate_planner_schema)],
        "rich": [
            _db(_populate_rich_schema),
            _db(_populate_rich_schema, fused=False, array_store=True),
        ],
        "string": [
            _db(_populate_string_schema),
            _db(_populate_string_schema, dict_encoding_threshold=0),
        ],
    }


CORPUS = (
    [("planner", sql) for sql in NAIVE_EQUIVALENCE_QUERIES]
    + [("rich", sql) for sql in RICH_CORPUS]
    + [("string", sql) for sql in STRING_CORPUS]
)


class TestParityCorpusBounded:
    @pytest.mark.parametrize("schema,sql", CORPUS)
    def test_every_yield_fits_a_batch(self, corpus_dbs, schema, sql):
        for db in corpus_dbs[schema]:
            assert_batches_bounded(db, sql)


# ----------------------------------------------------------------------
# synthetic fan-out: 300 x 400 rows on one key = 120 000 joined rows
# ----------------------------------------------------------------------
LEFT_ROWS = 300
RIGHT_ROWS = 400
FAN_OUT = LEFT_ROWS * RIGHT_ROWS


@pytest.fixture(scope="module", params=["batch", "row"])
def fanout_db(request):
    db = Database(config=EngineConfig(execution_mode=request.param))
    db.execute("CREATE TABLE l (id INT PRIMARY KEY, k TEXT, v INT)")
    db.execute("CREATE TABLE m (id INT PRIMARY KEY, k TEXT, w INT)")
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, k TEXT, w INT)")
    db.insert_rows("l", [(i, "usd", i % 7) for i in range(LEFT_ROWS)])
    db.insert_rows("m", [(0, "usd", 0)])
    db.insert_rows("r", [(i, "usd", i % 5) for i in range(RIGHT_ROWS)])
    return db


FANOUT_JOINS = {
    "hash": "SELECT l.id, r.id FROM l, r WHERE l.k = r.k",
    "two-level": (
        "SELECT l.id, r.id FROM l, m, r WHERE l.k = m.k AND m.k = r.k"
    ),
    "cross": "SELECT l.id, r.id FROM l, r",
    "left-hash": "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k",
    "left-residual": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND r.w >= 0"
    ),
    "left-broadcast": "SELECT l.id, r.id FROM l LEFT JOIN r ON l.v <= r.id",
}


def _join_levels(db: Database, sql: str) -> int:
    return db.explain(sql).count("join")


class TestFanOutJoin:
    def test_full_output_arrives_in_bounded_batches(self, fanout_db):
        if fanout_db.config.execution_mode != "batch":
            pytest.skip("the invariant is the batch engine's")
        result = assert_batches_bounded(fanout_db, FANOUT_JOINS["hash"])
        assert len(result.rows) == FAN_OUT
        assert result.rows[0] == (0, 0)
        assert result.rows[RIGHT_ROWS] == (1, 0)  # left-major row order
        assert result.rows[-1] == (LEFT_ROWS - 1, RIGHT_ROWS - 1)

    @pytest.mark.parametrize("shape", sorted(FANOUT_JOINS))
    def test_limit_stops_the_join(self, fanout_db, shape):
        """`LIMIT 20` costs each join level at most one batch of output."""
        sql = FANOUT_JOINS[shape]
        full = fanout_db.execute(sql).rows
        assert len(full) >= 100_000
        joined = registry().counter("engine.rows_joined")
        before = joined.value
        rows = fanout_db.execute(sql + " LIMIT 20").rows
        moved = joined.value - before
        assert rows == full[:20]
        assert 20 <= moved <= physical.BATCH_SIZE * _join_levels(
            fanout_db, sql
        ), moved
