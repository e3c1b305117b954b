"""An aggregate directly on a hash join runs in the build scan's loop.

The build scan folds its rows into one partial per join key; each probe
row that finds a partial merges it into its group.  Locks are counters,
plan text and answers against ``reference_execute`` (and stdlib
``sqlite3`` where the dialects agree) — never clocks.

Named mutants, each killed here:

(a) a partial whose ``min`` / ``max`` is one plain best, merged with a
    plain ``<`` / ``>`` (a NaN that opens a bucket then hides the
    bucket's later values): ``test_a_nan_leading_bucket_merges_by_the_row_rule``;
(b) a build row whose join key is NULL folded into a partial (NULL then
    matches a NULL probe key): ``test_null_never_joins_null``;
(c) ``BatchAggregateOp`` compiles its batch path's keys and arguments
    before deciding to fold again: ``TestFoldedCompile``.
"""

import math
import re
import sys

import pytest

from repro.errors import SqlError
from repro.obs.metrics import registry
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import physical

from tests.core.stamp_oracle import load_ledger_workloads
from tests.sqlengine.reference_engine import reference_execute
from tests.sqlengine.sqlite_oracle import answer, load

ledger = load_ledger_workloads()

NAN = math.nan
COUNTERS = ("engine.rows_scanned", "engine.rows_joined",
            "engine.agg_rows_gathered")
HEADLINE = (
    "SELECT d.region, count(*), sum(f.x), avg(f.q), min(f.x), max(f.q) "
    "FROM f, d WHERE f.k = d.id AND f.q < 40 GROUP BY d.region"
)


def outcome(run, sql):
    try:
        return repr(run(sql).rows)
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def same_as_reference(db, sql):
    expected = outcome(lambda text: reference_execute(db, text), sql)
    assert outcome(db.execute, sql) == expected, sql
    return expected


def aggregate(db, sql):
    operator = db.planner.prepare(parse_select(sql))._root
    while not isinstance(operator, physical.BatchAggregateOp):
        operator = operator._child
    return operator


def join_folded(db, sql) -> bool:
    agg = aggregate(db, sql)
    return agg._fold is not None and agg._merge is not None


def moved(db, sql, reference=True):
    counters = [registry().counter(name) for name in COUNTERS]
    before = [counter.value for counter in counters]
    if reference:
        same_as_reference(db, sql)
    else:
        db.execute(sql)
    return [counter.value - b for counter, b in zip(counters, before)]


def facts_db(segment_rows=DEFAULT_SEGMENT_ROWS):
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table("f", [("id", "INT"), ("k", "INT"), ("x", "REAL"),
                          ("q", "INT")])
    db.create_table("d", [("id", "INT"), ("region", "TEXT")])
    # d: a NULL id and a duplicate id (fan-out: two probe rows per bucket)
    db.insert_rows("d", [(i, f"r{i % 3}") for i in range(8)]
                   + [(None, "r0"), (1, "dup")])
    db.insert_rows("f", [
        (i, None if i % 11 == 0 else i % 10,
         NAN if i % 13 == 0 else float(i % 7) - 2.5, i % 50)
        for i in range(3000)
    ])
    return db


def ledger_db() -> Database:
    """The ledger's engine tables at 20k facts.  From ~15k facts the
    optimizer builds on the filtered facts, as at the ledger's 100k
    (below that it builds on dims, and the group key d.region is on the
    build side: the batch path)."""
    db = Database(config=EngineConfig(segment_rows=1024))
    db.create_table("dims", ledger.DIMS_COLUMNS)
    db.insert_rows("dims", ledger.engine_dims())
    db.create_table("facts", ledger.FACTS_COLUMNS)
    for batch in ledger.engine_batches(20_000, 5000):
        db.insert_rows("facts", batch)
    return db


class TestFoldedCompile:
    """A folded aggregate compiles no batch path: counted calls of
    ``compile_batch`` made by ``BatchAggregateOp`` for its per-batch
    keys and arguments (value mode; HAVING compiles in filter mode)."""

    @staticmethod
    def batch_path_compiles(monkeypatch, db, sql) -> list:
        calls = []
        compile_batch = physical.compile_batch

        def counting(exprs, scope, *args, **kwargs):
            caller = sys._getframe(1).f_locals.get("self")
            if isinstance(caller, physical.BatchAggregateOp) and \
                    kwargs.get("mode", "value") == "value":
                calls.append(exprs)
            return compile_batch(exprs, scope, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(physical, "compile_batch", counting)
            db.planner.prepare(parse_select(sql))
        return calls

    def test_the_ledger_headline_compiles_no_batch_path(self, monkeypatch):
        db = Database(config=EngineConfig(plan_cache_size=0))
        db.create_table("dims", ledger.DIMS_COLUMNS)
        db.insert_rows("dims", ledger.engine_dims())
        db.create_table("facts", ledger.FACTS_COLUMNS)
        for batch in ledger.engine_batches(20_000, 5000):
            db.insert_rows("facts", batch)
        sql = ledger.engine_selects(0, 20_000)["headline"]
        assert join_folded(db, sql)
        assert self.batch_path_compiles(monkeypatch, db, sql) == []
        twin = sql.replace("GROUP BY d.region",
                           "GROUP BY d.region HAVING count(*) > 0")
        assert len(self.batch_path_compiles(monkeypatch, db, twin)) == 1

    def test_a_scan_fed_group_by_compiles_no_batch_path(self, monkeypatch):
        db = Database(config=EngineConfig(plan_cache_size=0))
        db.create_table("f", [("id", "INT"), ("k", "INT"), ("x", "REAL")])
        db.insert_rows("f", [(i, i % 10, float(i)) for i in range(100)])
        sql = "SELECT k, count(*), sum(x) FROM f WHERE id > 5 GROUP BY k"
        assert aggregate(db, sql)._fold is not None
        assert self.batch_path_compiles(monkeypatch, db, sql) == []
        assert len(self.batch_path_compiles(
            monkeypatch, db, sql + " HAVING count(*) > 0"
        )) == 1
        assert aggregate(db, sql)._inputs is None

    @pytest.mark.parametrize("sql, message", [
        # folds in the scan loop once it compiles
        ("SELECT k, sum(nosuch(x)) FROM f WHERE id > 5 GROUP BY k",
         r"unknown function 'nosuch' in nosuch\(x\)"),
        ("SELECT k, sum(x) FROM f WHERE id > 5 GROUP BY k, nosuch",
         r"unknown column 'nosuch' \(available: f.id, f.k, f.x\)"),
        # the batch path
        ("SELECT k, sum(nosuch(x)) FROM f WHERE id > 5 GROUP BY k "
         "HAVING count(*) > 0", r"unknown function 'nosuch' in nosuch\(x\)"),
    ])
    def test_a_compile_error_is_raised_at_prepare(self, sql, message):
        db = Database()
        db.create_table("f", [("id", "INT"), ("k", "INT"), ("x", "REAL")])
        with pytest.raises(SqlError, match=message):
            db.planner.prepare(parse_select(sql))


class TestJoinFold:
    def test_folds_and_moves_the_batch_paths_counters(self):
        db = facts_db()
        having = HEADLINE + " HAVING count(*) > 0"
        assert join_folded(db, HEADLINE)
        assert aggregate(db, having)._fold is None
        scanned, joined, gathered = moved(db, having)
        assert gathered == joined > 0  # the batch path buckets every pair
        # the same scans and pairs; nothing gathered
        assert moved(db, HEADLINE) == [scanned, joined, 0]

    def test_the_ledger_headline_folds(self):
        db = ledger_db()
        conn = load(db)
        for rotation in (0, 5):
            sql = ledger.engine_selects(rotation, 20_000)["headline"]
            twin = sql.replace("GROUP BY d.region",
                               "GROUP BY d.region HAVING count(*) > 0")
            assert join_folded(db, sql)
            scanned, joined, gathered = moved(db, twin, reference=False)
            assert gathered == joined > 0
            assert moved(db, sql, reference=False) == [scanned, joined, 0]
            ours, theirs = answer(db.execute(sql), conn, sql)
            assert ours == theirs and ours

    def test_a_global_count_over_a_four_way_join(self):
        # SODA's Q9.0 shape: count() over a chain of warehouse joins
        db = Database()
        db.execute("CREATE TABLE a (id INT, name TEXT)")
        db.execute("CREATE TABLE b (id INT, a_id INT)")
        db.execute("CREATE TABLE c (id INT, b_id INT)")
        db.execute("CREATE TABLE e (id INT, c_id INT, kind TEXT)")
        db.insert_rows("a", [(i, f"a{i}") for i in range(5)])
        db.insert_rows("b", [(i, i % 6) for i in range(30)])
        db.insert_rows("c", [(i, None if i % 9 == 0 else i % 31)
                             for i in range(120)])
        db.insert_rows("e", [(i, i % 125, "PI"[i % 2]) for i in range(400)])
        sql = ("SELECT count(*) FROM a, b, c, e WHERE a.id = b.a_id "
               "AND b.id = c.b_id AND c.id = e.c_id AND e.kind = 'P'")
        assert join_folded(db, sql)
        assert aggregate(db, sql).folded_into == "e"
        ours, theirs = answer(db.execute(sql), load(db), sql)
        assert ours == theirs
        same_as_reference(db, sql)

    def test_a_raising_argument_takes_the_batch_path(self):
        db = facts_db()
        # q = 0 on matched rows: the reference's division error
        sql = ("SELECT d.region, sum(1 / f.q) FROM f, d "
               "WHERE f.k = d.id GROUP BY d.region")
        assert aggregate(db, sql)._fold is None
        assert same_as_reference(db, sql).startswith("SqlExecutionError")
        # q = 0 only on rows no probe row matches (d has no id 9, and
        # NULL matches nothing): no error — a fold would run the
        # argument on them
        db.execute("UPDATE f SET q = 0 WHERE k = 9 OR k IS NULL")
        db.execute("UPDATE f SET q = 1 WHERE q = 0 AND k <> 9")
        assert not same_as_reference(db, sql).startswith("Sql")

    def test_a_nan_leading_bucket_merges_by_the_row_rule(self):
        db = Database()
        db.create_table("d", [("id", "INT"), ("region", "TEXT")])
        db.create_table("f", [("k", "INT"), ("x", "REAL")])
        db.insert_rows("d", [(0, "r"), (1, "r"), (2, "s")])
        # bucket 0 holds 5.0; bucket 1 opens with NaN, then 1.0 and 9.0;
        # bucket 2 (group s, alone) opens with NaN
        db.insert_rows("f", [(0, 5.0), (1, NAN), (1, 1.0), (1, 9.0),
                             (2, NAN), (2, 4.0)] + [(7, 0.0)] * 8)
        sql = ("SELECT d.region, min(f.x), max(f.x) FROM d, f "
               "WHERE f.k = d.id GROUP BY d.region")
        assert join_folded(db, sql)
        # r: 5.0, NaN, 1.0, 9.0 in join order — the NaN is skipped;
        # s: NaN first, so NaN stays
        assert same_as_reference(db, sql) == "[('r', 1.0, 9.0), ('s', nan, nan)]"

    def test_null_never_joins_null(self):
        db = Database()
        db.create_table("d", [("id", "INT"), ("region", "TEXT")])
        db.create_table("f", [("k", "INT"), ("x", "REAL")])
        db.insert_rows("d", [(None, "nulls"), (1, "one")])
        db.insert_rows("f", [(None, 1.0), (1, 2.0), (None, 4.0)]
                       + [(5, 0.0)] * 8)
        sql = ("SELECT d.region, count(*), sum(f.x) FROM d, f "
               "WHERE f.k = d.id GROUP BY d.region")
        assert join_folded(db, sql)
        assert same_as_reference(db, sql) == "[('one', 1, 2.0)]"

    def test_multi_column_keys_and_fan_out(self):
        db = Database()
        db.create_table("d", [("a", "INT"), ("b", "TEXT"), ("g", "TEXT")])
        db.create_table("f", [("a", "INT"), ("b", "TEXT"), ("v", "INT"),
                              ("w", "REAL")])
        db.insert_rows("d", [(1, "x", "g1"), (1, "x", "g2"), (1, "y", "g1"),
                             (None, "x", "g1"), (2, None, "g2"),
                             (1, "x", "g1")])
        db.insert_rows("f", [
            (i % 3 or None, "xy"[i % 2] if i % 5 else None, i, i / 4)
            for i in range(40)
        ])
        sql = ("SELECT d.g, count(*), count(f.w), sum(f.v), avg(f.w), "
               "min(f.b), max(f.v) FROM d, f WHERE f.a = d.a AND f.b = d.b "
               "GROUP BY d.g")
        assert join_folded(db, sql)
        ours, theirs = answer(db.execute(sql), load(db), sql)
        assert ours == theirs
        same_as_reference(db, sql)

    def test_an_empty_build_side_without_group_by(self):
        db = facts_db()
        sql = ("SELECT count(*), sum(f.x), min(f.x), avg(f.q) FROM f, d "
               "WHERE f.k = d.id AND f.x + 0 > 100")
        assert join_folded(db, sql)
        assert same_as_reference(db, sql) == "[(0, None, None, None)]"

    def test_keys_or_arguments_on_the_wrong_side_take_the_batch_path(self):
        db = facts_db()
        for sql in (
            # a group key read on the build side
            "SELECT f.q, count(*) FROM f, d WHERE f.k = d.id GROUP BY f.q",
            # an argument read on the probe side
            "SELECT d.region, max(d.id) FROM f, d WHERE f.k = d.id "
            "GROUP BY d.region",
            # DISTINCT
            "SELECT d.region, count(DISTINCT f.q) FROM f, d "
            "WHERE f.k = d.id GROUP BY d.region",
        ):
            assert aggregate(db, sql)._fold is None, sql
            same_as_reference(db, sql)

    def test_explain_marks_the_fold_and_plain_explain_is_unchanged(self):
        db = facts_db()
        # the text the batch path printed for this plan
        assert db.explain(HEADLINE) == (
            "project d.region, count(*), sum(f.x), avg(f.q), min(f.x), "
            "max(f.q)\n"
            "└─ aggregate group by d.region [~4 rows]\n"
            "   └─ hash join f on (f.k = d.id) [~1794 rows]\n"
            "      ├─ scan d as d (10 rows)\n"
            "      └─ scan f as f (3000 rows) filter: (f.q < 40) [~2411 rows]"
            " [cols: k, x, q]"
        )
        lines = db.explain(HEADLINE, analyze=True).splitlines()
        assert ", folded into scan f, self=" in lines[1]
        having = HEADLINE + " HAVING count(*) > 0"
        batch_path = db.explain(having, analyze=True)
        assert "folded" not in batch_path
        # every operator's actual rows and batches are the batch path's
        actuals = re.compile(r"actual rows=\d+, batches=\d+")
        assert actuals.findall("\n".join(lines)) == actuals.findall(batch_path)
        scan_fold = "SELECT q, count(*) FROM f WHERE x > 0 GROUP BY q"
        assert "folded into scan f" in db.explain(scan_fold, analyze=True)

    def test_deadline_is_checked_as_on_the_batch_path(self):
        db = facts_db()

        def checks(sql):
            reads = []

            def clock():
                reads.append(None)
                return 0.0

            with deadline_scope(Deadline(10_000, clock=clock)):
                db.execute(sql)
            return len(reads)

        # the deadline's start, then one per scan batch (f: 3, d: 1) and
        # one per BATCH_SIZE pairs the join hands on (2)
        assert checks(HEADLINE) == checks(HEADLINE + " HAVING count(*) > 0")
        assert checks(HEADLINE) == 1 + 3 + 1 + 2
        late = iter([0.0, 5.0]).__next__
        with deadline_scope(Deadline(1, clock=late)):
            with pytest.raises(DeadlineExceeded, match="at scan"):
                db.execute(HEADLINE)

    def test_reads_its_pin(self):
        db = facts_db(segment_rows=256)
        plan = db.planner.prepare(parse_select(HEADLINE))
        expected = db.execute(HEADLINE).rows
        with db.planner._pin_scope(plan):
            db.insert_rows("f", [(9000 + i, 1, 1.0, 1) for i in range(50)])
            assert plan.execute().rows == expected
        assert db.execute(HEADLINE).rows != expected
