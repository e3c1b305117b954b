"""Unit tests for the expression compiler and the TopN bound pushdown.

Covers the pieces the end-to-end parity corpora exercise only
indirectly: one generated function per operator (there is no other
evaluator), source that grows linearly with the expression however
deep it nests, the first error raised being the reference's, the TopN
bound pushdown wiring, GROUP BY inside the scan's generated loop and
the plain-list column store.

Named mutants, each killed here:

(a) a compound operand put back into its NULL guard (the source then
    doubles per nesting level):
    ``TestLinearCodegen::test_source_grows_linearly_with_the_tree``;
(b) an AND evaluating its right side on rows its left made FALSE:
    ``TestErrorOrder::test_and_skips_its_right_side_after_false``;
(c) a t(AND) skipping its right side on rows its left made NULL:
    ``TestErrorOrder::test_a_null_left_side_still_runs_the_right``.
"""

import re

import pytest

from repro.errors import SqlError
from repro.obs.metrics import registry
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.expressions import Scope, compile_batch
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import physical
from repro.sqlengine.planner.logical import expr_children

from tests.sqlengine.reference_engine import reference_execute, snapshot_rows


def outcome(run, sql):
    """A statement's rows, or its error's type and message."""
    try:
        return repr(run(sql).rows)
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def same_as_reference(db, sql):
    """*sql*'s outcome, asserted equal to the reference interpreter's."""
    expected = outcome(lambda text: reference_execute(db, text), sql)
    assert outcome(db.execute, sql) == expected, sql[:200]
    return expected


class TestFusedCompilation:
    @staticmethod
    def _db(**kwargs):
        db = Database(config=EngineConfig(**kwargs))
        db.execute("CREATE TABLE t (id INT, x REAL, s TEXT)")
        db.execute(
            "INSERT INTO t VALUES " + ", ".join(
                f"({i}, {i * 1.5}, 's{i % 4}')" for i in range(50)
            )
        )
        return db

    def _scan(self, db, sql):
        from repro.sqlengine.parser import parse_select

        plan = db.planner.prepare(parse_select(sql))
        op = plan._root
        while not isinstance(op, physical.BatchScanOp):
            op = op._child
        return op

    def _one_function(self, sql, conjuncts):
        """The scan's filter is one generated function over every
        conjunct, and the statement answers (or raises) as the
        reference does."""
        db = self._db()
        fused = self._scan(db, sql)._filter
        assert fused.source.count("def ") == 1
        assert fused.source.count(" and ") >= conjuncts - 1
        assert outcome(db.execute, sql) == outcome(
            lambda text: reference_execute(db, text), sql
        )

    def test_safe_conjunction_is_one_function(self):
        self._one_function(
            "SELECT id FROM t WHERE x > 3 AND id < 40 AND s = 's1'", 3
        )

    def test_unsafe_conjunct_joins_the_loop(self):
        # division can raise; it runs in the same row loop, after the
        # conjunct before it, on the rows that conjunct let through
        self._one_function("SELECT id FROM t WHERE x > 3 AND 10 / id > 0", 2)
        self._one_function("SELECT id FROM t WHERE x >= 0 AND 10 / id > 0", 2)

    def test_unsafe_conjunct_first_joins_the_loop(self):
        self._one_function(
            "SELECT id FROM t WHERE 10 / (id + 1) > 0 AND x > 3 AND id < 40", 3
        )
        self._one_function(
            "SELECT id FROM t WHERE 10 / id > 0 AND x > 3 AND id < 40", 3
        )

    def test_string_predicates_fuse_as_plain_comparisons(self):
        self._one_function(
            "SELECT id FROM t WHERE s = 's1' AND s IN ('s2', 's3', 's1')", 2
        )
        db = self._db()
        assert db.execute(
            "SELECT count(*) FROM t WHERE s = 's1' AND s IN ('s2', 's1')"
        ).rows == [(13,)]
        assert db.execute(
            "SELECT count(*) FROM t WHERE s <> 'nope' AND s NOT IN ('s0')"
        ).rows == [(37,)]

    def test_batches_counter_moves(self):
        db = self._db()
        before = db.metrics().get("engine.batches_produced", {}).get("value", 0)
        db.execute("SELECT id FROM t WHERE x > 3 AND id < 40")
        after = db.metrics()["engine.batches_produced"]["value"]
        assert after > before
        assert "engine.fused_batches" not in db.metrics()


class TestLinearCodegen:
    """Generated source grows linearly with the expression tree: a
    compound operand is computed once (bound with ``:=``) however often
    its parent reads it, and a subtree nested past ``_MAX_DEPTH``
    becomes a function of its own, under Python's 200-parenthesis
    limit.  Each statement answers as the reference does."""

    @staticmethod
    def _db():
        db = Database()
        db.create_table("t", [("id", "INT"), ("x", "REAL"), ("n", "INT")])
        db.insert_rows(
            "t", [(i, i * 0.5, None if i % 3 == 0 else i) for i in range(40)]
        )
        return db

    SCOPE = Scope([("t", "id"), ("t", "x"), ("t", "n")])
    CLASSES = {"id": "num", "x": "num", "n": "num"}.get
    #: a CASE nested 60 deep in its ELSE branches
    CASE = "".join(
        f"CASE WHEN id < {k} THEN {k} * x ELSE " for k in range(60)
    ) + "n" + " END" * 60

    @staticmethod
    def _nodes(expr) -> int:
        return 1 + sum(TestLinearCodegen._nodes(c) for c in expr_children(expr))

    @staticmethod
    def _expr(text):
        return parse_select(f"SELECT {text} FROM t").items[0].expr

    def _lock(self, text):
        """Source length <= 50 chars per AST node, in both modes, with
        the columns' classes and without (the generic forms)."""
        expr = self._expr(text)
        for class_of in (lambda binding, column: self.CLASSES(column), None):
            for mode in ("value", "filter"):
                source = compile_batch([expr], self.SCOPE, class_of, mode).source
                assert len(source) <= 50 * self._nodes(expr), (mode, text[:80])

    def test_source_grows_linearly_with_the_tree(self):
        # fifteen operators, each reading its compound operand twice (the
        # NULL guard and the formula): a copy per read would be 2**15
        nested = "x"
        for level in range(10):
            nested = f"({nested} + {level}) * 2" if level % 2 else f"-({nested})"
        self._lock(nested)
        self._lock(f"({nested}) > 3 AND NOT ({nested} BETWEEN 1 AND 2)")
        self._lock(" + ".join(["x"] + ["1"] * 300))
        self._lock("-(" * 60 + "x" + ")" * 60)
        self._lock(" OR ".join(f"x = {k}" for k in range(400)))
        self._lock(self.CASE)
        self._lock(f"coalesce(n, {nested}, 10 / n) IN (1, n / 2, {nested})")

    def test_a_300_term_sum(self):
        chain = " + ".join(["x"] + ["1"] * 299)
        db = self._db()
        assert same_as_reference(db, f"SELECT id, {chain} FROM t")
        assert same_as_reference(
            db, f"SELECT id FROM t WHERE {chain} > 310 ORDER BY {chain}"
        ) == repr([(i,) for i in range(23, 40)])

    def test_60_nested_negations(self):
        same_as_reference(self._db(), "SELECT " + "-(" * 60 + "x" + ")" * 60
                          + " FROM t")
        same_as_reference(self._db(), "SELECT " + "-(" * 61 + "n" + ")" * 61
                          + " FROM t WHERE " + "-(" * 59 + "x" + ")" * 59
                          + " < 5")

    def test_a_400_term_or_chain(self):
        chain = " OR ".join(f"x = {k}" for k in range(400))
        db = self._db()
        assert same_as_reference(
            db, f"SELECT id FROM t WHERE {chain}"
        ) == repr([(i,) for i in range(0, 40, 2)])
        same_as_reference(db, f"SELECT id, {chain} FROM t")
        same_as_reference(db, f"SELECT id FROM t WHERE NOT ({chain})")

    def test_a_60_deep_case(self):
        db = self._db()
        same_as_reference(db, f"SELECT id, {self.CASE} FROM t")
        same_as_reference(db, f"SELECT id FROM t WHERE {self.CASE} > 3")


class TestErrorOrder:
    """Within one operator the first error raised is the reference's:
    a filter's conjuncts and a select list's items run row by row in one
    loop, and AND / OR / CASE / IN run a part only on the rows that
    reach it (``test_vectorized_parity.py`` has one case per node)."""

    @staticmethod
    def _db():
        db = Database()
        db.create_table("t", [("id", "INT"), ("n", "INT")])
        db.insert_rows("t", [(i, None if i == 5 else i) for i in range(50)])
        return db

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE 10 / (40 - id) > 0 AND 10 / (id - 5) > 0",
            "SELECT 10 / (40 - id), 10 / (id - 5) FROM t",
            "UPDATE t SET id = 10 / (40 - id), n = 10 / (id - 5)",
        ],
        ids=["where", "select", "set"],
    )
    def test_the_first_row_to_fail_raises(self, sql):
        # row 5 fails in the second expression before row 40 fails in
        # the first
        assert same_as_reference(self._db(), sql) == (
            "SqlExecutionError: division by zero in (10 / (id - 5))"
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT (id <> 5 AND 10 / (id - 5) > 0) FROM t",
            "SELECT id FROM t WHERE (id <> 5 AND 10 / (id - 5) > 0) OR id = 5",
            "SELECT CASE WHEN id <> 5 AND 10 / (id - 5) > 0 THEN 1 END FROM t",
        ],
    )
    def test_and_skips_its_right_side_after_false(self, sql):
        assert "Error" not in same_as_reference(self._db(), sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT (n > 0 AND 10 / (id - 5) > 0) FROM t",
            "SELECT CASE WHEN n > 0 AND 10 / (id - 5) > 0 THEN 1 END FROM t",
            "SELECT id FROM t WHERE (n > 0 AND 10 / (id - 5) > 0) OR id < 0",
            "SELECT id FROM t WHERE NOT (n <= 0 OR 10 / (id - 5) <= 0)",
        ],
    )
    def test_a_null_left_side_still_runs_the_right(self, sql):
        assert same_as_reference(self._db(), sql) == (
            "SqlExecutionError: division by zero in (10 / (id - 5))"
        )


class TestTopNBoundPushdown:
    @staticmethod
    def _scan_of(db, sql):
        from repro.sqlengine.parser import parse_select

        plan = db.planner.prepare(parse_select(sql))
        op = plan._root

        def find(node, cls):
            while node is not None and not isinstance(node, cls):
                node = getattr(node, "_child", None)
            return node

        return find(op, physical.BatchTopNOp), find(op, physical.BatchScanOp)

    @staticmethod
    def _db():
        db = Database()
        db.execute("CREATE TABLE t (id INT, v REAL)")
        db.execute(
            "INSERT INTO t VALUES " + ", ".join(
                f"({i}, {i * 1.5})" for i in range(300)
            )
        )
        return db

    def test_plain_column_key_connects(self):
        topn, scan = self._scan_of(
            self._db(), "SELECT id, v FROM t WHERE v > 10 ORDER BY v DESC LIMIT 5"
        )
        assert topn._bound_cell is not None
        assert scan._bound_cell is topn._bound_cell

    def test_expression_key_bails(self):
        topn, scan = self._scan_of(
            self._db(), "SELECT id FROM t ORDER BY v * 2 LIMIT 5"
        )
        assert topn._bound_cell is None
        assert scan._bound_cell is None

    def test_unsafe_projection_bails(self):
        # 100 / id can raise for rows the bound would have dropped
        topn, scan = self._scan_of(
            self._db(), "SELECT 100 / id FROM t ORDER BY v LIMIT 5"
        )
        assert topn._bound_cell is None
        assert scan._bound_cell is None

    def test_explain_analyze_connects_through_its_shims(self):
        from repro.sqlengine.parser import parse_select

        db = self._db()
        plan, __ = db.planner.prepare_instrumented(
            parse_select("SELECT id, v FROM t ORDER BY v DESC LIMIT 5")
        )
        topn = physical._unwrapped(plan._root)
        scan = physical._chain_parts(topn._child._inner._child)[0]
        # the instrumented plan is the plan that executes: same pushdown
        assert topn._bound_cell is not None
        assert scan._bound_cell is topn._bound_cell


class TestTopNBoundConjunct:
    """The bound is one more generated conjunct: it keeps ties.

    Named mutant: a conjunct that drops rows *equal* to the bound
    (``<=`` where the sort order needs ``<``).  ``x = i % 3`` makes the
    first batch's bound the leading key's extreme; rows tied with it in
    later batches win on the secondary ``id DESC``, so dropping a tie
    changes the answer in both directions.
    """

    @staticmethod
    def _db():
        db = Database(config=EngineConfig(segment_rows=256))
        db.create_table("f", [("id", "INT"), ("x", "REAL")])
        db.insert_rows("f", [(i, float(i % 3)) for i in range(3000)])
        return db

    @pytest.mark.parametrize(
        "sql, expected",
        [
            (
                "SELECT id, x FROM f ORDER BY x DESC, id DESC LIMIT 3",
                [(2999, 2.0), (2996, 2.0), (2993, 2.0)],
            ),
            (
                "SELECT id, x FROM f WHERE x < 2 ORDER BY x, id DESC LIMIT 3",
                [(2997, 0.0), (2994, 0.0), (2991, 0.0)],
            ),
        ],
        ids=["descending", "ascending"],
    )
    def test_a_tie_on_the_leading_key_survives(self, sql, expected):
        db = self._db()
        assert db.execute(sql).rows == expected
        assert reference_execute(db, sql).rows == expected

    def test_a_null_bound_keeps_only_null_and_nan_keys(self):
        db = Database()
        db.create_table("f", [("id", "INT"), ("x", "REAL")])
        rows = [(i, float(i)) for i in range(2048)]
        rows[5], rows[9], rows[1500] = (5, None), (9, float("nan")), (1500, None)
        db.insert_rows("f", rows)
        sql = "SELECT id FROM f ORDER BY x, id DESC LIMIT 2"
        filtered = registry().counter("engine.rows_filtered")
        before = filtered.value
        # NaN sorts as NULL: three NULL-ish keys, the two latest ids win
        assert db.execute(sql).rows == [(1500,), (9,)]
        assert reference_execute(db, sql).rows == [(1500,), (9,)]
        # the second batch runs under the NULL bound: of its 1024 rows
        # only the NULL survives the conjunct
        assert filtered.value - before == 1023

    def test_the_bound_is_a_parameter_of_the_fused_filter(self):
        db = self._db()
        plan = db.planner.prepare(
            parse_select("SELECT id, x FROM f WHERE x > 3 ORDER BY x DESC LIMIT 3")
        )
        scan = plan._root
        while not isinstance(scan, physical.BatchScanOp):
            scan = scan._child
        assert scan._bound_filters == {}  # generated once the bound arms
        fused = scan._filter_under(9.5)
        assert fused.source.count("def ") == 1 and "_b" in fused.source
        assert not hasattr(physical, "_apply_topn_bound")


class TestFusedGrouping:
    """GROUP BY directly above a scan runs in the scan's generated loop.

    The locks are counters and plan text, not clocks: what a fused
    aggregate moves, what EXPLAIN / EXPLAIN ANALYZE show, and each
    guarantee the batch path gave that the loop keeps (per-batch
    deadline checks, pins, zone skips, group order and representative
    rows, exact sums).
    """

    GROUPBY = (
        "SELECT g, count(*), min(q), max(x), sum(x), avg(q) FROM f "
        "WHERE q >= 10 GROUP BY g ORDER BY g"
    )
    #: the same query on the batch path (HAVING is never fused)
    BATCH_PATH = GROUPBY.replace("GROUP BY g", "GROUP BY g HAVING count(*) > 0")
    #: join-fed, like the ledger's headline: the build scan folds it
    HEADLINE = (
        "SELECT d.region, count(*), sum(f.x) FROM f, d "
        "WHERE f.q = d.id GROUP BY d.region"
    )
    COUNTERS = (
        "engine.rows_scanned", "engine.rows_filtered",
        "engine.agg_rows_gathered",
    )

    @staticmethod
    def _db(segment_rows=256):
        db = Database(config=EngineConfig(segment_rows=segment_rows))
        db.create_table(
            "f", [("id", "INT"), ("g", "TEXT"), ("q", "INT"), ("x", "REAL")]
        )
        db.create_table("d", [("id", "INT"), ("region", "TEXT")])
        db.insert_rows("d", [(i, f"r{i % 3}") for i in range(8)])
        db.insert_rows(
            "f", [(i, "abcd"[i % 4], i % 50, float(i % 97)) for i in range(3000)]
        )
        return db

    def _moved(self, db, sql):
        counters = [registry().counter(name) for name in self.COUNTERS]
        before = [counter.value for counter in counters]
        rows = db.execute(sql).rows
        assert repr(rows) == repr(reference_execute(db, sql).rows), sql
        return [counter.value - b for counter, b in zip(counters, before)]

    @staticmethod
    def _aggregate(db, sql):
        operator = db.planner.prepare(parse_select(sql))._root
        while not isinstance(operator, physical.BatchAggregateOp):
            operator = operator._child
        return operator

    def test_counters(self):
        db = self._db()
        assert self._aggregate(db, self.GROUPBY)._fold is not None
        assert self._aggregate(db, self.BATCH_PATH)._fold is None
        # scanned and filtered as the batch path; nothing gathered
        assert self._moved(db, self.GROUPBY) == [3000, 600, 0]
        assert self._moved(db, self.BATCH_PATH) == [3000, 600, 2400]
        # join-fed: nothing gathered; with HAVING (the batch path) the
        # join's 480 output rows feed the accumulators
        assert self._moved(db, self.HEADLINE) == [3008, 0, 0]
        having = self.HEADLINE + " HAVING count(*) > 0"
        assert self._moved(db, having) == [3008, 0, 480]

    def test_explain_text_is_unchanged(self):
        assert self._db().explain(self.GROUPBY) == (
            "sort by g\n"
            "└─ project g, count(*), min(q), max(x), sum(x), avg(q)\n"
            "   └─ aggregate group by g [~10 rows]\n"
            "      └─ scan f as f (3000 rows) filter: (q >= 10) [~2352 rows]"
            " [cols: g, q, x]"
        )

    def test_explain_analyze_counts_the_filtered_scan(self):
        text = self._db().explain(self.GROUPBY, analyze=True)
        actuals = [
            re.search(r"actual rows=(\d+), batches=(\d+)", line).groups()
            for line in text.splitlines()
        ]
        # sort, project, aggregate: the 4 groups; scan: its survivors
        assert actuals == [
            ("4", "1"), ("4", "1"), ("4", "1"), ("2400", "3"),
        ]

    def test_groups_representatives_and_sums(self):
        db = Database()
        db.create_table("t", [("g", "INT"), ("v", "REAL"), ("tag", "TEXT")])
        db.insert_rows("t", [
            (2, 0.1, "first-2"), (1, -0.0, "first-1"), (2, 0.2, "x"),
            (1, -0.0, "y"), (3, 1e16, "first-3"), (3, 1.0, "z"),
            (3, -1e16, "w"),
        ])
        sql = "SELECT g, tag, sum(v), avg(v), count(v) FROM t GROUP BY g"
        assert self._aggregate(db, sql)._fold is not None
        rows = db.execute(sql).rows
        # first-occurrence order, the first row's tag, exact sums
        assert repr(rows) == repr([
            (2, "first-2", 0.30000000000000004, 0.15000000000000002, 2),
            (1, "first-1", -0.0, 0.0, 2),
            (3, "first-3", 1.0, 1 / 3, 3),
        ])
        assert repr(rows) == repr(reference_execute(db, sql).rows)

    def test_deadline_is_checked_per_batch(self):
        db = self._db(segment_rows=3)
        checks = []

        def clock():
            checks.append(None)
            return 0.0

        with deadline_scope(Deadline(10_000, clock=clock)):
            db.execute(self.GROUPBY)
        # one clock read when the deadline starts, then one per batch
        assert len(checks) == 1 + 3
        late = iter([0.0, 5.0]).__next__  # spent at the first batch
        with deadline_scope(Deadline(1, clock=late)):
            with pytest.raises(DeadlineExceeded, match="at scan"):
                db.execute(self.GROUPBY)

    def test_reads_its_pin(self):
        db = self._db()
        plan = db.planner.prepare(parse_select(self.GROUPBY))
        expected = db.execute(self.GROUPBY).rows
        with db.planner._pin_scope(plan):
            db.insert_rows("f", [(9000 + i, "a", 20, 1.0) for i in range(50)])
            assert plan.execute().rows == expected
        assert db.execute(self.GROUPBY).rows != expected

    def test_zone_skips_still_apply(self):
        db = self._db()
        sql = "SELECT g, count(*), sum(x) FROM f WHERE id < 100 GROUP BY g"
        assert self._aggregate(db, sql)._fold is not None
        skipped = registry().counter("engine.segments_skipped")
        before = skipped.value
        # [1024, 2048) lies in frozen segments past id 100; the batch
        # reaching the delta is read — as on the batch path
        assert self._moved(db, sql) == [1976, 1876, 0]
        assert skipped.value - before == 4
        having = sql + " HAVING count(*) > 0"
        assert self._moved(db, having) == [1976, 1876, 100]

    def test_a_large_statement_folds_in_the_scan(self):
        # 40 aggregates over compound arguments: one generated loop,
        # nothing gathered, the reference's answer
        calls = ", ".join(
            f"sum(CASE WHEN q BETWEEN {k} AND {k + 9} OR x > {k} AND "
            f"x < {k + 50} AND q <> {k} THEN x * {k} + q ELSE q - {k} * x END)"
            for k in range(40)
        )
        sql = f"SELECT g, {calls} FROM f GROUP BY g"
        db = self._db()
        assert self._aggregate(db, sql)._fold is not None
        assert self._moved(db, sql)[2] == 0


class TestPlainColumns:
    """Every column is a plain value list: exact Python types, NULL as
    ``None``, and one DML path that edits the list in place."""

    @staticmethod
    def _db(**kwargs):
        db = Database(config=EngineConfig(**kwargs))
        db.execute("CREATE TABLE t (id INT, q INT, d REAL)")
        return db

    def test_round_trips_exact_python_types(self):
        db = self._db()
        db.insert_rows(
            "t", [(1, 0, 1.5), (2, -5, -0.0), (3, 2**62, None)]
        )
        rows = db.execute("SELECT q, d FROM t ORDER BY id").rows
        assert rows == [(0, 1.5), (-5, -0.0), (2**62, None)]
        assert all(type(q) is int for q, __ in rows)
        assert repr([d for __, d in rows]) == "[1.5, -0.0, None]"

    def test_nulls_are_not_zeros(self):
        db = self._db()
        db.insert_rows(
            "t", [(1, None, None), (2, 7, 0.0), (3, None, None), (4, 0, 0.0)]
        )
        column = db.table("t").column_data(1)
        assert column == [None, 7, None, 0]
        assert column.count(None) == 2 and column.count(0) == 1
        assert db.execute(
            "SELECT count(q), count(*) FROM t WHERE q = 0 OR q IS NULL"
        ).rows == [(1, 3)]

    def test_update_and_delete_paths(self):
        db = self._db()
        db.insert_rows("t", [(i, i, float(i)) for i in range(6)])
        db.execute("UPDATE t SET q = NULL WHERE id = 2")
        db.execute("UPDATE t SET q = 99 WHERE id = 3")
        column = db.table("t").column_data(1)
        assert column == [0, 1, None, 99, 4, 5]
        db.execute("DELETE FROM t WHERE q = 99")
        assert db.table("t").column_data(1) == [0, 1, None, 4, 5]
        assert db.row_count("t") == 5

    def test_integers_beyond_int64(self):
        db = self._db()
        db.insert_rows("t", [(1, 1, None), (2, None, None), (3, 2**70, None)])
        db.execute(f"UPDATE t SET q = {2**80} WHERE id = 1")
        assert db.table("t").column_data(1) == [2**80, None, 2**70]
        assert db.execute("SELECT max(q), sum(q) FROM t").rows == [
            (2**80, 2**80 + 2**70)
        ]

    def test_default_database_keeps_plain_lists(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        assert isinstance(db.table("t").column_data(0), list)

    def test_every_layout_keeps_plain_lists(self):
        db = Database(config=EngineConfig(segment_rows=2))
        db.execute("CREATE TABLE t (id INT, x REAL, s TEXT)")
        db.insert_rows("t", [(i, i / 2, f"s{i % 2}") for i in range(7)])
        table = db.table("t")
        assert type(table.pin().column_slice(2, 0, 7)) is list
        assert all(type(table.column_data(i)) is list for i in range(3))
        assert snapshot_rows(table.pin()) == table.rows


class TestEngineKnobs:
    def test_explain_has_no_parallel_marker(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert "[parallel" not in db.explain("SELECT count(*) FROM t")
        assert "[parallel" not in db.explain(
            "SELECT count(*) FROM t", analyze=True
        )

    def test_no_parallel_metrics(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("SELECT count(*), sum(id) FROM t WHERE id >= 0")
        metrics = db.metrics()
        assert "engine.batches_produced" in metrics
        assert "engine.parallel_workers" not in metrics
        assert "engine.morsels_dispatched" not in metrics
