"""Unit tests for fused codegen and the TopN bound pushdown.

Covers the pieces the end-to-end parity corpora exercise only
indirectly: the fused-expression compiler's fuse/refuse decisions (the
engine always fuses; closures remain for what the fuser refuses), the
TopN bound pushdown wiring and the plain-list column store.
"""

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner import physical

from tests.sqlengine.reference_engine import snapshot_rows


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

    @staticmethod
    def _kinds(scan):
        return [kind for kind, __ in scan._filter_stages]

    def test_safe_conjunction_fuses_to_one_stage(self):
        scan = self._scan(
            self._db(), "SELECT id FROM t WHERE x > 3 AND id < 40 AND s = 's1'"
        )
        assert self._kinds(scan) == ["fused"]

    def test_unsafe_conjunct_stays_a_closure(self):
        # division can raise, so it must stay an ordered closure; the
        # safe prefix before it still fuses
        scan = self._scan(
            self._db(), "SELECT id FROM t WHERE x > 3 AND 10 / id > 0"
        )
        assert self._kinds(scan) == ["fused", "closures"]

    def test_fusible_run_after_unfusible_conjunct_fuses(self):
        # the fusible run does not have to be a prefix: conjuncts after
        # an unfusible one still collapse, they just run behind it
        scan = self._scan(
            self._db(),
            "SELECT id FROM t WHERE 10 / id > 0 AND x > 3 AND id < 40",
        )
        assert self._kinds(scan) == ["closures", "fused"]

    def test_string_predicates_fuse_as_plain_comparisons(self):
        scan = self._scan(
            self._db(),
            "SELECT id FROM t WHERE s = 's1' AND s IN ('s2', 's3', 's1')",
        )
        assert self._kinds(scan) == ["fused"]
        db = self._db()
        assert db.execute(
            "SELECT count(*) FROM t WHERE s = 's1' AND s IN ('s2', 's1')"
        ).rows == [(13,)]
        assert db.execute(
            "SELECT count(*) FROM t WHERE s <> 'nope' AND s NOT IN ('s0')"
        ).rows == [(37,)]

    def test_fused_batches_counter_moves(self):
        db = self._db()
        before = db.metrics().get("engine.fused_batches", {}).get("value", 0)
        db.execute("SELECT id FROM t WHERE x > 3 AND id < 40")
        after = db.metrics()["engine.fused_batches"]["value"]
        assert after > before


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
