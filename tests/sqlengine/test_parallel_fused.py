"""Unit tests for PR-7's engine layers.

Covers the pieces the end-to-end parity matrix exercises only
indirectly: the fused-expression compiler's fuse/refuse decisions, the
typed-array column store (NULLs, demotion, the single DML path), the
morsel dispatcher's ordering and error propagation, partial-aggregate
merge, the TopN bound pushdown wiring, and the new engine knobs.
"""

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.config import MAX_PARALLEL_WORKERS, EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.encoding import ArrayColumn
from repro.sqlengine.planner import physical
from repro.sqlengine.planner.parallel import MorselDispatcher


class TestArrayColumn:
    def test_round_trips_exact_python_types(self):
        col = ArrayColumn("q")
        for value in (0, 1, -5, 2**62):
            col.append(value)
        assert list(col) == [0, 1, -5, 2**62]
        assert all(type(v) is int for v in col)
        real = ArrayColumn("d")
        real.append(1.5)
        real.append(-0.0)
        assert repr(real[:]) == "[1.5, -0.0]"

    def test_nulls_via_validity(self):
        col = ArrayColumn("q")
        col.append(None)
        col.append(7)
        col.append(None)
        assert col[0] is None and col[1] == 7 and col[2] is None
        assert col[:] == [None, 7, None]
        assert col.count(None) == 2
        # the NULL placeholder zero must not count as a real zero
        assert col.count(0) == 0
        col.append(0)
        assert col.count(0) == 1

    def test_update_and_delete_paths(self):
        col = ArrayColumn("q")
        for i in range(6):
            col.append(i)
        col[2] = None          # UPDATE to NULL
        col[3] = 99            # UPDATE to a value
        assert col[:] == [0, 1, None, 99, 4, 5]
        col[:] = [v for v in col[:] if v != 99]  # DELETE compaction
        assert col[:] == [0, 1, None, 4, 5]
        assert len(col) == 5

    def test_overflow_demotes_in_place(self):
        col = ArrayColumn("q")
        col.append(1)
        col.append(None)
        alias = col
        col.append(2**70)  # beyond int64: storage becomes a plain list
        assert col.demoted
        assert alias[:] == [1, None, 2**70]
        col.append(None)
        col[0] = 2**80
        assert col[:] == [2**80, None, 2**70, None]

    def test_rejects_unknown_typecode(self):
        with pytest.raises(ValueError, match="typecode"):
            ArrayColumn("f")

    def test_database_opt_in(self):
        db = Database(config=EngineConfig(array_store=True))
        db.execute("CREATE TABLE t (id INT, x REAL, s TEXT)")
        db.execute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, NULL, NULL)")
        table = db.table("t")
        assert isinstance(table.column_data(0), ArrayColumn)
        assert isinstance(table.column_data(1), ArrayColumn)
        assert not isinstance(table.column_data(2), ArrayColumn)
        assert db.execute("SELECT id, x, s FROM t ORDER BY id").rows == [
            (1, 1.5, "a"),
            (2, None, None),
        ]
        # big-int INSERT goes through the same demotion path
        db.execute("INSERT INTO t VALUES (99999999999999999999, 2.0, 'b')")
        assert db.execute("SELECT max(id) FROM t").rows == [
            (99999999999999999999,)
        ]

    def test_default_database_keeps_plain_lists(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        assert isinstance(db.table("t").column_data(0), list)


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

    def test_fused_off_uses_closures_only(self):
        scan = self._scan(
            self._db(fused=False), "SELECT id FROM t WHERE x > 3 AND id < 40"
        )
        assert self._kinds(scan) == ["closures"]
        assert len(scan._filter_stages[0][1]) == 2

    def test_fused_batches_counter_moves(self):
        db = self._db()
        before = db.metrics().get("engine.fused_batches", {}).get("value", 0)
        db.execute("SELECT id FROM t WHERE x > 3 AND id < 40")
        after = db.metrics()["engine.fused_batches"]["value"]
        assert after > before


class TestMorselDispatcher:
    def test_results_in_task_order(self):
        import time

        def make(i):
            def task():
                time.sleep(0.002 * ((i * 7) % 5))  # scramble finish order
                return i

            return task

        dispatcher = MorselDispatcher(4)
        assert list(dispatcher.run_ordered([make(i) for i in range(20)])) \
            == list(range(20))

    def test_earliest_failure_wins(self):
        def ok(i):
            return lambda: i

        def boom():
            raise ValueError("morsel 3 failed")

        dispatcher = MorselDispatcher(4)
        out = []
        with pytest.raises(ValueError, match="morsel 3 failed"):
            for value in dispatcher.run_ordered(
                [ok(0), ok(1), ok(2), boom, ok(4)]
            ):
                out.append(value)
        assert out == [0, 1, 2]

    def test_single_task_runs_inline(self):
        dispatcher = MorselDispatcher(4)
        assert list(dispatcher.run_ordered([lambda: "only"])) == ["only"]


class TestAccumulatorMerge:
    def test_sum_merge_matches_serial(self):
        from repro.sqlengine.functions import make_accumulator

        serial = make_accumulator("sum", False, False)
        parts = [make_accumulator("sum", False, False) for _ in range(3)]
        values = [1, 2.5, -0.0, 10**20, 0.1, None]
        for i, value in enumerate(values):
            serial.add(value)
            parts[i % 3].add(value)
        merged = parts[0]
        merged.merge(parts[1])
        merged.merge(parts[2])
        assert repr(merged.result()) == repr(serial.result())

    def test_distinct_sum_refuses_merge(self):
        from repro.sqlengine.functions import make_accumulator

        left = make_accumulator("sum", False, True)
        right = make_accumulator("sum", False, True)
        left.add(1)
        right.add(2)
        with pytest.raises(SqlExecutionError, match="DISTINCT"):
            left.merge(right)

    def test_count_distinct_merges_as_set_union(self):
        from repro.sqlengine.functions import make_accumulator

        left = make_accumulator("count", False, True)
        right = make_accumulator("count", False, True)
        for value in ("a", "b"):
            left.add(value)
        for value in ("b", "c"):
            right.add(value)
        left.merge(right)
        assert left.result() == 3


class TestTopNBoundPushdown:
    @staticmethod
    def _scan_of(db, sql):
        from repro.sqlengine.parser import parse_select

        plan = db.planner.prepare(parse_select(sql))
        op = plan._root

        def find(node, cls):
            if isinstance(node, cls):
                return node
            for attr in ("_child", "_project", "_chain", "_scan"):
                nxt = getattr(node, attr, None)
                if nxt is not None:
                    found = find(nxt, cls)
                    if found is not None:
                        return found
            return None

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

    def test_explain_analyze_stays_unpruned(self):
        db = self._db()
        text = db.explain(
            "SELECT id, v FROM t ORDER BY v DESC LIMIT 5", analyze=True
        )
        # the scan reports every row: instrumented plans never prune
        assert "rows=300" in text


class TestEngineKnobs:
    def test_invalid_parallel_workers_rejected(self):
        for bad in (0, -1, MAX_PARALLEL_WORKERS + 1, "4", 2.0, True, None):
            with pytest.raises(SqlExecutionError, match="parallel_workers"):
                EngineConfig(parallel_workers=bad)

    def test_invalid_fused_rejected(self):
        for bad in ("yes", 1, None):
            with pytest.raises(SqlExecutionError, match="fused"):
                EngineConfig(fused=bad)

    def test_invalid_array_store_rejected(self):
        with pytest.raises(SqlCatalogError, match="array_store"):
            EngineConfig(array_store="yes")

    def test_parallel_workers_gauge_tracks_knob(self):
        for workers in (3, 5):
            db = Database(config=EngineConfig(parallel_workers=workers))
            gauge = db.metrics()["engine.parallel_workers"]["value"]
            assert gauge == workers

    def test_explain_marks_parallel_scans(self):
        def explain(workers):
            db = Database(config=EngineConfig(parallel_workers=workers))
            db.execute("CREATE TABLE t (id INT)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            return db.explain("SELECT count(*) FROM t")

        assert "[parallel n=4]" in explain(4)
        assert "[parallel" not in explain(1)
