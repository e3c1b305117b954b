"""Tests for UNION, CASE WHEN and EXPLAIN."""

import pytest

from repro.errors import SqlError, SqlSyntaxError
from repro.sqlengine.database import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (id INT, name TEXT)")
    database.execute("CREATE TABLE b (id INT, name TEXT)")
    database.execute("INSERT INTO a VALUES (1, 'x'), (2, 'y')")
    database.execute("INSERT INTO b VALUES (2, 'y'), (3, 'z')")
    return database


class TestUnion:
    def test_union_deduplicates(self, db):
        rs = db.execute(
            "SELECT name FROM a UNION SELECT name FROM b"
        )
        assert sorted(rs.column("name")) == ["x", "y", "z"]

    def test_union_all_keeps_duplicates(self, db):
        rs = db.execute(
            "SELECT name FROM a UNION ALL SELECT name FROM b"
        )
        assert sorted(rs.column("name")) == ["x", "y", "y", "z"]

    def test_columns_from_first_branch(self, db):
        rs = db.execute("SELECT id AS k FROM a UNION SELECT id FROM b")
        assert rs.columns == ["k"]

    def test_three_way_union(self, db):
        rs = db.execute(
            "SELECT id FROM a UNION SELECT id FROM b UNION SELECT id FROM a"
        )
        assert sorted(rs.column("id")) == [1, 2, 3]

    def test_width_mismatch_raises(self, db):
        from repro.errors import SqlExecutionError

        with pytest.raises(SqlExecutionError):
            db.execute("SELECT id FROM a UNION SELECT id, name FROM b")

    def test_mixed_union_union_all_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute(
                "SELECT id FROM a UNION SELECT id FROM b "
                "UNION ALL SELECT id FROM a"
            )

    def test_union_roundtrip_sql(self, db):
        from repro.sqlengine.parser import parse_sql

        stmt = parse_sql("SELECT id FROM a UNION ALL SELECT id FROM b")
        assert "UNION ALL" in stmt.to_sql()

    def test_execute_union_runs_each_branch_on_the_given_planner(self, db):
        from repro.sqlengine.database import execute_union
        from repro.sqlengine.parser import parse_sql
        from repro.sqlengine.planner import QueryPlanner

        planner = QueryPlanner(db.catalog)
        ran = []

        class Recording:
            def execute(self, select):
                ran.append(select)
                return planner.execute(select)

        union = parse_sql("SELECT name FROM a UNION SELECT name FROM b")
        result = execute_union(union, Recording())
        assert ran == list(union.selects)
        assert result.columns == ["name"]
        assert result.rows == [("x",), ("y",), ("z",)]  # first-seen order


class TestCaseWhen:
    def test_simple_case(self, db):
        rs = db.execute(
            "SELECT CASE WHEN id = 1 THEN 'one' ELSE 'many' END AS label "
            "FROM a ORDER BY id"
        )
        assert rs.column("label") == ["one", "many"]

    def test_case_without_else_is_null(self, db):
        rs = db.execute(
            "SELECT CASE WHEN id > 99 THEN 'big' END FROM a"
        )
        assert rs.rows == [(None,), (None,)]

    def test_multiple_branches_first_wins(self, db):
        rs = db.execute(
            "SELECT CASE WHEN id > 0 THEN 'pos' WHEN id > 1 THEN 'big' "
            "ELSE 'neg' END FROM a WHERE id = 2"
        )
        assert rs.rows == [("pos",)]

    def test_case_in_where(self, db):
        rs = db.execute(
            "SELECT id FROM a WHERE "
            "CASE WHEN name = 'x' THEN 1 ELSE 0 END = 1"
        )
        assert rs.rows == [(1,)]

    def test_case_with_aggregate_argument(self, db):
        rs = db.execute(
            "SELECT sum(CASE WHEN id > 1 THEN 1 ELSE 0 END) FROM a"
        )
        assert rs.rows == [(1,)]

    def test_case_requires_when(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT CASE ELSE 1 END FROM a")

    def test_case_to_sql_roundtrip(self, db):
        from repro.sqlengine.parser import parse_select

        sql = parse_select(
            "SELECT CASE WHEN id = 1 THEN 'one' ELSE 'x' END FROM a"
        ).to_sql()
        parse_select(sql)


class TestExplain:
    def test_scan_with_pushdown(self, db):
        plan = db.explain("SELECT * FROM a WHERE a.name = 'x'")
        assert "scan a as a (2 rows) filter: (a.name = 'x')" in plan

    def test_pushdown_of_unqualified_predicate(self, db):
        plan = db.explain("SELECT * FROM a WHERE name = 'x'")
        assert "filter: (name = 'x')" in plan

    def test_hash_join_reported(self, db):
        plan = db.explain("SELECT * FROM a, b WHERE a.id = b.id")
        assert "hash join b on (a.id = b.id)" in plan

    def test_cross_join_reported(self, db):
        plan = db.explain("SELECT * FROM a, b")
        assert "cross join b" in plan

    def test_aggregate_and_sort_reported(self, db):
        plan = db.explain(
            "SELECT count(*), name FROM a GROUP BY name "
            "ORDER BY count(*) DESC LIMIT 3"
        )
        assert "aggregate group by name" in plan
        # ORDER BY + LIMIT fuse into one bounded-heap TOP-N operator
        assert "top-n 3 by count(*) DESC" in plan

    def test_left_join_reported(self, db):
        plan = db.explain("SELECT * FROM a LEFT JOIN b ON a.id = b.id")
        assert "left join b" in plan

    def test_union_explain(self, db):
        plan = db.explain("SELECT id FROM a UNION SELECT id FROM b")
        assert "union" in plan
        assert plan.count("scan") == 2

    def test_explain_rejects_insert(self, db):
        with pytest.raises(SqlError):
            db.explain("INSERT INTO a VALUES (9, 'q')")

    def test_explain_generated_soda_sql(self, soda):
        # every statement SODA generates must be explainable
        result = soda.search("private customers family name", execute=False)
        plan = soda.warehouse.database.explain(result.best.sql)
        assert "hash join" in plan
