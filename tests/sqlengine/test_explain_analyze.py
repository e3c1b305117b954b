"""EXPLAIN ANALYZE: per-operator actuals in both execution modes.

The instrumented run must (a) report the same actual row counts from
the volcano and the batch engine, (b) leave the optimizer's estimates
untouched relative to plain EXPLAIN, (c) never leak instrumented plans
into the plan cache, and (d) return the same results as an
uninstrumented execution.
"""

import re

import pytest

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select

ACTUAL = re.compile(r" \(actual rows=(\d+)(?:, batches=(\d+))?, "
                    r"self=\d+\.\d{3}ms\)")


def make_db(mode):
    db = Database(config=EngineConfig(execution_mode=mode))
    db.execute("CREATE TABLE dims (id INT PRIMARY KEY, region TEXT)")
    db.execute(
        "CREATE TABLE facts (id INT PRIMARY KEY, dim_id INT, "
        "amount REAL, status TEXT)"
    )
    db.execute(
        "INSERT INTO dims VALUES "
        + ", ".join(f"({i}, 'region {i % 4}')" for i in range(20))
    )
    db.execute(
        "INSERT INTO facts VALUES "
        + ", ".join(
            f"({i}, {i % 20}, {float(i * 7 % 500)}, "
            f"'{'DONE' if i % 3 == 0 else 'OPEN'}')"
            for i in range(3000)
        )
    )
    return db


QUERIES = [
    "SELECT id FROM facts WHERE amount > 250.0",
    "SELECT status, count(*) FROM facts GROUP BY status ORDER BY status",
    "SELECT d.region, sum(f.amount) FROM facts f, dims d "
    "WHERE f.dim_id = d.id AND f.status = 'DONE' "
    "GROUP BY d.region ORDER BY sum(f.amount) DESC LIMIT 3",
    "SELECT d.region, f.amount FROM dims d "
    "LEFT JOIN facts f ON d.id = f.dim_id AND f.amount > 490 "
    "ORDER BY d.region, f.amount LIMIT 10",
]


def actual_rows(rendered):
    """``[(actual rows, batches or None), ...]`` per plan line."""
    out = []
    for line in rendered.splitlines():
        match = ACTUAL.search(line)
        assert match is not None, f"missing actuals on line: {line!r}"
        batches = match.group(2)
        out.append((int(match.group(1)),
                    None if batches is None else int(batches)))
    return out


class TestExplainAnalyze:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_operator_reports_actuals(self, mode, sql):
        db = make_db(mode)
        rendered = db.explain(sql, analyze=True)
        rows = actual_rows(rendered)
        assert rows  # one entry per operator line
        if mode == "batch":
            assert all(batches is not None for __, batches in rows)
        else:
            assert all(batches is None for __, batches in rows)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_row_and_batch_modes_agree_on_actual_rows(self, sql):
        row_rendered = make_db("row").explain(sql, analyze=True)
        batch_rendered = make_db("batch").explain(sql, analyze=True)
        row_counts = [rows for rows, __ in actual_rows(row_rendered)]
        batch_counts = [rows for rows, __ in actual_rows(batch_rendered)]
        assert row_counts == batch_counts

    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("sql", QUERIES)
    def test_estimates_match_plain_explain(self, mode, sql):
        db = make_db(mode)
        plain = db.explain(sql)
        analyzed = db.explain(sql, analyze=True)
        assert "(actual" not in plain
        assert ACTUAL.sub("", analyzed) == plain

    def test_root_actual_rows_match_result_set(self):
        db = make_db("batch")
        sql = QUERIES[2]
        result = db.execute(sql)
        analyzed = db.explain(sql, analyze=True)
        root_rows = actual_rows(analyzed)[0][0]
        assert root_rows == len(result.rows)

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_instrumented_plans_never_enter_the_cache(self, mode):
        db = make_db(mode)
        sql = QUERIES[0]
        db.explain(sql, analyze=True)
        misses_after_analyze = db.planner.cache.stats.misses
        assert len(db.planner.cache) == 0
        # the next real execution plans from scratch (a cache miss, not
        # a hit on a leaked instrumented plan)
        db.execute(sql)
        assert db.planner.cache.stats.misses == misses_after_analyze + 1
        plan = db.planner.prepare(parse_select(sql))
        assert "Instrumented" not in type(plan._root).__name__

    def test_analyze_execution_leaves_results_unchanged(self):
        db = make_db("batch")
        sql = QUERIES[1]
        before = db.execute(sql)
        db.explain(sql, analyze=True)
        after = db.execute(sql)
        assert after.columns == before.columns
        assert after.rows == before.rows

    def test_union_branches_are_analyzed(self):
        db = make_db("batch")
        sql = (
            "SELECT id FROM facts WHERE amount > 495 "
            "UNION SELECT id FROM dims WHERE id < 3"
        )
        analyzed = db.explain(sql, analyze=True)
        assert analyzed.count("(actual") >= 2
