"""EXPLAIN ANALYZE: per-operator actuals.

The instrumented run must (a) report actual rows and batches on every
operator line, (b) leave the optimizer's estimates untouched relative
to plain EXPLAIN, (c) never leak instrumented plans into the plan
cache, and (d) return the same results as an uninstrumented execution.
"""

import re

import pytest

from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select

#: an aggregate run inside a scan's loop also names the scan
ACTUAL = re.compile(r" \(actual rows=(\d+), batches=(\d+), "
                    r"(?:folded into scan \w+, )?self=\d+\.\d{3}ms\)")


def make_db():
    db = Database()
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
    """``[(actual rows, batches), ...]`` per plan line."""
    out = []
    for line in rendered.splitlines():
        match = ACTUAL.search(line)
        assert match is not None, f"missing actuals on line: {line!r}"
        out.append((int(match.group(1)), int(match.group(2))))
    return out


class TestExplainAnalyze:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_operator_reports_actuals(self, sql):
        rendered = make_db().explain(sql, analyze=True)
        assert actual_rows(rendered)  # one entry per operator line

    @pytest.mark.parametrize("sql", QUERIES)
    def test_estimates_match_plain_explain(self, sql):
        db = make_db()
        plain = db.explain(sql)
        analyzed = db.explain(sql, analyze=True)
        assert "(actual" not in plain
        assert ACTUAL.sub("", analyzed) == plain

    def test_root_actual_rows_match_result_set(self):
        db = make_db()
        sql = QUERIES[2]
        result = db.execute(sql)
        analyzed = db.explain(sql, analyze=True)
        root_rows = actual_rows(analyzed)[0][0]
        assert root_rows == len(result.rows)

    def test_instrumented_plans_never_enter_the_cache(self):
        db = make_db()
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
        db = make_db()
        sql = QUERIES[1]
        before = db.execute(sql)
        db.explain(sql, analyze=True)
        after = db.execute(sql)
        assert after.columns == before.columns
        assert after.rows == before.rows

    def test_union_branches_are_analyzed(self):
        db = make_db()
        sql = (
            "SELECT id FROM facts WHERE amount > 495 "
            "UNION SELECT id FROM dims WHERE id < 3"
        )
        analyzed = db.explain(sql, analyze=True)
        assert analyzed.count("(actual") >= 2
