"""Vectorized SET evaluation: row/batch parity and the safety analyzer.

Batch mode evaluates SET lists assignment-major (column-at-a-time);
row mode evaluates row-major.  The two orders surface *different*
first errors when two assignments can both raise, so the batch path is
gated on :func:`repro.sqlengine.dml._never_raises` proving that at
most one assignment is fallible.  These tests lock the parity — byte-
identical results AND identical error behaviour — and pin the
analyzer's verdicts on representative expressions.
"""

import pytest

from repro.errors import SqlExecutionError
from repro.sqlengine.ast_nodes import Update
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.dml import _never_raises
from repro.sqlengine.parser import parse_sql

SEED = [
    "CREATE TABLE t (id INT PRIMARY KEY, n INT, x REAL, s TEXT, "
    "d DATE, b BOOLEAN)",
    "INSERT INTO t VALUES "
    "(1, 5, 1.5, 'alpha', DATE '2024-01-10', TRUE), "
    "(2, NULL, 2.5, 'beta', DATE '2024-06-01', FALSE), "
    "(3, 7, NULL, NULL, NULL, NULL), "
    "(4, 0, 4.5, 'delta gamma', DATE '2023-12-31', TRUE)",
]

PARITY_UPDATES = [
    "UPDATE t SET n = n + 1",
    "UPDATE t SET x = x * 2.0, n = n - 1 WHERE id < 4",
    "UPDATE t SET s = lower(s) || '!'",
    "UPDATE t SET s = upper(coalesce(s, 'none')), b = n > 3",
    "UPDATE t SET n = length(coalesce(s, '')), x = abs(x)",
    "UPDATE t SET n = year(d), x = x / 4 WHERE d IS NOT NULL",
    "UPDATE t SET b = s LIKE 'a%' OR b",
    "UPDATE t SET n = -n, b = NOT b WHERE id = 1",
    "UPDATE t SET x = n / n WHERE id = 1",  # fallible, but only one
]


def make_db(mode: str) -> Database:
    db = Database(config=EngineConfig(execution_mode=mode))
    for sql in SEED:
        db.execute(sql)
    return db


def table_state(db: Database):
    t = db.table("t")
    columns = [t.column_data(i) for i in range(len(t.columns))]
    return list(t.rows), [list(c) for c in columns]


class TestParity:
    @pytest.mark.parametrize("sql", PARITY_UPDATES)
    def test_row_and_batch_identical(self, sql):
        row_db, batch_db = make_db("row"), make_db("batch")
        row_result = row_db.execute(sql)
        batch_result = batch_db.execute(sql)
        assert row_result.rowcount == batch_result.rowcount
        assert table_state(row_db) == table_state(batch_db)

    def test_error_parity_single_fallible_assignment(self):
        """Division by a zero column value fails identically in both modes
        and leaves the table untouched (statement atomicity)."""
        outcomes = {}
        for mode in ("row", "batch"):
            db = make_db(mode)
            before = table_state(db)
            with pytest.raises(SqlExecutionError) as excinfo:
                db.execute("UPDATE t SET x = 1.0 / n")
            assert table_state(db) == before
            outcomes[mode] = str(excinfo.value)
        assert outcomes["row"] == outcomes["batch"]

    def test_two_fallible_assignments_fall_back_to_row_order(self):
        """With two fallible SETs, batch mode must surface the *row-major*
        first error — the one row mode reports."""
        outcomes = {}
        for mode in ("row", "batch"):
            db = make_db(mode)
            # row 1: x/n fine (n=5), n/x fine; row 2: n NULL -> x/n is
            # NULL (no error), n/x fine; row 4: n=0 -> second SET n/x
            # fine but first SET x/n divides by zero.  Row-major hits
            # the row-4 first-assignment error; assignment-major would
            # have hit it in a different evaluation sequence.
            with pytest.raises(SqlExecutionError) as excinfo:
                db.execute("UPDATE t SET x = x / n, n = n / x")
            outcomes[mode] = str(excinfo.value)
        assert outcomes["row"] == outcomes["batch"]


class TestNeverRaisesAnalyzer:
    @pytest.mark.parametrize(
        "set_expr,expected",
        [
            ("n + 1", True),
            ("n * n - 2", True),
            ("x / 2.0", True),
            ("x / 0", False),  # literal zero divisor
            ("x / n", False),  # column divisor may be zero
            ("n + x", True),
            ("n + s", False),  # num + str raises
            ("s || s", True),  # concat tolerates NULL
            ("s || n", True),  # concat stringifies
            ("lower(s)", True),
            ("lower(n)", False),  # wrong arg class
            ("length(s)", True),
            ("abs(x)", True),
            ("abs(s)", False),
            ("year(d)", True),
            ("year(s)", False),  # would parse the string
            ("coalesce(s, 'x')", True),
            ("coalesce()", False),
            ("n = n", True),
            ("d = s", False),  # date-vs-string comparison parses
            ("d < d", True),
            ("s LIKE 'a%'", True),
            ("s LIKE s", False),  # non-literal pattern
            ("n LIKE 'a%'", False),  # non-string operand
            ("-n", True),
            ("-s", False),
            ("NOT b", True),
            ("b AND b OR n > 3", True),
            ("n IS NULL", True),
        ],
    )
    def test_verdicts(self, set_expr, expected):
        db = make_db("row")
        statement = parse_sql(f"UPDATE t SET n = {set_expr}")
        assert isinstance(statement, Update)
        value = statement.assignments[0].value
        assert _never_raises(value, db.table("t")) is expected
