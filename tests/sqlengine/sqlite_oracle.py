"""Stdlib ``sqlite3`` as an external oracle for SQL semantics.

:func:`load` copies every table of one of our databases into a fresh
in-memory ``sqlite3`` connection, so both engines answer over the same
rows.  :func:`normalized` is the one documented normalisation shim for
the dialect gaps that are representation, not semantics:

* every number (INTEGER, REAL) compares as a float — sqlite's type
  affinity returns ``3`` where we return ``3.0`` and vice versa;
* BOOLEAN is 0/1 — sqlite has no boolean type and stores TRUE as 1;
* DATE is ISO ``YYYY-MM-DD`` text — sqlite has no date type, and ISO
  text orders and compares like the dates it spells.

``year()`` and ``month()``, which sqlite lacks, are registered on the
connection over that ISO text.  Everything else that differs (integer
division, division by zero, ...) is *not* shimmed: a test records it as
a named deviation that asserts our answer.

Rows are compared in order only when the statement's ORDER BY makes the
order total — every ORDER BY key is an output column (by position, alias
or rendering) and no two of our result rows tie on them; otherwise both
sides are compared sorted.
"""

from __future__ import annotations

import datetime
import sqlite3

from repro.sqlengine.ast_nodes import Literal, Select
from repro.sqlengine.parser import parse_sql

__all__ = ["answer", "load", "normalized", "order_is_total"]


def _to_sqlite(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _date_part(index: int):
    def part(text):
        return None if text is None else int(str(text).split("-")[index])

    return part


def load(db) -> sqlite3.Connection:
    """An in-memory sqlite copy of every table of *db* (rows as stored)."""
    conn = sqlite3.connect(":memory:")
    conn.create_function("year", 1, _date_part(0), deterministic=True)
    conn.create_function("month", 1, _date_part(1), deterministic=True)
    for name in db.table_names():
        table = db.table(name)
        conn.execute(
            f"CREATE TABLE {name} ("
            + ", ".join(
                f"{column.name} {column.sql_type.name}"
                for column in table.columns
            )
            + ")"
        )
        marks = ", ".join("?" for __ in table.columns)
        conn.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(_to_sqlite(value) for value in row) for row in table.rows],
        )
    return conn


def _cell(value):
    if isinstance(value, (int, float)):  # bool included: BOOLEAN as 0/1
        return float(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _sort_key(row) -> tuple:
    return tuple(
        (0,) if value is None else (1, type(value).__name__, value)
        for value in row
    )


def order_is_total(sql: str, columns: list, rows: list) -> bool:
    """Does *sql*'s ORDER BY fix the order of our result *rows*?"""
    statement = parse_sql(sql)
    if not isinstance(statement, Select) or not statement.order_by:
        return False
    keys = []
    for item in statement.order_by:
        expr = item.expr
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            keys.append(expr.value - 1)
        elif expr.to_sql() in columns:  # an alias, a column or an expression
            keys.append(columns.index(expr.to_sql()))
        else:
            return False
    seen = {tuple(row[k] for k in keys) for row in rows}
    return len(seen) == len(rows)


def normalized(rows, ordered: bool = False) -> list:
    """*rows* through the shim; sorted unless *ordered*."""
    out = [tuple(_cell(value) for value in row) for row in rows]
    return out if ordered else sorted(out, key=_sort_key)


def answer(result, conn: sqlite3.Connection, sql: str) -> tuple:
    """``(ours, sqlite's)`` for *sql*, both normalized the same way.

    *result* is our :class:`~repro.sqlengine.results.ResultSet` for it.
    """
    ordered = order_is_total(sql, result.columns, result.rows)
    return (
        normalized(result.rows, ordered),
        normalized(conn.execute(sql).fetchall(), ordered),
    )
