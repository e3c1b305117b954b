"""LEFT JOIN null-side pushdown, checked against an external oracle.

The optimizer moves an ON conjunct that only filters the
null-supplying (right) side into that side's scan.  Every shape below
runs at 3 and 64 rows per segment and is compared with stdlib
``sqlite3`` loaded from the same rows (``sqlite_oracle``): a wrong
pushdown —
a left-only conjunct filtering the left input, say — drops rows the
join must pad, and sqlite disagrees.  A maybe-raising conjunct must
stay in the condition, with the same error text in every layout.
"""

import pytest

from repro.errors import SqlError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner.logical import LogicalLeftJoin

from tests.sqlengine.sqlite_oracle import load, normalized

SCHEMA = {
    "d": [("id", "INTEGER"), ("k", "INTEGER"), ("w", "REAL"), ("tag", "TEXT")],
    "f": [
        ("id", "INTEGER"), ("dim_id", "INTEGER"), ("amount", "REAL"),
        ("qty", "INTEGER"), ("note", "TEXT"),
    ],
    "g": [("id", "INTEGER"), ("fid", "INTEGER"), ("v", "INTEGER")],
}


def _rows():
    d = [
        (i, None if i % 11 == 5 else i % 13, None if i % 7 == 3 else i / 4,
         None if i % 9 == 1 else f"t{i % 3}")
        for i in range(40)
    ]
    f = [
        (i, None if i % 17 == 4 else i % 13,
         None if i % 10 == 7 else float(i * 37 % 100),
         None if i % 23 == 9 else i % 6, f"n{i % 5}")
        for i in range(300)
    ]
    g = [(i, i * 7 % 300, i % 5) for i in range(120)]
    return {"d": d, "f": f, "g": g}


ROWS = _rows()

CONFIGS = {
    "batch-seg3": EngineConfig(segment_rows=3),
    "batch-seg64": EngineConfig(segment_rows=64),
}


def make_db(config: EngineConfig) -> Database:
    db = Database(config=config)
    for name, columns in SCHEMA.items():
        db.create_table(name, columns)
        db.insert_rows(name, ROWS[name])
    return db


@pytest.fixture(scope="module")
def dbs():
    return {name: make_db(config) for name, config in CONFIGS.items()}


@pytest.fixture(scope="module")
def oracle(dbs):
    conn = load(dbs["batch-seg3"])
    yield conn
    conn.close()


# (sql, ON conjuncts expected in the right scan of the *last* LEFT JOIN)
CORPUS = {
    "right-only": (
        "SELECT d.id, f.id FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND f.amount > 50",
        ["(f.amount > 50)"],
    ),
    "left-only": (
        "SELECT d.id, f.id FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND d.w > 2.5",
        [],
    ),
    "cross-side-residual": (
        "SELECT d.id, f.id, f.amount FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND f.amount > d.w * 10 "
        "AND f.qty < 4",
        ["(f.qty < 4)"],
    ),
    "whole-condition-right-only": (
        "SELECT d.id, f.id FROM d LEFT JOIN f ON f.amount > 96 AND f.qty = 2",
        ["(f.amount > 96)", "(f.qty = 2)"],
    ),
    "no-right-row-survives": (
        "SELECT d.id, f.id FROM d LEFT JOIN f ON f.amount > 1000",
        ["(f.amount > 1000)"],
    ),
    "unqualified": (
        "SELECT d.id, f.id FROM d "
        "LEFT JOIN f ON dim_id = k AND amount < 30 AND tag <> 't1'",
        ["(amount < 30)"],
    ),
    "ambiguous-stays": (
        "SELECT d.id, f.id FROM d LEFT JOIN f ON f.dim_id = d.k AND id < 9",
        None,  # `id` is in d and f: the whole statement is an error
    ),
    "two-chained": (
        "SELECT d.id, f.id, g.id FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND f.amount >= 40 "
        "LEFT JOIN g ON g.fid = f.id AND g.v < 3",
        ["(g.v < 3)"],
    ),
    "right-nulls": (
        "SELECT d.id, f.id, f.amount FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND f.amount IS NULL",
        ["(f.amount IS NULL)"],
    ),
    "anti-join": (
        "SELECT d.id FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND f.qty > 4 WHERE f.id IS NULL",
        ["(f.qty > 4)"],
    ),
    "where-after-pushdown": (
        "SELECT d.id, f.id FROM d LEFT JOIN f ON f.dim_id = d.k "
        "AND f.note = 'n3' WHERE d.id < 20 AND (f.qty IS NULL OR f.qty > 1)",
        ["(f.note = 'n3')"],
    ),
}


def right_scan_predicates(db: Database, sql: str) -> list:
    plan = db.planner.prepare(parse_select(sql)).logical
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalLeftJoin):
            return [p.to_sql() for p in node.right.predicates]
        stack.extend(node.children())
    raise AssertionError("no LEFT JOIN in plan")  # pragma: no cover


def outcome(db: Database, sql: str):
    try:
        return "rows", normalized(db.execute(sql).rows)
    except SqlError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("shape", sorted(CORPUS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_matches_sqlite(shape, config, dbs, oracle):
    sql, __ = CORPUS[shape]
    db = dbs[config]
    if CORPUS[shape][1] is None:
        with pytest.raises(SqlError, match="ambiguous"):
            db.execute(sql)
        return
    expected = normalized(oracle.execute(sql).fetchall())
    assert outcome(db, sql) == ("rows", expected)


@pytest.mark.parametrize(
    "shape", sorted(s for s, (__, pushed) in CORPUS.items() if pushed is not None)
)
def test_pushed_conjuncts(shape, dbs):
    sql, pushed = CORPUS[shape]
    for db in dbs.values():
        assert right_scan_predicates(db, sql) == pushed


def test_left_only_conjunct_stays_in_condition(dbs):
    sql = CORPUS["left-only"][0]
    rendered = dbs["batch-seg3"].explain(sql)
    assert "left join f on ((f.dim_id = d.k) AND (d.w > 2.5))" in rendered
    assert "scan d as d (40 rows) [" in rendered  # d is not filtered


MAYBE_RAISING = [
    "SELECT d.id, f.id FROM d LEFT JOIN f ON f.dim_id = d.k AND 1 / f.qty > 0",
    "SELECT d.id, f.id FROM d LEFT JOIN f "
    "ON f.dim_id = d.k AND f.amount > 50 AND 1 / f.qty > 0",
]


@pytest.mark.parametrize("sql", MAYBE_RAISING)
def test_maybe_raising_conjunct_stays(sql, dbs):
    outcomes = {name: outcome(db, sql) for name, db in dbs.items()}
    kinds = {kind for kind, __ in outcomes.values()}
    assert kinds == {"error"}, outcomes
    assert len({text for __, text in outcomes.values()}) == 1, outcomes
    assert "division by zero" in next(iter(outcomes.values()))[1]
    for db in dbs.values():
        # nothing moves: evaluating fewer pairs could hide the error
        assert right_scan_predicates(db, sql) == []
