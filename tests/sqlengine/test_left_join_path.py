"""Which path a batch LEFT JOIN compiles to: hash or broadcast.

``_analyze_left_join`` gives a ``BatchLeftJoinOp`` hash keys only when
hashing is byte-identical to the broadcast evaluation, errors included:
INTEGER/TEXT equi keys of one class, plus residuals that can never
raise.  REAL keys (NaN equals every number but never hash-matches),
cross-class keys and maybe-raising residuals keep the broadcast path.
Both paths give the reference interpreter's answer, so parity tests
pass on either; this structure lock is what notices a LEFT JOIN that silently
fell back to broadcast (an O(left x right) evaluation).
"""

import pytest

from repro.errors import SqlError
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner.physical import BatchLeftJoinOp

from tests.sqlengine.reference_engine import reference_execute

SCHEMA = {
    "d": [("id", "INT"), ("k", "INT"), ("w", "REAL"), ("tag", "TEXT")],
    "f": [
        ("id", "INT"), ("dim_id", "INT"), ("amount", "REAL"),
        ("qty", "INT"), ("note", "TEXT"),
    ],
}

ROWS = {
    "d": [
        (i, None if i % 11 == 5 else i % 13, i / 4, f"t{i % 3}")
        for i in range(40)
    ],
    "f": [
        (i, i % 13, float(i * 37 % 100), i % 6, f"t{i % 4}")
        for i in range(300)
    ],
}

HASH = {
    "int-key": "SELECT d.id, f.id FROM d LEFT JOIN f ON f.dim_id = d.k",
    "text-key": "SELECT d.id, f.id FROM d LEFT JOIN f ON f.note = d.tag",
    "key-and-safe-residual": (
        "SELECT d.id, f.id FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND f.amount > d.w"
    ),
}

BROADCAST = {
    "real-key": "SELECT d.id, f.id FROM d LEFT JOIN f ON f.amount = d.w",
    "cross-class-key": (
        "SELECT d.id, f.id FROM d LEFT JOIN f ON f.dim_id = d.tag"
    ),
    "maybe-raising-residual": (
        "SELECT d.id, f.id FROM d "
        "LEFT JOIN f ON f.dim_id = d.k AND 10 / f.qty > d.w"
    ),
}


@pytest.fixture(scope="module")
def db():
    db = Database()
    for name, columns in SCHEMA.items():
        db.create_table(name, columns)
        db.insert_rows(name, ROWS[name])
    return db


def left_join_op(db: Database, sql: str) -> BatchLeftJoinOp:
    stack = [db.planner.prepare(parse_select(sql))._root]
    while stack:
        op = stack.pop()
        if isinstance(op, BatchLeftJoinOp):
            return op
        stack.extend(
            getattr(op, name)
            for name in ("_child", "_left", "_right")
            if hasattr(op, name)
        )
    raise AssertionError(f"no BatchLeftJoinOp in {sql}")  # pragma: no cover


def outcome(run, db: Database, sql: str):
    try:
        return "rows", run(db, sql).rows
    except SqlError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("shape", sorted(HASH))
def test_hash_path(shape, db):
    sql = HASH[shape]
    assert left_join_op(db, sql)._key_pairs
    assert outcome(Database.execute, db, sql) == outcome(
        reference_execute, db, sql
    )


@pytest.mark.parametrize("shape", sorted(BROADCAST))
def test_broadcast_path(shape, db):
    sql = BROADCAST[shape]
    assert left_join_op(db, sql)._key_pairs == ()
    assert outcome(Database.execute, db, sql) == outcome(
        reference_execute, db, sql
    )
