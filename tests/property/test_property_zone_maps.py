"""Property: zone-map skipping never changes an answer.

For any sequence of INSERT / UPDATE / DELETE / rolled-back writes over
a segmented table — with NaN, NULL, -0.0 and infinities in the data —
every ``col <op> literal`` query returns exactly what the same query
returns with :meth:`FrozenSegment.zone` stubbed to None (no zones, so
nothing skipped).  Literals include every zone bound of the segments
that start a scan batch, as INTEGER and as REAL, so a test that is off
by one at a bound (``<=`` evaluated as ``<``) changes some answer.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner.physical import BATCH_SIZE
from repro.sqlengine.segments import FrozenSegment

settings.register_profile("zone_maps", max_examples=20, deadline=None)
settings.load_profile("zone_maps")

BASE_ROWS = 2200
SPECIALS = [None, float("nan"), -0.0, 0.0, float("inf"), float("-inf")]
OPS = ["=", "<", "<=", ">", ">="]
FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def base_rows(injected):
    rows = [[i, i // 10, i / 4] for i in range(BASE_ROWS)]
    for position, special, column in injected:
        rows[position][column] = (
            None if column == 1 else SPECIALS[special]
        )
    return [tuple(row) for row in rows]


span = st.tuples(
    st.integers(0, BASE_ROWS + 200), st.integers(1, 300)
)
write = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 40),
              st.integers(0, len(SPECIALS) - 1)),
    st.tuples(st.just("update_x"), span, st.integers(-5, 300)),
    st.tuples(st.just("update_y"), span,
              st.sampled_from(["NULL", "-0.0", "0", "7.25", "-3"])),
    st.tuples(st.just("delete"), span),
)
op_strategy = st.one_of(
    write, st.tuples(st.just("rollback"), write)
)


def apply(db, op, counter):
    kind = op[0]
    if kind == "rollback":
        db.execute("BEGIN")
        apply(db, op[1], counter)
        db.execute("ROLLBACK")
    elif kind == "insert":
        __, count, special = op
        first = counter[0]
        counter[0] += count
        db.insert_rows("t", [
            (first + i, (first + i) // 10,
             SPECIALS[special] if i % 3 == 0 else (first + i) / 4)
            for i in range(count)
        ])
    elif kind == "delete":
        (low, width), = op[1:]
        db.execute(f"DELETE FROM t WHERE id >= {low} AND id < {low + width}")
    else:
        (low, width), value = op[1:]
        column = "x" if kind == "update_x" else "y"
        db.execute(
            f"UPDATE t SET {column} = {value} "
            f"WHERE id >= {low} AND id < {low + width}"
        )


def bound_literals(db):
    """Every zone bound of a segment starting a grid batch, per column."""
    snapshot = db.table("t").pin()
    found = {1: set(), 2: set()}
    for part, (segment, __, __live) in enumerate(snapshot.entries):
        if snapshot.prefix[part] % BATCH_SIZE:
            continue
        for index in found:
            zone = segment.zone(index)
            if zone is not None:
                found[index].update(zone)
    return found


def sql_number(value, as_real):
    if as_real:
        return repr(float(value))
    return str(int(value)) if float(value).is_integer() else repr(value)


def queries(db, extra):
    literals = bound_literals(db)
    for index, column in ((1, "x"), (2, "y")):
        values = {v for v in literals[index] | set(extra)
                  if math.isfinite(v)}
        for value in sorted(values):
            for as_real in (False, True):
                literal = sql_number(value, as_real)
                for op in OPS:
                    yield f"SELECT id, x, y FROM t WHERE {column} {op} {literal}"
                    yield (f"SELECT count(*), sum(y) FROM t "
                           f"WHERE {literal} {FLIP[op]} {column}")
        yield (f"SELECT id FROM t WHERE x >= {min(values, default=0)} "
               f"AND y < {max(values, default=0)}")


@given(
    segment_rows=st.sampled_from([64, 256]),
    injected=st.lists(
        st.tuples(st.integers(0, BASE_ROWS - 1),
                  st.integers(0, len(SPECIALS) - 1),
                  st.integers(1, 2)),
        max_size=6,
    ),
    ops=st.lists(op_strategy, max_size=6),
    extra=st.lists(st.integers(-10, 700), max_size=3),
)
def test_zones_never_change_an_answer(segment_rows, injected, ops, extra):
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table("t", [("id", "INT"), ("x", "INT"), ("y", "REAL")])
    db.insert_rows("t", base_rows(injected))
    counter = [BASE_ROWS]
    for op in ops:
        apply(db, op, counter)
    for sql in queries(db, extra):
        zoned = db.execute(sql).rows
        with mock.patch.object(FrozenSegment, "zone", lambda self, i: None):
            unzoned = db.execute(sql).rows
        assert repr(zoned) == repr(unzoned), sql
