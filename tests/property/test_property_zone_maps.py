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

from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner.physical import BATCH_SIZE
from repro.sqlengine.segments import FrozenSegment

from tests.sqlengine.reference_engine import reference_execute
from tests.sqlengine.sqlite_oracle import load, normalized

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


# ---------------------------------------------------------------------------
# top-N bounds against zones
# ---------------------------------------------------------------------------
#: two full grid batches of frozen rows, then one that reaches the delta
TOPN_ROWS = 2600
TOPN_COLUMNS = ("id", "k", "r", "q")
TOPN_SPECIALS = {
    "k": [None, -5, 0, 10**6],
    "r": [None, float("nan"), -0.0, 0.0, float("inf"), float("-inf")],
    "q": [3, None],
}
PREDICATES = [None, "q < 40", "k >= 3", "1 / (q - 3) > 0"]
SECONDARIES = [None, "id", "id DESC", "q DESC"]


def topn_rows(step, injected):
    """``k`` rises with position in runs of *step* equal keys."""
    rows = [[i, i // step, i / 4, 10 + i % 40] for i in range(TOPN_ROWS)]
    for position, column, choice in injected:
        specials = TOPN_SPECIALS[column]
        rows[position][TOPN_COLUMNS.index(column)] = specials[
            choice % len(specials)
        ]
    return [tuple(row) for row in rows]


def topn_sql(spec):
    column, descending, secondary, limit, predicate = spec
    order = column + (" DESC" if descending else "")
    if secondary is not None:
        order += ", " + secondary
    where = "" if predicate is None else f" WHERE {predicate}"
    return f"SELECT id, k, r, q FROM t{where} ORDER BY {order} LIMIT {limit}"


def outcome(run, sql):
    try:
        return repr(run(sql).rows)
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def sort_keys(sql, rows):
    """The ORDER BY columns of *rows*, in order, through the sqlite shim."""
    order = sql.split(" ORDER BY ")[1].split(" LIMIT ")[0]
    names = [item.split()[0] for item in order.split(", ")]
    return [
        tuple(row[TOPN_COLUMNS.index(name)] for name in names)
        for row in normalized(rows, ordered=True)
    ]


topn_spec = st.tuples(
    st.sampled_from(["k", "r"]),
    st.booleans(),
    st.sampled_from(SECONDARIES),
    st.integers(1, 60),
    st.sampled_from(PREDICATES),
)
topn_injected = st.lists(
    st.tuples(st.integers(0, TOPN_ROWS - 1), st.sampled_from(["k", "r", "q"]),
              st.integers(0, 5)),
    max_size=6,
)
NO_WRITES = ((0, 0), (0, 0), "k", "NULL", 0)
#: a DELETE and an UPDATE that leave the frozen batch [1024, 2048) in place
LIGHT_WRITES = ((100, 10), (200, 5), "k", "k + 1", 3)


@settings(max_examples=15, deadline=None)
@given(
    segment_rows=st.sampled_from([4, 64]),
    step=st.sampled_from([1, 7, 300, 1100]),
    injected=topn_injected,
    writes=st.tuples(
        st.tuples(st.integers(0, TOPN_ROWS), st.integers(0, 400)),
        st.tuples(st.integers(0, TOPN_ROWS), st.integers(0, 400)),
        st.sampled_from(["k", "r", "q"]),
        st.sampled_from(["NULL", "-5", "k + 1", "3"]),
        st.integers(0, 30),
    ),
    specs=st.lists(topn_spec, min_size=1, max_size=4),
)
# ascending, a NULL key (then a small key) deep in a frozen batch: a
# skip that ignores NULLs, or compares the bound with the max, loses it
@example(segment_rows=64, step=1, injected=[(1500, "k", 0)],
         writes=LIGHT_WRITES, specs=[("k", False, None, 5, None)])
@example(segment_rows=4, step=1, injected=[(1700, "k", 1)],
         writes=LIGHT_WRITES, specs=[("k", False, "id", 5, "q < 40")])
# k = 0 runs across the first batch boundary: rows tied with the bound
# win on the secondary key, so a segment whose min equals it is read
@example(segment_rows=64, step=1100, injected=[], writes=LIGHT_WRITES,
         specs=[("k", False, "id DESC", 5, None)])
# descending, the bound is a big key from the first batch; a later
# segment holds it too, and that row wins on the secondary key: a skip
# that compares the bound with the zone's min loses it
@example(segment_rows=64, step=1,
         injected=[(10, "k", 3), (20, "k", 3), (30, "k", 3), (1500, "k", 3)],
         writes=LIGHT_WRITES, specs=[("k", True, "id DESC", 3, None)])
# NaN sorts as NULL: last in a descending order, so LIMIT 1 is the max
# (a heap that compared NaN as a number kept whichever came first) ...
@example(segment_rows=64, step=1, injected=[(5, "r", 1)],
         writes=NO_WRITES, specs=[("r", True, None, 1, None)])
# ... and first in an ascending one: with more NULL/NaN keys than the
# limit the bound is NULL, and only NULL/NaN rows are not past it
@example(segment_rows=4, step=1,
         injected=[(10, "r", 1), (20, "r", 0), (30, "r", 1), (1500, "r", 1)],
         writes=NO_WRITES, specs=[("r", False, "id DESC", 3, None)])
# q = 3 only in a segment the bound rules out: the division still raises
@example(segment_rows=64, step=1, injected=[(1500, "q", 0)],
         writes=NO_WRITES, specs=[("k", False, None, 5, "1 / (q - 3) > 0")])
def test_topn_bounds_never_change_an_answer(
    segment_rows, step, injected, writes, specs
):
    """Answers and errors of ``ORDER BY <numeric> [ASC|DESC][, secondary]
    LIMIT n`` equal those with zones stubbed out (nothing skipped), the
    reference interpreter's and, modulo the named deviations, sqlite's —
    over NULL, NaN and duplicate keys, after a DELETE (tombstones), an
    UPDATE (copy-on-write) and an INSERT (delta).

    NaN sorts as NULL, so a key column holding it keeps a total order
    and the top-N heap, the bound conjunct and the reference's full sort
    agree on it too.
    """
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table(
        "t", [("id", "INT"), ("k", "INT"), ("r", "REAL"), ("q", "INT")]
    )
    db.insert_rows("t", topn_rows(step, injected))
    (low, width), (start, span), column, value, inserted = writes
    db.execute(f"DELETE FROM t WHERE id >= {low} AND id < {low + width}")
    db.execute(
        f"UPDATE t SET {column} = {value} "
        f"WHERE id >= {start} AND id < {start + span}"
    )
    db.insert_rows("t", [
        (TOPN_ROWS + i, -i, -i / 4, 11 + i) for i in range(inserted)
    ])
    # sqlite stores NaN as NULL, which orders differently
    has_nan = any(r != r for r in db.table("t").column_data(2))
    conn = None if has_nan else load(db)
    for spec in specs:
        sql = topn_sql(spec)
        ours = outcome(db.execute, sql)
        with mock.patch.object(FrozenSegment, "zone", lambda self, i: None):
            assert ours == outcome(db.execute, sql), sql
        assert ours == outcome(lambda s: reference_execute(db, s), sql), sql
        # '/' is the "integer-division" / "division-by-zero" deviation
        if conn is None or "/" in sql:
            continue
        result = db.execute(sql)
        assert sort_keys(sql, result.rows) == sort_keys(
            sql, conn.execute(sql).fetchall()
        ), sql
