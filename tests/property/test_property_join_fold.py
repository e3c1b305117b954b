"""Property: an aggregate folded into a hash join answers as row-at-a-time.

For any probe table ``p`` and build table ``b`` — NULL and duplicate
join keys on both sides (so probe rows fan out over a bucket), NaN,
±inf, -0.0 and int / float values — an aggregate over ``p ⋈ b`` on one
or two key columns, grouped by 0–2 probe-side expressions, with
``count`` / ``sum`` / ``avg`` / ``min`` / ``max`` calls over build-side
arguments, returns exactly what the reference interpreter returns:
rows, group order, representative values and bit-identical sums; a
HAVING twin takes the batch path and must answer the same.  Batches
are 8 rows, so both sides span several, and each query runs at
``segment_rows`` 1 and 4.

Named mutant: a partial whose ``min`` / ``max`` is one plain best,
merged with a plain ``<`` — killed by the ``@example`` whose bucket
for key 1 opens with NaN after group ``g`` already holds 5.0.
"""

import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import physical

from tests.sqlengine.reference_engine import reference_execute

NAN = math.nan
PROBE = [("k1", "INT"), ("k2", "TEXT"), ("g", "TEXT"), ("r", "REAL")]
BUILD = [("k1", "INT"), ("k2", "TEXT"), ("i", "INT"), ("x", "REAL"),
         ("s", "TEXT")]
K1 = st.sampled_from([None, 0, 1, 2])
K2 = st.sampled_from([None, "a", "b"])
REAL = st.sampled_from([None, NAN, math.inf, -math.inf, -0.0, 0.0, 1.5,
                        -2.25, 3.0, 1e308])
PROBE_ROW = st.tuples(K1, K2, st.sampled_from([None, "g", "h"]), REAL)
BUILD_ROW = st.tuples(K1, K2, st.sampled_from([None, 0, 1, -1, 10**12]),
                      REAL, st.sampled_from([None, "", "a", "B"]))
KEYS = ["p.g", "p.k1", "p.r", "lower(p.k2)"]
CALLS = ", ".join([
    "count(*)", "count(b.x)", "sum(b.i)", "sum(b.x)", "avg(b.i)",
    "avg(b.x)", "min(b.x)", "max(b.x)", "min(b.s)", "max(b.i)",
    "sum(b.i + b.x)", "min(b.k2)",
])
#: build-side filters the fold runs in the build scan's loop
WHERE = [None, "b.x > 0", "b.s <> 'a'", "b.i IS NOT NULL"]
BATCH = 8


def outcome(run, sql):
    try:
        return repr(run(sql).rows)
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def run_case(probe, build, keys, two_keys, where):
    on = ["b.k1 = p.k1"] + ["b.k2 = p.k2"] * two_keys
    if where is not None:
        on.append(where)
    group = f" GROUP BY {', '.join(keys)}" if keys else ""
    items = ", ".join(["p.g", "b.s"] + keys + [CALLS])
    sql = f"SELECT {items} FROM p, b WHERE {' AND '.join(on)}{group}"
    having = sql + " HAVING count(*) > 0"
    for segment_rows in (1, 4):
        db = Database(config=EngineConfig(segment_rows=segment_rows))
        db.create_table("p", PROBE)
        db.create_table("b", BUILD)
        db.insert_rows("p", probe)
        db.insert_rows("b", build)
        operator = db.planner.prepare(parse_select(sql))._root
        while not isinstance(operator, physical.BatchAggregateOp):
            operator = operator._child
        join = physical._unwrapped(operator._child)
        build_side = physical._unwrapped(join._right)
        # folded exactly when the optimizer built on b
        assert (operator._fold is not None) is (
            getattr(build_side, "binding", None) == "b"
        ), sql
        for text in (sql, having):
            expected = outcome(lambda s: reference_execute(db, s), text)
            assert outcome(db.execute, text) == expected, (segment_rows, text)


# group g merges bucket 0 (5.0) and then bucket 1, which opens with NaN
NAN_BUCKET = dict(
    probe=[(0, "a", "g", None), (1, "a", "g", None)],
    build=[(0, "a", 0, 5.0, "a"), (1, "a", 1, NAN, "B"),
           (1, "a", 2, 1.0, ""), (1, None, 3, 9.0, None)]
    + [(2, "b", 1, 0.0, "a")] * 4,
    keys=["p.g"], two_keys=False, where=None,
)


@settings(max_examples=60, deadline=None)
@given(
    # a small probe side: the optimizer builds on b in most examples
    probe=st.lists(PROBE_ROW, max_size=6),
    build=st.lists(BUILD_ROW, min_size=6, max_size=40),
    keys=st.lists(st.sampled_from(KEYS), max_size=2, unique=True),
    two_keys=st.booleans(),
    where=st.sampled_from(WHERE),
)
@example(**NAN_BUCKET)
@example(**{**NAN_BUCKET, "keys": []})
# NULL keys on both sides, and a probe row repeated (fan-out)
@example(probe=[(None, None, "g", 1.0), (1, "a", "g", 2.0)] * 2,
         build=[(None, None, 1, 1.0, "a"), (1, "a", 2, 2.0, "B")] * 5,
         keys=["p.g"], two_keys=True, where=None)
def test_join_fold_matches_the_reference(probe, build, keys, two_keys, where):
    with mock.patch.object(physical, "BATCH_SIZE", BATCH):
        run_case(probe, build, keys, two_keys, where)
