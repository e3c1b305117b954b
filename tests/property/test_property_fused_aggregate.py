"""Property: GROUP BY inside the fused scan loop answers as row-at-a-time.

For any table of INTEGER / REAL / TEXT / DATE / BOOLEAN values — NULL,
NaN, ±inf, -0.0 and 0.0 among them — a grouped or global aggregate
over a scan with 0–2 group keys and every call the scan loop folds
inline (``count(*)``, ``count`` / ``min`` / ``max`` of every column,
``sum`` / ``avg`` of the numeric ones) returns exactly what the
reference interpreter returns: the same rows, in the same
(first-occurrence) group order, with the same representative values
for the non-grouped columns and bit-identical sums.  Two variants of
the same query must take the batch path instead, and answer (or raise)
the same too: one with a DISTINCT call, one with HAVING (and the fused
query itself when it has neither a key nor a filter).  An extra
predicate — a LIKE or a division by a column, which can raise — joins
the filter of the fused query, where it still folds in the loop, and
of the HAVING twin, so both paths must raise the reference's error.
Batches are 8 rows, so every table spans several, and each query runs
at ``segment_rows`` 1 and 4.

Named mutant: a fused ``min`` that restarts from each batch's first
value (the accumulator bug once in ``MinAccumulator.add_many``) — the
first ``@example`` opens a batch with NaN and is killed by it.
"""

import datetime
import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import physical

from tests.sqlengine.reference_engine import reference_execute

COLUMNS = [("i", "INT"), ("r", "REAL"), ("s", "TEXT"), ("d", "DATE"),
           ("b", "BOOLEAN")]
NAN = math.nan
VALUES = {
    "i": st.sampled_from([None, 0, 1, -1, 2, 7, 10**12]),
    "r": st.one_of(
        st.sampled_from([None, NAN, math.inf, -math.inf, -0.0, 0.0, 1.5,
                         -2.25, 3.0]),
        # a NaN object of its own: equal to no other key, not even NaN
        st.builds(float, st.just("nan")),
    ),
    "s": st.sampled_from([None, "", "a", "ab", "B"]),
    "d": st.sampled_from([None, datetime.date(1999, 12, 31),
                          datetime.date(2020, 1, 1),
                          datetime.date(2020, 1, 2)]),
    "b": st.sampled_from([None, True, False]),
}
ROW = st.tuples(*(VALUES[name] for name, __ in COLUMNS))
KEYS = ["i", "r", "s", "d", "b", "lower(s)", "i + 1", "r * 2"]
CALLS = (
    ["count(*)"]
    + [f"{fn}({name})" for fn in ("count", "min", "max") for name, __ in COLUMNS]
    + [f"{fn}({name})" for fn in ("sum", "avg") for name in ("i", "r")]
)
#: predicates the loop folds with inline formulas
FUSIBLE = [None, "i > 0", "r >= 0", "s <> 'a'", "d < '2020-01-02'", "b",
           "i IS NULL OR r < 1", "NOT b"]
#: a LIKE (through its per-call table) and a division by a column
#: (which can raise): the loop folds them too
EXTRA = ["s LIKE 'a%'", "10 / i > 1"]
BATCH = 8


#: select lists: every column bare (the representative row's values)
#: and every call; every call; ``count(*)`` alone, where the scan
#: carries only what the keys and the predicate read
SELECT_LISTS = {
    "bare": ", ".join([name for name, __ in COLUMNS] + CALLS),
    "calls": ", ".join(CALLS),
    "count": "count(*)",
}


def queries(keys, where, extra, select_list):
    """``(sql, fused)``: the fused query, its two batch-path twins and
    the fused query with the *extra* predicate (the HAVING twin has it
    too)."""
    items = SELECT_LISTS[select_list]
    group = f" GROUP BY {', '.join(keys)}" if keys else ""

    def select(calls, predicates, having=""):
        conjuncts = [p for p in predicates if p is not None]
        clause = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
        return f"SELECT {calls} FROM t{clause}{group}{having}"

    return [
        # a global aggregate with no filter has no per-row work to fuse
        (select(items, [where]), bool(keys) or where is not None),
        (select(items + ", count(DISTINCT s)", [where]), False),
        (select(items, [where, extra]), True),
        (select(items, [where, extra], " HAVING count(*) > 1"), False),
    ]


def outcome(run, sql):
    try:
        return repr(run(sql).rows)
    except SqlError as error:
        return f"{type(error).__name__}: {error}"


def aggregate_of(db, sql):
    operator = db.planner.prepare(parse_select(sql))._root
    while not isinstance(operator, physical.BatchAggregateOp):
        operator = operator._child
    return operator


def run_case(rows, keys, where, extra, select_list):
    for segment_rows in (1, 4):
        db = Database(config=EngineConfig(segment_rows=segment_rows))
        db.create_table("t", COLUMNS)
        db.insert_rows("t", rows)
        for sql, fused in queries(keys, where, extra, select_list):
            assert (aggregate_of(db, sql)._fold is not None) is fused, sql
            expected = outcome(lambda s: reference_execute(db, s), sql)
            assert outcome(db.execute, sql) == expected, (segment_rows, sql)


#: eight rows of 5.0 fill the first batch; the second opens with NaN
NAN_OPENS_A_BATCH = [(1, 5.0, "a", None, True)] * BATCH + [
    (1, NAN, "a", None, True), (1, 3.0, "a", None, True),
]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(ROW, max_size=40),
    keys=st.lists(st.sampled_from(KEYS), max_size=2, unique=True),
    where=st.sampled_from(FUSIBLE),
    extra=st.sampled_from(EXTRA),
    select_list=st.sampled_from(sorted(SELECT_LISTS)),
)
@example(rows=NAN_OPENS_A_BATCH, keys=["i"], where=None,
         extra="s LIKE 'a%'", select_list="bare")
@example(rows=NAN_OPENS_A_BATCH, keys=[], where="b",
         extra="10 / i > 1", select_list="calls")
# count(*) alone reads no column: the representative row holds only
# the filter's, and the count still lands in the aggregate's slot
@example(rows=NAN_OPENS_A_BATCH, keys=[], where="i > 0",
         extra="10 / i > 1", select_list="count")
# an empty table: the global aggregate still answers one row
@example(rows=[], keys=[], where=None, extra="10 / i > 1",
         select_list="count")
# -0.0 first: the group key, the representative row and the sum keep it
@example(rows=[(0, -0.0, "x", None, None), (0, 0.0, "y", None, None)] * 5,
         keys=["r"], where=None, extra="10 / i > 1", select_list="bare")
def test_fused_grouping_matches_the_reference(
    rows, keys, where, extra, select_list
):
    with mock.patch.object(physical, "BATCH_SIZE", BATCH):
        run_case(rows, keys, where, extra, select_list)
