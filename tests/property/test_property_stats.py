"""Property tests: incrementally maintained statistics are exact.

For *any* sequence of INSERT / UPDATE / DELETE statements, explicit
transactions that roll back, statements that fail half-way (statement
atomicity, and savepoint rollback when a transaction is open), over
every column type the engine stores, a long-lived
:class:`StatisticsProvider` queried at arbitrary points of the sequence
must return exactly what a full pass over the rows computes at that
moment: ``provider.table_stats(t) == reference_table_stats(table)``,
dataclass equality, histograms included.  The reference
(``tests/sqlengine/reference_stats.py``) is the gather loop the provider
used before it was maintained from the write path; the two share no
code but ``Histogram``'s constructor.

The same property is checked at four segment sizes: the provider only
ever sees row tuples, so the layouts must be indistinguishable.
"""

import datetime
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlTypeError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner.stats import StatisticsProvider

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sqlengine"))
from reference_stats import reference_table_stats  # noqa: E402

EXAMPLES = settings(max_examples=200, deadline=None)

#: ``segment_rows=1`` freezes every row on its own, so each delete kills
#: a whole segment; an odd size rounds the half-dead compaction rule
LAYOUTS = {
    "default": EngineConfig(),
    "segmented": EngineConfig(segment_rows=4),
    "segmented_1": EngineConfig(segment_rows=1),
    "segmented_3": EngineConfig(segment_rows=3),
}

CREATE = (
    "CREATE TABLE t (id INT PRIMARY KEY, n INT, r REAL, r2 REAL, "
    "d DATE, b BOOLEAN, s TEXT, w TEXT)"
)


def _fresh_nan(value):
    """One NaN *object* per row (see the caveat in reference_stats)."""
    return float("nan") if value != value else value


integers = st.one_of(
    st.none(),
    st.integers(-5, 5),
    # neighbours that collapse onto one float on the histogram axis
    st.sampled_from([2**53, 2**53 + 1, -(2**62), 2**62]),
)
reals = st.one_of(
    st.none(),
    st.sampled_from(
        [0.0, -0.0, 1.5, float("nan"), float("inf"), float("-inf")]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3).map(float),
).map(_fresh_nan)
dates = st.one_of(
    st.none(),
    st.dates(datetime.date(2019, 12, 25), datetime.date(2020, 1, 10)),
)
booleans = st.one_of(st.none(), st.booleans())
few_words = st.one_of(st.none(), st.sampled_from(["alpha", "beta", "gamma"]))
many_words = st.one_of(
    st.none(), st.integers(0, 11).map(lambda i: f"word {i}")
)

#: one row minus its id, which the interpreter hands out
rows = st.tuples(
    integers, reals, reals, dates, booleans, few_words, many_words
)
id_range = st.tuples(st.integers(0, 30), st.integers(1, 12))


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (str, datetime.date)):
        return f"'{value}'"
    return repr(value)


def _assignment(column, values):
    return st.tuples(st.just("update"), st.just(column), values, id_range)


#: every step is one operation plus whether the providers are asked
#: right after it — so they are first asked (and build their summaries)
#: at an arbitrary point, and in-place deltas are compared before a
#: later re-bin could paper over them
steps = st.lists(
    st.tuples(st.one_of(
        st.tuples(st.just("insert"), st.lists(rows, min_size=1, max_size=6)),
        st.tuples(st.just("insert_fails"), st.lists(rows, max_size=3)),
        _assignment("n", integers.map(_literal)),
        _assignment("r", st.sampled_from(
            ["NULL", "0.0", "2.25", "-7.5", "r2", "r * -1", "r + 1000000.0"]
        )),
        _assignment("d", dates.map(_literal)),
        _assignment("b", booleans.map(_literal)),
        _assignment("s", few_words.map(_literal)),
        _assignment("w", many_words.map(_literal)),
        st.tuples(st.just("delete"), id_range),
        st.tuples(st.just("delete_all")),
        st.tuples(st.just("begin")),
        st.tuples(st.just("commit")),
        st.tuples(st.just("rollback")),
    ), st.booleans()),
    max_size=24,
)


class Interpreter:
    """Runs abstract ops against one database, checking parity on demand."""

    def __init__(self, config: EngineConfig) -> None:
        self.db = Database(config=config)
        self.db.execute(CREATE)
        self.table = self.db.catalog.table("t")
        #: the planner's own provider plus one without histograms; both
        #: live for the whole sequence and are first asked mid-way
        self.providers = [
            (self.db.planner.statistics, 16),
            (StatisticsProvider(self.db.catalog, histogram_bins=0), 0),
        ]
        self.next_id = 0
        self.open_txn = False

    def _with_ids(self, rows) -> list:
        stamped = []
        for row in rows:
            stamped.append((self.next_id,) + tuple(row))
            self.next_id += 1
        return stamped

    def check(self) -> None:
        for provider, bins in self.providers:
            assert provider.table_stats("t") == reference_table_stats(
                self.table, bins
            )

    def run(self, op) -> None:
        kind = op[0]
        if kind == "insert":
            self.db.insert_rows("t", self._with_ids(op[1]))
        elif kind == "insert_fails":
            # the good rows are written, then the bad one unwinds them
            bad = (self.next_id + 99, "not an int") + (None,) * 6
            with pytest.raises(SqlTypeError):
                self.db.insert_rows("t", self._with_ids(op[1]) + [bad])
        elif kind == "update":
            __, column, expression, (low, span) = op
            self.db.execute(
                f"UPDATE t SET {column} = {expression} "
                f"WHERE id >= {low} AND id < {low + span}"
            )
        elif kind == "delete":
            low, span = op[1]
            self.db.execute(
                f"DELETE FROM t WHERE id >= {low} AND id < {low + span}"
            )
        elif kind == "delete_all":
            self.db.execute("DELETE FROM t")
        elif kind == "begin" and not self.open_txn:
            self.db.execute("BEGIN")
            self.open_txn = True
        elif kind in ("commit", "rollback") and self.open_txn:
            self.db.execute(kind.upper())
            self.open_txn = False


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@EXAMPLES
@given(steps=steps)
def test_maintained_stats_equal_a_full_pass(layout, steps):
    interpreter = Interpreter(LAYOUTS[layout])
    for op, ask in steps:
        interpreter.run(op)
        if ask:
            interpreter.check()
    interpreter.check()
    if interpreter.open_txn:
        interpreter.db.execute("ROLLBACK")
        interpreter.check()


# ----------------------------------------------------------------------
# named examples: the transitions the incremental path special-cases
# ----------------------------------------------------------------------
def _seeded(layout) -> Interpreter:
    interpreter = Interpreter(LAYOUTS[layout])
    interpreter.run(("insert", [
        (n, float(n), None, datetime.date(2020, 1, n), n % 2 == 0,
         "alpha", f"word {n}")
        for n in range(1, 9)
    ]))
    interpreter.check()  # summaries built; everything below is a delta
    return interpreter


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestNamedTransitions:
    def test_deleting_the_current_minimum_and_maximum(self, layout):
        interpreter = _seeded(layout)
        interpreter.run(("delete", (0, 1)))  # n = 1, the low of n/r/d
        interpreter.check()
        interpreter.run(("delete", (7, 1)))  # n = 8, the high
        interpreter.check()

    def test_emptying_the_table_and_refilling_it(self, layout):
        interpreter = _seeded(layout)
        interpreter.run(("delete_all",))
        interpreter.check()
        stats = interpreter.db.planner.statistics.table_stats("t")
        assert stats.row_count == 0 and stats.histogram("n") is None
        interpreter.run(("insert", [(3, 3.0, 3.0, None, None, None, None)]))
        interpreter.check()

    def test_column_collapsing_to_a_single_value(self, layout):
        interpreter = _seeded(layout)
        interpreter.run(("update", "n", "4", (0, 30)))
        interpreter.run(("update", "r", "2.25", (0, 30)))
        interpreter.check()
        stats = interpreter.db.planner.statistics.table_stats("t")
        assert stats.histogram("n").counts == (8,)
        # ... and spreading out again from the single-bin case
        interpreter.run(("update", "n", "40", (2, 1)))
        interpreter.check()

    def test_new_extreme_rebins_and_inner_value_does_not(self, layout):
        interpreter = _seeded(layout)
        provider = interpreter.db.planner.statistics
        before = provider.table_stats("t").histogram("n")
        interpreter.run(("insert", [(5, 5.0, None, None, None, None, None)]))
        inner = provider.table_stats("t").histogram("n")
        assert (inner.low, inner.high) == (before.low, before.high)
        assert inner.total == before.total + 1
        interpreter.run(("insert", [(80, 80.0, None, None, None, None, None)]))
        assert provider.table_stats("t").histogram("n").high == 80.0
        interpreter.check()

    def test_non_finite_reals_leave_the_histogram_alone(self, layout):
        interpreter = _seeded(layout)
        interpreter.run(("insert", [
            (None, float("nan"), float("inf"), None, None, None, None),
            (None, float("nan"), float("-inf"), None, None, None, None),
            (None, -0.0, 0.0, None, None, None, None),
        ]))
        interpreter.check()
        interpreter.run(("update", "r", "r2", (0, 30)))
        interpreter.check()
        interpreter.run(("delete", (8, 2)))
        interpreter.check()
