"""A top-N's bound skips the frozen segments it rules out.

``SELECT ... WHERE ... ORDER BY id LIMIT 50`` on a table whose ``id``
rises with physical position finds its 50 rows in the first segments;
once the top-N holds them, every later segment's zone starts past the
worst kept ``id``, and the scan never slices those batches.  These
tests lock, with counters: the skip and its bookkeeping, that EXPLAIN
ANALYZE runs that same pruned plan, the guarantees (the delta is always
read, the deadline is checked for every batch, a predicate that could
raise turns skipping off) and that a top-N over a residual filter still
answers like the reference interpreter.
"""

import math
import re
import threading

import pytest

from repro.errors import SqlExecutionError
from repro.obs.metrics import registry
from repro.resilience.deadline import Deadline, deadline_scope
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import physical
from repro.sqlengine.planner.physical import BATCH_SIZE

from tests.sqlengine.reference_engine import reference_execute

ROWS = 20_000
STATUSES = ("NEW", "OPEN", "HELD", "DONE")
#: the perf ledger's strfilter template
STRFILTER = (
    "SELECT f.id, f.amount FROM facts f "
    "WHERE f.status = 'NEW' AND f.qty < 3 ORDER BY f.id LIMIT 50"
)


def facts_db(segment_rows: int = 256, ids=range(ROWS)) -> Database:
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table("facts", [
        ("id", "INT"), ("amount", "REAL"), ("qty", "INT"), ("status", "TEXT"),
    ])
    db.insert_rows("facts", [
        (i, float(i * 7919 % 10_000), i * 37 % 100, STATUSES[i % 4])
        for i in ids
    ])
    return db


def moved(db: Database, sql: str, *names: str) -> dict:
    counters = {name: registry().counter(name) for name in names}
    before = {name: counter.value for name, counter in counters.items()}
    db.execute(sql)
    return {name: counters[name].value - before[name] for name in names}


def scan_actuals(text: str) -> dict:
    line = next(line for line in text.splitlines() if "scan facts" in line)
    found = dict(re.findall(r"(rows|batches|skipped)=(\d+)", line))
    return {name: int(value) for name, value in found.items()}


class TestSegmentSkip:
    def test_strfilter_reads_its_first_segments_only(self):
        db = facts_db()
        counts = moved(
            db, STRFILTER, "engine.rows_scanned", "engine.segments_skipped"
        )
        assert counts["engine.rows_scanned"] <= 8 * BATCH_SIZE
        assert counts["engine.segments_skipped"] >= 40
        assert db.execute(STRFILTER).rows == reference_execute(
            db, STRFILTER
        ).rows

    def test_a_late_row_that_sorts_first_is_found(self):
        db = facts_db()
        # a frozen row far from the front with the smallest id, a row in
        # the delta, and a NULL id (NULLs sort first) deep in a segment
        db.execute("UPDATE facts SET id = -1 WHERE id = 15000")
        db.execute("UPDATE facts SET id = NULL WHERE id = 12000")
        db.insert_rows("facts", [(-2, 1.0, 0, "NEW")])
        sql = "SELECT f.id FROM facts f WHERE f.qty < 3 ORDER BY f.id LIMIT 5"
        rows = db.execute(sql).rows
        assert rows[:3] == [(None,), (-2,), (-1,)]
        assert rows == reference_execute(db, sql).rows

    def test_descending_skips_segments_below_the_bound(self):
        db = facts_db(ids=reversed(range(ROWS)))
        sql = "SELECT f.id FROM facts f ORDER BY f.id DESC LIMIT 10"
        counts = moved(db, sql, "engine.rows_scanned")
        assert counts["engine.rows_scanned"] <= 2 * BATCH_SIZE
        assert db.execute(sql).rows == reference_execute(db, sql).rows

    def test_the_null_flag_is_memoised_beside_the_zone(self):
        db = facts_db(segment_rows=64)
        db.execute("UPDATE facts SET qty = NULL WHERE id = 70")
        segments = db.table("facts").pin().entries
        first, second = segments[0][0], segments[1][0]
        assert 2 not in first._zones  # the UPDATE's scan asked for id's
        assert (first.holds_null(2), second.holds_null(2)) == (False, True)
        assert 2 in first._zones
        assert second.zone(2) == (0, 99)

    def test_a_default_database_skips_too(self):
        db = facts_db(segment_rows=DEFAULT_SEGMENT_ROWS)
        counts = moved(db, STRFILTER, "engine.rows_scanned")
        # the first two frozen segments hold the 50 matches, the other
        # two sort past the bound, and the delta is read
        assert counts["engine.rows_scanned"] == 2 * 4096 + ROWS - 4 * 4096


class TestGuarantees:
    def test_the_delta_is_always_read(self):
        db = facts_db()
        db.insert_rows("facts", [(ROWS + i, 1.0, 0, "NEW") for i in range(5)])
        sql = STRFILTER.replace("ORDER BY f.id", "ORDER BY f.id DESC")
        assert db.execute(sql).rows[:5] == [
            (ROWS + i, 1.0) for i in reversed(range(5))
        ]

    def test_the_deadline_is_checked_for_every_batch(self):
        db = facts_db()
        calls = []

        def clock():
            calls.append(None)
            return 0.0

        with deadline_scope(Deadline(1000, clock=clock)):
            counts = moved(db, STRFILTER, "engine.segments_skipped")
        assert counts["engine.segments_skipped"] >= 40
        assert len(calls) - 1 == math.ceil(ROWS / BATCH_SIZE)

    def test_a_predicate_that_could_raise_reads_every_segment(self):
        db = facts_db()
        db.execute("UPDATE facts SET qty = 50 WHERE qty = 3")
        db.execute("UPDATE facts SET qty = 3 WHERE id = 19000")
        sql = (
            "SELECT f.id FROM facts f WHERE 1 / (f.qty - 3) > 0 "
            "ORDER BY f.id LIMIT 5"
        )
        with pytest.raises(SqlExecutionError, match="division by zero"):
            db.execute(sql)
        with pytest.raises(SqlExecutionError, match="division by zero"):
            reference_execute(db, sql)

    def test_a_bound_stays_with_its_own_execution(self):
        """One cached plan, two threads, two snapshots: a bound the
        other execution published never prunes this one's rows."""
        db = facts_db()
        plan = db.planner.prepare(parse_select(STRFILTER))
        expected = db.execute(STRFILTER).rows
        paused, resume = threading.Event(), threading.Event()
        calls = []

        def clock():  # a deadline check per batch: pause at the second
            calls.append(None)
            if len(calls) == 3:
                paused.set()
                resume.wait(10)
            return 0.0

        answers = []

        def older_reader():
            with deadline_scope(Deadline(10_000, clock=clock)):
                with db.planner._pin_scope(plan):
                    answers.append(plan.execute().rows)

        reader = threading.Thread(target=older_reader)
        reader.start()
        assert paused.wait(10)
        # rows sorting first, visible only to a newer snapshot, tighten
        # the newer execution's bound far below the paused reader's
        # (enough of them that the newer top-N prunes and publishes)
        db.insert_rows("facts", [(-i, 1.0, 0, "NEW") for i in range(300)])
        with db.planner._pin_scope(plan):
            assert plan.execute().rows == [
                (-i, 1.0) for i in range(299, 249, -1)
            ]
        resume.set()
        reader.join(10)
        assert answers == [expected]

    def test_a_text_key_never_skips(self):
        db = facts_db()
        sql = "SELECT f.status FROM facts f ORDER BY f.status LIMIT 5"
        counts = moved(db, sql, "engine.rows_scanned")
        assert counts["engine.rows_scanned"] == ROWS


class TestExplainAnalyze:
    def test_analyze_runs_the_pruned_plan(self):
        db = facts_db()
        names = ("engine.rows_scanned", "engine.rows_filtered")
        plain = moved(db, STRFILTER, *names)
        counters = [registry().counter(name) for name in names]
        before = [counter.value for counter in counters]
        text = db.explain(STRFILTER, analyze=True)
        analyzed = [c.value - b for c, b in zip(counters, before)]
        actual = scan_actuals(text)
        assert actual["skipped"] >= 20
        assert analyzed == [plain[name] for name in names]
        # the scan's rows out: sliced minus dropped (no other filter)
        assert actual["rows"] == (
            plain["engine.rows_scanned"] - plain["engine.rows_filtered"]
        )


class TestBoundThroughAResidualFilter:
    """A conjunct naming no column stays a residual filter between the
    top-N and the scan; the bound still reaches the scan (the filter's
    own predicates cannot raise), and the answers stay the reference's.
    The filter never re-applied the bound: the scan had just applied it
    with the same value, so that check could never drop a row."""

    SQL = [
        "SELECT id, x FROM t WHERE length('ab') = 2 AND x < 3 "
        "ORDER BY id LIMIT 5",
        "SELECT id, x FROM t WHERE upper('a') = 'A' ORDER BY x DESC, id "
        "LIMIT 7",
        "SELECT id FROM t WHERE length('ab') = 3 ORDER BY id LIMIT 5",
    ]

    @staticmethod
    def _db(segment_rows: int) -> Database:
        db = Database(config=EngineConfig(segment_rows=segment_rows))
        db.create_table("t", [("id", "INT"), ("x", "INT")])
        db.insert_rows("t", [(3000 - i, i % 7) for i in range(3000)])
        db.execute("DELETE FROM t WHERE id >= 100 AND id < 150")
        return db

    @pytest.mark.parametrize("segment_rows", [3, 64])
    @pytest.mark.parametrize("sql", SQL)
    def test_answers_match_the_reference(self, segment_rows, sql):
        db = self._db(segment_rows)
        plan = db.planner.prepare(parse_select(sql))
        topn = plan._root
        scan, stages = physical._chain_parts(topn._child._child)
        assert [type(stage) for stage in stages] == [physical.BatchFilterOp]
        assert scan._bound_cell is topn._bound_cell is not None
        assert repr(db.execute(sql).rows) == repr(
            reference_execute(db, sql).rows
        )
        assert "rows=" in db.explain(sql, analyze=True)
