"""Frozen segments + delta: the one storage layout.

A table's rows live in immutable frozen segments of
``EngineConfig.segment_rows`` rows plus one small mutable delta;
readers pin a ``(segments, delta-snapshot)`` set at query start and
never observe concurrent DML.  These tests lock the layout invariants
(freeze on threshold, tombstoned deletes, copy-on-write updates,
compaction) and — the important part — that the engine over pinned
segments stays byte-identical to the reference interpreter over the
decoded rows, before and after a DML storm.  A batch scan slices only the columns its predicates and its
output read, and UPDATE / DELETE find their rows through that scan,
zone maps included; those are locked with counters and recorders,
never clocks.
"""

import pytest

from repro.obs.metrics import registry
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner.logical import LogicalScan
from repro.sqlengine.planner.physical import BATCH_SIZE, BatchScanOp
from repro.sqlengine.segments import TableSnapshot, pinned

from tests.sqlengine.reference_engine import reference_execute, snapshot_rows


def _db(segment_rows=8) -> Database:
    return Database(config=EngineConfig(segment_rows=segment_rows))


def _populate(db: Database, count: int = 50) -> None:
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, amount REAL, "
        "tag TEXT)"
    )
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(
            f"({i}, {i % 5}, {i * 1.5}, 'tag{i % 7}')"
            for i in range(count)
        )
    )


class TestSegmentLayout:
    def test_insert_freezes_on_threshold(self):
        db = _db(segment_rows=8)
        _populate(db, 50)
        stats = db.table("t").segment_stats()
        assert stats["segments"] == 6  # 48 frozen rows in 8-row segments
        assert stats["frozen_live"] == 48
        assert stats["delta_rows"] == 2
        assert stats["tombstones"] == 0

    def test_flat_and_segmented_rows_agree(self):
        db = _db(segment_rows=8)
        _populate(db, 50)
        table = db.table("t")
        snapshot = table.pin()
        assert snapshot_rows(snapshot) == table.rows
        for index in range(len(table.columns)):
            sliced = snapshot.column_slice(index, 0, snapshot.row_count)
            assert type(sliced) is list
            assert sliced == table.column_data(index)

    def test_segmented_scan_emits_the_flat_batch_types(self):
        """Plain value lists, TEXT included, whatever the segment size."""
        emitted = []
        for db in (_db(segment_rows=3), _db(segment_rows=8)):
            _populate(db, 50)
            db.execute("DELETE FROM t WHERE grp = 3")
            scan = BatchScanOp(
                db.catalog, LogicalScan("t", "t", predicates=())
            )
            emitted.append(
                [
                    ([type(column) for column in cols], [list(c) for c in cols])
                    for cols, __ in scan.batches()
                ]
            )
        assert emitted[0] == emitted[1]
        assert emitted[0][0][0] == [list, list, list, list]

    def test_a_default_database_is_segmented(self):
        db = Database()
        _populate(db, 20)
        table = db.table("t")
        assert isinstance(table.pin(), TableSnapshot)
        assert table.segment_stats() == {
            "segments": 0, "frozen_live": 0, "delta_rows": 20,
            "tombstones": 0,
        }
        db.insert_rows("t", [(i, 0, 0.0, "x") for i in range(20, 4100)])
        assert table.segment_stats()["segments"] == 1

    def test_delete_leaves_tombstones_then_compacts(self):
        db = _db(segment_rows=8)
        _populate(db, 32)
        db.execute("DELETE FROM t WHERE id = 3")
        stats = db.table("t").segment_stats()
        assert stats["tombstones"] == 1
        assert stats["frozen_live"] == 31
        # kill most of every segment: each one crosses the half-dead
        # compaction bound and is rebuilt without tombstones
        db.execute("DELETE FROM t WHERE grp <> 0")
        stats = db.table("t").segment_stats()
        assert stats["tombstones"] == 0
        assert db.execute("SELECT COUNT(*) FROM t").rows[0][0] == (
            stats["frozen_live"] + stats["delta_rows"]
        )

    def test_update_rewrites_frozen_segments(self):
        db = _db(segment_rows=8)
        _populate(db, 32)
        db.execute("UPDATE t SET amount = 0.0 WHERE grp = 1")
        table = db.table("t")
        snapshot = table.pin()
        assert snapshot_rows(snapshot) == table.rows
        assert all(
            row[2] == 0.0 for row in table.rows if row[1] == 1
        )

    def test_rollback_rebuilds_segments(self):
        db = _db(segment_rows=8)
        _populate(db, 32)
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE grp = 0")
        db.execute("UPDATE t SET tag = 'x' WHERE grp = 1")
        db.execute("ROLLBACK")
        table = db.table("t")
        assert snapshot_rows(table.pin()) == table.rows
        assert db.execute("SELECT COUNT(*) FROM t").rows[0][0] == 32


class TestPinnedSnapshots:
    def test_pinned_reader_never_sees_later_dml(self):
        db = _db(segment_rows=8)
        _populate(db, 40)
        table = db.table("t")
        snapshot = table.pin()
        before = snapshot_rows(snapshot)
        db.execute("DELETE FROM t WHERE grp = 2")
        db.execute("INSERT INTO t VALUES (999, 9, 9.0, 'late')")
        db.execute("UPDATE t SET amount = -1.0 WHERE grp = 3")
        # the pinned snapshot still yields the pre-DML state while the
        # live table has moved on
        assert snapshot_rows(snapshot) == before
        assert table.pin().row_count != snapshot.row_count

    def test_old_pin_reads_rows_a_later_write_replaced(self):
        """Pinned read after write: a pin taken before a DELETE of every
        'X' and an INSERT of a new TEXT value answers equality, GROUP BY,
        LIKE and DISTINCT as they were at pin time."""
        queries = [
            "SELECT id, s FROM t WHERE s = 'X' ORDER BY id",
            "SELECT s, count(*) FROM t GROUP BY s ORDER BY s",
            "SELECT id FROM t WHERE s LIKE 'X%' ORDER BY id",
            "SELECT DISTINCT s FROM t ORDER BY s",
        ]
        db = _db(segment_rows=8)
        db.execute("CREATE TABLE t (id INT, s TEXT)")
        # 40 frozen rows + 4 in the delta; every fourth row holds 'X'
        db.insert_rows(
            "t", [(i, "X" if i % 4 == 0 else f"v{i % 3}") for i in range(44)]
        )
        pins = db.catalog.pin_tables(["t"])
        with pinned(pins):
            before = [db.execute(sql).rows for sql in queries]
        assert len(before[0]) == 11 and ("X", 11) in before[1]

        db.execute("DELETE FROM t WHERE s = 'X'")
        db.execute("INSERT INTO t VALUES (99, 'Y')")

        with pinned(pins):
            assert [db.execute(sql).rows for sql in queries] == before
        assert db.execute(queries[0]).rows == []
        assert ("Y", 1) in db.execute(queries[1]).rows

    def test_pin_scope_serves_queries_from_the_snapshot(self):
        db = _db(segment_rows=8)
        _populate(db, 40)
        pins = db.catalog.pin_tables(["t"])
        assert pins is not None
        with pinned(pins):
            count = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
            assert count == 40
        db.execute("DELETE FROM t WHERE grp = 0")
        with pinned(pins):
            # queries inside the scope read the pinned past
            assert db.execute("SELECT COUNT(*) FROM t").rows[0][0] == 40
        assert db.execute("SELECT COUNT(*) FROM t").rows[0][0] < 40

    def test_a_default_catalog_pins_every_named_table(self):
        db = Database()
        _populate(db, 10)
        pins = db.catalog.pin_tables(["t", "missing"])
        assert list(pins) == [id(db.table("t"))]
        assert pins[id(db.table("t"))].row_count == 10


#: the queries the matrix sweeps — every operator family the batch
#: engine routes through column slices
CORPUS = [
    "SELECT * FROM t",
    "SELECT id, amount * 2 FROM t WHERE grp = 1",
    "SELECT id FROM t WHERE tag LIKE 'tag1%' AND amount > 10",
    "SELECT grp, COUNT(*), SUM(amount) FROM t GROUP BY grp",
    "SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.grp = 2",
    "SELECT DISTINCT tag FROM t ORDER BY tag",
    "SELECT id FROM t ORDER BY amount DESC LIMIT 7",
    "SELECT grp, AVG(amount) FROM t WHERE id > 5 GROUP BY grp "
    "HAVING COUNT(*) > 2",
]

@pytest.fixture(scope="module")
def small_batches():
    """Shrink batches so the fixtures span many batches."""
    import repro.sqlengine.planner.physical as physical

    saved = physical.BATCH_SIZE
    physical.BATCH_SIZE = 16
    yield
    physical.BATCH_SIZE = saved


def _storm(db: Database, run=Database.execute) -> None:
    """DML that exercises tombstones, rewrites and a fresh delta."""
    run(db, "DELETE FROM t WHERE grp = 4")
    run(db, "UPDATE t SET amount = amount + 100 WHERE grp = 2")
    run(
        db,
        "INSERT INTO t VALUES "
        + ", ".join(f"({200 + i}, {i % 5}, {i * 0.5}, 'late{i}')"
                    for i in range(11))
    )
    run(db, "DELETE FROM t WHERE id > 100 AND amount < 3")


@pytest.fixture(scope="module")
def segmented_matrix(small_batches):
    """(reference baseline with every row in the delta, 8-row segment
    db), both after the storm."""
    baseline = Database()
    _populate(baseline, 120)
    _storm(baseline, reference_execute)
    db = _db(segment_rows=8)
    _populate(db, 120)
    _storm(db)
    return baseline, db


class TestSegmentedModeMatrixParity:
    """Segmented storage must be invisible."""

    @pytest.mark.parametrize("sql", CORPUS)
    def test_matrix_matches_flat_reference(self, segmented_matrix, sql):
        baseline, db = segmented_matrix
        expected = reference_execute(baseline, sql)
        actual = db.execute(sql)
        assert actual.columns == expected.columns, sql
        assert actual.rows == expected.rows, sql

    def test_storm_left_real_segment_state(self, segmented_matrix):
        __, db = segmented_matrix
        stats = db.table("t").segment_stats()
        assert stats["segments"] > 1
        assert stats["delta_rows"] < 8
        total = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
        assert total == stats["frozen_live"] + stats["delta_rows"]


#: 80 frozen segments of 256 rows end on a batch boundary; the delta
#: holds the remaining 100 rows
FROZEN = 20_480
DELTA = 100
STATUSES = ("NEW", "OPEN", "HELD", "DONE")


def facts_db(segment_rows=256) -> Database:
    db = _db(segment_rows)
    db.create_table(
        "facts", [("id", "INT"), ("qty", "INT"), ("status", "TEXT")]
    )
    db.insert_rows(
        "facts",
        [(i, i % 7, STATUSES[i % 4]) for i in range(FROZEN + DELTA)],
    )
    return db


def moved(fn, *counter_names):
    """``(fn(), {counter: delta})`` over one call."""
    counters = [registry().counter(name) for name in counter_names]
    before = [counter.value for counter in counters]
    result = fn()
    return result, {
        name: counter.value - start
        for name, counter, start in zip(counter_names, counters, before)
    }


class TestColumnPruning:
    def test_filtered_scan_slices_only_the_columns_it_reads(
        self, monkeypatch
    ):
        db = _db(segment_rows=8)
        db.execute("CREATE TABLE f (id INT, qty INT, amount REAL, s TEXT)")
        db.insert_rows(
            "f", [(i, i % 11, i * 0.5, f"s{i % 5}") for i in range(60)]
        )
        read = set()
        original = TableSnapshot.column_slice

        def recording(self, index, start, stop):
            read.add(index)
            return original(self, index, start, stop)

        monkeypatch.setattr(TableSnapshot, "column_slice", recording)
        result = db.execute("SELECT id FROM f WHERE qty > 5")
        assert result.rows == [(i,) for i in range(60) if i % 11 > 5]
        assert read == {0, 1}  # id and qty; never amount or s


class TestDmlThroughTheScan:
    @pytest.mark.parametrize("k", [0, 5000, FROZEN - 10])
    def test_delete_skips_frozen_segments(self, k):
        db = facts_db()
        result, delta = moved(
            lambda: db.execute(
                f"DELETE FROM facts WHERE id >= {k} AND id < {k + 20}"
            ),
            "engine.segments_skipped",
            "engine.rows_scanned",
        )
        assert result.rowcount == 20
        assert delta["engine.segments_skipped"] >= FROZEN // 256 - 4
        assert delta["engine.rows_scanned"] <= 2 * BATCH_SIZE + DELTA
        remaining = db.execute("SELECT id FROM facts ORDER BY id").rows
        assert remaining == [
            (i,) for i in range(FROZEN + DELTA) if not k <= i < k + 20
        ]

    def test_update_matches_the_reference(self):
        sql = "UPDATE facts SET qty = qty + 1 WHERE id >= 9000 AND id < 9050"
        row, batch = facts_db(), facts_db()
        assert reference_execute(row, sql).rowcount == 50
        result, delta = moved(
            lambda: batch.execute(sql), "engine.segments_skipped"
        )
        assert result.rowcount == 50
        assert delta["engine.segments_skipped"] >= FROZEN // 256 - 4
        assert batch.table("facts").rows == row.table("facts").rows

    def test_small_segment_delete_on_strings_matches_the_reference(self):
        batch, row = facts_db(segment_rows=3), facts_db(segment_rows=3)
        sql = "DELETE FROM facts WHERE status IN ('NEW', 'DONE') AND qty = 3"
        result, delta = moved(
            lambda: batch.execute(sql), "engine.batches_produced"
        )
        assert result.rowcount == reference_execute(row, sql).rowcount > 0
        assert delta["engine.batches_produced"] > 0  # DML scans like SELECT
        assert batch.table("facts").rows == row.table("facts").rows
