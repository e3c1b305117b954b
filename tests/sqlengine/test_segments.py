"""Frozen segments + delta: the concurrent storage layout.

With ``EngineConfig(segment_rows=N)`` a table's rows live in immutable
frozen segments plus one small mutable delta; readers pin a
``(segments, delta-snapshot)`` set at query start and never observe
concurrent DML.  These tests lock the layout invariants (freeze on
threshold, tombstoned deletes, copy-on-write updates, compaction) and
— the important part — that the segmented engine stays byte-identical
to the reference interpreter over flat storage with fused codegen on
and off, before and after a DML storm.
"""

import pytest

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.encoding import EncodedColumn
from repro.sqlengine.planner.logical import LogicalScan
from repro.sqlengine.planner.physical import BatchScanOp
from repro.sqlengine.segments import pinned

from tests.sqlengine.reference_engine import reference_execute, snapshot_rows


def _db(segment_rows=8, **kwargs) -> Database:
    return Database(
        config=EngineConfig(segment_rows=segment_rows, **kwargs)
    )


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
            assert list(sliced) == list(table.column_data(index))
            assert isinstance(sliced, EncodedColumn) == (
                table.column_dictionary(index) is not None
            )

    def test_segmented_scan_emits_the_flat_batch_types(self):
        """Codes exactly where flat storage has them, so EXPLAIN's
        ``[dict: tag]`` marker holds on a segmented scan too."""
        flat, segmented = _db(segment_rows=0), _db(segment_rows=8)
        emitted = []
        for db in (flat, segmented):
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
            assert "[dict: tag]" in db.explain("SELECT tag FROM t")
        assert emitted[0] == emitted[1]
        assert emitted[0][0][0] == [list, list, list, EncodedColumn]

    def test_zero_threshold_disables_segments(self):
        db = _db(segment_rows=0)
        _populate(db, 20)
        table = db.table("t")
        assert not table.segmented
        assert table.pin() is None
        assert table.segment_stats() is None

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

    def test_unsegmented_catalog_pins_nothing(self):
        db = _db(segment_rows=0)
        _populate(db, 10)
        assert db.catalog.pin_tables(["t"]) is None


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
    """(flat reference baseline, {fused: segmented db})."""
    baseline = Database()
    _populate(baseline, 120)
    _storm(baseline, reference_execute)
    combos = {}
    for fused in (True, False):
        db = _db(segment_rows=8, fused=fused)
        _populate(db, 120)
        _storm(db)
        combos[fused] = db
    return baseline, combos


class TestSegmentedModeMatrixParity:
    """Segmented storage must be invisible with fused codegen on or off."""

    @pytest.mark.parametrize("sql", CORPUS)
    def test_matrix_matches_flat_reference(self, segmented_matrix, sql):
        baseline, combos = segmented_matrix
        expected = reference_execute(baseline, sql)
        for combo, db in combos.items():
            actual = db.execute(sql)
            assert actual.columns == expected.columns, (combo, sql)
            assert actual.rows == expected.rows, (combo, sql)

    def test_storm_left_real_segment_state(self, segmented_matrix):
        __, combos = segmented_matrix
        for combo, db in combos.items():
            stats = db.table("t").segment_stats()
            assert stats["segments"] > 1, combo
            assert stats["delta_rows"] < 8, combo
            total = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
            assert total == stats["frozen_live"] + stats["delta_rows"], combo
