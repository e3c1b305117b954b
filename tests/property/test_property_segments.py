"""Property tests for the frozen-segment + delta storage layout.

For *any* freeze threshold and *any* interleaving of
INSERT/UPDATE/DELETE applied through the SQL front end, a segmented
table must be indistinguishable from a flat one:

* the flat tuple list and the segment view (live segment rows followed
  by the delta) stay element-for-element identical, and every column
  slice a batch scan could take agrees with the flat columnar storage;
* every SELECT — the reference interpreter over flat storage vs the
  engine over pinned segment snapshots — returns byte-identical
  results;
* every column slice, TEXT included, is a plain value list;
* the layout accounting holds: ``frozen_live + delta_rows`` equals the
  live row count and no segment is ever more than half dead.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

from tests.sqlengine.reference_engine import reference_execute, snapshot_rows

settings.register_profile("segments", max_examples=40, deadline=None)
settings.load_profile("segments")


def op_strategy():
    insert = st.tuples(
        st.just("insert"),
        st.integers(min_value=1, max_value=5),
    )
    update = st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=9),  # grp bucket to touch
    )
    delete = st.tuples(
        st.just("delete"),
        st.integers(min_value=0, max_value=9),
    )
    return st.one_of(insert, update, delete)


QUERIES = [
    "SELECT * FROM t",
    "SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp",
    "SELECT id FROM t WHERE val > 50 ORDER BY id",
    "SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.grp < 3",
    "SELECT tag, COUNT(*), SUM(val) FROM t GROUP BY tag ORDER BY tag",
    "SELECT id FROM t WHERE tag LIKE 'k1%' ORDER BY id",
    "SELECT DISTINCT tag FROM t ORDER BY tag",
    "SELECT id, tag FROM t WHERE tag IN ('k0', 'u5') AND val > 20 ORDER BY id",
]


def _apply(db: Database, ops, counter, run=Database.execute) -> None:
    for kind, arg in ops:
        if kind == "insert":
            values = ", ".join(
                f"({counter[0] + i}, {(counter[0] + i) % 10}, "
                f"{(counter[0] + i) * 7 % 101}, 'k{(counter[0] + i) % 9}')"
                for i in range(arg)
            )
            counter[0] += arg
            run(db, f"INSERT INTO t VALUES {values}")
        elif kind == "update":
            run(
                db,
                f"UPDATE t SET val = val + 1, tag = 'u{arg}' WHERE grp = {arg}",
            )
        else:
            run(db, f"DELETE FROM t WHERE grp = {arg} AND val > 40")


class TestSegmentedFlatEquivalence:
    @given(
        threshold=st.integers(min_value=1, max_value=16),
        ops=st.lists(op_strategy(), min_size=1, max_size=12),
    )
    def test_segmented_scan_is_byte_identical_to_flat(self, threshold, ops):
        flat = Database()
        segmented = Database(config=EngineConfig(segment_rows=threshold))
        for db in (flat, segmented):
            db.execute(
                "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, "
                "tag TEXT)"
            )
            db.execute(
                "INSERT INTO t VALUES "
                + ", ".join(f"({i}, {i % 10}, {i * 7 % 101}, 'k{i % 3}')"
                            for i in range(20))
            )
        counter_flat, counter_seg = [100], [100]
        _apply(flat, ops, counter_flat, reference_execute)
        _apply(segmented, ops, counter_seg)

        flat_table = flat.table("t")
        seg_table = segmented.table("t")
        # storage equivalence: rows, snapshot iteration, column slices
        assert seg_table.rows == flat_table.rows
        snapshot = seg_table.pin()
        assert snapshot_rows(snapshot) == flat_table.rows
        total = snapshot.row_count
        for index in range(len(seg_table.columns)):
            flat_column = list(flat_table.column_data(index))
            whole = snapshot.column_slice(index, 0, total)
            assert type(whole) is list and whole == flat_column
            # arbitrary partial slices (batch boundaries) agree too
            cut = max(1, total // 3)
            assert (
                list(snapshot.column_slice(index, cut, min(total, cut * 2)))
                == flat_column[cut:cut * 2]
            )

        # engine equivalence: reference on flat == engine over segments
        for sql in QUERIES:
            expected = reference_execute(flat, sql)
            actual = segmented.execute(sql)
            assert actual.columns == expected.columns, sql
            assert actual.rows == expected.rows, sql

        # accounting: live rows split exactly into frozen + delta, and
        # compaction keeps every frozen segment at least half alive
        stats = seg_table.segment_stats()
        assert stats["frozen_live"] + stats["delta_rows"] == total
        for segment in seg_table._segments.segments:
            assert len(segment.tombstones) * 2 < max(1, segment.size)
