"""Segmented scans read what flat scans read, and DML scans the same way.

Frozen segments and a pin's delta hold an encoded TEXT column's codes,
and a pin captures each dictionary's immutable view, so a segmented scan
emits the ``EncodedColumn`` batches a flat scan emits.  A batch scan
slices only the columns its predicates and its output read.  Batch-mode
UPDATE / DELETE find their rows through that scan, zone maps included.
Everything here is locked with counters and recorders, never clocks.
"""

import pytest

from repro.obs.metrics import registry
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.encoding import EncodedColumn
from repro.sqlengine.planner.physical import BATCH_SIZE
from repro.sqlengine.segments import TableSnapshot, pinned

from tests.sqlengine.reference_engine import reference_execute

#: 80 frozen segments of 256 rows end on a batch boundary; the delta
#: holds the remaining 100 rows
FROZEN = 20_480
DELTA = 100
STATUSES = ("NEW", "OPEN", "HELD", "DONE")


def make_db(segment_rows=256, **kwargs) -> Database:
    return Database(config=EngineConfig(segment_rows=segment_rows, **kwargs))


def facts_db(segment_rows=256, fused=True) -> Database:
    db = make_db(segment_rows, fused=fused)
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


class TestPinnedDictionaryView:
    QUERIES = [
        "SELECT id, s FROM t WHERE s = 'X' ORDER BY id",
        "SELECT s, count(*) FROM t GROUP BY s ORDER BY s",
        "SELECT id FROM t WHERE s LIKE 'X%' ORDER BY id",
        "SELECT DISTINCT s FROM t ORDER BY s",
    ]

    def test_old_pin_reads_a_freed_and_reused_code_as_it_was(self):
        db = make_db(segment_rows=8)
        db.execute("CREATE TABLE t (id INT, s TEXT)")
        # 40 frozen rows + 4 in the delta; every fourth row holds 'X'
        db.insert_rows(
            "t", [(i, "X" if i % 4 == 0 else f"v{i % 3}") for i in range(44)]
        )
        table = db.table("t")
        code = table.column_dictionary(1).code_of["X"]
        pins = db.catalog.pin_tables(["t"])
        with pinned(pins):
            before = [db.execute(sql).rows for sql in self.QUERIES]
        assert len(before[0]) == 11 and ("X", 11) in before[1]

        db.execute("DELETE FROM t WHERE s = 'X'")  # frees the code
        db.execute("INSERT INTO t VALUES (99, 'Y')")  # reuses it
        assert table.column_dictionary(1).code_of["Y"] == code
        assert "X" not in table.column_dictionary(1).code_of

        with pinned(pins):
            assert [db.execute(sql).rows for sql in self.QUERIES] == before
        assert db.execute(self.QUERIES[0]).rows == []

    def test_a_pin_reuses_the_view_until_the_dictionary_changes(self):
        db = make_db(segment_rows=8)
        db.execute("CREATE TABLE t (id INT, s TEXT)")
        db.insert_rows("t", [(i, f"v{i % 3}") for i in range(20)])
        table = db.table("t")
        first = table.pin().views[1]
        db.execute("INSERT INTO t VALUES (20, 'v1')")  # no new value
        assert table.pin().views[1] is first
        db.execute("INSERT INTO t VALUES (21, 'fresh')")  # interns one
        assert table.pin().views[1] is not first


class TestDictionaryDrop:
    def test_column_outgrowing_the_threshold_scans_as_plain_values(self):
        db = make_db(segment_rows=8, dict_encoding_threshold=4)
        db.execute("CREATE TABLE t (id INT, s TEXT)")
        db.insert_rows("t", [(i, f"v{i % 3}") for i in range(40)])
        table = db.table("t")
        assert isinstance(table.pin().column_slice(1, 0, 40), EncodedColumn)

        db.insert_rows("t", [(100 + i, f"new{i}") for i in range(4)])
        assert table.column_dictionary(1) is None
        snapshot = table.pin()
        assert snapshot.column_slice(1, 0, snapshot.row_count) == [
            row[1] for row in table.rows
        ]
        assert db.execute(
            "SELECT count(*) FROM t WHERE s = 'v1'"
        ).rows == [(13,)]


class TestColumnPruning:
    def test_filtered_scan_slices_only_the_columns_it_reads(
        self, monkeypatch
    ):
        db = make_db(segment_rows=8)
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


class TestDictFastpathCounter:
    def test_like_on_a_segmented_table_counts_every_scanned_batch(self):
        db = facts_db()
        result, delta = moved(
            lambda: db.execute(
                "SELECT count(*) FROM facts WHERE status LIKE 'D%'"
            ),
            "engine.dict_fastpath_batches",
            "engine.batches_produced",
        )
        assert result.rows == [((FROZEN + DELTA) // 4,)]
        scanned_batches = -(-(FROZEN + DELTA) // BATCH_SIZE)
        assert delta["engine.dict_fastpath_batches"] == scanned_batches


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

    def test_flat_table_matches_on_codes(self):
        flat = facts_db(segment_rows=0, fused=False)
        row = facts_db(segment_rows=0)
        sql = "DELETE FROM facts WHERE status IN ('NEW', 'DONE') AND qty = 3"
        result, delta = moved(
            lambda: flat.execute(sql), "engine.dict_fastpath_batches"
        )
        assert result.rowcount == reference_execute(row, sql).rowcount > 0
        assert delta["engine.dict_fastpath_batches"] > 0
        assert flat.table("facts").rows == row.table("facts").rows

    @pytest.mark.parametrize("fused", [True, False])
    def test_dml_honours_the_fused_setting(self, fused):
        db = facts_db(fused=fused)
        __, delta = moved(
            lambda: db.execute("DELETE FROM facts WHERE qty = 3 AND id < 50"),
            "engine.fused_batches",
        )
        assert (delta["engine.fused_batches"] > 0) == fused
