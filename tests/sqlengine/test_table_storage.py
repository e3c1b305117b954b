"""Table storage holds each value once: locks on who reads it and what it costs.

``Table`` keeps its values in frozen segments plus one delta; columns
and row tuples are decoded on demand (``column_data``, ``row``,
``iter_rows``), and ``rows`` is a freshly decoded list kept for tests
and tools.  These tests lock that:

* no ``src/`` path reads the decoded view (``Table.rows`` /
  ``Table.__iter__`` patched to raise through a whole lifecycle);
* the bytes a table retains per row, counted with tracemalloc, relative
  to the same values held as bare lists;
* what is persisted or digested (checkpoint images, the index snapshot's
  catalog digest) is byte-identical to the tuple-list layout's, and a
  snapshot file that layout wrote still warm-starts;
* checkpoint recovery decodes every column before it freezes the
  segments, so no segment is ever frozen from half-filled columns.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import logging
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.baselines.banks import Banks
from repro.errors import SqlError
from repro.index.inverted import InvertedIndex
from repro.index.snapshot import (
    IndexSnapshot,
    catalog_digest,
    load_snapshot,
    save_snapshot,
)
from repro.sqlengine import Database
from repro.sqlengine.catalog import Table
from repro.sqlengine import segments
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
from repro.warehouse.minibank import build_minibank

DATA = Path(__file__).parent / "data"
STATUSES = ("NEW", "OPEN", "HELD", "DONE")
#: the perf ledger's ``facts`` column types
FACTS = [
    ("id", "INT"),
    ("dim_id", "INT"),
    ("amount", "REAL"),
    ("qty", "INT"),
    ("status", "TEXT"),
]


def _fact(i: int) -> tuple:
    return (i, i % 256, (i % 9973) / 4, i % 100, STATUSES[i % 4])


# ---------------------------------------------------------------------------
# src/ never reads the decoded view
# ---------------------------------------------------------------------------


@pytest.fixture
def no_decoded_view(monkeypatch):
    """``Table.rows`` and ``Table.__iter__`` raise while the test runs."""

    def refuse(*__):
        raise AssertionError("src/ read the decoded row view of a Table")

    monkeypatch.setattr(Table, "rows", property(refuse))
    monkeypatch.setattr(Table, "__iter__", refuse)


def _answers(db: Database) -> list:
    return db.execute(
        "SELECT id, dim_id, amount, qty, status, note FROM facts ORDER BY id"
    ).rows


def _lifecycle(data_dir: str, segment_rows: int) -> dict:
    """Every write, undo, recovery and index path; returns what it saw."""
    config = EngineConfig(segment_rows=segment_rows)
    seen: dict = {}
    db = Database(config=config, data_dir=data_dir, wal_sync=False)
    db.create_table("facts", FACTS + [("note", "TEXT")], primary_key=["id"])
    db.insert_rows(
        "facts", [_fact(i) + (f"note {i % 7}",) for i in range(300)]
    )
    writes = [
        "INSERT INTO facts VALUES (900, 1, 2.5, 3, 'NEW', 'fresh row'), "
        "(901, 2, 3.5, 4, 'ODD', NULL) RETURNING id, status, note",
        "UPDATE facts SET qty = qty + 1, note = 'moved' "
        "WHERE id >= 60 AND id < 75 RETURNING *",
        "DELETE FROM facts WHERE id >= 100 AND id < 140 RETURNING id, note",
    ]
    before = _answers(db)
    for sql in writes:
        db.execute("BEGIN")
        db.execute(sql)
        db.execute("ROLLBACK")
        assert _answers(db) == before
    seen["returning"] = [db.execute(sql).rows for sql in writes]
    count = db.row_count("facts")
    with pytest.raises(SqlError):
        db.execute(
            "INSERT INTO facts VALUES (950, 1, 1.0, 1, 'NEW', 'a'), "
            "(951, 1, 1.0, 1, 'NEW', 'b'), (952, 'x', 1.0, 1, 'NEW', 'c')"
        )
    assert db.row_count("facts") == count

    inverted = InvertedIndex.build(db.catalog)
    seen["index"] = inverted.size_summary()
    snapshot_path = Path(data_dir) / "index.json.gz"
    save_snapshot(
        IndexSnapshot(
            name="lifecycle",
            fingerprint=db.catalog.fingerprint(),
            inverted=inverted,
            content_digest=catalog_digest(db.catalog),
        ),
        snapshot_path,
    )
    load_snapshot(snapshot_path).verify(
        "lifecycle", db.catalog.fingerprint(), catalog_digest(db.catalog)
    )

    db.execute("CHECKPOINT")
    db.execute("DELETE FROM facts WHERE id < 5")  # the WAL tail
    db.execute("UPDATE facts SET amount = amount * 2 WHERE id >= 200")
    seen["final"] = _answers(db)
    db.close()
    reopened = Database(config=config, data_dir=data_dir, wal_sync=False)
    assert reopened.recovery_info["replayed"] == 2
    assert _answers(reopened) == seen["final"]
    reopened.close()

    warehouse = build_minibank(seed=42, scale=0.1, engine_config=config)
    database = warehouse.database
    database.execute(
        "UPDATE currencies SET currency_nm = 'Swiss Franc' "
        "WHERE currency_cd = 'CHF'"
    )
    seen["stats"] = database.planner.statistics.table_stats("parties")
    seen["explain"] = database.explain(
        "SELECT p.party_type_cd, count(*) FROM parties p "
        "GROUP BY p.party_type_cd",
        analyze=True,
    ).count("actual rows=")
    banks = Banks(database, warehouse.inverted)
    seen["banks"] = [banks.answer(text).sqls for text in ("Sara", "Sara Zurich")]
    return seen


class TestNoDecodedReads:
    """Named mutant: ``dml.execute_update`` takes its old images from
    ``table.rows`` again — the UPDATE of the lifecycle then raises."""

    def test_small_and_large_segment_lifecycles_agree(
        self, tmp_path, no_decoded_view
    ):
        small = _lifecycle(str(tmp_path / "small"), 3)
        large = _lifecycle(str(tmp_path / "large"), 64)
        assert small == large
        assert len(small["returning"][1]) == 15
        assert [row[0] for row in small["returning"][2]] == list(range(100, 140))
        assert small["explain"] >= 2
        assert all(small["banks"])

    def test_the_patch_has_teeth(self, no_decoded_view):
        table = Table.__new__(Table)
        with pytest.raises(AssertionError):
            table.rows
        with pytest.raises(AssertionError):
            list(table)


class TestDecodedReaders:
    def test_row_iter_rows_and_rows_decode_the_columns(self):
        db = Database(config=EngineConfig(segment_rows=4))
        db.create_table("facts", FACTS)
        db.insert_rows("facts", [_fact(i) for i in range(10)])
        table = db.table("facts")
        expected = [_fact(i) for i in range(10)]
        assert len(table) == 10
        assert [table.row(i) for i in range(10)] == expected
        assert list(table.iter_rows()) == expected
        assert table.rows == expected
        assert list(table) == expected
        assert table.rows is not table.rows  # a fresh copy every time

    def test_rows_is_read_only(self):
        table = Database().create_table("t", [("id", "INT")])
        with pytest.raises(AttributeError):
            table.rows = []

    def test_table_holds_no_per_row_list(self):
        table = Database().create_table("t", [("id", "INT"), ("s", "TEXT")])
        per_row = [
            name
            for name, value in vars(table).items()
            if isinstance(value, list) and name != "_observers"
        ]
        assert per_row == []

    def test_restore_rows_merges_column_by_column(self):
        db = Database(config=EngineConfig(segment_rows=3))
        db.create_table("facts", FACTS)
        db.insert_rows("facts", [_fact(i) for i in range(12)])
        table = db.table("facts")
        doomed = [0, 4, 5, 11]
        removed = [table.row(p) for p in doomed]
        table.delete_positions(doomed)
        table.restore_rows(doomed, removed)
        assert table.rows == [_fact(i) for i in range(12)]
        assert table.column_data(4) == [STATUSES[i % 4] for i in range(12)]
        assert db.execute("SELECT count(*) FROM facts").rows == [(12,)]


# ---------------------------------------------------------------------------
# bytes per row, counted
# ---------------------------------------------------------------------------

BYTES_ROWS = 20_000


def _bytes_rows():
    rng = random.Random(7)
    for i in range(BYTES_ROWS):
        yield (
            i,
            rng.randrange(256),
            float(rng.randrange(1, 10_000)),
            rng.randrange(100),
            STATUSES[i % 4],
        )


def _retained(build) -> int:
    """Bytes still allocated after ``build()`` returns (its result kept)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return retained


def _bare_lists() -> list:
    columns: list = [[] for __ in FACTS]
    for row in _bytes_rows():
        for column, value in zip(columns, row):
            column.append(value)
    return columns


def _table_bytes(segment_rows: int) -> int:
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table("facts", FACTS)

    def build():
        db.insert_rows("facts", _bytes_rows())
        return db

    return _retained(build)


class TestBytesPerRow:
    """Retained bytes of a 20k-row ``facts`` table ÷ the same values as
    five bare lists (a ratio; CPython 3.11 figures).

    * flat column lists alone (the layout before segments): 0.967;
    * flat lists plus a frozen-segment mirror of every value: 1.300;
    * segments + delta at the default 4096 rows per segment: 0.969.

    The bound, 1.13, sits halfway between the two older layouts: a
    second reference to every value does not fit under it.  Named
    mutant: ``Table.insert_many`` also extends one flat list per column
    beside the segments, as the mirror layout did.
    """

    def test_a_table_retains_each_value_once(self):
        bare = _retained(_bare_lists)
        ratio = _table_bytes(DEFAULT_SEGMENT_ROWS) / bare
        assert ratio <= 1.13, f"{ratio:.3f} x bare lists > 1.13"


# ---------------------------------------------------------------------------
# byte identity of what is persisted or digested
# ---------------------------------------------------------------------------

#: recorded from the tuple-list layout; any storage change must repeat them
MINIBANK_FINGERPRINT = (21, 3196, 0)
MINIBANK_DIGEST = (
    "54115060c097a5d483045b4b7b76ae6fbfd5bb75fa7133e38b73e97e66e2c6dd"
)
#: sha256 of the uncompressed checkpoint image (deflate bytes depend on
#: the zlib build, the image does not).  Re-recorded when TEXT columns
#: stopped being dictionary-encoded: ``status`` is now stored ``"plain"``
#: (strings) instead of ``"dict"`` (value table + codes); decoded, the
#: image holds the same values and counters as before
CHECKPOINT_IMAGE_SHA256 = (
    "4230395effbc299dec3dbd9ad24446806f7713107d5cc8305feb29523d6420b9"
)


class TestByteIdentity:
    def test_minibank_catalog_digest_repeats(self):
        catalog = build_minibank(seed=42).database.catalog
        assert catalog.fingerprint() == MINIBANK_FINGERPRINT
        assert catalog_digest(catalog) == MINIBANK_DIGEST

    def test_checkpoint_image_repeats(self, tmp_path):
        db = Database(data_dir=str(tmp_path), wal_sync=False)
        db.create_table("facts", FACTS + [("note", "TEXT")])
        db.insert_rows(
            "facts",
            [
                _fact(i) + (None if i % 7 == 0 else f"note {i % 300}",)
                for i in range(5000)
            ],
        )
        db.execute("UPDATE facts SET qty = qty + 1 WHERE id < 50")
        db.execute("DELETE FROM facts WHERE id >= 100 AND id < 120")
        db.execute("CHECKPOINT")
        raw = (tmp_path / "checkpoint.json.gz").read_bytes()
        db.close()
        image = hashlib.sha256(gzip.decompress(raw)).hexdigest()
        assert image == CHECKPOINT_IMAGE_SHA256

    def test_a_snapshot_the_tuple_list_layout_wrote_still_warm_starts(
        self, caplog
    ):
        path = DATA / "minibank_seed42_scale0.1.snapshot.json.gz"
        with caplog.at_level(logging.WARNING):
            warm = build_minibank(seed=42, scale=0.1, snapshot=str(path))
        assert not [r for r in caplog.records if "falling back" in r.message]
        # only a snapshot that verified hands over its classifications
        assert warm._classification_cache
        cold = InvertedIndex.build(warm.database.catalog)
        assert warm.inverted.size_summary() == cold.size_summary()


# ---------------------------------------------------------------------------
# checkpoint recovery decodes every column before freezing segments
# ---------------------------------------------------------------------------


class TestRestoreOrder:
    """Segments are frozen once, after every column is decoded.
    Mutant: ``restore_catalog`` bulk-loads inside the per-column decode
    loop — the load refuses the short column list and recovery fails."""

    def test_plain_text_column_reopens_alike_at_any_segment_size(
        self, tmp_path, monkeypatch
    ):
        db = Database(data_dir=str(tmp_path), wal_sync=False)
        db.create_table(
            "people", [("id", "INT"), ("name", "TEXT"), ("qty", "INT"),
                       ("kind", "TEXT")],
        )
        db.insert_rows(
            "people",
            [(i, f"person {i}", i % 9, ("a", "b")[i % 2]) for i in range(300)],
        )
        db.execute("CHECKPOINT")
        db.close()

        frozen: list = []
        freeze = segments._frozen

        def recording(columns):
            segment = freeze(columns)
            frozen.append(segment)
            return segment

        monkeypatch.setattr(segments, "_frozen", recording)
        segmented = Database(
            config=EngineConfig(segment_rows=64),
            data_dir=str(tmp_path),
            wal_sync=False,
        )
        table = segmented.table("people")
        assert len(frozen) == table.segment_stats()["segments"] == 4
        assert all(
            len(column) == segment.size
            for segment in frozen
            for column in segment.columns
        )
        sql = "SELECT id, name, qty, kind FROM people WHERE qty > 3 ORDER BY id"
        answer = segmented.execute(sql).rows
        segmented.close()
        default = Database(data_dir=str(tmp_path), wal_sync=False)
        assert answer == default.execute(sql).rows
        default.close()
        assert answer == [
            (i, f"person {i}", i % 9, ("a", "b")[i % 2])
            for i in range(300)
            if i % 9 > 3
        ]
