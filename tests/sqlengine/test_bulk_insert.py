"""A batch insert is one step: ``Table.insert_many`` locks, with counts.

``Database.insert_rows``, SQL ``INSERT … VALUES`` and WAL replay append
a whole batch under one storage-lock acquisition, with one undo record
``(start, count)``, one segment-freeze check and a version bump of
``count``.  Locked here with counters:

* a concurrent pin sees every batch whole or not at all (the named
  mutant, ``insert_many`` looping over a per-row locked helper, lets a
  reader pin a prefix of a statement that can still roll back);
* an exact-typed batch calls ``coerce_value`` zero times and records
  one undo entry, and ``Table.version`` moves by the row count;
* a batch whose WAL append fails is undone by one ``delete_positions``
  (the per-row path made one per row), leaving the table, the
  statistics summary and the inverted-index postings equal to a twin
  that never saw the batch;
* SQL ``INSERT … VALUES``, with or without a column list, raises the
  per-row path's first error and leaves its rows.
"""

import functools
import sys
import threading

import pytest

from repro.errors import SqlError, SqlTypeError
from repro.index.inverted import InvertedIndex
from repro.index.maintenance import attach_maintainer
from repro.sqlengine import catalog
from repro.sqlengine.catalog import Table
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.txn import FaultInjector, FileLogStorage, InjectedCrash
from repro.sqlengine.txn.undo import UndoLog

from tests.sqlengine.reference_storage import reference_insert_many

STATUSES = ("NEW", "OPEN", "HELD", "DONE")
COLUMNS = [("id", "INT"), ("x", "REAL"), ("s", "TEXT")]


def rows(start: int, count: int) -> list:
    return [
        (i, i / 4, f"{STATUSES[i % 4]} order")
        for i in range(start, start + count)
    ]


def counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to count its calls; returns the call log."""
    calls = []
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_a_pin_never_sees_part_of_a_bulk_insert():
    db = Database(config=EngineConfig(segment_rows=64))
    table = db.create_table("t", COLUMNS)
    batches = [rows(500 * b, 500) for b in range(20)]
    seen = []
    done = threading.Event()

    def reader():
        while not done.is_set():
            seen.append(db.catalog.pin_tables(["t"])[id(table)].row_count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the reader the GIL mid-batch
    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for batch in batches:
            db.insert_rows("t", batch)
    finally:
        done.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert len(table) == 10_000
    assert seen
    assert all(count % 500 == 0 for count in seen), sorted(set(seen))


class TestCounters:
    def test_exact_typed_batch_skips_coercion(self, monkeypatch):
        db = Database()
        table = db.create_table("t", COLUMNS)
        coerced = counting(monkeypatch, catalog, "coerce_value")
        recorded = counting(monkeypatch, UndoLog, "record_insert")
        before = table.version
        assert db.insert_rows("t", rows(0, 5000)) == 5000
        assert len(coerced) == 0
        assert len(recorded) == 1
        assert table.version == before + 5000

    def test_one_coercible_value_coerces_the_batch_row_by_row(self, monkeypatch):
        db = Database()
        db.create_table("t", COLUMNS)
        coerced = counting(monkeypatch, catalog, "coerce_value")
        batch = rows(0, 5000)
        batch[4999] = (4999, 7, "NEW order")  # an int into the REAL column
        db.insert_rows("t", batch)
        assert len(coerced) == 3 * 5000
        assert db.table("t").column_data(1)[4999] == 7.0

    def test_the_undo_record_is_one_range(self):
        db = Database()
        table = db.create_table("t", COLUMNS)
        db.insert_rows("t", rows(0, 10))
        db.execute("BEGIN")
        db.insert_rows("t", rows(10, 5000))
        assert db.txn._undo._records == [(table, "insert", (10, 5000))]
        db.execute("ROLLBACK")
        assert table.rows == rows(0, 10)

    def test_a_bad_row_writes_nothing(self, monkeypatch):
        db = Database(config=EngineConfig(segment_rows=64))
        table = db.create_table("t", COLUMNS)
        db.insert_rows("t", rows(0, 100))
        recorded = counting(monkeypatch, UndoLog, "record_insert")
        deleted = counting(monkeypatch, Table, "delete_positions")
        before = (table.version, table.segment_stats(), table.rows)
        batch = rows(100, 300)
        batch[200] = (300, "x", None)
        with pytest.raises(SqlTypeError, match="cannot coerce 'x' to REAL"):
            db.insert_rows("t", batch)
        assert (table.version, table.segment_stats(), table.rows) == before
        assert recorded == [] and deleted == []


def _durable_twins(tmp_path):
    """A durable database whose WAL can be made to fail, and a twin."""
    injectors = []

    def storage(path):
        injectors.append(FaultInjector(FileLogStorage(path)))
        return injectors[-1]

    databases = [
        Database(data_dir=str(tmp_path / "db"), wal_storage_factory=storage),
        Database(),
    ]
    indexes = []
    for db in databases:
        db.create_table("t", COLUMNS)
        db.insert_rows("t", rows(0, 300))
        db.planner.statistics.table_stats("t")  # the summary now follows writes
        indexes.append(InvertedIndex.build(db.catalog))
        attach_maintainer(db.catalog, indexes[-1])
    injectors[-1].byte_budget = injectors[-1].bytes_written
    return databases, indexes


def _table_state(table) -> tuple:
    return table.rows, table.mutation_count


def _summary_state(db) -> tuple:
    summary = db.planner.statistics._summaries["t"]
    return (
        [(column.counts, column.nulls) for column in summary.columns],
        db.planner.statistics.table_stats("t"),
    )


def _index_state(index) -> tuple:
    postings = {token: keys for token, keys in index._postings.items() if keys}
    return postings, index._value_counts, index.entry_count()


def test_a_failed_wal_append_undoes_the_batch_in_one_delete(tmp_path, monkeypatch):
    (ours, twin), (our_index, twin_index) = _durable_twins(tmp_path)
    deleted = counting(monkeypatch, Table, "delete_positions")
    with pytest.raises(InjectedCrash):
        ours.insert_rows("t", rows(300, 5000))
    assert len(deleted) == 1
    assert _table_state(ours.table("t")) == _table_state(twin.table("t"))
    assert _summary_state(ours) == _summary_state(twin)
    assert _index_state(our_index) == _index_state(twin_index)
    ours.close()


@pytest.mark.parametrize(
    "sql",
    [
        "INSERT INTO t VALUES (1, 2.5, 'a'), (2, 3, NULL)",
        "INSERT INTO t (s, id) VALUES ('a', 1), ('b', 2)",
        "INSERT INTO t VALUES (1, 'x', 'a'), (2, 2.0)",
        "INSERT INTO t VALUES (1, 1.0, 'a'), (2, 2.0)",
        "INSERT INTO t (id, x) VALUES (1, 'x'), (2)",
        "INSERT INTO t (id, x) VALUES (1, 1.0), (2)",
        "INSERT INTO t (id, nope) VALUES (1, 2)",
        "INSERT INTO t VALUES (1, 1.0, 'a'), (TRUE, 2.0, 5)",
    ],
)
def test_sql_insert_matches_the_per_row_path(sql):
    outcomes = []
    for oracle in (False, True):
        db = Database()
        table = db.create_table("t", COLUMNS)
        db.insert_rows("t", rows(0, 3))
        if oracle:
            table.insert_many = functools.partial(reference_insert_many, table)
        try:
            error = None
            count = db.execute(sql).rowcount
        except Exception as exc:
            error, count = (type(exc), str(exc)), None
        outcomes.append((error, count, table.rows))
    assert outcomes[0] == outcomes[1]


def test_a_bad_value_before_a_short_row_raises_first():
    db = Database()
    db.create_table("t", COLUMNS)
    with pytest.raises(SqlTypeError):
        db.execute("INSERT INTO t (id, x) VALUES (1, 'x'), (2)")
    with pytest.raises(SqlError, match="arity mismatch"):
        db.execute("INSERT INTO t (id, x) VALUES (1, 1.0), (2)")
    assert len(db.table("t")) == 0
