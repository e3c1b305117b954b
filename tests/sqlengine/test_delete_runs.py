"""A DELETE moves only what it removes: ``Table.delete_positions`` by runs.

Frozen rows become tombstones of their segment.  Delta positions
forming at most ``SLICE_DELETE_RUNS`` runs of consecutive rows are cut
out of every delta list with ``del store[a:b]``; more scattered
positions compact the delta through one keep-mask.  Locks, with counts:

* the bytes a 20-row range DELETE allocates on a 50k-row table
  (tracemalloc peak; a keep-mask over whole columns would copy them);
* a 1-run and a 200-run DELETE, in frozen segments and in the delta,
  leave the columns and undo images that the keep-mask algorithm (kept
  below as the oracle) computes, and ROLLBACK restores byte-identical
  columns.
"""

import tracemalloc
from itertools import compress

import pytest

from repro.sqlengine import segments
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
from repro.sqlengine.database import Database

from tests.sqlengine.reference_engine import snapshot_rows

STATUSES = ("NEW", "OPEN", "HELD", "DONE")


def make_db(rows: int, segment_rows: int = DEFAULT_SEGMENT_ROWS) -> Database:
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table(
        "t", [("id", "INT"), ("qty", "INT"), ("x", "REAL"), ("s", "TEXT")]
    )
    db.insert_rows("t", [(i, i % 2, i / 4 if i % 5 else None, text(i))
                         for i in range(rows)])
    return db


def text(i: int) -> "str | None":
    if i in (1004, 1010, 1016):  # values only the deleted rows hold
        return f"solo {i}"
    return None if i % 7 == 0 else STATUSES[i % 4]


def state(table) -> dict:
    """Everything the compaction writes, as plain copies."""
    return {
        "columns": [
            list(table.column_data(i)) for i in range(len(table.columns))
        ],
    }


def keep_mask_delete(before: dict, positions) -> dict:
    """The oracle: compaction through one keep-mask, on copies."""
    doomed = set(positions)
    keep = bytearray(b"\x01") * len(before["columns"][0])
    for position in doomed:
        keep[position] = 0
    return {
        "columns": [list(compress(c, keep)) for c in before["columns"]],
    }


def test_runs_are_maximal_and_capped():
    assert segments._runs([3], 64) == [(3, 4)]
    assert segments._runs([1, 2, 3, 7, 9, 10], 64) == [(1, 4), (7, 8), (9, 11)]
    scattered = list(range(0, 2 * segments.SLICE_DELETE_RUNS, 2))
    assert len(segments._runs(scattered, segments.SLICE_DELETE_RUNS)) == 64
    assert segments._runs(scattered + [999], segments.SLICE_DELETE_RUNS) is None


def test_a_range_delete_allocates_no_copy_of_the_table():
    table = make_db(50_000).table("t")
    tracemalloc.start()
    try:
        assert table.delete_positions(range(20_000, 20_020)) == 20
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one keep-mask copy of a 50k-entry list alone is ~400 KiB
    assert peak <= 64 * 1024


#: 3000 rows: all frozen at 3 and 64 rows per segment, all delta at the
#: default
@pytest.mark.parametrize("segment_rows", [3, 64, DEFAULT_SEGMENT_ROWS])
@pytest.mark.parametrize(
    "where, runs",
    [
        ("id >= 1000 AND id < 1020", 1),
        ("id >= 1000 AND id < 1400 AND qty = 0", 200),
    ],
)
def test_runs_and_keep_mask_leave_the_same_table(segment_rows, where, runs):
    db = make_db(3000, segment_rows)
    table = db.table("t")
    positions = [
        position for position, row in enumerate(table.iter_rows())
        if 1000 <= row[0] < (1020 if runs == 1 else 1400)
        and (runs == 1 or row[1] == 0)
    ]
    assert len(segments._runs(positions, 10_000)) == runs
    before = state(table)
    removed = [table.row(p) for p in positions]
    db.execute("BEGIN")
    deleted = db.execute(f"DELETE FROM t WHERE {where}").rowcount
    assert deleted == len(positions)
    __, kind, payload = table._undo._records[-1]
    assert (kind, payload) == ("delete", (positions, removed))
    assert state(table) == keep_mask_delete(before, positions)
    assert snapshot_rows(table.pin()) == list(table.iter_rows())
    db.execute("ROLLBACK")
    assert repr(state(table)["columns"]) == repr(before["columns"])
