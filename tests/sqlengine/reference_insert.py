"""The per-row insert, kept as the oracle for ``Table.insert_many``.

This is ``Table.insert`` as it ran before inserts became one step per
batch: one storage-lock acquisition, one undo record, one coercion per
value, one segment-freeze check and one version bump *per row*.
``reference_insert_many`` loops it, which is what ``Table.insert_many``
used to be.  The batch path must leave the same column lists, segments,
counters and observer events on success, and raise the same first error (type and message,
in row order) on failure.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import SqlCatalogError
from repro.sqlengine.types import coerce_value


def reference_insert(table, values: Sequence[Any]) -> None:
    """Insert one row given positionally, the pre-batch way."""
    with table._storage_lock:
        if len(values) != len(table.columns):
            raise SqlCatalogError(
                f"table {table.name!r} expects {len(table.columns)} values, "
                f"got {len(values)}"
            )
        row = tuple(
            coerce_value(value, column.sql_type)
            for value, column in zip(values, table.columns)
        )
        if table._undo is not None:
            table._undo.record_insert(table, len(table), 1)
        for store, value in zip(table._column_data, row):
            store.append(value)
        if table._segments is not None:
            table._segments.note_insert(table)
        table._version += 1
        for observer in table._observers:
            observer.on_insert(table, row)


def reference_insert_many(table, rows: Iterable[Sequence[Any]]) -> int:
    """``Table.insert_many`` as a loop over the per-row insert."""
    count = 0
    for row in rows:
        reference_insert(table, row)
        count += 1
    return count
