"""The flat column-list storage, kept as the oracle for the segment layout.

Before tables became frozen segments plus one delta, a table kept one
Python list per column and mutated it in place: INSERT extended every
list, UPDATE wrote values by position, DELETE compacted every list
through a keep-mask, and rollback's re-insert merged the removed values
back.  :class:`FlatStorage` is that model, on its own:
``tests/property/test_property_segments.py`` drives it and a real table
through the same statements and compares every column, ``row(i)`` and
``iter_rows()``.

:func:`reference_insert` is ``Table.insert`` as it ran before inserts
became one step per batch: one storage-lock acquisition, one undo
record, one coercion per value, one storage append (so one segment-
freeze check) and one version bump *per row*.
:func:`reference_insert_many` loops it, which is what
``Table.insert_many`` used to be.  The batch path must leave the same
columns, segments, counters and observer events on success, and raise
the same first error (type and message, in row order) on failure.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SqlCatalogError
from repro.sqlengine.types import coerce_value


class FlatStorage:
    """One value list per column; positions are list indexes."""

    def __init__(self, width: int) -> None:
        self.columns: list = [[] for __ in range(width)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def copy(self) -> "FlatStorage":
        clone = FlatStorage(len(self.columns))
        clone.columns = [list(column) for column in self.columns]
        return clone

    # -- reads ---------------------------------------------------------
    def column(self, index: int) -> list:
        return list(self.columns[index])

    def row(self, position: int) -> tuple:
        return tuple(column[position] for column in self.columns)

    def iter_rows(self) -> Iterator[tuple]:
        return zip(*self.columns)

    # -- writes --------------------------------------------------------
    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            for column, value in zip(self.columns, row):
                column.append(value)

    def update(self, positions: Sequence[int], rows: Sequence[tuple]) -> None:
        for position, row in zip(positions, rows):
            for column, value in zip(self.columns, row):
                column[position] = value

    def delete(self, positions: Iterable[int]) -> None:
        keep = bytearray(b"\x01") * len(self)
        for position in positions:
            keep[position] = 0
        self.columns = [list(compress(column, keep)) for column in self.columns]

    def restore(self, positions: Sequence[int], rows: Sequence[tuple]) -> None:
        """Re-insert removed *rows* at their ascending old *positions*."""
        for position, row in zip(positions, rows):
            for column, value in zip(self.columns, row):
                column.insert(position, value)


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
        table._storage.append([[value] for value in row], 1)
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
