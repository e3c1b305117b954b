"""Catalog and table storage for the in-memory relational engine."""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.concurrency import SharedRLock
from repro.errors import SqlCatalogError
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS
from repro.sqlengine.segments import TableStorage
from repro.sqlengine.types import SqlType, coerce_value

#: per SQL type, the Python types :func:`coerce_value` returns unchanged
#: (exact types: a ``bool`` is not an INTEGER, an ``int`` becomes a REAL)
_EXACT_TYPES = {
    SqlType.INTEGER: {int, type(None)},
    SqlType.REAL: {float, type(None)},
    SqlType.TEXT: {str, type(None)},
    SqlType.DATE: {datetime.date, type(None)},
    SqlType.BOOLEAN: {bool, type(None)},
}


def _locked(method):
    """Run *method* under the table's storage lock.

    Every mutation path is wrapped so the segments and the delta always
    change as one atomic step with respect to :meth:`Table.pin` /
    :meth:`Catalog.pin_tables`.  The lock is an uncontended C-level
    RLock for the classic single-threaded setup, so the wrapper costs
    next to nothing there.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._storage_lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class Column:
    """Schema of one column."""

    name: str
    sql_type: SqlType
    primary_key: bool = False


class CatalogObserver:
    """Write-through hook interface for derived structures (indexes).

    A registered observer is told about every row insert, update and
    delete, and every DDL statement, so long-lived structures built
    over the catalog (the SODA inverted index, statistics, caches) can
    maintain themselves incrementally instead of being rebuilt by full
    scans.  All methods are no-ops by default; subclasses override what
    they need.
    """

    def on_insert(self, table: "Table", row: tuple) -> None:
        """One coerced row was appended to *table*.

        Called once per row, in row order, after the whole batch it
        belongs to is visible in the table.
        """

    def on_update(self, table: "Table", old_row: tuple, new_row: tuple) -> None:
        """One row of *table* was rewritten in place."""

    def on_delete(self, table: "Table", row: tuple) -> None:
        """One row of *table* was removed."""

    def on_create_table(self, table: "Table") -> None:
        """*table* was just created (empty)."""

    def on_drop_table(self, name: str) -> None:
        """The table called *name* was dropped."""


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint from this table to *ref_table*."""

    columns: tuple
    ref_table: str
    ref_columns: tuple

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SqlCatalogError(
                f"foreign key arity mismatch: {self.columns} vs {self.ref_columns}"
            )


class Table:
    """A named table: column schema plus columnar storage.

    Rows are tuples in column order.  Values are validated and coerced on
    insert so that downstream operators can rely on type invariants.

    Each value is stored once, in frozen columnar segments of
    ``segment_rows`` rows plus one mutable delta (a
    :class:`~repro.sqlengine.segments.TableStorage`).  Readers scan a
    pinned :meth:`pin`; :meth:`column_data`, :meth:`row` and
    :meth:`iter_rows` decode live values into fresh lists and tuples,
    and :attr:`rows` is a freshly decoded list for tests and tools.  All
    mutation flows through the single insert/update/delete paths below,
    which map onto the segments and the delta as
    :mod:`repro.sqlengine.segments` describes.

    Every mutation bumps :attr:`version` (the per-table plan-cache
    validity token); updates and deletes additionally bump
    :attr:`mutation_count`, which feeds the catalog fingerprint so
    non-append writes are visible to snapshot staleness checks even when
    the row count ends up unchanged.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        foreign_keys: Iterable[ForeignKey] = (),
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        storage_lock: "SharedRLock | None" = None,
    ) -> None:
        if not columns:
            raise SqlCatalogError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SqlCatalogError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns = tuple(columns)
        self.foreign_keys = tuple(foreign_keys)
        self._index_of = {c.name: i for i, c in enumerate(self.columns)}
        #: frozen segments + delta, one value sequence per column each
        self._storage = TableStorage(segment_rows, len(self.columns))
        #: bumped on every insert/update/delete (plan-cache validity)
        self._version = 0
        #: updates + deletes only (feeds the catalog fingerprint)
        self._mutation_count = 0
        # shared with the owning catalog (see Catalog.register_observer)
        self._observers: list[CatalogObserver] = []
        #: active undo log (see repro.sqlengine.txn.undo) or None; every
        #: mutation below records its inverse here while a transaction —
        #: explicit or per-statement implicit — is open on this table
        self._undo = None
        #: guards every mutation and every pin; shared across all tables
        #: of one catalog so multi-table pins are a single atomic step
        self._storage_lock = (
            storage_lock if storage_lock is not None else SharedRLock()
        )

    # ------------------------------------------------------------------
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise SqlCatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._index_of

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def primary_key_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.primary_key]

    # ------------------------------------------------------------------
    def column_data(self, index: int) -> list:
        """A fresh list of the live values of the column at *index*."""
        with self._storage_lock:
            return self._storage.column(index)

    def row(self, position: int) -> tuple:
        """The row at live *position*, decoded from its segment or the delta."""
        with self._storage_lock:
            return self._storage.row(position)

    def iter_rows(self) -> Iterator[tuple]:
        """Every row in table order, decoded from a pin taken now."""
        return self.pin().iter_rows()

    @property
    def rows(self) -> list[tuple]:
        """A freshly decoded list of every row (a copy; for tests and tools)."""
        return list(self.iter_rows())

    def _rows_at(self, positions: Sequence[int]) -> list[tuple]:
        """The rows at *positions* (called under the storage lock)."""
        row = self._storage.row
        return [row(position) for position in positions]

    @_locked
    def load_columns(self, columns: Sequence[Sequence[Any]]) -> None:
        """Replace every row with *columns*, one value list per column
        (all of one length).

        The bulk fill of checkpoint recovery: the values are taken as
        already coerced, and neither the undo log, the version nor the
        observers hear about it.
        """
        if len(columns) != len(self.columns):
            raise SqlCatalogError(
                f"table {self.name!r} expects {len(self.columns)} columns, "
                f"got {len(columns)}"
            )
        self._storage.load(columns)

    # ------------------------------------------------------------------
    def read_guard(self) -> "SharedRLock":
        """The storage lock, for readers that need several reads of one state.

        Used as ``with table.read_guard():`` by the statistics gatherer,
        which validates a summary against :attr:`version` and then
        decodes columns.  Pinned scans never need it.
        """
        return self._storage_lock

    def pin(self):
        """An immutable :class:`~repro.sqlengine.segments.TableSnapshot`.

        Cheap: the segment list plus a copy of the small delta, taken
        under the storage lock.
        """
        with self._storage_lock:
            return self._storage.snapshot()

    def segment_stats(self) -> dict:
        """Segment/delta/tombstone counts."""
        with self._storage_lock:
            return self._storage.stats()

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Bumped on every insert/update/delete of this table."""
        return self._version

    @property
    def mutation_count(self) -> int:
        """Updates + deletes applied to this table (never appends)."""
        return self._mutation_count

    # ------------------------------------------------------------------
    def insert(self, values: Sequence[Any]) -> None:
        """Insert one row given positionally."""
        self.insert_many((values,))

    def insert_named(self, **values: Any) -> None:
        """Insert one row given by column name; missing columns become NULL."""
        self.insert_many((self.named_row(values),))

    def named_row(self, values: dict) -> list:
        """The positional row for column name -> value; missing are NULL."""
        unknown = set(values) - set(self._index_of)
        if unknown:
            raise SqlCatalogError(
                f"unknown columns for table {self.name!r}: {sorted(unknown)}"
            )
        return [values.get(c.name) for c in self.columns]

    def _coerce_row(self, values: Sequence[Any]) -> tuple:
        """One row validated and coerced to the column types."""
        if len(values) != len(self.columns):
            raise SqlCatalogError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        return tuple(
            coerce_value(value, column.sql_type)
            for value, column in zip(values, self.columns)
        )

    @_locked
    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append *rows* (positional) as one step; returns the row count.

        The single insert path.  Under one lock acquisition the batch
        is validated and coerced before the first write, so a bad row
        raises the error the first bad value in row order raises and
        leaves the table untouched.  A column whose values all already
        have the exact Python type its SQL type stores skips coercion.
        Then one undo record ``(start, count)``, one append to the
        storage (which freezes every full segment) and a version bump of
        ``count``; observers see one ``on_insert`` per row, in row
        order, after the whole batch is visible.
        """
        rows = list(rows)
        if not rows:
            return 0
        width = len(self.columns)
        columns = None
        if all(len(row) == width for row in rows):
            columns = list(zip(*rows))
            for values, column in zip(columns, self.columns):
                if not {*map(type, values)} <= _EXACT_TYPES[column.sql_type]:
                    columns = None
                    break
        if columns is None:  # row by row: the first error in row order
            columns = list(zip(*map(self._coerce_row, rows)))
        start = len(self)
        count = len(rows)
        if self._undo is not None:
            self._undo.record_insert(self, start, count)
        self._storage.append(columns, count)
        self._version += count
        if self._observers:
            for row in zip(*columns):
                for observer in self._observers:
                    observer.on_insert(self, row)
        return count

    # ------------------------------------------------------------------
    # the single mutation path
    # ------------------------------------------------------------------
    @_locked
    def update_positions(
        self, positions: Sequence[int], new_rows: Sequence[Sequence[Any]]
    ) -> int:
        """Rewrite the rows at *positions* with *new_rows*.

        Values are validated and coerced exactly like inserts.  Delta
        rows are written in place and each touched segment is replaced
        (copy-on-write); the old images, which the undo log and
        observers (one ``on_update(table, old_row, new_row)`` per row)
        receive, are decoded first.  All
        validation (positions in range, values coercible) happens before
        the first write, so an error leaves the table untouched.  Returns
        the row count.
        """
        if len(positions) != len(new_rows):
            raise SqlCatalogError(
                f"table {self.name!r}: {len(positions)} positions but "
                f"{len(new_rows)} replacement rows"
            )
        if positions and (
            min(positions) < 0 or max(positions) >= len(self)
        ):
            raise SqlCatalogError(
                f"table {self.name!r}: update position out of range "
                f"(have {len(self)} rows)"
            )
        coerced = [self._coerce_row(values) for values in new_rows]
        if not coerced:
            return 0
        old_rows = self._rows_at(positions)
        if self._undo is not None:
            self._undo.record_update(self, list(positions), old_rows)
        self._storage.update(positions, coerced)
        self._version += 1
        self._mutation_count += 1
        for observer in self._observers:
            for old_row, new_row in zip(old_rows, coerced):
                observer.on_update(self, old_row, new_row)
        return len(coerced)

    @_locked
    def delete_positions(self, positions: Sequence[int]) -> int:
        """Remove the rows at *positions*.

        Frozen rows become tombstones of their segment (a segment at
        least half dead is compacted); delta rows forming at most
        :data:`~repro.sqlengine.segments.SLICE_DELETE_RUNS` runs are cut
        out with ``del store[a:b]``, more scattered ones through one
        keep-mask.  The removed rows are decoded first, for the undo
        log and for observers, which see one ``on_delete(table, row)``
        per removed row, in table order.  Returns the row count.
        """
        doomed = set(positions)
        if not doomed:
            return 0
        count = len(self)
        if min(doomed) < 0 or max(doomed) >= count:
            raise SqlCatalogError(
                f"table {self.name!r}: delete position out of range "
                f"(have {count} rows)"
            )
        ordered = sorted(doomed)
        removed = self._rows_at(ordered)
        if self._undo is not None:
            self._undo.record_delete(self, ordered, removed)
        self._storage.delete(ordered)
        self._version += 1
        self._mutation_count += 1
        for observer in self._observers:
            for row in removed:
                observer.on_delete(self, row)
        return len(ordered)

    @_locked
    def restore_rows(self, positions: Sequence[int], rows: Sequence[tuple]) -> None:
        """Re-insert previously removed rows at their original positions.

        The exact inverse of :meth:`delete_positions`: *positions* are
        the (strictly ascending) positions the rows occupied before the
        delete, and *rows* the already-coerced tuples it removed.  Each
        column is decoded, merged with its restored values, and the
        segments are rebuilt from the merged columns; observers see one
        ``on_insert`` per row — so derived structures (the inverted
        index) converge to the pre-delete state.  Used by the
        transaction undo log; not a public mutation path.
        """
        if len(positions) != len(rows):
            raise SqlCatalogError(
                f"table {self.name!r}: {len(positions)} restore positions "
                f"but {len(rows)} rows"
            )
        if not positions:
            return
        final_len = len(self) + len(positions)
        if (
            len(set(positions)) != len(positions)
            or list(positions) != sorted(positions)
            or positions[0] < 0
            or positions[-1] >= final_len
        ):
            raise SqlCatalogError(
                f"table {self.name!r}: restore positions must be unique, "
                f"ascending and within {final_len} rows"
            )
        restored = list(zip(*rows))  # one value tuple per column
        self._storage.load([
            _merge(self._storage.column(index), positions, values)
            for index, values in enumerate(restored)
        ])
        self._version += 1
        self._mutation_count += 1
        for observer in self._observers:
            for row in rows:
                observer.on_insert(self, row)

    def __len__(self) -> int:
        return self._storage.count

    def __iter__(self) -> Iterator[tuple]:
        return self.iter_rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} cols={len(self.columns)} rows={len(self)}>"


def _merge(old: list, positions: Sequence[int], values: Sequence) -> list:
    """*old* with ``values[k]`` re-inserted at ascending ``positions[k]``."""
    merged: list = []
    taken = 0  # old values copied so far; k values precede positions[k]
    for k, (position, value) in enumerate(zip(positions, values)):
        merged += old[taken : position - k]
        merged.append(value)
        taken = position - k
    return merged + old[taken:]


class Catalog:
    """All tables of one database, with FK metadata.

    The catalog tracks a DDL version so the planner can fingerprint it
    (see :meth:`fingerprint`) and invalidate cached plans when the
    schema or the data volume changes.
    """

    def __init__(self, segment_rows: int = DEFAULT_SEGMENT_ROWS) -> None:
        # the setting comes from an EngineConfig, which validated it
        self._tables: dict[str, Table] = {}
        self._ddl_version = 0
        self._observers: list[CatalogObserver] = []
        #: rows per frozen segment of every table
        self.segment_rows = segment_rows
        #: one lock for all tables: writers serialize catalog-wide, and
        #: pin_tables captures a multi-table snapshot set atomically
        self._storage_lock = SharedRLock()
        #: set to a unique token while an explicit transaction is open
        #: (see fingerprint); None outside transactions
        self._txn_token = None

    def register_observer(self, observer: CatalogObserver) -> None:
        """Subscribe *observer* to inserts/DDL on all current and future tables."""
        if observer in self._observers:
            return
        self._observers.append(observer)
        for table in self._tables.values():
            table._observers = self._observers

    def unregister_observer(self, observer: CatalogObserver) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def observers(self) -> list[CatalogObserver]:
        return list(self._observers)

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> Table:
        key = name.lower()
        if key in self._tables:
            raise SqlCatalogError(f"table already exists: {name!r}")
        table = Table(
            key,
            columns,
            foreign_keys,
            segment_rows=self.segment_rows,
            storage_lock=self._storage_lock,
        )
        table._observers = self._observers
        self._tables[key] = table
        self._ddl_version += 1
        for observer in self._observers:
            observer.on_create_table(table)
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise SqlCatalogError(f"no such table: {name!r}")
        del self._tables[key]
        self._ddl_version += 1
        for observer in self._observers:
            observer.on_drop_table(key)

    @property
    def ddl_version(self) -> int:
        """Bumped on every CREATE/DROP; part of the plan-cache key."""
        return self._ddl_version

    @property
    def txn_token(self) -> "int | None":
        """The open explicit transaction's unique token; None outside one.

        Never reused, so a cache that keeps it in a stamp's global mark
        validates nothing computed mid-transaction once it has ended.
        """
        return self._txn_token

    def fingerprint(self) -> tuple:
        """A cheap token that changes whenever derived state could go stale.

        ``(ddl_version, total_rows, total_mutations)``: CREATE/DROP
        bumps the first, inserts grow the second, and UPDATE/DELETE bump
        the third — so a delete-then-reinsert that restores the row
        count, or an update that never changes it, still produces a new
        fingerprint.  Used by index snapshots; every cache validates
        against the finer-grained per-table :meth:`table_versions`
        instead (see :mod:`repro.stamps`).

        While an explicit transaction is open a unique ``("txn", n)``
        token is appended: uncommitted state must never validate a
        memo, and the token is never reused, so a later transaction
        that happens to reach the same counters cannot collide.  After
        COMMIT or ROLLBACK the plain three-tuple form returns, matching
        a catalog that only ever saw the committed statements.
        """
        total_rows = 0
        total_mutations = 0
        for table in self._tables.values():
            total_rows += len(table)
            total_mutations += table.mutation_count
        base = (self._ddl_version, total_rows, total_mutations)
        if self._txn_token is not None:
            return base + (("txn", self._txn_token),)
        return base

    def table_versions(self, names: Iterable[str]) -> tuple:
        """``(name, version)`` per table: the tables part of a stamp.

        Unknown tables get version ``None`` so a cached answer whose
        table was dropped can never validate (drop + re-create resets
        the counter, which the DDL version in the global mark covers).
        """
        tokens = []
        for name in names:
            table = self._tables.get(name.lower())
            tokens.append((name, table.version if table is not None else None))
        return tuple(tokens)

    def pin_tables(self, names: Iterable[str]) -> dict:
        """Pin snapshots of the named tables as one atomic step.

        Returns ``{id(table): TableSnapshot}`` for installation via
        :func:`repro.sqlengine.segments.pinned`.  Taking every snapshot
        under one acquisition of the catalog-wide storage lock
        guarantees a multi-table query reads one mutually consistent
        state.
        """
        pins: dict = {}
        with self._storage_lock:
            for name in names:
                table = self._tables.get(name.lower())
                if table is not None:
                    pins[id(table)] = table._storage.snapshot()
        return pins

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SqlCatalogError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> list[Table]:
        return [self._tables[name] for name in self.table_names()]

    def foreign_key_edges(self) -> list[tuple[str, str, ForeignKey]]:
        """All (from_table, to_table, fk) edges in the catalog."""
        edges = []
        for table in self.tables():
            for fk in table.foreign_keys:
                edges.append((table.name, fk.ref_table, fk))
        return edges
