"""Catalog and table storage for the in-memory relational engine."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Iterable, Iterator, Sequence

from repro.concurrency import SharedRLock
from repro.errors import SqlCatalogError, SqlTypeError
from repro.sqlengine.encoding import (
    DICT_ENCODING_MAX_DISTINCT,
    ArrayColumn,
    ColumnDictionary,
)
from repro.sqlengine.segments import SegmentedStorage
from repro.sqlengine.types import SqlType, coerce_value


def _locked(method):
    """Run *method* under the table's storage lock.

    Every mutation path is wrapped so the frozen-segment mirror, the
    flat storage and the dictionary codes always change as one atomic
    step with respect to :meth:`Table.pin` /
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
        """One coerced row was appended to *table*."""

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
    """A named table: column schema plus dual row/columnar storage.

    Rows are tuples in column order.  Values are validated and coerced on
    insert so that downstream operators can rely on type invariants.

    Storage is kept in two synchronized layouts: ``rows`` (a list of
    tuples, the view used by the inverted-index maintainer, snapshots and
    the row-at-a-time operators) and one Python list per column
    (``column_data``), which the vectorized batch operators slice
    directly without per-row tuple indexing.  All mutation flows through
    the single insert/update/delete paths below, which write both
    layouts in lockstep (in-place column writes for UPDATE, tombstone-
    free compaction for DELETE), so they can never diverge.  Both list
    objects keep their identity across mutations, so operators holding a
    reference always see the live data.

    Every mutation bumps :attr:`version` (the per-table plan-cache
    validity token); updates and deletes additionally bump
    :attr:`mutation_count`, which feeds the catalog fingerprint so
    non-append writes are visible to snapshot staleness checks even when
    the row count ends up unchanged.

    TEXT columns additionally carry a **dictionary encoding** while
    their live distinct-value count stays at or below
    ``dict_encoding_threshold`` (default
    :data:`~repro.sqlengine.encoding.DICT_ENCODING_MAX_DISTINCT`; 0
    disables encoding): a refcounted
    :class:`~repro.sqlengine.encoding.ColumnDictionary` plus one code
    per row, maintained through the same single mutation path as the
    two value layouts.  The vectorized engine reads the codes for
    integer-speed string predicates and code-keyed GROUP BY / DISTINCT
    / join probes; a column whose cardinality outgrows the threshold
    drops its dictionary and falls back to plain value batches.

    With ``array_store=True`` the INTEGER/REAL entries of
    ``column_data`` are :class:`~repro.sqlengine.encoding.ArrayColumn`
    typed buffers instead of plain lists (contiguous int64/float64
    storage, NULLs via a validity bitmap).  They are list-alike — reads
    and slices decode to plain Python values — and are maintained
    through the same single mutation path, so nothing downstream
    changes.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        foreign_keys: Iterable[ForeignKey] = (),
        dict_encoding_threshold: "int | None" = None,
        array_store: bool = False,
        segment_rows: int = 0,
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
        self.rows: list[tuple] = []
        #: columnar storage: one value list per column, in schema order
        #: (ArrayColumn typed buffers for INTEGER/REAL when opted in)
        self._column_data: list = [
            ArrayColumn("q" if column.sql_type is SqlType.INTEGER else "d")
            if array_store
            and column.sql_type in (SqlType.INTEGER, SqlType.REAL)
            else []
            for column in self.columns
        ]
        self.array_store = array_store
        self._dict_threshold = (
            DICT_ENCODING_MAX_DISTINCT
            if dict_encoding_threshold is None
            else max(0, dict_encoding_threshold)
        )
        #: per-column dictionary (TEXT columns under the threshold; None
        #: once a column is unencoded) and the aligned code lists
        self._dictionaries: list = [
            ColumnDictionary()
            if self._dict_threshold and column.sql_type is SqlType.TEXT
            else None
            for column in self.columns
        ]
        self._codes: list = [
            [] if dictionary is not None else None
            for dictionary in self._dictionaries
        ]
        self._encoded_indexes: list[int] = [
            i for i, d in enumerate(self._dictionaries) if d is not None
        ]
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
        #: frozen-segment + delta mirror (see repro.sqlengine.segments),
        #: or None for the classic flat-only storage
        self._segments = (
            SegmentedStorage(segment_rows) if segment_rows > 0 else None
        )
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
        """The value list of the column at *index* (live, do not mutate)."""
        return self._column_data[index]

    def column_values(self, name: str) -> list:
        """The value list of the named column (live, do not mutate)."""
        return self._column_data[self.column_index(name)]

    def column_dictionary(self, index: int) -> "ColumnDictionary | None":
        """The dictionary of the column at *index*, or None if unencoded."""
        return self._dictionaries[index]

    def column_codes(self, index: int) -> "list | None":
        """The per-row code list of the column at *index* (live), or None."""
        return self._codes[index]

    def encoded_column_names(self) -> list[str]:
        """Names of the columns currently carrying a dictionary."""
        return [self.columns[i].name for i in self._encoded_indexes]

    def _disable_dictionary(self, index: int) -> None:
        """Drop the dictionary of one column (cardinality outgrew the cap)."""
        self._dictionaries[index] = None
        self._codes[index] = None
        self._encoded_indexes.remove(index)

    def _check_dictionary_thresholds(self) -> None:
        for index in list(self._encoded_indexes):
            if self._dictionaries[index].live_count > self._dict_threshold:
                self._disable_dictionary(index)

    # ------------------------------------------------------------------
    @property
    def segmented(self) -> bool:
        """True when this table keeps a frozen-segment + delta mirror."""
        return self._segments is not None

    def read_guard(self) -> "SharedRLock":
        """The storage lock, for callers that must iterate live storage.

        Used as ``with table.read_guard():`` by readers that walk the
        mutable flat lists directly (e.g. the statistics gatherer) and
        therefore cannot tolerate a concurrent compaction.  Pinned scans
        never need it.
        """
        return self._storage_lock

    def pin(self):
        """An immutable :class:`~repro.sqlengine.segments.TableSnapshot`.

        Only meaningful for segmented tables (None otherwise).  Cheap:
        the segment list plus a copy of the small delta, taken under
        the storage lock.
        """
        if self._segments is None:
            return None
        with self._storage_lock:
            return self._segments.snapshot(self)

    def segment_stats(self) -> "dict | None":
        """Segment/delta/tombstone counts, or None when unsegmented."""
        if self._segments is None:
            return None
        with self._storage_lock:
            return self._segments.stats(self)

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
    @_locked
    def insert(self, values: Sequence[Any]) -> None:
        """Insert one row given positionally."""
        if len(values) != len(self.columns):
            raise SqlCatalogError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        row = tuple(
            coerce_value(value, column.sql_type)
            for value, column in zip(values, self.columns)
        )
        if self._undo is not None:
            self._undo.record_insert(self, len(self.rows))
        self.rows.append(row)
        for store, value in zip(self._column_data, row):
            store.append(value)
        if self._encoded_indexes:
            for index in self._encoded_indexes:
                value = row[index]
                self._codes[index].append(
                    None
                    if value is None
                    else self._dictionaries[index].encode(value)
                )
            self._check_dictionary_thresholds()
        if self._segments is not None:
            self._segments.note_insert(self)
        self._version += 1
        for observer in self._observers:
            observer.on_insert(self, row)

    def insert_named(self, **values: Any) -> None:
        """Insert one row given by column name; missing columns become NULL."""
        unknown = set(values) - set(self._index_of)
        if unknown:
            raise SqlCatalogError(
                f"unknown columns for table {self.name!r}: {sorted(unknown)}"
            )
        self.insert([values.get(c.name) for c in self.columns])

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------
    # the single mutation path (shared by both execution engines)
    # ------------------------------------------------------------------
    @_locked
    def update_positions(
        self, positions: Sequence[int], new_rows: Sequence[Sequence[Any]]
    ) -> int:
        """Rewrite the rows at *positions* with *new_rows*, in place.

        Values are validated and coerced exactly like inserts.  The
        tuple list and every per-column list are written together, and
        observers see one ``on_update(table, old_row, new_row)`` per
        row.  All validation (positions in range, values coercible)
        happens before the first write, so an error leaves the table
        untouched.  Returns the row count.
        """
        if len(positions) != len(new_rows):
            raise SqlCatalogError(
                f"table {self.name!r}: {len(positions)} positions but "
                f"{len(new_rows)} replacement rows"
            )
        if positions and (
            min(positions) < 0 or max(positions) >= len(self.rows)
        ):
            raise SqlCatalogError(
                f"table {self.name!r}: update position out of range "
                f"(have {len(self.rows)} rows)"
            )
        coerced = []
        for values in new_rows:
            if len(values) != len(self.columns):
                raise SqlCatalogError(
                    f"table {self.name!r} expects {len(self.columns)} "
                    f"values, got {len(values)}"
                )
            coerced.append(
                tuple(
                    coerce_value(value, column.sql_type)
                    for value, column in zip(values, self.columns)
                )
            )
        if not coerced:
            return 0
        rows = self.rows
        if self._undo is not None:
            self._undo.record_update(
                self,
                list(positions),
                [rows[position] for position in positions],
            )
        column_data = self._column_data
        encoded_indexes = self._encoded_indexes
        changes = []
        for position, new_row in zip(positions, coerced):
            old_row = rows[position]
            rows[position] = new_row
            for store, value in zip(column_data, new_row):
                store[position] = value
            for index in encoded_indexes:
                dictionary = self._dictionaries[index]
                codes = self._codes[index]
                old_code = codes[position]
                if old_code is not None:
                    dictionary.release(old_code)
                value = new_row[index]
                codes[position] = (
                    None if value is None else dictionary.encode(value)
                )
            changes.append((old_row, new_row))
        if encoded_indexes:
            self._check_dictionary_thresholds()
        if self._segments is not None:
            self._segments.note_update(self, positions)
        self._version += 1
        self._mutation_count += 1
        for observer in self._observers:
            for old_row, new_row in changes:
                observer.on_update(self, old_row, new_row)
        return len(changes)

    @_locked
    def delete_positions(self, positions: Sequence[int]) -> int:
        """Remove the rows at *positions* (tombstone-free compaction).

        Both storages are compacted together via in-place slice
        assignment, preserving list object identity for any operator
        holding a reference.  Observers see one ``on_delete(table,
        row)`` per removed row, in table order.  Returns the row count.
        """
        doomed = set(positions)
        if not doomed:
            return 0
        rows = self.rows
        if min(doomed) < 0 or max(doomed) >= len(rows):
            raise SqlCatalogError(
                f"table {self.name!r}: delete position out of range "
                f"(have {len(rows)} rows)"
            )
        removed = [rows[position] for position in sorted(doomed)]
        if self._undo is not None:
            self._undo.record_delete(self, sorted(doomed), removed)
        segment_plan = (
            self._segments.plan_delete(sorted(doomed))
            if self._segments is not None
            else None
        )
        # one keep-mask for every aligned list, applied at C speed
        keep = bytearray(b"\x01") * len(rows)
        for position in doomed:
            keep[position] = 0
        rows[:] = list(compress(rows, keep))
        for store in self._column_data:
            store[:] = list(compress(store, keep))
        for index in self._encoded_indexes:
            dictionary = self._dictionaries[index]
            codes = self._codes[index]
            for position in doomed:
                code = codes[position]
                if code is not None:
                    dictionary.release(code)
            codes[:] = list(compress(codes, keep))
        if self._segments is not None:
            self._segments.commit_delete(self, segment_plan)
        self._version += 1
        self._mutation_count += 1
        for observer in self._observers:
            for row in removed:
                observer.on_delete(self, row)
        return len(removed)

    @_locked
    def restore_rows(self, positions: Sequence[int], rows: Sequence[tuple]) -> None:
        """Re-insert previously removed rows at their original positions.

        The exact inverse of :meth:`delete_positions`: *positions* are
        the (strictly ascending) positions the rows occupied before the
        delete, and *rows* the already-coerced tuples it removed.  Both
        storages are rebuilt together via in-place slice assignment
        (list identity preserved), dictionary codes are re-interned for
        the restored rows only, and observers see one ``on_insert`` per
        row — so derived structures (the inverted index) converge to the
        pre-delete state.  Used by the transaction undo log; not a
        public mutation path.
        """
        if len(positions) != len(rows):
            raise SqlCatalogError(
                f"table {self.name!r}: {len(positions)} restore positions "
                f"but {len(rows)} rows"
            )
        if not positions:
            return
        final_len = len(self.rows) + len(positions)
        restored_at = dict(zip(positions, rows))
        if (
            len(restored_at) != len(positions)
            or list(positions) != sorted(positions)
            or positions[0] < 0
            or positions[-1] >= final_len
        ):
            raise SqlCatalogError(
                f"table {self.name!r}: restore positions must be unique, "
                f"ascending and within {final_len} rows"
            )
        survivors = iter(list(self.rows))
        merged = [
            restored_at[pos] if pos in restored_at else next(survivors)
            for pos in range(final_len)
        ]
        self.rows[:] = merged
        for index, store in enumerate(self._column_data):
            store[:] = [row[index] for row in merged]
        for index in self._encoded_indexes:
            dictionary = self._dictionaries[index]
            codes = self._codes[index]
            old_codes = iter(list(codes))
            merged_codes = []
            for pos in range(final_len):
                if pos in restored_at:
                    value = restored_at[pos][index]
                    merged_codes.append(
                        None if value is None else dictionary.encode(value)
                    )
                else:
                    merged_codes.append(next(old_codes))
            codes[:] = merged_codes
        if self._encoded_indexes:
            self._check_dictionary_thresholds()
        if self._segments is not None:
            # rollback rewrites arbitrary ranges; re-derive the mirror
            self._segments.rebuild(self)
        self._version += 1
        self._mutation_count += 1
        for observer in self._observers:
            for position in positions:
                observer.on_insert(self, restored_at[position])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} cols={len(self.columns)} rows={len(self.rows)}>"


class Catalog:
    """All tables of one database, with FK metadata.

    The catalog tracks a DDL version so the planner can fingerprint it
    (see :meth:`fingerprint`) and invalidate cached plans when the
    schema or the data volume changes.
    """

    def __init__(
        self,
        dict_encoding_threshold: "int | None" = None,
        array_store: bool = False,
        segment_rows: int = 0,
    ) -> None:
        # the settings come from an EngineConfig, which validated them
        self._tables: dict[str, Table] = {}
        self._ddl_version = 0
        self._observers: list[CatalogObserver] = []
        #: passed to every table this catalog creates (None = default)
        self._dict_encoding_threshold = dict_encoding_threshold
        #: INTEGER/REAL columns of new tables use ArrayColumn buffers
        self.array_store = array_store
        #: > 0 opts every table into frozen-segment + delta storage
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
            dict_encoding_threshold=self._dict_encoding_threshold,
            array_store=self.array_store,
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
            total_rows += len(table.rows)
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

    def pin_tables(self, names: Iterable[str]) -> "dict | None":
        """Pin snapshots of the named tables as one atomic step.

        Returns ``{id(table): TableSnapshot}`` for installation via
        :func:`repro.sqlengine.segments.pinned`, or None when nothing
        is segmented (the common flat-storage case: a cheap fast path
        with no lock traffic).  Taking every snapshot under one
        acquisition of the catalog-wide storage lock guarantees a
        multi-table query reads one mutually consistent state.
        """
        if not self.segment_rows:
            return None
        pins: dict = {}
        with self._storage_lock:
            for name in names:
                table = self._tables.get(name.lower())
                if table is not None and table._segments is not None:
                    pins[id(table)] = table._segments.snapshot(table)
        return pins or None

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
