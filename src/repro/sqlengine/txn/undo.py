"""Undo-log transactions over the table mutation choke-point.

Every write in the engine funnels through three ``Table`` methods
(``insert_many``, ``update_positions``, ``delete_positions``).  While a
transaction is open those methods report their logical inverse to the
attached :class:`UndoLog` *before* mutating, and rollback replays the
inverses in reverse order through the same public mutation paths — so
catalog observers (the inverted-index maintainer) see a
content-symmetric stream of events and converge back to the pre-
transaction state without any index-specific undo code.  An insert
record is a range, ``(start, count)``: one batch appends consecutive
rows, and its inverse is one ``delete_positions`` of that run.

:class:`TransactionManager` layers the protocol on top: explicit
``BEGIN``/``COMMIT``/``ROLLBACK`` spanning the whole catalog, and
implicit per-statement transactions that make a single multi-row
statement atomic (a failure mid-INSERT leaves no partial rows behind).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sqlengine.catalog import Catalog, Table


class UndoLog:
    """Logical inverses of the mutations applied under one transaction.

    Records are applied strictly in reverse, so each recorded position
    is valid again by the time its inverse runs (the standard undo-log
    invariant).  Per-table ``mutation_count`` is captured at first
    touch and restored after the inverses, so a rolled-back catalog
    fingerprint is byte-identical to one that never saw the
    transaction.  Table ``version`` is deliberately *not* restored:
    the inverse mutations bump it monotonically, which keeps
    version-keyed caches (plans, statistics) from ever validating
    against mid-transaction state.
    """

    def __init__(self) -> None:
        self._records: list[tuple] = []  # (table, kind, payload)
        #: id(table) -> (table, mutation_count at first touch)
        self._touched: dict[int, tuple] = {}

    def _touch(self, table: "Table") -> None:
        key = id(table)
        if key not in self._touched:
            self._touched[key] = (table, table.mutation_count)

    # ------------------------------------------------------------------
    # recording (called from Table just before each write)
    # ------------------------------------------------------------------
    def record_insert(self, table: "Table", start: int, count: int) -> None:
        """*count* rows are about to be appended from position *start*."""
        self._touch(table)
        self._records.append((table, "insert", (start, count)))

    def record_update(
        self, table: "Table", positions: list, old_rows: list
    ) -> None:
        """The rows at *positions* (currently *old_rows*) will be rewritten."""
        self._touch(table)
        self._records.append((table, "update", (positions, old_rows)))

    def record_delete(
        self, table: "Table", positions: list, removed: list
    ) -> None:
        """The rows at ascending *positions* (*removed*) will be deleted."""
        self._touch(table)
        self._records.append((table, "delete", (positions, removed)))

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_inverse(table: "Table", kind: str, payload) -> None:
        if kind == "insert":
            start, count = payload
            table.delete_positions(range(start, start + count))
        elif kind == "update":
            positions, old_rows = payload
            table.update_positions(positions, old_rows)
        else:
            positions, removed = payload
            table.restore_rows(positions, removed)

    def rollback(self) -> None:
        """Apply all inverses in reverse order, then restore counters."""
        for table, _ in self._touched.values():
            table._undo = None  # inverses must not record themselves
        for table, kind, payload in reversed(self._records):
            self._apply_inverse(table, kind, payload)
        for table, mutation_count in self._touched.values():
            table._mutation_count = mutation_count
        self._records.clear()
        self._touched.clear()

    # ------------------------------------------------------------------
    def savepoint(self, tables: Iterable["Table"]) -> tuple:
        """A statement-level savepoint over *tables* (see rollback_to)."""
        return (
            len(self._records),
            [(table, table.mutation_count) for table in tables],
        )

    def rollback_to(self, savepoint: tuple) -> None:
        """Undo everything recorded after *savepoint*, keeping the rest.

        Used for statement atomicity inside an explicit transaction: a
        statement that fails mid-way is undone without disturbing the
        transaction's earlier writes.  The savepoint's captured
        ``mutation_count`` values are restored so a later COMMIT has
        the same fingerprint as if the failed statement never ran.
        """
        index, counters = savepoint
        tail = self._records[index:]
        del self._records[index:]
        involved = {id(table): table for table, _, _ in tail}
        for table in involved.values():
            table._undo = None
        try:
            for table, kind, payload in reversed(tail):
                self._apply_inverse(table, kind, payload)
        finally:
            for table in involved.values():
                table._undo = self
        for table, mutation_count in counters:
            table._mutation_count = mutation_count


class TransactionManager:
    """BEGIN/COMMIT/ROLLBACK protocol plus implicit statement atomicity.

    One instance per :class:`~repro.sqlengine.database.Database`.  An
    explicit transaction attaches a single :class:`UndoLog` to every
    table in the catalog (DDL inside a transaction is rejected, so the
    table set is stable) and marks the catalog fingerprint with a
    unique token so no derived-state cache can validate against
    uncommitted data.  Outside an explicit transaction,
    :meth:`statement` wraps each DML statement in a micro-transaction
    over just its target tables, rolling back on any error.
    """

    def __init__(self, catalog: "Catalog") -> None:
        self._catalog = catalog
        self._undo: UndoLog | None = None
        self._attached: list = []
        #: WAL ops ({"sql": ...} / {"table": ..., "rows": ...}) applied
        #: inside the open explicit transaction, in order; drained by
        #: COMMIT into one atomic WAL record
        self._pending_ops: list[dict] = []
        self._token_seq = 0

    @property
    def active(self) -> bool:
        """True while an explicit transaction is open."""
        return self._undo is not None

    # ------------------------------------------------------------------
    def begin(self) -> None:
        if self._undo is not None:
            raise TransactionError("BEGIN: a transaction is already open")
        self._undo = UndoLog()
        self._pending_ops = []
        self._attached = list(self._catalog.tables())
        for table in self._attached:
            table._undo = self._undo
        self._token_seq += 1
        self._catalog._txn_token = self._token_seq

    def note_op(self, op: dict) -> None:
        """Buffer one applied operation for the commit's WAL record."""
        if self._undo is not None:
            self._pending_ops.append(op)

    def pending_ops(self) -> list:
        """The operations a COMMIT would log (transaction must be open)."""
        if self._undo is None:
            raise TransactionError("COMMIT: no transaction is open")
        return list(self._pending_ops)

    def commit(self) -> None:
        """Discard the undo log and close the transaction (apply stays)."""
        if self._undo is None:
            raise TransactionError("COMMIT: no transaction is open")
        self._detach()

    def rollback(self) -> None:
        if self._undo is None:
            raise TransactionError("ROLLBACK: no transaction is open")
        undo = self._undo
        self._detach()
        undo.rollback()

    def _detach(self) -> None:
        for table in self._attached:
            table._undo = None
        self._attached = []
        self._undo = None
        self._pending_ops = []
        self._catalog._txn_token = None

    # ------------------------------------------------------------------
    @contextmanager
    def statement(self, tables: Iterable["Table"]) -> Iterator[None]:
        """Make one statement atomic over *tables*.

        Outside a transaction a fresh undo log is attached to the
        statement's target tables and rolled back if the statement
        raises — a multi-row INSERT that fails on row three leaves no
        trace of rows one and two.  Inside an explicit transaction the
        open undo log takes a savepoint instead, so the failed
        statement is undone while the transaction's earlier writes
        survive.
        """
        if self._undo is not None:
            savepoint = self._undo.savepoint(tables)
            try:
                yield
            except BaseException:
                self._undo.rollback_to(savepoint)
                raise
            return
        undo = UndoLog()
        attached = list(tables)
        for table in attached:
            table._undo = undo
        try:
            yield
        except BaseException:
            for table in attached:
                table._undo = None
            undo.rollback()
            raise
        else:
            for table in attached:
                table._undo = None
