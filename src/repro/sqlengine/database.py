"""The `Database` facade: parse + execute SQL against an in-memory catalog.

This plays the role of the Oracle/MySQL/Derby backends in the paper: SODA
generates SQL text, and this engine executes it so that result snippets
and precision/recall can be computed.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import SqlError, SqlExecutionError, TransactionError
from repro.resilience.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.sqlengine.ast_nodes import (
    Begin,
    Checkpoint,
    Commit,
    CreateTable,
    Delete,
    Insert,
    Rollback,
    Select,
    Union,
    Update,
)
from repro.sqlengine.catalog import Catalog, Column, ForeignKey, Table
from repro.sqlengine.config import DEFAULT_CONFIG, EngineConfig
from repro.sqlengine.dml import (
    evaluate_returning,
    execute_delete,
    execute_update,
)
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.planner import QueryPlanner
from repro.sqlengine.results import ResultSet
from repro.sqlengine.txn import DurabilityManager, TransactionManager
from repro.sqlengine.types import SqlType


def execute_union(union: Union, planner) -> ResultSet:
    """Execute a UNION [ALL] chain; columns come from the first branch.

    *planner* runs each branch (anything with ``execute(select)``).
    """
    results = [planner.execute(select) for select in union.selects]
    width = len(results[0].columns)
    for index, result in enumerate(results[1:], start=2):
        if len(result.columns) != width:
            raise SqlExecutionError(
                f"UNION branches must have the same number of columns: "
                f"branch 1 has {width}, branch {index} has "
                f"{len(result.columns)}"
            )
    rows: list = []
    if union.all:
        for result in results:
            rows.extend(result.rows)
    else:
        seen: set = set()
        for result in results:
            for row in result.rows:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
    return ResultSet(columns=results[0].columns, rows=rows)


class Database:
    """An in-memory relational database.

    SELECT statements run through a cost-aware :class:`QueryPlanner`
    whose LRU plan cache lets repeated statements skip re-planning.
    Every engine setting — plan-cache size, rows per frozen segment and
    the default request deadline — comes from the one frozen
    :class:`~repro.sqlengine.config.EngineConfig` passed as
    ``Database(config=...)`` and fixed for the life of the database
    (:attr:`config`).  The durability arguments (``data_dir``,
    ``wal_sync``, ``wal_storage_factory``) describe *where* the database
    lives rather than how the engine runs.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'alpha'), (2, 'beta')")
    >>> db.execute("SELECT name FROM t WHERE id = 2").rows
    [('beta',)]
    """

    def __init__(
        self,
        config: "EngineConfig | None" = None,
        data_dir: "str | None" = None,
        wal_sync: bool = True,
        wal_storage_factory=None,
    ) -> None:
        config = DEFAULT_CONFIG if config is None else config
        self._config = config
        self.catalog = Catalog(segment_rows=config.segment_rows)
        self.planner = QueryPlanner(self.catalog, config)
        self.txn = TransactionManager(self.catalog)
        from repro.obs.metrics import registry

        reg = registry()
        self._metrics_registry = reg
        self._txn_begins = reg.counter("txn.begins")
        self._txn_commits = reg.counter("txn.commits")
        self._txn_rollbacks = reg.counter("txn.rollbacks")
        #: recovery summary dict when opened durably, else None
        self.recovery_info = None
        self.durability = None
        if data_dir is not None:
            self.durability = DurabilityManager(
                data_dir,
                wal_sync=wal_sync,
                storage_factory=wal_storage_factory,
            )
            self.recovery_info = self.durability.recover(self)

    def _durable(self) -> bool:
        """True when statements must be logged (not during replay)."""
        return self.durability is not None and not self.durability.replaying

    @property
    def config(self) -> EngineConfig:
        """The engine settings this database was built with."""
        return self._config

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> ResultSet:
        """Parse and execute one SQL statement.

        DDL statements return an empty ResultSet; DML statements return
        an empty ResultSet whose ``rowcount`` is the number of rows
        inserted/updated/deleted.

        >>> db = Database()
        >>> _ = db.execute("CREATE TABLE t (id INT, name TEXT)")
        >>> _ = db.execute("INSERT INTO t VALUES (1, 'alpha'), (2, 'beta')")
        >>> db.execute("UPDATE t SET name = 'gamma' WHERE id = 2").rowcount
        1
        >>> db.execute("DELETE FROM t WHERE id = 1").rowcount
        1
        >>> db.execute("SELECT name FROM t").rows
        [('gamma',)]
        """
        statement = parse_sql(sql)
        if isinstance(statement, Select):
            with deadline_scope(self._default_deadline()):
                return self.planner.execute(statement)
        if isinstance(statement, Union):
            with deadline_scope(self._default_deadline()):
                return execute_union(statement, self.planner)
        if isinstance(statement, Begin):
            self.txn.begin()
            if self._metrics_registry.enabled:
                self._txn_begins.inc()
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, Commit):
            # log first, discard the undo log only once durable: a WAL
            # failure here must leave the transaction rolled back, not
            # half-remembered
            ops = self.txn.pending_ops()
            if self._durable():
                try:
                    self.durability.log_transaction(ops)
                except BaseException:
                    self.txn.rollback()
                    raise
            self.txn.commit()
            if self._metrics_registry.enabled:
                self._txn_commits.inc()
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, Rollback):
            self.txn.rollback()
            if self._metrics_registry.enabled:
                self._txn_rollbacks.inc()
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, Checkpoint):
            self.checkpoint()
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, CreateTable):
            if self.txn.active:
                raise TransactionError(
                    "CREATE TABLE inside an explicit transaction is not "
                    "supported (DDL is auto-commit)"
                )
            columns = [
                Column(c.name, c.sql_type, c.primary_key) for c in statement.columns
            ]
            foreign_keys = [
                ForeignKey(fk.columns, fk.ref_table, fk.ref_columns)
                for fk in statement.foreign_keys
            ]
            self.catalog.create_table(statement.name, columns, foreign_keys)
            if self._durable():
                try:
                    self.durability.log_statement(sql)
                except BaseException:
                    self.catalog.drop_table(statement.name)
                    raise
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, Insert):
            table = self.catalog.table(statement.table)
            with self.txn.statement([table]):
                first_new = len(table)
                if statement.columns:
                    rows = []
                    for row in statement.rows:
                        if len(row) != len(statement.columns):
                            # the rows before go in first: a bad value
                            # among them raises before the arity error
                            table.insert_many(rows)
                            raise SqlError(
                                f"INSERT arity mismatch for table "
                                f"{statement.table!r}"
                            )
                        rows.append(
                            table.named_row(dict(zip(statement.columns, row)))
                        )
                else:
                    rows = statement.rows
                table.insert_many(rows)
                if statement.returning:
                    result = evaluate_returning(
                        table,
                        [table.row(i) for i in range(first_new, len(table))],
                        statement.returning,
                        len(statement.rows),
                    )
                else:
                    result = ResultSet(
                        columns=[], rows=[], rowcount=len(statement.rows)
                    )
                self._log_dml(sql)
            return result
        if isinstance(statement, Update):
            table = self.catalog.table(statement.table)
            with self.txn.statement([table]):
                result = execute_update(self.catalog, statement)
                self._log_dml(sql)
            return result
        if isinstance(statement, Delete):
            table = self.catalog.table(statement.table)
            with self.txn.statement([table]):
                result = execute_delete(self.catalog, statement)
                self._log_dml(sql)
            return result
        raise SqlError(f"unsupported statement type: {type(statement).__name__}")

    def _log_dml(self, sql: str) -> None:
        """Record one applied DML statement for durability.

        Called *inside* the statement's undo guard, after the in-memory
        apply: a WAL append/fsync failure propagates and the guard rolls
        the apply back, keeping live state equal to replayable state.
        """
        if self.txn.active:
            self.txn.note_op({"sql": sql})
        elif self._durable():
            self.durability.log_statement(sql)

    def checkpoint(self) -> dict:
        """Write a columnar checkpoint and truncate the WAL.

        Returns the durability manager's summary (new generation,
        checkpoint size).  Requires a durable database and no open
        explicit transaction (the image must not contain uncommitted
        writes).
        """
        if self.durability is None:
            raise SqlExecutionError(
                "CHECKPOINT requires a durable database (data_dir)"
            )
        if self.txn.active:
            raise TransactionError(
                "CHECKPOINT inside an explicit transaction is not supported"
            )
        return self.durability.checkpoint(self.catalog)

    def close(self) -> None:
        """Release durable resources (no-op for in-memory databases)."""
        if self.durability is not None:
            self.durability.close()

    def _default_deadline(self) -> "Deadline | None":
        """A fresh deadline from ``request_timeout_ms``, unless one is
        already active (the serving layer's request-level deadline wins
        over the engine default)."""
        timeout_ms = self._config.request_timeout_ms
        if timeout_ms is None or current_deadline() is not None:
            return None
        return Deadline(timeout_ms)

    def execute_select_ast(self, select: Select) -> ResultSet:
        """Execute an already-parsed SELECT (used by SODA internals)."""
        with deadline_scope(self._default_deadline()):
            return self.planner.execute(select)

    def explain(self, sql: str, analyze: bool = False) -> str:
        """The optimized plan of a SELECT, as a deterministic text tree.

        With ``analyze=True`` the query is *executed* through
        instrumented operators and every plan line gains the actual
        rows and batches it produced plus its self-time, right next to
        the optimizer's ``[~N rows]`` estimate.

        >>> db = Database()
        >>> _ = db.execute("CREATE TABLE t (id INT)")
        >>> print(db.explain("SELECT * FROM t WHERE id = 1"))
        project *
        └─ scan t as t (0 rows) filter: (id = 1) [~0 rows]
        """
        statement = parse_sql(sql)
        if isinstance(statement, Select):
            return self.planner.explain(statement, analyze=analyze)
        if isinstance(statement, Union):
            branches = [
                self.planner.explain(select, analyze=analyze)
                for select in statement.selects
            ]
            keyword = "union all" if statement.all else "union"
            return f"\n{keyword}\n".join(branches)
        raise SqlError("EXPLAIN supports SELECT statements only")

    def metrics(self) -> dict:
        """A snapshot of the process-wide metrics registry.

        Point-in-time gauges owned by this database (plan-cache entry
        count) are refreshed here, at dump time, so several databases in
        one process don't fight over them between snapshots.
        """
        from repro.obs.metrics import registry

        reg = registry()
        reg.gauge("plan_cache.entries").set(len(self.planner.cache))
        reg.gauge("plan_cache.capacity").set(self.planner.cache.capacity)
        return reg.to_dict()

    # ------------------------------------------------------------------
    # programmatic schema/data API (used by the warehouse generators)
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[tuple],
        primary_key: Sequence[str] = (),
        foreign_keys: Iterable[tuple] = (),
    ) -> Table:
        """Create a table from ``(name, type_name)`` column specs.

        *foreign_keys* entries are ``(local_cols, ref_table, ref_cols)``.
        """
        if self.txn.active:
            raise TransactionError(
                "create_table inside an explicit transaction is not "
                "supported (DDL is auto-commit)"
            )
        pk = set(primary_key)
        column_objects = [
            Column(col_name, SqlType.from_name(type_name), col_name in pk)
            for col_name, type_name in columns
        ]
        fk_objects = [
            ForeignKey(tuple(local), ref_table, tuple(remote))
            for local, ref_table, remote in foreign_keys
        ]
        table = self.catalog.create_table(name, column_objects, fk_objects)
        if self._durable():
            try:
                self.durability.log_create(table)
            except BaseException:
                self.catalog.drop_table(table.name)
                raise
        return table

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert positional rows; returns the number inserted.

        The batch is one :meth:`Table.insert_many` step: a concurrent
        pin sees all of its rows or none, and a failure on any row
        (arity or coercion) leaves the table untouched without needing
        the undo log.  On a durable database the batch is logged as one
        WAL record (value-form, skipping SQL round-tripping); a failed
        append rolls the whole batch back.
        """
        table = self.catalog.table(table_name)
        rows = list(rows)
        with self.txn.statement([table]):
            count = table.insert_many(rows)
            if self.txn.active:
                # the record outlives this call: copy the caller's rows
                self.txn.note_op(
                    {"table": table.name, "rows": [list(row) for row in rows]}
                )
            elif self._durable():
                self.durability.log_rows(table.name, rows)
        return count

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def row_count(self, table_name: str) -> int:
        return len(self.catalog.table(table_name))
