"""DML execution: UPDATE and DELETE over the shared catalog mutation path.

Unlike SELECT, DML needs no plan DAG — the work is one predicate over one
table — but it reuses the planner's machinery end to end, so
three-valued logic holds exactly as in queries: a WHERE that evaluates
to NULL does *not* match the row.  Row mode compiles the WHERE through
:func:`~repro.sqlengine.expressions.compile_expr` and walks the tuple
list.  Batch mode finds its rows through the SELECT scan itself, a
:class:`~repro.sqlengine.planner.physical.BatchScanOp` over the target
table that carries each surviving row's live position as a trailing
column: fused filters (when ``EngineConfig.fused``), dictionary codes,
column pruning and, on a segmented table, zone-map skipping over a
fresh pin.  The WHERE is split into conjuncts only when no conjunct can
raise; otherwise it stays one predicate, so row and batch DML surface
the same errors.

Matching happens first, mutation second, and all mutation flows through
:meth:`~repro.sqlengine.catalog.Table.update_positions` /
:meth:`~repro.sqlengine.catalog.Table.delete_positions` — the single
path that keeps the tuple list and the columnar store in lockstep and
notifies catalog observers (index maintenance, statistics) row by row.
SET expressions are evaluated against the *old* row, per standard SQL,
so ``SET a = b, b = a`` swaps.

In batch mode SET lists are evaluated **column-at-a-time** over the
matched positions via :func:`~repro.sqlengine.expressions.compile_expr_batch`
— but only when at most one assignment could possibly raise.  Row mode
evaluates row-major and batch mode assignment-major, so with two
fallible assignments the two engines could surface *different* first
errors; :func:`~repro.sqlengine.expressions._never_raises` is a
deliberately conservative static check (typed columns, literal
divisors, literal LIKE patterns) that keeps the vectorized path
restricted to plans whose error behaviour is provably
order-independent.  Mismatches fall back to row-major
evaluation, keeping the two modes byte- and error-identical.

``RETURNING`` clauses evaluate their select items over the affected
rows — the freshly inserted rows, the *new* image of updated rows, the
old image of deleted rows — and turn the usual empty DML result into a
real :class:`~repro.sqlengine.results.ResultSet`.
"""

from __future__ import annotations

from repro.errors import SqlCatalogError
from repro.sqlengine.ast_nodes import Delete, Expr, Update
from repro.sqlengine.catalog import Catalog, Table
from repro.sqlengine.config import DEFAULT_CONFIG, EngineConfig
from repro.sqlengine.expressions import (
    Scope,
    _never_raises,
    compile_expr,
    compile_expr_batch,
    split_conjuncts,
)
from repro.sqlengine.planner.logical import LogicalScan
from repro.sqlengine.planner.physical import BatchScanOp
from repro.sqlengine.results import ResultSet

__all__ = ["evaluate_returning", "execute_delete", "execute_update"]


def _table_scope(table: Table) -> Scope:
    return Scope([(table.name, column.name) for column in table.columns])


def _matching_positions(
    catalog: Catalog, table: Table, where: "Expr | None", config: EngineConfig
) -> list[int]:
    """Row positions where *where* is ``True`` (3VL: NULL never matches)."""
    if where is None:
        return list(range(len(table.rows)))
    if config.execution_mode == "row":
        row_fn = compile_expr(where, _table_scope(table))
        return [
            position
            for position, row in enumerate(table.rows)
            if row_fn(row) is True
        ]
    # split only when no conjunct can raise: evaluating a later conjunct
    # over fewer rows must not hide an error the whole WHERE would raise
    conjuncts = split_conjuncts(where)
    if not all(_never_raises(conjunct, table) for conjunct in conjuncts):
        conjuncts = [where]
    scan = BatchScanOp(
        catalog,
        LogicalScan(
            table.name, table.name, predicates=tuple(conjuncts), columns=()
        ),
        fused=config.fused,
    )
    # a fresh pin of the current state, never an installed older one:
    # its live positions are the flat positions the mutation addresses
    snapshot = table.pin()
    positions: list[int] = []
    for cols, __ in scan.batches(snapshot, positions=True):
        positions.extend(cols[-1])
    return positions


# ---------------------------------------------------------------------------
# RETURNING
# ---------------------------------------------------------------------------


def evaluate_returning(
    table: Table, rows: list, items: tuple, rowcount: int
) -> ResultSet:
    """Project the RETURNING *items* over the affected *rows*.

    *rows* are full coerced tuples in the table's column order; ``*``
    expands to the table's columns, everything else is an arbitrary
    row expression with the usual ``alias or to_sql()`` column naming.
    """
    scope = _table_scope(table)
    columns: list[str] = []
    # each target is either a column index (star expansion) or a RowFn
    targets: list = []
    for item in items:
        if item.is_star:
            if item.star_table is not None and item.star_table != table.name:
                raise SqlCatalogError(
                    f"unknown table in RETURNING star: {item.star_table!r}"
                )
            for index, column in enumerate(table.columns):
                columns.append(column.name)
                targets.append(index)
            continue
        columns.append(item.alias or item.expr.to_sql())
        targets.append(compile_expr(item.expr, scope))
    out_rows = [
        tuple(
            row[target] if isinstance(target, int) else target(row)
            for target in targets
        )
        for row in rows
    ]
    return ResultSet(columns=columns, rows=out_rows, rowcount=rowcount)


# ---------------------------------------------------------------------------
# UPDATE / DELETE
# ---------------------------------------------------------------------------


def execute_update(
    catalog: Catalog, statement: Update, config: EngineConfig = DEFAULT_CONFIG
) -> ResultSet:
    """Apply one UPDATE; the result carries rowcount and RETURNING rows."""
    table = catalog.table(statement.table)
    scope = _table_scope(table)
    seen: set[str] = set()
    targets = []  # (column index, value Expr) in SET order
    for assignment in statement.assignments:
        index = table.column_index(assignment.column)
        if assignment.column in seen:
            raise SqlCatalogError(
                f"column {assignment.column!r} assigned twice in UPDATE "
                f"{table.name!r}"
            )
        seen.add(assignment.column)
        targets.append((index, assignment.value))
    positions = _matching_positions(catalog, table, statement.where, config)
    if not positions:
        if statement.returning:
            return evaluate_returning(table, [], statement.returning, 0)
        return ResultSet(columns=[], rows=[], rowcount=0)
    rows = table.rows
    fallible = sum(
        1 for _, value in targets if not _never_raises(value, table)
    )
    if config.execution_mode == "batch" and fallible <= 1:
        # column-at-a-time over the matched positions only
        data = [table.column_data(i) for i in range(len(table.columns))]
        cols = [[column[p] for p in positions] for column in data]
        count = len(positions)
        new_rows = [list(rows[position]) for position in positions]
        for index, value in targets:
            batch = compile_expr_batch(value, scope)(cols, count)
            for offset in range(count):
                new_rows[offset][index] = batch[offset]
    else:
        compiled = [
            (index, compile_expr(value, scope)) for index, value in targets
        ]
        new_rows = []
        for position in positions:
            old_row = rows[position]
            new_row = list(old_row)
            for index, value_fn in compiled:
                new_row[index] = value_fn(old_row)
            new_rows.append(new_row)
    changed = table.update_positions(positions, new_rows)
    if statement.returning:
        return evaluate_returning(
            table,
            [rows[position] for position in positions],  # the new image
            statement.returning,
            changed,
        )
    return ResultSet(columns=[], rows=[], rowcount=changed)


def execute_delete(
    catalog: Catalog, statement: Delete, config: EngineConfig = DEFAULT_CONFIG
) -> ResultSet:
    """Apply one DELETE; the result carries rowcount and RETURNING rows."""
    table = catalog.table(statement.table)
    positions = _matching_positions(catalog, table, statement.where, config)
    if not positions:
        if statement.returning:
            return evaluate_returning(table, [], statement.returning, 0)
        return ResultSet(columns=[], rows=[], rowcount=0)
    removed_rows = (
        [table.rows[position] for position in positions]
        if statement.returning
        else None
    )
    removed = table.delete_positions(positions)
    if statement.returning:
        return evaluate_returning(
            table, removed_rows, statement.returning, removed
        )
    return ResultSet(columns=[], rows=[], rowcount=removed)
