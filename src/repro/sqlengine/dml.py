"""DML execution: UPDATE and DELETE over the shared catalog mutation path.

Unlike SELECT, DML needs no plan DAG — the work is one predicate over one
table — but it reuses the planner's machinery end to end, so
three-valued logic holds exactly as in queries: a WHERE that evaluates
to NULL does *not* match the row.  The rows are found through the
SELECT scan itself, a
:class:`~repro.sqlengine.planner.physical.BatchScanOp` over the target
table that carries each surviving row's live position as a trailing
column: fused filters, column pruning and zone-map skipping over a
fresh pin.  The WHERE is split into conjuncts only when the expression
compiler's verdict (:func:`~repro.sqlengine.expressions.never_raises`)
is that no conjunct can raise; otherwise it stays one predicate, so a
conjunct evaluated over fewer rows never hides an error the whole WHERE
raises.

Matching happens first, mutation second, and all mutation flows through
:meth:`~repro.sqlengine.catalog.Table.update_positions` /
:meth:`~repro.sqlengine.catalog.Table.delete_positions` — the single
path that writes the column lists and notifies catalog observers (index maintenance, statistics) row by row.
SET expressions are evaluated against the *old* row, per standard SQL,
so ``SET a = b, b = a`` swaps.

SET lists and ``RETURNING`` items are compiled by
:func:`~repro.sqlengine.expressions.compile_batch` into one function
over the affected rows, which evaluates the items that can raise row by
row in one loop, so the first error is the row-major one.

``RETURNING`` clauses evaluate their select items over the affected
rows — the freshly inserted rows, the *new* image of updated rows, the
old image of deleted rows — and turn the usual empty DML result into a
real :class:`~repro.sqlengine.results.ResultSet`.
"""

from __future__ import annotations

from repro.errors import SqlCatalogError
from repro.sqlengine.ast_nodes import Delete, Expr, Update
from repro.sqlengine.catalog import Catalog, Table
from repro.sqlengine.expressions import (
    Scope,
    class_of_tables,
    compile_batch,
    never_raises,
    split_conjuncts,
)
from repro.sqlengine.planner.logical import LogicalScan
from repro.sqlengine.planner.physical import BatchScanOp
from repro.sqlengine.results import ResultSet

__all__ = ["evaluate_returning", "execute_delete", "execute_update"]


def _table_scope(table: Table) -> Scope:
    return Scope([(table.name, column.name) for column in table.columns])


def _matching_positions(
    catalog: Catalog, table: Table, where: "Expr | None"
) -> list[int]:
    """Row positions where *where* is ``True`` (3VL: NULL never matches)."""
    if where is None:
        return list(range(len(table)))
    # split only when no conjunct can raise: evaluating a later conjunct
    # over fewer rows must not hide an error the whole WHERE would raise
    conjuncts = split_conjuncts(where)
    if not never_raises(
        conjuncts, _table_scope(table), class_of_tables({table.name: table})
    ):
        conjuncts = [where]
    scan = BatchScanOp(
        catalog,
        LogicalScan(
            table.name, table.name, predicates=tuple(conjuncts), columns=()
        ),
    )
    # a fresh pin of the current state, never an installed older one:
    # its live positions are the positions the mutation addresses
    snapshot = table.pin()
    positions: list[int] = []
    for cols, __ in scan.batches(snapshot, positions=True):
        positions.extend(cols[-1])
    return positions


# ---------------------------------------------------------------------------
# RETURNING
# ---------------------------------------------------------------------------


def _evaluate(table: Table, rows: list, exprs: list) -> list:
    """Each of *exprs* over *rows*: one value column per expression.

    *rows* are full tuples in the table's column order.
    """
    fused = compile_batch(
        exprs, _table_scope(table), class_of_tables({table.name: table})
    )
    cols = [list(column) for column in zip(*rows)] or [
        [] for __ in table.columns
    ]
    return fused.fn(cols, len(rows))


def evaluate_returning(
    table: Table, rows: list, items: tuple, rowcount: int
) -> ResultSet:
    """Project the RETURNING *items* over the affected *rows*.

    *rows* are full coerced tuples in the table's column order; ``*``
    expands to the table's columns, everything else is an arbitrary
    row expression with the usual ``alias or to_sql()`` column naming.
    """
    columns: list[str] = []
    # each target is either a column index (star expansion) or an Expr
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
        targets.append(item.expr)
    exprs = [target for target in targets if not isinstance(target, int)]
    values = iter(_evaluate(table, rows, exprs))
    out_cols = [
        [row[target] for row in rows] if isinstance(target, int)
        else next(values)
        for target in targets
    ]
    return ResultSet(
        columns=columns, rows=list(zip(*out_cols)), rowcount=rowcount
    )


# ---------------------------------------------------------------------------
# UPDATE / DELETE
# ---------------------------------------------------------------------------


def execute_update(catalog: Catalog, statement: Update) -> ResultSet:
    """Apply one UPDATE; the result carries rowcount and RETURNING rows."""
    table = catalog.table(statement.table)
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
    positions = _matching_positions(catalog, table, statement.where)
    if not positions:
        if statement.returning:
            return evaluate_returning(table, [], statement.returning, 0)
        return ResultSet(columns=[], rows=[], rowcount=0)
    old_rows = [table.row(position) for position in positions]
    new_rows = [list(row) for row in old_rows]
    values = _evaluate(table, old_rows, [value for __, value in targets])
    for (index, __), column in zip(targets, values):
        for new_row, value in zip(new_rows, column):
            new_row[index] = value
    changed = table.update_positions(positions, new_rows)
    if statement.returning:
        return evaluate_returning(
            table,
            [table.row(position) for position in positions],  # the new image
            statement.returning,
            changed,
        )
    return ResultSet(columns=[], rows=[], rowcount=changed)


def execute_delete(catalog: Catalog, statement: Delete) -> ResultSet:
    """Apply one DELETE; the result carries rowcount and RETURNING rows."""
    table = catalog.table(statement.table)
    positions = _matching_positions(catalog, table, statement.where)
    if not positions:
        if statement.returning:
            return evaluate_returning(table, [], statement.returning, 0)
        return ResultSet(columns=[], rows=[], rowcount=0)
    removed_rows = (
        [table.row(position) for position in positions]
        if statement.returning
        else None
    )
    removed = table.delete_positions(positions)
    if statement.returning:
        return evaluate_returning(
            table, removed_rows, statement.returning, removed
        )
    return ResultSet(columns=[], rows=[], rowcount=removed)
