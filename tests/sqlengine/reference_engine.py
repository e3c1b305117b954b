"""A row-at-a-time reference interpreter: the oracle for the batch engine.

The engine in ``src/`` is vectorized: operators exchange column batches
and expressions compile to batch closures or generated code.  This
module interprets the same optimized plans one row at a time with a
volcano operator tree and a row-major expression evaluator, the
simplest reading of the semantics the batch engine must keep:
three-valued logic, ``compare_values`` ordering, short-circuit errors,
NULL-skipping hash joins, LEFT JOIN padding, representative-row GROUP
BY, NULLs-first mixed-type ORDER BY.

:func:`reference_execute` is the entry point.  It plans a SELECT with
``src``'s lowering and optimizer (``db.planner.plan_logical``), so a
plan-shape bug is not what it finds; execution bugs are.  It reads rows
decoded from the table (``Table.iter_rows`` / ``Table.row``, never a
column slice of a pin), evaluates UPDATE / DELETE / RETURNING row-major
and mutates only through ``Table.update_positions`` / ``Table.delete_positions``.
Every other statement (DDL, INSERT, transactions) goes to
``db.execute``.  Top-N runs as the sort + limit it is defined as.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import SqlCatalogError, SqlExecutionError, SqlTypeError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Select,
    UnaryOp,
    Union,
    Update,
)
from repro.sqlengine.database import execute_union
from repro.sqlengine.expressions import SCALAR_FUNCTIONS, Scope, like_to_regex
from repro.sqlengine.functions import make_accumulator
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.planner.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLeftJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopN,
)
from repro.sqlengine.planner.physical import (
    _project_targets,
    _sort_targets,
    sort_key,
)
from repro.sqlengine.results import ResultSet
from repro.sqlengine.types import compare_values, values_equal

__all__ = ["reference_execute", "snapshot_rows"]

RowFn = Callable[[tuple], Any]


# ---------------------------------------------------------------------------
# expressions, one row at a time
# ---------------------------------------------------------------------------


def compile_expr(
    expr: Expr,
    scope: Scope,
    agg_slots: "dict[FuncCall, int] | None" = None,
) -> RowFn:
    """Compile *expr* into a closure evaluating it against a row tuple.

    *agg_slots* maps aggregate FuncCall nodes to row indexes; the
    aggregation operator supplies it so post-aggregation expressions
    (select items, HAVING, ORDER BY) read aggregate results out of the
    extended group rows.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ColumnRef):
        index = scope.resolve(expr)
        return lambda row: row[index]

    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            if agg_slots is None or expr not in agg_slots:
                raise SqlExecutionError(
                    f"aggregate {expr.to_sql()} used outside aggregation context"
                )
            slot = agg_slots[expr]
            return lambda row: row[slot]
        if expr.name not in SCALAR_FUNCTIONS:
            raise SqlExecutionError(
                f"unknown function {expr.name!r} in {expr.to_sql()} "
                f"(available: {', '.join(sorted(SCALAR_FUNCTIONS))})"
            )
        fn = SCALAR_FUNCTIONS[expr.name]
        arg_fns = [compile_expr(arg, scope, agg_slots) for arg in expr.args]
        return lambda row: fn(*[arg_fn(row) for arg_fn in arg_fns])

    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, scope, agg_slots)
        if expr.op == "NOT":
            def _not(row: tuple) -> Any:
                value = operand(row)
                if value is None:
                    return None
                return not value

            return _not
        if expr.op == "-":
            rendered = expr.to_sql()

            def _neg(row: tuple) -> Any:
                value = operand(row)
                if value is None:
                    return None
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SqlTypeError(f"cannot negate {value!r} in {rendered}")
                return -value

            return _neg
        raise SqlExecutionError(
            f"unknown unary operator {expr.op!r} in {expr.to_sql()}"
        )

    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, scope, agg_slots)

    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, scope, agg_slots)
        pattern_fn = compile_expr(expr.pattern, scope, agg_slots)
        negated = expr.negated

        def _like(row: tuple) -> Any:
            value = operand(row)
            pattern = pattern_fn(row)
            if value is None or pattern is None:
                return None
            matched = like_to_regex(str(pattern)).match(str(value)) is not None
            return (not matched) if negated else matched

        return _like

    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, scope, agg_slots)
        item_fns = [compile_expr(item, scope, agg_slots) for item in expr.items]
        negated = expr.negated

        def _in(row: tuple) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                equal = values_equal(value, item_fn(row))
                if equal is None:
                    saw_null = True
                elif equal:
                    return not negated
            if saw_null:
                return None
            return negated

        return _in

    if isinstance(expr, Between):
        operand = compile_expr(expr.operand, scope, agg_slots)
        low_fn = compile_expr(expr.low, scope, agg_slots)
        high_fn = compile_expr(expr.high, scope, agg_slots)
        negated = expr.negated

        def _between(row: tuple) -> Any:
            value = operand(row)
            cmp_low = compare_values(value, low_fn(row))
            cmp_high = compare_values(value, high_fn(row))
            if cmp_low is None or cmp_high is None:
                return None
            inside = cmp_low >= 0 and cmp_high <= 0
            return (not inside) if negated else inside

        return _between

    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, scope, agg_slots)
        negated = expr.negated
        return lambda row: (operand(row) is None) is not negated

    if isinstance(expr, CaseWhen):
        branch_fns = [
            (compile_expr(condition, scope, agg_slots),
             compile_expr(value, scope, agg_slots))
            for condition, value in expr.branches
        ]
        default_fn = (
            compile_expr(expr.default, scope, agg_slots)
            if expr.default is not None
            else None
        )

        def _case(row: tuple) -> Any:
            for condition_fn, value_fn in branch_fns:
                if condition_fn(row) is True:
                    return value_fn(row)
            if default_fn is not None:
                return default_fn(row)
            return None

        return _case

    raise SqlExecutionError(f"cannot compile expression: {expr!r}")


_COMPARE = {
    "=": lambda r: r == 0,
    "<>": lambda r: r != 0,
    "<": lambda r: r < 0,
    "<=": lambda r: r <= 0,
    ">": lambda r: r > 0,
    ">=": lambda r: r >= 0,
}


def _compile_binary(
    expr: BinaryOp, scope: Scope, agg_slots: "dict[FuncCall, int] | None"
) -> RowFn:
    left = compile_expr(expr.left, scope, agg_slots)
    right = compile_expr(expr.right, scope, agg_slots)
    op = expr.op

    if op == "AND":
        def _and(row: tuple) -> Any:
            lhs = left(row)
            if lhs is False:
                return False
            rhs = right(row)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return _and

    if op == "OR":
        def _or(row: tuple) -> Any:
            lhs = left(row)
            if lhs is True:
                return True
            rhs = right(row)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return _or

    if op in _COMPARE:
        check = _COMPARE[op]

        def _compare(row: tuple) -> Any:
            result = compare_values(left(row), right(row))
            return None if result is None else check(result)

        return _compare

    if op in ("+", "-", "*", "/"):
        rendered = expr.to_sql()

        def _arith(row: tuple) -> Any:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            for value in (lhs, rhs):
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SqlTypeError(
                        f"arithmetic on non-number {value!r} in {rendered}"
                    )
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if rhs == 0:
                raise SqlExecutionError(f"division by zero in {rendered}")
            return lhs / rhs

        return _arith

    if op == "||":
        def _concat(row: tuple) -> Any:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            return str(lhs) + str(rhs)

        return _concat

    raise SqlExecutionError(
        f"unknown binary operator {op!r} in {expr.to_sql()}"
    )


# ---------------------------------------------------------------------------
# volcano operators
# ---------------------------------------------------------------------------
#
# Relational operators (scan/filter/join/aggregate) yield row tuples laid
# out by their ``scope``; presentation operators (project/distinct/sort/
# limit) yield ``(out_row, pre_row)`` pairs, keeping the pre-projection
# row so ORDER BY can sort on expressions that were never projected.


class ScanOp:
    """Scan one table's decoded rows, applying pushed filters, then pruning."""

    def __init__(self, catalog, node: LogicalScan) -> None:
        self._table = catalog.table(node.table)
        full_scope = Scope(
            [(node.binding, name) for name in self._table.column_names()]
        )
        self._predicate_fns = [
            compile_expr(predicate, full_scope) for predicate in node.predicates
        ]
        if node.columns is None:
            self._indexes = None
            self.scope = full_scope
        else:
            self._indexes = [
                self._table.column_index(name) for name in node.columns
            ]
            self.scope = Scope([(node.binding, name) for name in node.columns])

    def rows(self) -> Iterator[tuple]:
        indexes = self._indexes
        for row in self._table.iter_rows():
            if all(fn(row) is True for fn in self._predicate_fns):
                yield row if indexes is None else tuple(row[i] for i in indexes)


class FilterOp:
    def __init__(self, child, predicates) -> None:
        self._child = child
        self.scope = child.scope
        self._fns = [compile_expr(p, self.scope) for p in predicates]

    def rows(self) -> Iterator[tuple]:
        for row in self._child.rows():
            if all(fn(row) is True for fn in self._fns):
                yield row


def _key_indexes(left, right, equi) -> tuple:
    """Each equi predicate's ``(left index, right index)``, as lists."""
    left_indexes: list = []
    right_indexes: list = []
    for predicate in equi:
        if left.scope.try_resolve(predicate.left) is not None:
            left_indexes.append(left.scope.resolve(predicate.left))
            right_indexes.append(right.scope.resolve(predicate.right))
        else:
            left_indexes.append(left.scope.resolve(predicate.right))
            right_indexes.append(right.scope.resolve(predicate.left))
    return left_indexes, right_indexes


class HashJoinOp:
    """Hash join on equi predicates; a cross join without any."""

    def __init__(self, left, right, equi) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._left_indexes, self._right_indexes = _key_indexes(
            left, right, equi
        )

    def rows(self) -> Iterator[tuple]:
        if not self._left_indexes:
            right_rows = list(self._right.rows())
            for left_row in self._left.rows():
                for right_row in right_rows:
                    yield left_row + right_row
            return
        table: dict = {}
        for row in self._right.rows():
            key = tuple(row[i] for i in self._right_indexes)
            if None not in key:
                table.setdefault(key, []).append(row)
        for row in self._left.rows():
            key = tuple(row[i] for i in self._left_indexes)
            if None in key:
                continue
            for match in table.get(key, ()):
                yield row + match


class LeftJoinOp:
    """Nested-loop LEFT OUTER join with NULL padding."""

    def __init__(self, left, right, condition) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._condition_fn = compile_expr(condition, self.scope)
        self._null_pad = (None,) * len(right.scope)

    def rows(self) -> Iterator[tuple]:
        right_rows = list(self._right.rows())
        for left_row in self._left.rows():
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if self._condition_fn(combined) is True:
                    yield combined
                    matched = True
            if not matched:
                yield left_row + self._null_pad


class AggregateOp:
    """GROUP BY with accumulator-based aggregates and HAVING.

    Output rows are the *representative row* of each group (its first
    input row) extended with one slot per aggregate call; the extended
    scope names those slots ``__agg_<i>`` and :attr:`agg_slots` maps each
    aggregate ``FuncCall`` to its slot.
    """

    def __init__(self, child, node: LogicalAggregate) -> None:
        self._child = child
        self._node = node
        scope = child.scope
        self._group_fns = [compile_expr(expr, scope) for expr in node.group_by]
        self._arg_fns: list = []
        for call in node.agg_calls:
            if call.star:
                self._arg_fns.append(None)
                continue
            if len(call.args) != 1:
                raise SqlExecutionError(
                    f"aggregate {call.to_sql()} takes exactly one argument"
                )
            self._arg_fns.append(compile_expr(call.args[0], scope))
        self.agg_slots = {
            call: len(scope) + i for i, call in enumerate(node.agg_calls)
        }
        self.scope = Scope(
            scope.pairs
            + [(None, f"__agg_{i}") for i in range(len(node.agg_calls))]
        )
        self._having_fn = (
            compile_expr(node.having, self.scope, self.agg_slots)
            if node.having is not None
            else None
        )

    def _accumulators(self) -> list:
        return [
            make_accumulator(call.name, call.star, call.distinct)
            for call in self._node.agg_calls
        ]

    def rows(self) -> Iterator[tuple]:
        groups: dict = {}  # key -> (representative row, accumulators)
        for row in self._child.rows():
            key = tuple(fn(row) for fn in self._group_fns)
            if key not in groups:
                groups[key] = (row, self._accumulators())
            for arg_fn, accumulator in zip(self._arg_fns, groups[key][1]):
                accumulator.add(1 if arg_fn is None else arg_fn(row))
        # aggregate query over empty input and no GROUP BY -> one empty group
        if not groups and not self._node.group_by:
            null_row = (None,) * len(self._child.scope)
            groups[()] = (null_row, self._accumulators())
        for representative, accumulators in groups.values():
            extended = representative + tuple(
                accumulator.result() for accumulator in accumulators
            )
            if self._having_fn is None or self._having_fn(extended) is True:
                yield extended


class ProjectOp:
    """Evaluate the select list; yields ``(out_row, pre_row)`` pairs."""

    def __init__(self, child, node: LogicalProject, agg_slots) -> None:
        self._child = child
        self.scope = child.scope
        self.agg_slots = agg_slots or {}
        self.columns, targets = _project_targets(node, child.scope)
        self._fns = [
            (lambda row, index=target: row[index])
            if isinstance(target, int)
            else compile_expr(target, child.scope, self.agg_slots)
            for target in targets
        ]

    def pairs(self) -> Iterator[tuple]:
        for row in self._child.rows():
            yield tuple(fn(row) for fn in self._fns), row


class _Presentation:
    """A presentation operator over another one (same columns, scope)."""

    def __init__(self, child) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots


class DistinctOp(_Presentation):
    """Deduplicate projected rows, keeping first occurrences."""

    def pairs(self) -> Iterator[tuple]:
        seen: set = set()
        for out_row, pre_row in self._child.pairs():
            if out_row not in seen:
                seen.add(out_row)
                yield out_row, pre_row


class SortOp(_Presentation):
    """Stable multi-key sort over aliases, positions or expressions."""

    def __init__(self, child, node: "LogicalSort | LogicalTopN") -> None:
        super().__init__(child)
        self._key_fns: list = []
        for position, expr, descending in _sort_targets(node, self.columns):
            if position is not None:
                fn = (lambda pair, position=position: pair[0][position])
            else:
                row_fn = compile_expr(expr, self.scope, self.agg_slots)
                fn = (lambda pair, row_fn=row_fn: row_fn(pair[1]))
            self._key_fns.append((fn, descending))

    def pairs(self) -> Iterator[tuple]:
        items = list(self._child.pairs())
        # stable multi-pass sort, last key first
        for key_fn, descending in reversed(self._key_fns):
            items.sort(key=lambda pair: sort_key(key_fn(pair)), reverse=descending)
        return iter(items)


class LimitOp(_Presentation):
    def __init__(self, child, limit: int) -> None:
        super().__init__(child)
        self._limit = limit

    def pairs(self) -> Iterator[tuple]:
        if self._limit <= 0:
            return
        for count, pair in enumerate(self._child.pairs(), start=1):
            yield pair
            if count >= self._limit:
                return


def _build_presentation(node, catalog):
    if isinstance(node, LogicalLimit):
        return LimitOp(_build_presentation(node.child, catalog), node.limit)
    if isinstance(node, LogicalTopN):
        child = _build_presentation(node.child, catalog)
        return LimitOp(SortOp(child, node), node.limit)
    if isinstance(node, LogicalSort):
        return SortOp(_build_presentation(node.child, catalog), node)
    if isinstance(node, LogicalDistinct):
        return DistinctOp(_build_presentation(node.child, catalog))
    if isinstance(node, LogicalProject):
        child, agg_slots = _build_relational(node.child, catalog)
        return ProjectOp(child, node, agg_slots)
    raise SqlExecutionError(
        f"malformed plan: unexpected presentation node {type(node).__name__}"
    )


def _build_relational(node, catalog):
    """A row-yielding operator and its ``agg_slots`` (or None)."""
    if isinstance(node, LogicalScan):
        return ScanOp(catalog, node), None
    if isinstance(node, LogicalFilter):
        child, agg_slots = _build_relational(node.child, catalog)
        return FilterOp(child, node.predicates), agg_slots
    if isinstance(node, LogicalJoin):
        left, __ = _build_relational(node.left, catalog)
        right, __ = _build_relational(node.right, catalog)
        return HashJoinOp(left, right, node.equi), None
    if isinstance(node, LogicalLeftJoin):
        left, __ = _build_relational(node.left, catalog)
        right, __ = _build_relational(node.right, catalog)
        return LeftJoinOp(left, right, node.condition), None
    if isinstance(node, LogicalAggregate):
        operator = AggregateOp(_build_relational(node.child, catalog)[0], node)
        return operator, operator.agg_slots
    raise SqlExecutionError(
        f"malformed plan: unexpected relational node {type(node).__name__}"
    )


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class _ReferencePlanner:
    """What ``execute_union`` needs of a planner: ``execute(select)``."""

    def __init__(self, db) -> None:
        self._db = db

    def execute(self, select: Select) -> ResultSet:
        logical = self._db.planner.plan_logical(select)
        root = _build_presentation(logical, self._db.catalog)
        return ResultSet(
            columns=list(root.columns),
            rows=[out_row for out_row, __ in root.pairs()],
        )


def _table_scope(table) -> Scope:
    return Scope([(table.name, column.name) for column in table.columns])


def _matching_positions(table, where) -> list:
    """Row positions where *where* is ``True`` (3VL: NULL never matches)."""
    if where is None:
        return list(range(len(table)))
    row_fn = compile_expr(where, _table_scope(table))
    return [
        position
        for position, row in enumerate(table.iter_rows())
        if row_fn(row) is True
    ]


def _returning(table, rows: list, items: tuple, rowcount: int) -> ResultSet:
    scope = _table_scope(table)
    columns: list = []
    targets: list = []  # a column index (star expansion) or a RowFn
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


def _done(table, statement, rows: list, count: int) -> ResultSet:
    if statement.returning:
        return _returning(table, rows, statement.returning, count)
    return ResultSet(columns=[], rows=[], rowcount=count)


def _update(db, statement: Update) -> ResultSet:
    table = db.catalog.table(statement.table)
    seen: set = set()
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
    positions = _matching_positions(table, statement.where)
    if not positions:
        return _done(table, statement, [], 0)
    scope = _table_scope(table)
    compiled = [(index, compile_expr(value, scope)) for index, value in targets]
    new_rows = []
    for position in positions:
        old_row = table.row(position)
        new_row = list(old_row)
        for index, value_fn in compiled:
            new_row[index] = value_fn(old_row)  # SET reads the old row
        new_rows.append(new_row)
    changed = table.update_positions(positions, new_rows)
    return _done(
        table, statement, [table.row(p) for p in positions], changed
    )


def _delete(db, statement: Delete) -> ResultSet:
    table = db.catalog.table(statement.table)
    positions = _matching_positions(table, statement.where)
    if not positions:
        return _done(table, statement, [], 0)
    removed_rows = [table.row(position) for position in positions]
    removed = table.delete_positions(positions)
    return _done(table, statement, removed_rows, removed)


def reference_execute(db, sql: str) -> ResultSet:
    """Run *sql* on *db* through the reference interpreter.

    SELECT, UNION, UPDATE and DELETE are interpreted here; anything else
    is handed to ``db.execute``.
    """
    statement = parse_sql(sql)
    if isinstance(statement, Select):
        return _ReferencePlanner(db).execute(statement)
    if isinstance(statement, Union):
        return execute_union(statement, _ReferencePlanner(db))
    if isinstance(statement, Update):
        return _update(db, statement)
    if isinstance(statement, Delete):
        return _delete(db, statement)
    return db.execute(sql)


def snapshot_rows(snapshot) -> list:
    """A pinned snapshot's rows in live order."""
    columns = [
        snapshot.column_slice(index, 0, snapshot.row_count)
        for index in range(len(snapshot.delta_columns))
    ]
    return list(zip(*columns))
