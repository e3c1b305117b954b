"""Logical plan DAG and lowering from the parsed ``Select`` AST.

``lower_select`` produces the *canonical* (unoptimized) plan: scans in
syntax order combined by cross joins, LEFT joins applied in order, a
single filter holding every WHERE/ON conjunct, then aggregation,
projection, DISTINCT, sort and limit.  The canonical plan is directly
executable (the benchmark's "naive" baseline) and is the input to
:mod:`repro.sqlengine.planner.optimizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlCatalogError
from repro.sqlengine.ast_nodes import (
    ColumnRef,
    Expr,
    FuncCall,
    Select,
    contains_aggregate,
)
from repro.sqlengine.catalog import Catalog, Table
from repro.sqlengine.expressions import split_conjuncts


class LogicalNode:
    """Base class for logical plan nodes."""

    est_rows: "float | None"

    def children(self) -> tuple:
        return ()


@dataclass(frozen=True)
class EquiPredicate:
    """A recognised ``a.x = b.y`` join predicate between two bindings."""

    left_binding: str
    left: ColumnRef
    right_binding: str
    right: ColumnRef
    expr: Expr

    @property
    def bindings(self) -> set:
        return {self.left_binding, self.right_binding}


@dataclass
class LogicalScan(LogicalNode):
    """Scan one base table, optionally filtered and column-pruned."""

    table: str
    binding: str
    base_rows: int = 0
    predicates: tuple = ()
    columns: "tuple | None" = None  # pruned output columns; None = all
    est_rows: "float | None" = None


@dataclass
class LogicalJoin(LogicalNode):
    """Inner join; hash join when ``equi`` is non-empty, else cross join."""

    left: LogicalNode
    right: LogicalNode
    equi: tuple = ()
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.left, self.right)


@dataclass
class LogicalLeftJoin(LogicalNode):
    """LEFT OUTER join; the right side is always a scan."""

    left: LogicalNode
    right: LogicalScan
    condition: Expr = None  # type: ignore[assignment]
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.left, self.right)


@dataclass
class LogicalFilter(LogicalNode):
    """Apply residual predicates to the child's rows."""

    child: LogicalNode
    predicates: tuple = ()
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


@dataclass
class LogicalAggregate(LogicalNode):
    """GROUP BY + aggregate evaluation (plus HAVING)."""

    child: LogicalNode
    group_by: tuple = ()
    agg_calls: tuple = ()
    having: "Expr | None" = None
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


@dataclass
class LogicalProject(LogicalNode):
    """Evaluate the select list.

    ``canonical_pairs`` records the full FROM-order column layout so star
    expansion is independent of the optimizer's join order.
    """

    child: LogicalNode
    items: tuple = ()
    canonical_pairs: tuple = ()
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


@dataclass
class LogicalDistinct(LogicalNode):
    child: LogicalNode = None  # type: ignore[assignment]
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


@dataclass
class LogicalSort(LogicalNode):
    child: LogicalNode = None  # type: ignore[assignment]
    order_by: tuple = ()
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


@dataclass
class LogicalLimit(LogicalNode):
    child: LogicalNode = None  # type: ignore[assignment]
    limit: int = 0
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


@dataclass
class LogicalTopN(LogicalNode):
    """Sort fused with the Limit directly above it (TOP-N pushdown).

    Produced by the optimizer only — the canonical plan always keeps
    the separate Sort + Limit pair.  Physical operators keep a bounded
    heap of the best *limit* rows instead of fully sorting the input;
    the ordering semantics (stable multi-key sort, NULLs-first
    ``sort_key`` ordering) are identical.
    """

    child: LogicalNode = None  # type: ignore[assignment]
    order_by: tuple = ()
    limit: int = 0
    est_rows: "float | None" = None

    def children(self) -> tuple:
        return (self.child,)


def scan_bindings(node: LogicalNode) -> dict:
    """``binding -> table name`` for every scan in *node*'s subtree."""
    found: dict = {}
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, LogicalScan):
            found[current.binding] = current.table
        stack.extend(current.children())
    return found


def referenced_tables(node: LogicalNode) -> tuple:
    """The sorted base-table names scanned anywhere in *node*'s tree.

    The plan cache validates a cached plan against exactly these
    tables' mutation versions, so writes to unrelated tables never
    evict it.
    """
    return tuple(sorted(set(scan_bindings(node).values())))


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


def collect_aggregate_calls(expr: "Expr | None", found: list) -> None:
    """Append the aggregate FuncCall nodes of *expr* to *found* (deduped)."""
    if expr is None:
        return
    if isinstance(expr, FuncCall):
        from repro.sqlengine.ast_nodes import AGGREGATE_FUNCTIONS

        if expr.name in AGGREGATE_FUNCTIONS:
            if expr not in found:
                found.append(expr)
            return
        for arg in expr.args:
            collect_aggregate_calls(arg, found)
        return
    for child in expr_children(expr):
        collect_aggregate_calls(child, found)


def expr_children(expr: Expr) -> list:
    """Direct sub-expressions of *expr* (empty for leaves)."""
    from repro.sqlengine.ast_nodes import (
        Between,
        BinaryOp,
        CaseWhen,
        InList,
        IsNull,
        Like,
        UnaryOp,
    )

    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, FuncCall):
        return list(expr.args)
    if isinstance(expr, CaseWhen):
        children = []
        for condition, value in expr.branches:
            children.append(condition)
            children.append(value)
        if expr.default is not None:
            children.append(expr.default)
        return children
    return []


def needs_aggregation(select: Select) -> bool:
    """Whether the query requires an aggregation operator."""
    if select.group_by or select.having is not None:
        return True
    if any(
        item.expr is not None and contains_aggregate(item.expr)
        for item in select.items
    ):
        return True
    return any(contains_aggregate(item.expr) for item in select.order_by)


def lower_select(catalog: Catalog, select: Select) -> LogicalNode:
    """Lower a parsed SELECT into the canonical logical plan."""
    bindings_seen: set = set()

    def register(binding: str, table_name: str) -> Table:
        if binding in bindings_seen:
            raise SqlCatalogError(f"duplicate table binding: {binding!r}")
        bindings_seen.add(binding)
        return catalog.table(table_name)

    def scan(binding: str, table: Table) -> LogicalScan:
        return LogicalScan(
            table=table.name, binding=binding, base_rows=len(table)
        )

    inner_scans: list = []
    conjuncts: list = split_conjuncts(select.where)
    left_joins: list = []
    for table_ref in select.tables:
        inner_scans.append(
            scan(table_ref.binding, register(table_ref.binding, table_ref.name))
        )
    for join in select.joins:
        if join.kind == "INNER":
            inner_scans.append(
                scan(
                    join.table.binding,
                    register(join.table.binding, join.table.name),
                )
            )
            conjuncts.extend(split_conjuncts(join.condition))
        else:
            left_joins.append(join)

    node: LogicalNode = inner_scans[0]
    for right in inner_scans[1:]:
        node = LogicalJoin(left=node, right=right, equi=())

    canonical_pairs = []
    for inner_scan in inner_scans:
        table = catalog.table(inner_scan.table)
        canonical_pairs.extend(
            (inner_scan.binding, name) for name in table.column_names()
        )
    for join in left_joins:
        table = register(join.table.binding, join.table.name)
        node = LogicalLeftJoin(
            left=node,
            right=scan(join.table.binding, table),
            condition=join.condition,
        )
        canonical_pairs.extend(
            (join.table.binding, name) for name in table.column_names()
        )

    if conjuncts:
        node = LogicalFilter(child=node, predicates=tuple(conjuncts))

    if needs_aggregation(select):
        agg_calls: list = []
        for item in select.items:
            collect_aggregate_calls(item.expr, agg_calls)
        collect_aggregate_calls(select.having, agg_calls)
        for order_item in select.order_by:
            collect_aggregate_calls(order_item.expr, agg_calls)
        node = LogicalAggregate(
            child=node,
            group_by=tuple(select.group_by),
            agg_calls=tuple(agg_calls),
            having=select.having,
        )

    node = LogicalProject(
        child=node,
        items=tuple(select.items),
        canonical_pairs=tuple(canonical_pairs),
    )
    if select.distinct:
        node = LogicalDistinct(child=node)
    if select.order_by:
        node = LogicalSort(child=node, order_by=tuple(select.order_by))
    if select.limit is not None:
        node = LogicalLimit(child=node, limit=select.limit)
    return node
