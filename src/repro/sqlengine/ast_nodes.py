"""Abstract syntax tree for the SQL subset."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.sqlengine.types import SqlType, format_value


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes (each renders itself: ``to_sql``)."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def to_sql(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference (``table.column`` / ``column``)."""

    table: str | None
    column: str

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison or logical binary operation."""

    op: str  # one of = <> < <= > >= AND OR + - * / ||
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # NOT or -
    operand: Expr

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def to_sql(self) -> str:
        middle = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {middle} {self.pattern.to_sql()})"


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple
    negated: bool = False

    def to_sql(self) -> str:
        middle = "NOT IN" if self.negated else "IN"
        rendered = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {middle} ({rendered}))"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        middle = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {middle} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def to_sql(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {middle})"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN value [...] [ELSE value] END``."""

    branches: tuple  # of (condition Expr, value Expr)
    default: Expr | None = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; ``count(*)`` is represented with ``star=True``."""

    name: str  # lowercase
    args: tuple = ()
    star: bool = False
    distinct: bool = False

    def to_sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(arg.to_sql() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


def contains_aggregate(expr: Expr) -> bool:
    """True if *expr* contains an aggregate function call anywhere."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, Like):
        return contains_aggregate(expr.operand) or contains_aggregate(expr.pattern)
    if isinstance(expr, InList):
        return contains_aggregate(expr.operand) or any(
            contains_aggregate(item) for item in expr.items
        )
    if isinstance(expr, Between):
        return (
            contains_aggregate(expr.operand)
            or contains_aggregate(expr.low)
            or contains_aggregate(expr.high)
        )
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, CaseWhen):
        if any(
            contains_aggregate(condition) or contains_aggregate(value)
            for condition, value in expr.branches
        ):
            return True
        return expr.default is not None and contains_aggregate(expr.default)
    return False


def collect_column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references in *expr*, in evaluation order."""
    refs: list[ColumnRef] = []

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            refs.append(node)
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, CaseWhen):
            for condition, value in node.branches:
                walk(condition)
                walk(value)
            if node.default is not None:
                walk(node.default)

    walk(expr)
    return refs


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list; ``expr is None`` means ``*`` or ``t.*``."""

    expr: Expr | None
    alias: str | None = None
    star_table: str | None = None  # for "t.*"

    @property
    def is_star(self) -> bool:
        return self.expr is None

    def to_sql(self) -> str:
        if self.is_star:
            return f"{self.star_table}.*" if self.star_table else "*"
        assert self.expr is not None
        rendered = self.expr.to_sql()
        if self.alias:
            rendered += f" AS {self.alias}"
        return rendered


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the query."""
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} {self.alias}"
        return self.name


@dataclass(frozen=True)
class Join:
    """An explicit ``JOIN ... ON ...`` clause attached to the FROM list."""

    table: TableRef
    condition: Expr
    kind: str = "INNER"  # INNER or LEFT

    def to_sql(self) -> str:
        return f"{self.kind} JOIN {self.table.to_sql()} ON {self.condition.to_sql()}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        suffix = " DESC" if self.descending else ""
        return f"{self.expr.to_sql()}{suffix}"


@dataclass(frozen=True)
class Select:
    items: tuple
    tables: tuple
    joins: tuple = ()
    where: Expr | None = None
    group_by: tuple = ()
    having: Expr | None = None
    order_by: tuple = ()
    limit: int | None = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        parts.append("FROM " + ", ".join(table.to_sql() for table in self.tables))
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(item.to_sql() for item in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class Union:
    """``<select> UNION [ALL] <select> [...]`` with set/bag semantics."""

    selects: tuple
    all: bool = False

    def to_sql(self) -> str:
        separator = " UNION ALL " if self.all else " UNION "
        return separator.join(select.to_sql() for select in self.selects)


@dataclass(frozen=True)
class ColumnDef:
    name: str
    sql_type: SqlType
    primary_key: bool = False


@dataclass(frozen=True)
class ForeignKeyDef:
    columns: tuple
    ref_table: str
    ref_columns: tuple


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple
    foreign_keys: tuple = ()


def _render_returning(returning: tuple) -> str:
    return "RETURNING " + ", ".join(item.to_sql() for item in returning)


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple  # may be empty -> all columns in order
    rows: tuple  # tuple of tuples of Literal values
    returning: tuple = ()  # of SelectItem; empty -> plain rowcount result


@dataclass(frozen=True)
class Assignment:
    """One ``column = expr`` item of an UPDATE's SET list."""

    column: str
    value: Expr

    def to_sql(self) -> str:
        return f"{self.column} = {self.value.to_sql()}"


@dataclass(frozen=True)
class Update:
    """``UPDATE table SET col = expr [, ...] [WHERE predicate] [RETURNING ...]``."""

    table: str
    assignments: tuple  # of Assignment
    where: Expr | None = None
    returning: tuple = ()  # of SelectItem; evaluated over the new rows

    def to_sql(self) -> str:
        rendered = ", ".join(a.to_sql() for a in self.assignments)
        sql = f"UPDATE {self.table} SET {rendered}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        if self.returning:
            sql += " " + _render_returning(self.returning)
        return sql


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM table [WHERE predicate] [RETURNING ...]``."""

    table: str
    where: Expr | None = None
    returning: tuple = ()  # of SelectItem; evaluated over the removed rows

    def to_sql(self) -> str:
        sql = f"DELETE FROM {self.table}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        if self.returning:
            sql += " " + _render_returning(self.returning)
        return sql


# ---------------------------------------------------------------------------
# Transaction control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Begin:
    """``BEGIN [TRANSACTION]`` — open an explicit transaction."""


@dataclass(frozen=True)
class Commit:
    """``COMMIT`` — make the open transaction's writes durable."""


@dataclass(frozen=True)
class Rollback:
    """``ROLLBACK`` — undo the open transaction's writes."""


@dataclass(frozen=True)
class Checkpoint:
    """``CHECKPOINT`` — persist a columnar segment file and truncate the WAL."""
