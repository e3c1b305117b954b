"""From-scratch in-memory relational engine (the paper's DB backend)."""

from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Join,
    Like,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
)
from repro.sqlengine.catalog import Catalog, Column, ForeignKey, Table
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select, parse_sql
from repro.sqlengine.planner import PlanCache, QueryPlanner
from repro.sqlengine.results import ResultSet
from repro.sqlengine.types import SqlType

__all__ = [
    "BinaryOp",
    "Catalog",
    "Column",
    "ColumnRef",
    "Database",
    "Expr",
    "ForeignKey",
    "FuncCall",
    "Join",
    "Like",
    "Literal",
    "OrderItem",
    "PlanCache",
    "QueryPlanner",
    "ResultSet",
    "Select",
    "SelectItem",
    "SqlType",
    "Table",
    "TableRef",
    "parse_select",
    "parse_sql",
]
