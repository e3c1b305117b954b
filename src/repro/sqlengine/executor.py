"""Thin execution facade over the planner subsystem.

Historically this module interpreted the ``Select`` AST directly with
ad-hoc inline planning.  Execution now flows through
:mod:`repro.sqlengine.planner`: the AST is lowered to a logical plan
DAG, optimized (constant folding, predicate pushdown, projection
pruning, statistics-driven join ordering) and compiled into physical
operators of the vectorized batch engine.  :class:`~repro.sqlengine.
database.Database` owns a long-lived :class:`~repro.sqlengine.planner.
QueryPlanner` whose LRU plan cache makes repeated statements skip
re-planning; the module-level functions below create a transient
planner per call and exist for API compatibility (tests, notebooks).

All pre-planner semantics are preserved — see
:mod:`repro.sqlengine.planner.physical` for the operator contracts.
"""

from __future__ import annotations

from repro.errors import SqlExecutionError
from repro.sqlengine.ast_nodes import Select
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.results import ResultSet

__all__ = [
    "ResultSet",
    "execute_select",
    "execute_union",
]


def _planner_for(catalog: Catalog, planner=None):
    if planner is not None:
        return planner
    from repro.sqlengine.planner import QueryPlanner

    return QueryPlanner(catalog)


def execute_select(catalog: Catalog, select: Select, planner=None) -> ResultSet:
    """Plan and execute a SELECT statement against *catalog*."""
    return _planner_for(catalog, planner).execute(select)


def execute_union(catalog: Catalog, union, planner=None) -> ResultSet:
    """Execute a UNION [ALL] chain; columns come from the first branch."""
    owner = _planner_for(catalog, planner)
    results = [owner.execute(select) for select in union.selects]
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
