"""Render an optimized logical plan as a deterministic text tree.

The node phrasing intentionally keeps the pre-planner vocabulary
(``scan t as t (N rows)``, ``hash join b on (...)``, ``cross join``,
``left join``, ``aggregate group by``, ``sort by``, ``limit N``,
``top-n N by ...``) so the output stays grep-friendly, and adds tree
structure, cardinality estimates (``~N rows``) and pruned column lists.
"""

from __future__ import annotations

from repro.sqlengine.planner.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLeftJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopN,
)


def render_plan(root: LogicalNode, analyze=None) -> str:
    """The whole plan as an indented tree, one node per line.

    *analyze* (optional, an
    :class:`~repro.sqlengine.planner.analyze.Instrumenter` that has
    executed this plan) appends each operator's actual rows/batches and
    self-time next to the estimates — the EXPLAIN ANALYZE rendering.
    """
    lines: list = []
    _render(root, prefix="", connector="", lines=lines, analyze=analyze)
    return "\n".join(lines)


def _render(
    node: LogicalNode, prefix: str, connector: str, lines: list, analyze=None
) -> None:
    line = prefix + connector + describe_node(node)
    if analyze is not None:
        line += analyze.suffix_for(node)
    lines.append(line)
    children = node.children()
    if not children:
        return
    if connector == "":
        child_prefix = prefix
    elif connector.startswith("├"):
        child_prefix = prefix + "│  "
    else:
        child_prefix = prefix + "   "
    for index, child in enumerate(children):
        last = index == len(children) - 1
        _render(
            child, child_prefix, "└─ " if last else "├─ ", lines, analyze
        )


def describe_node(node: LogicalNode) -> str:
    """One-line description of a plan node."""
    if isinstance(node, LogicalScan):
        text = f"scan {node.table} as {node.binding} ({node.base_rows} rows)"
        if node.predicates:
            rendered = " AND ".join(p.to_sql() for p in node.predicates)
            text += f" filter: {rendered}"
            text += _estimate(node)
        if node.columns is not None:
            text += f" [cols: {', '.join(node.columns) or '(none)'}]"
        return text
    if isinstance(node, LogicalJoin):
        right_binding = _rightmost_binding(node.right)
        if node.equi:
            conditions = " AND ".join(e.expr.to_sql() for e in node.equi)
            return f"hash join {right_binding} on {conditions}" + _estimate(node)
        return f"cross join {right_binding}" + _estimate(node)
    if isinstance(node, LogicalLeftJoin):
        return (
            f"left join {node.right.binding} on {node.condition.to_sql()}"
            + _estimate(node)
        )
    if isinstance(node, LogicalFilter):
        rendered = " AND ".join(p.to_sql() for p in node.predicates)
        return f"residual filter {rendered}" + _estimate(node)
    if isinstance(node, LogicalAggregate):
        keys = ", ".join(e.to_sql() for e in node.group_by) or "(all rows)"
        text = f"aggregate group by {keys}"
        if node.having is not None:
            text += f" having {node.having.to_sql()}"
        return text + _estimate(node)
    if isinstance(node, LogicalProject):
        rendered = ", ".join(item.to_sql() for item in node.items)
        return f"project {rendered}"
    if isinstance(node, LogicalDistinct):
        return "distinct"
    if isinstance(node, LogicalSort):
        return "sort by " + ", ".join(item.to_sql() for item in node.order_by)
    if isinstance(node, LogicalLimit):
        return f"limit {node.limit}"
    if isinstance(node, LogicalTopN):
        ordering = ", ".join(item.to_sql() for item in node.order_by)
        return f"top-n {node.limit} by {ordering}" + _estimate(node)
    return type(node).__name__  # pragma: no cover - future node types


def _estimate(node: LogicalNode) -> str:
    if node.est_rows is None:
        return ""
    return f" [~{int(round(node.est_rows))} rows]"


def _rightmost_binding(node: LogicalNode) -> str:
    if isinstance(node, LogicalScan):
        return node.binding
    children = node.children()
    if children:
        return _rightmost_binding(children[-1])
    return "?"  # pragma: no cover - joins always end in scans
