"""Rule-based plan optimizer.

Works on the canonical plan produced by ``lower_select`` and applies,
in order:

1. **constant folding** over WHERE/ON predicates (literal-only
   subexpressions are evaluated at plan time; always-true conjuncts are
   dropped),
2. **predicate classification + pushdown**: each conjunct becomes a
   single-table scan filter, a recognised equi-join predicate, or a
   residual filter applied as soon as its bindings are joined,
3. **join ordering** driven by table statistics: scans are combined
   greedily, starting from the smallest estimated relation and always
   picking the connected table that minimises the estimated join
   cardinality (falling back to a cross join with the smallest pending
   relation),
4. **projection pruning**: scan outputs are narrowed to the columns the
   rest of the plan actually references (skipped when ``SELECT *``
   needs everything).

Classification deliberately resolves unqualified columns against the
*inner* tables only, mirroring the pre-planner executor: WHERE
predicates on LEFT-joined tables stay residual and run after the outer
join.  A LEFT JOIN's own ON conjuncts that only filter its
null-supplying side are pushed into that side's scan
(:func:`_push_null_side`).
"""

from __future__ import annotations

from functools import reduce

from repro.errors import SqlError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    collect_column_refs,
)
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.expressions import (
    Scope,
    class_of_tables,
    compile_batch,
    never_raises,
    split_conjuncts,
)
from repro.sqlengine.planner.logical import (
    EquiPredicate,
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
    scan_bindings,
)
from repro.sqlengine.planner.stats import (
    DEFAULT_SELECTIVITY,
    StatisticsProvider,
    TableStats,
    join_selectivity,
    predicate_selectivity,
)


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

_EMPTY_SCOPE = Scope([])


def fold_constants(expr: Expr) -> Expr:
    """Fold literal-only subexpressions of *expr* into ``Literal`` nodes.

    Aggregate calls are left untouched (their node identity maps them to
    result slots later).  Subexpressions whose evaluation raises (e.g.
    ``1 / 0``) are left unfolded so the error still surfaces at
    execution time, exactly as before.
    """
    if isinstance(expr, (Literal, ColumnRef)):
        return expr
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return expr
        folded = FuncCall(
            name=expr.name,
            args=tuple(fold_constants(arg) for arg in expr.args),
            star=expr.star,
            distinct=expr.distinct,
        )
        return _try_evaluate(folded)
    if isinstance(expr, BinaryOp):
        folded = BinaryOp(
            op=expr.op,
            left=fold_constants(expr.left),
            right=fold_constants(expr.right),
        )
        return _try_evaluate(folded)
    if isinstance(expr, UnaryOp):
        folded = UnaryOp(op=expr.op, operand=fold_constants(expr.operand))
        return _try_evaluate(folded)
    if isinstance(expr, Like):
        folded = Like(
            operand=fold_constants(expr.operand),
            pattern=fold_constants(expr.pattern),
            negated=expr.negated,
        )
        return _try_evaluate(folded)
    if isinstance(expr, InList):
        folded = InList(
            operand=fold_constants(expr.operand),
            items=tuple(fold_constants(item) for item in expr.items),
            negated=expr.negated,
        )
        return _try_evaluate(folded)
    if isinstance(expr, Between):
        folded = Between(
            operand=fold_constants(expr.operand),
            low=fold_constants(expr.low),
            high=fold_constants(expr.high),
            negated=expr.negated,
        )
        return _try_evaluate(folded)
    if isinstance(expr, IsNull):
        folded = IsNull(operand=fold_constants(expr.operand), negated=expr.negated)
        return _try_evaluate(folded)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            branches=tuple(
                (fold_constants(condition), fold_constants(value))
                for condition, value in expr.branches
            ),
            default=(
                fold_constants(expr.default) if expr.default is not None else None
            ),
        )
    return expr


def _try_evaluate(expr: Expr) -> Expr:
    """Evaluate *expr* now if it references no columns or aggregates.

    The value is the one entry of *expr* over a one-row batch with no
    columns.
    """
    if collect_column_refs(expr) or _contains_func(expr):
        return expr
    try:
        value = compile_batch([expr], _EMPTY_SCOPE).fn([], 1)[0][0]
    except SqlError:
        return expr
    return Literal(value)


def _contains_func(expr: Expr) -> bool:
    """True if *expr* still contains any function call (kept unfolded)."""
    if isinstance(expr, FuncCall):
        return True
    from repro.sqlengine.planner.logical import expr_children

    return any(_contains_func(child) for child in expr_children(expr))


# ---------------------------------------------------------------------------
# conjunct classification (inner-table scopes only, as before the planner)
# ---------------------------------------------------------------------------


def bindings_of(refs, columns_by_binding: dict) -> "set | None":
    """The bindings referenced, or None if any ref is unresolvable."""
    found: set = set()
    for ref in refs:
        if ref.table is not None:
            if ref.table not in columns_by_binding:
                return None
            found.add(ref.table)
            continue
        owners = [
            binding
            for binding, columns in columns_by_binding.items()
            if ref.column in columns
        ]
        if len(owners) != 1:
            return None
        found.add(owners[0])
    return found


def as_equi_predicate(
    conjunct: Expr, columns_by_binding: dict
) -> "EquiPredicate | None":
    """Recognise ``a.x = b.y`` between two different bindings."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    left_binding = _owner_of(left, columns_by_binding)
    right_binding = _owner_of(right, columns_by_binding)
    if left_binding is None or right_binding is None:
        return None
    if left_binding == right_binding:
        return None
    return EquiPredicate(left_binding, left, right_binding, right, conjunct)


def _owner_of(ref: ColumnRef, columns_by_binding: dict) -> "str | None":
    if ref.table is not None:
        return ref.table if ref.table in columns_by_binding else None
    owners = [
        binding
        for binding, columns in columns_by_binding.items()
        if ref.column in columns
    ]
    return owners[0] if len(owners) == 1 else None


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------


def optimize_plan(
    root: LogicalNode, catalog: Catalog, stats_provider: StatisticsProvider
) -> LogicalNode:
    """Optimize a canonical plan in place and return the new root."""
    wrappers: list = []
    node = root
    while isinstance(
        node,
        (LogicalLimit, LogicalSort, LogicalDistinct, LogicalProject,
         LogicalAggregate),
    ):
        wrappers.append(node)
        node = node.child

    # TOP-N pushdown: a Limit directly over a Sort fuses into one
    # bounded-heap operator (physical BatchTopNOp) — the full
    # sort never materializes more than `limit` output rows
    if (
        len(wrappers) >= 2
        and isinstance(wrappers[0], LogicalLimit)
        and isinstance(wrappers[1], LogicalSort)
    ):
        wrappers[:2] = [
            LogicalTopN(
                child=None,  # re-attached with the rest of the stack below
                order_by=wrappers[1].order_by,
                limit=wrappers[0].limit,
            )
        ]
    conjuncts: list = []
    if isinstance(node, LogicalFilter):
        conjuncts = [fold_constants(p) for p in node.predicates]
        node = node.child
    left_nodes: list = []
    while isinstance(node, LogicalLeftJoin):
        left_nodes.append(node)
        node = node.left
    left_nodes.reverse()  # application order, innermost first
    scans = _flatten_joins(node)

    columns_by_binding = {
        scan.binding: set(catalog.table(scan.table).column_names())
        for scan in scans
    }
    table_stats = {
        scan.binding: stats_provider.table_stats(scan.table) for scan in scans
    }

    # classify
    pushed: dict = {scan.binding: [] for scan in scans}
    equi_predicates: list = []
    residual: list = []
    for conjunct in conjuncts:
        if isinstance(conjunct, Literal) and conjunct.value is True:
            continue  # always-true conjunct folded away
        refs = collect_column_refs(conjunct)
        ref_bindings = bindings_of(refs, columns_by_binding)
        if ref_bindings is not None and len(ref_bindings) == 1:
            pushed[next(iter(ref_bindings))].append(conjunct)
            continue
        equi = (
            as_equi_predicate(conjunct, columns_by_binding)
            if ref_bindings
            else None
        )
        if equi is not None:
            equi_predicates.append(equi)
        else:
            residual.append(conjunct)

    # annotate scans with pushed filters and estimates
    for scan in scans:
        scan.predicates = tuple(pushed[scan.binding])
        _estimate_scan(scan, table_stats[scan.binding])

    # greedy cardinality-driven join ordering
    syntax_index = {scan.binding: i for i, scan in enumerate(scans)}
    joined_node, joined_bindings, remaining_equi, remaining_residual = (
        _order_joins(
            scans,
            equi_predicates,
            residual,
            table_stats,
            columns_by_binding,
            syntax_index,
        )
    )

    # leftover equi predicates (join cycles) become plain filters
    if remaining_equi:
        joined_node = LogicalFilter(
            child=joined_node,
            predicates=tuple(equi.expr for equi in remaining_equi),
        )
        joined_node.est_rows = _filtered_estimate(joined_node)

    # LEFT joins reapplied in order, conditions folded, null-side
    # conjuncts pushed into the right scan
    for left_node in left_nodes:
        left_node.left = joined_node
        left_node.condition = fold_constants(left_node.condition)
        _push_null_side(left_node, catalog, stats_provider)
        left_node.est_rows = joined_node.est_rows
        joined_node = left_node

    if remaining_residual:
        joined_node = LogicalFilter(
            child=joined_node, predicates=tuple(remaining_residual)
        )
        joined_node.est_rows = _filtered_estimate(joined_node)

    # re-attach the wrapper stack (aggregate/project/distinct/sort/limit)
    node = joined_node
    for wrapper in reversed(wrappers):
        wrapper.child = node
        wrapper.est_rows = _wrapper_estimate(wrapper, node, table_stats)
        node = wrapper

    _prune_projections(wrappers, catalog, scans, left_nodes, conjuncts)
    return node


def _push_null_side(
    left_node: LogicalLeftJoin,
    catalog: Catalog,
    stats_provider: StatisticsProvider,
) -> None:
    """Move ON conjuncts that only filter the right side into its scan.

    ``l LEFT JOIN r ON c AND p(r)`` pairs each left row with the rows of
    ``σ_p(r)`` satisfying ``c`` and pads it when there are none, so a
    conjunct whose column references all resolve, unambiguously, to the
    null-supplying binding can filter the scan instead of every pair.
    Conjuncts touching the left side stay in the condition: filtering
    the left input would drop rows the join must pad.  Only when the
    compiler calls every conjunct safe (:func:`~repro.sqlengine.
    expressions.never_raises`), so evaluating fewer pairs cannot hide an
    error.  A fully pushed condition becomes ``TRUE``.
    """
    tables = {
        binding: catalog.table(name)
        for binding, name in scan_bindings(left_node).items()
    }
    scope = Scope([
        (binding, column.name)
        for binding, table in tables.items() for column in table.columns
    ])
    right = left_node.right

    def right_only(conjunct: Expr) -> bool:
        refs = collect_column_refs(conjunct)
        return bool(refs) and all(
            (index := scope.try_resolve(ref)) is not None
            and scope.pairs[index][0] == right.binding
            for ref in refs
        )

    conjuncts = split_conjuncts(left_node.condition)
    pushed = [c for c in conjuncts if right_only(c)]
    if not pushed or not never_raises(
        conjuncts, scope, class_of_tables(tables)
    ):
        return
    kept = [c for c in conjuncts if not right_only(c)]
    left_node.condition = (
        reduce(lambda a, b: BinaryOp(op="AND", left=a, right=b), kept)
        if kept
        else Literal(True)
    )
    right.predicates = right.predicates + tuple(pushed)
    _estimate_scan(right, stats_provider.table_stats(right.table))


def _estimate_scan(scan: LogicalScan, stats: TableStats) -> None:
    selectivity = 1.0
    for predicate in scan.predicates:
        selectivity *= predicate_selectivity(predicate, stats)
    scan.est_rows = scan.base_rows * selectivity


def _flatten_joins(node: LogicalNode) -> list:
    if isinstance(node, LogicalScan):
        return [node]
    assert isinstance(node, LogicalJoin)
    return _flatten_joins(node.left) + _flatten_joins(node.right)


def _order_joins(
    scans: list,
    equi_predicates: list,
    residual: list,
    table_stats: dict,
    columns_by_binding: dict,
    syntax_index: dict,
) -> tuple:
    """Build the join tree greedily; returns (node, bindings, equi, residual)."""
    estimates = {scan.binding: scan.est_rows for scan in scans}
    start = min(scans, key=lambda s: (s.est_rows, syntax_index[s.binding]))
    node: LogicalNode = start
    joined = {start.binding}
    current_est = max(start.est_rows, 0.0)
    pending = [scan for scan in scans if scan is not start]
    remaining_equi = list(equi_predicates)
    remaining_residual = list(residual)

    while pending:
        best = None
        best_cost = None
        best_usable: list = []
        for candidate in pending:
            usable = [
                equi
                for equi in remaining_equi
                if candidate.binding in equi.bindings
                and (equi.bindings - {candidate.binding}) <= joined
            ]
            if not usable:
                continue
            selectivity = 1.0
            for equi in usable:
                selectivity *= join_selectivity(
                    table_stats[equi.left_binding],
                    equi.left.column,
                    table_stats[equi.right_binding],
                    equi.right.column,
                )
            cost = current_est * estimates[candidate.binding] * selectivity
            key = (cost, syntax_index[candidate.binding])
            if best_cost is None or key < best_cost:
                best, best_cost, best_usable = candidate, key, usable
        if best is None:  # no connected table: cross join the smallest
            best = min(
                pending,
                key=lambda s: (estimates[s.binding], syntax_index[s.binding]),
            )
            best_cost = (current_est * estimates[best.binding], 0)
            best_usable = []

        pending.remove(best)
        usable = best_usable
        remaining_equi = [e for e in remaining_equi if e not in usable]
        node = LogicalJoin(left=node, right=best, equi=tuple(usable))
        joined.add(best.binding)
        current_est = max(best_cost[0], 0.0)
        node.est_rows = current_est

        # apply residuals as soon as every binding they need is joined
        ready = []
        waiting = []
        for conjunct in remaining_residual:
            needed = bindings_of(
                collect_column_refs(conjunct), columns_by_binding
            )
            if needed is not None and needed <= joined:
                ready.append(conjunct)
            else:
                waiting.append(conjunct)
        remaining_residual = waiting
        if ready:
            node = LogicalFilter(child=node, predicates=tuple(ready))
            node.est_rows = _filtered_estimate(node)
            current_est = node.est_rows

    return node, joined, remaining_equi, remaining_residual


def _filtered_estimate(filter_node: LogicalFilter) -> float:
    child_est = filter_node.child.est_rows or 0.0
    return child_est * (DEFAULT_SELECTIVITY ** len(filter_node.predicates))


def _wrapper_estimate(
    wrapper: LogicalNode, child: LogicalNode, table_stats: dict
) -> "float | None":
    child_est = child.est_rows
    if isinstance(wrapper, LogicalAggregate):
        if not wrapper.group_by:
            return 1.0
        groups = 1.0
        for expr in wrapper.group_by:
            if isinstance(expr, ColumnRef):
                owner = expr.table
                if owner in table_stats:
                    groups *= table_stats[owner].distinct(expr.column)
                    continue
            groups *= 10.0  # expression key: assume a few distinct values
        if child_est is not None:
            groups = min(groups, child_est)
        return groups
    if isinstance(wrapper, (LogicalLimit, LogicalTopN)):
        if child_est is None:
            return float(wrapper.limit)
        return min(child_est, float(wrapper.limit))
    return child_est


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def _prune_projections(
    wrappers: list,
    catalog: Catalog,
    scans: list,
    left_nodes: list,
    conjuncts: list,
) -> None:
    """Narrow scan outputs to the referenced columns (in place)."""
    project = _find_wrapper(wrappers, LogicalProject)
    if project is None:
        return
    star_tables: set = set()
    for item in project.items:
        if item.is_star:
            if item.star_table is None:
                return  # SELECT * needs every column
            star_tables.add(item.star_table)

    exprs: list = [item.expr for item in project.items if item.expr is not None]
    exprs.extend(conjuncts)
    for left_node in left_nodes:
        exprs.append(left_node.condition)
    aggregate = _find_wrapper(wrappers, LogicalAggregate)
    if aggregate is not None:
        exprs.extend(aggregate.group_by)
        if aggregate.having is not None:
            exprs.append(aggregate.having)
        exprs.extend(aggregate.agg_calls)
    sort = _find_wrapper(wrappers, (LogicalSort, LogicalTopN))
    if sort is not None:
        exprs.extend(item.expr for item in sort.order_by)

    all_scans = list(scans) + [left_node.right for left_node in left_nodes]
    tables = {scan.binding: catalog.table(scan.table) for scan in all_scans}

    needed: set = set()
    for expr in exprs:
        for ref in collect_column_refs(expr):
            if ref.table is not None:
                needed.add((ref.table, ref.column))
                continue
            for binding, table in tables.items():
                if table.has_column(ref.column):
                    needed.add((binding, ref.column))

    for scan in all_scans:
        if scan.binding in star_tables:
            continue
        table = tables[scan.binding]
        kept = tuple(
            name
            for name in table.column_names()
            if (scan.binding, name) in needed
        )
        if len(kept) < len(table.columns):
            scan.columns = kept


def _find_wrapper(wrappers: list, node_type: type):
    for wrapper in wrappers:
        if isinstance(wrapper, node_type):
            return wrapper
    return None
