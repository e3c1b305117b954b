"""Physical operators: volcano (row) and vectorized (batch) engines.

``build_physical`` compiles an optimized logical plan into a tree of
operators in one of two execution modes.  Expression compilation happens
once, at build time, so a cached :class:`PreparedPlan` can be
re-executed without re-planning — each execution streams fresh results
from the underlying tables.

**Row mode** is the classic volcano engine: every operator is an
iterator over row tuples, one ``next()`` and a handful of closure calls
per row.  Two row shapes flow through the tree:

* relational operators (scan/filter/join/aggregate) yield plain row
  tuples laid out by their :class:`~repro.sqlengine.expressions.Scope`;
* presentation operators (project/distinct/sort/limit) yield
  ``(out_row, pre_row)`` pairs, keeping the pre-projection row around so
  ORDER BY can sort on expressions that were never projected.

**Batch mode** is the vectorized engine: operators exchange *column
batches* — ``(cols, n)`` where ``cols`` is one Python list per scope
column, all of length ``n``.  ``n`` is at most :data:`BATCH_SIZE` for
every batch of every operator — a fan-out join, a sort or an aggregate
hands its output on in slices, never as one batch — and every
``batches()``/``pres_batches()`` is a generator that does the work for
a batch when that batch is pulled, so a consumer that stops pulling
(LIMIT) stops the producers below it.  Scans slice the table's columnar
storage directly, filters turn whole-batch predicate evaluation into
selection vectors, hash joins build once and then probe and gather per
output batch, and aggregation feeds grouped accumulators from per-batch
argument columns.  Expressions are compiled
by :func:`~repro.sqlengine.expressions.compile_expr_batch`, which
preserves row-mode semantics exactly (three-valued logic,
``compare_values`` ordering, short-circuit error behavior), so the two
modes produce byte-identical :class:`ResultSet`\\ s.

All pre-planner semantics are preserved in both modes: three-valued
predicate logic, hash joins skipping NULL keys, LEFT JOIN null padding,
the representative-row leniency for non-aggregated GROUP BY
expressions, ORDER BY aliases/positions, and NULLs-first mixed-type
ordering.
"""

from __future__ import annotations

import datetime
import heapq
from bisect import bisect_right
from typing import Any, Iterator

from repro.errors import SqlCatalogError, SqlExecutionError, SqlTypeError
from repro.resilience.deadline import current_deadline
from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.config import DEFAULT_CONFIG, EngineConfig
from repro.sqlengine.encoding import EncodedColumn
from repro.sqlengine.segments import snapshot_of
from repro.sqlengine.expressions import (
    Scope,
    _never_raises,
    compile_expr,
    compile_expr_batch,
    fuse_batch_exprs,
    gather_columns,
    split_conjuncts,
)
from repro.sqlengine.functions import make_accumulator
from repro.obs.metrics import registry as _metrics_registry
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
    scan_bindings,
)
from repro.sqlengine.planner.parallel import (
    MorselDispatcher,
    ParallelChainOp,
    ParallelProjectOp,
)
from repro.sqlengine.results import ResultSet
from repro.sqlengine.types import SqlType, parse_date

#: rows per column batch flowing through the vectorized operators
BATCH_SIZE = 1024

# engine-level observability: operators accumulate into locals while
# streaming and flush once per execution in a ``finally`` (so abandoned
# iterators — LIMIT, errors — still report what they did), behind the
# registry's single ``enabled`` flag
_METRICS = _metrics_registry()
_ROWS_SCANNED = _METRICS.counter("engine.rows_scanned")
_ROWS_FILTERED = _METRICS.counter("engine.rows_filtered")
_ROWS_JOINED = _METRICS.counter("engine.rows_joined")
_BATCHES_PRODUCED = _METRICS.counter("engine.batches_produced")
_FUSED_BATCHES = _METRICS.counter("engine.fused_batches")
_SEGMENTS_SKIPPED = _METRICS.counter("engine.segments_skipped")


class PhysicalOperator:
    """Base class: a re-runnable iterator over row tuples."""

    scope: Scope

    def rows(self) -> Iterator[tuple]:  # pragma: no cover - overridden
        raise NotImplementedError


class ScanOp(PhysicalOperator):
    """Scan one table, applying pushed filters, then pruning columns."""

    def __init__(self, catalog: Catalog, node: LogicalScan) -> None:
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
        predicate_fns = self._predicate_fns
        # segmented tables read through a pinned (or ad-hoc) snapshot so
        # concurrent DML can never mutate the rows mid-iteration
        snapshot = snapshot_of(self._table)
        source = self._table.rows if snapshot is None else snapshot.iter_rows()
        deadline = current_deadline()
        scanned = 0
        dropped = 0
        try:
            for row in source:
                scanned += 1
                if deadline is not None and not scanned % BATCH_SIZE:
                    deadline.check("scan")
                ok = True
                for fn in predicate_fns:
                    if fn(row) is not True:
                        ok = False
                        break
                if not ok:
                    dropped += 1
                    continue
                if indexes is None:
                    yield row
                else:
                    yield tuple(row[i] for i in indexes)
        finally:
            if scanned and _METRICS.enabled:
                _ROWS_SCANNED.inc(scanned)
                if dropped:
                    _ROWS_FILTERED.inc(dropped)


class FilterOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, predicates) -> None:
        self._child = child
        self.scope = child.scope
        self._fns = [compile_expr(p, self.scope) for p in predicates]

    def rows(self) -> Iterator[tuple]:
        fns = self._fns
        dropped = 0
        try:
            for row in self._child.rows():
                if all(fn(row) is True for fn in fns):
                    yield row
                else:
                    dropped += 1
        finally:
            if dropped and _METRICS.enabled:
                _ROWS_FILTERED.inc(dropped)


class HashJoinOp(PhysicalOperator):
    """Hash join on equi predicates; degrades to a cross join without any."""

    def __init__(
        self, left: PhysicalOperator, right: PhysicalOperator, equi
    ) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._left_indexes: list = []
        self._right_indexes: list = []
        for predicate in equi:
            if left.scope.try_resolve(predicate.left) is not None:
                self._left_indexes.append(left.scope.resolve(predicate.left))
                self._right_indexes.append(right.scope.resolve(predicate.right))
            else:
                self._left_indexes.append(left.scope.resolve(predicate.right))
                self._right_indexes.append(right.scope.resolve(predicate.left))

    def rows(self) -> Iterator[tuple]:
        deadline = current_deadline()
        joined = 0
        try:
            if not self._left_indexes:  # cross join
                right_rows = list(self._right.rows())
                for left_row in self._left.rows():
                    for right_row in right_rows:
                        joined += 1
                        if deadline is not None and not joined % BATCH_SIZE:
                            deadline.check("join")
                        yield left_row + right_row
                return
            table: dict = {}
            right_indexes = self._right_indexes
            for row in self._right.rows():
                key = tuple(row[i] for i in right_indexes)
                if any(value is None for value in key):
                    continue
                table.setdefault(key, []).append(row)
            left_indexes = self._left_indexes
            for row in self._left.rows():
                key = tuple(row[i] for i in left_indexes)
                if any(value is None for value in key):
                    continue
                for match in table.get(key, ()):
                    joined += 1
                    if deadline is not None and not joined % BATCH_SIZE:
                        deadline.check("join")
                    yield row + match
        finally:
            if joined and _METRICS.enabled:
                _ROWS_JOINED.inc(joined)


class LeftJoinOp(PhysicalOperator):
    """Nested-loop LEFT OUTER join with NULL padding."""

    def __init__(
        self, left: PhysicalOperator, right: PhysicalOperator, condition
    ) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._condition_fn = compile_expr(condition, self.scope)
        self._null_pad = (None,) * len(right.scope)

    def rows(self) -> Iterator[tuple]:
        right_rows = list(self._right.rows())
        condition_fn = self._condition_fn
        null_pad = self._null_pad
        deadline = current_deadline()
        joined = 0
        try:
            for left_row in self._left.rows():
                matched = False
                for right_row in right_rows:
                    combined = left_row + right_row
                    if condition_fn(combined) is True:
                        joined += 1
                        if deadline is not None and not joined % BATCH_SIZE:
                            deadline.check("join")
                        yield combined
                        matched = True
                if not matched:
                    joined += 1
                    if deadline is not None and not joined % BATCH_SIZE:
                        deadline.check("join")
                    yield left_row + null_pad
        finally:
            if joined and _METRICS.enabled:
                _ROWS_JOINED.inc(joined)


class AggregateOp(PhysicalOperator):
    """GROUP BY with accumulator-based aggregates and HAVING.

    Output rows are the *representative row* of each group (its first
    input row) extended with one slot per aggregate call; the extended
    scope names those slots ``__agg_<i>`` and :attr:`agg_slots` maps each
    aggregate ``FuncCall`` to its slot so later expressions can read the
    results.
    """

    def __init__(self, child: PhysicalOperator, node: LogicalAggregate) -> None:
        self._child = child
        self._node = node
        scope = child.scope
        self._group_fns = [compile_expr(expr, scope) for expr in node.group_by]
        self._arg_fns: list = []
        for call in node.agg_calls:
            if call.star:
                self._arg_fns.append(None)
            else:
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

    def rows(self) -> Iterator[tuple]:
        node = self._node
        groups: dict = {}
        group_order: list = []
        for row in self._child.rows():
            key = tuple(fn(row) for fn in self._group_fns)
            if key not in groups:
                accumulators = [
                    make_accumulator(call.name, call.star, call.distinct)
                    for call in node.agg_calls
                ]
                groups[key] = (row, accumulators)
                group_order.append(key)
            __, accumulators = groups[key]
            for call, arg_fn, accumulator in zip(
                node.agg_calls, self._arg_fns, accumulators
            ):
                accumulator.add(1 if call.star else arg_fn(row))

        # aggregate query over empty input and no GROUP BY -> one empty group
        if not groups and not node.group_by:
            accumulators = [
                make_accumulator(call.name, call.star, call.distinct)
                for call in node.agg_calls
            ]
            null_row = (None,) * len(self._child.scope)
            groups[()] = (null_row, accumulators)
            group_order.append(())

        having_fn = self._having_fn
        for key in group_order:
            representative, accumulators = groups[key]
            extended = representative + tuple(
                accumulator.result() for accumulator in accumulators
            )
            if having_fn is None or having_fn(extended) is True:
                yield extended


def _project_targets(node: LogicalProject, scope: Scope) -> tuple:
    """Resolve the select list against *scope*.

    Returns ``(columns, targets)`` where each target is either a scope
    index (star expansion / plain pickers) or the item's ``Expr``.  Star
    items expand in *canonical* (FROM-clause) column order, so the
    visible column order never depends on the optimizer's join order.
    """
    bindings = {b for b, __ in scope.pairs if b is not None}
    multi_table = len(bindings) > 1
    columns: list = []
    targets: list = []
    for item in node.items:
        if item.is_star:
            matched_any = False
            for binding, column in node.canonical_pairs:
                if item.star_table is not None and binding != item.star_table:
                    continue
                index = scope.try_resolve(ColumnRef(binding, column))
                if index is None:
                    continue  # pruned away (only possible without '*')
                matched_any = True
                if item.star_table is None and multi_table:
                    columns.append(f"{binding}.{column}")
                else:
                    columns.append(column)
                targets.append(index)
            if item.star_table is not None and not matched_any:
                raise SqlCatalogError(
                    f"unknown table in star: {item.star_table!r}"
                )
            continue
        assert item.expr is not None
        columns.append(item.alias or item.expr.to_sql())
        targets.append(item.expr)
    return columns, targets


def _sort_targets(node: LogicalSort, columns: list) -> list:
    """Resolve ORDER BY items to ``(out_position, expr, descending)``.

    Exactly one of ``out_position`` / ``expr`` is set per item: integer
    positions and select-list aliases sort on the projected value,
    anything else sorts on an expression over the pre-projection row.
    """
    specs: list = []
    for item in node.order_by:
        expr = item.expr
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(columns):
                raise SqlExecutionError(
                    f"ORDER BY position out of range: {expr.value} "
                    f"(select list has {len(columns)} columns)"
                )
            specs.append((position, None, item.descending))
            continue
        if (
            isinstance(expr, ColumnRef)
            and expr.table is None
            and expr.column in columns
        ):
            specs.append((columns.index(expr.column), None, item.descending))
            continue
        specs.append((None, expr, item.descending))
    return specs


class ProjectOp:
    """Evaluate the select list; yields ``(out_row, pre_row)`` pairs."""

    def __init__(
        self,
        child: PhysicalOperator,
        node: LogicalProject,
        agg_slots: "dict | None",
    ) -> None:
        self._child = child
        self.scope = child.scope
        self.agg_slots = agg_slots or {}
        self.columns, targets = _project_targets(node, child.scope)
        self._fns: list = [
            _make_picker(target)
            if isinstance(target, int)
            else compile_expr(target, child.scope, self.agg_slots)
            for target in targets
        ]

    def pairs(self) -> Iterator[tuple]:
        fns = self._fns
        for row in self._child.rows():
            yield tuple(fn(row) for fn in fns), row


class DistinctOp:
    """Deduplicate projected rows, keeping first occurrences."""

    def __init__(self, child) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots

    def pairs(self) -> Iterator[tuple]:
        seen: set = set()
        for out_row, pre_row in self._child.pairs():
            if out_row in seen:
                continue
            seen.add(out_row)
            yield out_row, pre_row


class SortOp:
    """Stable multi-key sort over aliases, positions or expressions."""

    def __init__(self, child, node: LogicalSort) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._key_fns: list = []
        for position, expr, descending in _sort_targets(node, self.columns):
            if position is not None:
                self._key_fns.append((_make_out_picker(position), descending))
            else:
                fn = compile_expr(expr, self.scope, self.agg_slots)
                self._key_fns.append((_make_pre_picker(fn), descending))

    def pairs(self) -> Iterator[tuple]:
        items = list(self._child.pairs())
        # stable multi-pass sort, last key first
        for key_fn, descending in reversed(self._key_fns):
            items.sort(key=lambda pair: sort_key(key_fn(pair)), reverse=descending)
        return iter(items)


class LimitOp:
    def __init__(self, child, limit: int) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._limit = limit

    def pairs(self) -> Iterator[tuple]:
        count = 0
        if self._limit <= 0:
            return
        for pair in self._child.pairs():
            yield pair
            count += 1
            if count >= self._limit:
                return


class _ReversedKey:
    """Inverts the ordering of a ``sort_key`` tuple (descending keys)."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_ReversedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReversedKey) and self.key == other.key

    def __hash__(self) -> int:  # pragma: no cover - keys are never hashed
        return hash(self.key)


class TopNOp:
    """Fused Sort+Limit: a bounded heap instead of a full sort.

    ``heapq.nsmallest`` over a composite per-row key (each ORDER BY key
    mapped through :func:`sort_key`, descending keys wrapped in
    :class:`_ReversedKey`) is documented to equal
    ``sorted(...)[:n]`` — including stability — so the output is
    byte-identical to SortOp + LimitOp while only ever holding the best
    *limit* rows.
    """

    def __init__(self, child, node: LogicalTopN) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._limit = node.limit
        self._key_fns: list = []
        for position, expr, descending in _sort_targets(node, self.columns):
            if position is not None:
                self._key_fns.append((_make_out_picker(position), descending))
            else:
                fn = compile_expr(expr, self.scope, self.agg_slots)
                self._key_fns.append((_make_pre_picker(fn), descending))

    def pairs(self) -> Iterator[tuple]:
        if self._limit <= 0:
            return iter(())
        key_fns = self._key_fns

        def composite(pair: tuple) -> tuple:
            return tuple(
                _ReversedKey(sort_key(fn(pair)))
                if descending
                else sort_key(fn(pair))
                for fn, descending in key_fns
            )

        return iter(
            heapq.nsmallest(self._limit, self._child.pairs(), key=composite)
        )


def _make_picker(index: int):
    return lambda row: row[index]


def _make_out_picker(position: int):
    return lambda pair: pair[0][position]


def _make_pre_picker(fn):
    return lambda pair: fn(pair[1])


def sort_key(value: Any) -> tuple:
    """Total order over mixed values: NULLs first, then by type group."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 1, value)
    if isinstance(value, str):
        return (1, 2, value)
    return (1, 3, str(value))


# ---------------------------------------------------------------------------
# vectorized (batch) operators
# ---------------------------------------------------------------------------


class BatchOperator:
    """Base class: a re-runnable stream of ``(cols, n)`` column batches."""

    scope: Scope

    def batches(self) -> Iterator[tuple]:  # pragma: no cover - overridden
        raise NotImplementedError


def _materialize_batches(operator: BatchOperator) -> tuple:
    """Concatenate an operator's batches into full columns; ``(cols, n)``."""
    cols: list = [[] for __ in range(len(operator.scope))]
    total = 0
    for batch_cols, n in operator.batches():
        total += n
        for accumulated, column in zip(cols, batch_cols):
            accumulated.extend(column)
    return cols, total


def _apply_predicates(fns: list, cols: list, n: int) -> tuple:
    """Run predicate batch-fns in order, compacting between them.

    Returns the surviving ``(cols, n)``; predicates after the first are
    only evaluated over rows that passed the earlier ones, exactly like
    the row engine's per-row short-circuit.
    """
    for fn in fns:
        if n == 0:
            break
        mask = fn(cols, n)
        selected = [i for i, value in enumerate(mask) if value is True]
        if len(selected) == n:
            continue
        if not selected:
            return cols, 0
        cols = gather_columns(cols, selected)
        n = len(selected)
    return cols, n


def _apply_fused(fused_fn, cols: list, n: int) -> tuple:
    """Apply one fused filter function (returns selected row indices)."""
    selected = fused_fn(cols, n)
    count = len(selected)
    if count == n:
        return cols, n
    if not count:
        return cols, 0
    return gather_columns(cols, selected), count


def _fusion_stages(predicates, fns, scope, class_of) -> list:
    """Ordered filter stages: fused runs interleaved with closure runs.

    Each stage is ``("fused", fn)`` — one generated function covering a
    contiguous run of provably never-raising conjuncts — or
    ``("closures", [fn, ...])`` for the conjuncts in between, which keep
    their compiled closures.  Stages apply in predicate order with
    compaction between them, so a conjunct still only ever sees rows
    that survived everything before it: the row engine's short-circuit
    and error surface are preserved exactly, while every fusible run —
    wherever it sits in the chain — collapses into one loop.
    """
    stages: list = []
    position = 0
    total = len(predicates)
    while position < total:
        fused = fuse_batch_exprs(
            predicates[position:], scope, class_of, mode="filter"
        )
        if fused is not None:
            stages.append(("fused", fused.fn))
            position += fused.consumed
            continue
        if stages and stages[-1][0] == "closures":
            stages[-1][1].append(fns[position])
        else:
            stages.append(("closures", [fns[position]]))
        position += 1
    return stages


def _apply_filter_stages(stages: list, cols: list, n: int) -> tuple:
    """Run filter stages in order; ``(cols, n, fused_stage_ran)``."""
    used_fused = False
    for kind, payload in stages:
        if n == 0:
            break
        if kind == "fused":
            used_fused = True
            cols, n = _apply_fused(payload, cols, n)
        else:
            cols, n = _apply_predicates(payload, cols, n)
    return cols, n, used_fused


class _TopNBound:
    """A shared cell streaming BatchTopNOp's worst-kept leading key.

    The TopN operator writes its current leading-key bound (already
    ``sort_key``-decorated, wrapped in :class:`_ReversedKey` for
    descending orders) whenever it tightens; upstream scans/filters
    read it per batch and pre-drop rows that sort strictly past it —
    rows the TopN check itself would have skipped.  ``None`` means "no
    bound yet" (fewer than N candidates seen).
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None


def _apply_topn_bound(cell, key_index: int, descending: bool, cols, n):
    """Pre-drop rows whose leading sort key is strictly past the bound."""
    bound = cell.value
    if bound is None or n == 0:
        return cols, n
    column = cols[key_index]
    if isinstance(column, EncodedColumn):
        column = column.decode()
    if descending:
        selected = [
            i
            for i, value in enumerate(column)
            if not bound < _ReversedKey(sort_key(value))
        ]
    else:
        selected = [
            i for i, value in enumerate(column) if not bound < sort_key(value)
        ]
    count = len(selected)
    if count == n:
        return cols, n
    if not count:
        return cols, 0
    return gather_columns(cols, selected), count


def _fusion_class_of(node: LogicalNode, catalog: Catalog):
    """``(binding, column) -> value class`` for :func:`fuse_batch_exprs`.

    Resolves through the scans under *node*; anything it cannot pin to
    a base-table column (aggregate slots, unknown bindings) maps to
    None, which makes the fuser refuse the expression.
    """
    tables = {
        binding: catalog.table(name)
        for binding, name in scan_bindings(node).items()
    }

    def class_of(binding, column):
        table = tables.get(binding)
        if table is None or not table.has_column(column):
            return None
        return _VALUE_CLASS.get(table.column(column).sql_type)

    return class_of


#: op -> (op with the operands swapped, "no ``v`` in ``[low, high]``
#: satisfies ``v <op> x``")
_ZONE_OPS = {
    "=": ("=", lambda low, high, x: x < low or x > high),
    "<": (">", lambda low, high, x: low >= x),
    "<=": (">=", lambda low, high, x: low > x),
    ">": ("<", lambda low, high, x: high <= x),
    ">=": ("<=", lambda low, high, x: high < x),
}


def _zone_tests(predicates, table) -> tuple:
    """``(column index, excludes, number)`` per ``col <op> number`` conjunct.

    Empty unless every predicate is provably non-raising: a skipped
    batch must be one whose evaluation could neither match nor raise.
    """
    if not all(_never_raises(p, table) for p in predicates):
        return ()
    tests = []
    for predicate in predicates:
        if not (isinstance(predicate, BinaryOp) and predicate.op in _ZONE_OPS):
            continue
        column, literal, op = predicate.left, predicate.right, predicate.op
        if isinstance(column, Literal):
            column, literal, op = literal, column, _ZONE_OPS[op][0]
        value = getattr(literal, "value", None)
        # _never_raises made the classes match, so a number here meets
        # an INTEGER/REAL column; NaN compares equal to every number
        if isinstance(column, ColumnRef) and type(value) in (int, float) \
                and value == value:
            tests.append(
                (table.column_index(column.column), _ZONE_OPS[op][1], value)
            )
    return tuple(tests)


def _zone_skips(snapshot, tests: tuple, first: int, last: int) -> tuple:
    """``(skipped grid-batch starts, segments skipped)`` in ``[first, last)``.

    A batch is skipped when every part it overlaps is a frozen segment
    some test excludes; the delta is never excluded.  A segment counts
    as skipped, in the range holding its first row, when every batch
    overlapping it is.  Both depend only on the snapshot, so morsel
    ranges agree with the serial scan.
    """
    entries, prefix = snapshot.entries, snapshot.prefix
    excluded = [
        any(
            (zone := segment.zone(index)) is not None
            and excludes(*zone, value)
            for index, excludes, value in tests
        )
        for segment, __, __ in entries
    ]

    def skippable(start: int) -> bool:
        stop = min(start + BATCH_SIZE, snapshot.row_count)
        low = bisect_right(prefix, start) - 1
        high = bisect_right(prefix, stop - 1) - 1
        return high < len(entries) and all(excluded[low:high + 1])

    skipped = {s for s in range(first, last, BATCH_SIZE) if skippable(s)}
    segments = sum(
        1
        for part in range(len(entries))
        if first <= prefix[part] < last
        and skippable(prefix[part] // BATCH_SIZE * BATCH_SIZE)
        and skippable((prefix[part + 1] - 1) // BATCH_SIZE * BATCH_SIZE)
    )
    return skipped, segments


class BatchScanOp(BatchOperator):
    """Slice the table's columnar storage into batches; filter and prune.

    On a segmented table the scan consults each frozen segment's zone
    (:meth:`~repro.sqlengine.segments.FrozenSegment.zone`) against the
    ``col <op> number`` conjuncts among its pushed predicates and never
    slices a grid batch whose every row lies in excluded segments: such
    a batch would have filtered down to nothing, so results, float sums
    and batch boundaries are unchanged.  Zones are consulted only when
    every pushed predicate is provably non-raising (errors stay those of
    a full scan); the delta and flat storage are always read.
    """

    def __init__(
        self, catalog: Catalog, node: LogicalScan, fused: bool = False
    ) -> None:
        self._table = catalog.table(node.table)
        self.node = node
        full_scope = Scope(
            [(node.binding, name) for name in self._table.column_names()]
        )
        self._predicate_fns = [
            compile_expr_batch(predicate, full_scope)
            for predicate in node.predicates
        ]
        if fused and node.predicates:
            self._filter_stages = _fusion_stages(
                node.predicates,
                self._predicate_fns,
                full_scope,
                _fusion_class_of(node, catalog),
            )
        elif node.predicates:
            self._filter_stages = [("closures", self._predicate_fns)]
        else:
            self._filter_stages = []
        self._zone_tests = _zone_tests(node.predicates, self._table)
        #: EXPLAIN ANALYZE's OperatorStats (receives ``skipped``), or None
        self.analyze_stats = None
        if node.columns is None:
            self._indexes = None
            self.scope = full_scope
        else:
            self._indexes = [
                self._table.column_index(name) for name in node.columns
            ]
            self.scope = Scope([(node.binding, name) for name in node.columns])
        # TopN bound pushdown (see _connect_topn_bound): a shared cell
        # plus the leading sort key's index in this scan's output scope
        self._bound_cell = None
        self._bound_key = 0
        self._bound_descending = False

    def connect_bound(
        self, cell: _TopNBound, key_index: int, descending: bool
    ) -> None:
        self._bound_cell = cell
        self._bound_key = key_index
        self._bound_descending = descending

    def row_count(self) -> int:
        """Current table cardinality (morsel partitioning reads this).

        Under an installed pin scope this is the *snapshot* cardinality,
        so morsel partitioning and the per-morsel ``batches_range``
        calls agree on one frozen row space.
        """
        snapshot = snapshot_of(self._table)
        if snapshot is not None:
            return snapshot.row_count
        return len(self._table.rows)

    def batches(self) -> Iterator[tuple]:
        snapshot = snapshot_of(self._table)
        last = (
            snapshot.row_count if snapshot is not None else len(self._table.rows)
        )
        return self.batches_range(0, last, snapshot)

    def batches_range(
        self, first: int, last: int, snapshot=None
    ) -> Iterator[tuple]:
        """Batches for the row range ``[first, last)``.

        *first* must be a multiple of :data:`BATCH_SIZE` so a morsel's
        batch boundaries coincide with the serial scan's.  With a
        snapshot (explicit or installed via a pin scope), batches are
        assembled from the pinned frozen segments + delta instead of
        the live lists — same rows, same order, same batch boundaries.
        Batches whose every row lies in frozen segments excluded by a
        zone test are never sliced (see :func:`_zone_skips`); every
        batch that is emitted is the one a full scan would emit.
        """
        table = self._table
        width = len(table.columns)
        if snapshot is None:
            snapshot = snapshot_of(table)
        indexes = self._indexes
        stages = self._filter_stages
        prune_early = not stages and indexes is not None
        if prune_early:
            # nothing evaluates against the full layout: slice only the
            # columns the scan actually emits
            emit = indexes
            indexes = None
        else:
            emit = range(width)
        if snapshot is None:
            # dictionary-encoded TEXT columns are sliced as code batches
            # (EncodedColumn) so downstream operators can work on integer
            # codes; everything else slices the plain value lists
            sources = []
            for i in emit:
                dictionary = table.column_dictionary(i)
                if dictionary is not None:
                    sources.append((dictionary, table.column_codes(i)))
                else:
                    sources.append((None, table.column_data(i)))

            def slice_batch(start: int, stop: int) -> list:
                return [
                    EncodedColumn(dictionary, data[start:stop])
                    if dictionary is not None
                    else data[start:stop]
                    for dictionary, data in sources
                ]

        else:
            # snapshot batches carry plain decoded values (segments are
            # frozen before dictionary codes can be pinned consistently);
            # downstream operators detect EncodedColumn per batch, so
            # value batches follow the ordinary unencoded path
            columns = list(emit)

            def slice_batch(start: int, stop: int) -> list:
                return [
                    snapshot.column_slice(i, start, stop) for i in columns
                ]

        skipped, skipped_segments = (), 0
        if self._zone_tests and snapshot is not None and snapshot.entries:
            skipped, skipped_segments = _zone_skips(
                snapshot, self._zone_tests, first, last
            )
        bound_cell = self._bound_cell
        deadline = current_deadline()
        scanned = 0
        dropped = 0
        batches = 0
        fused_batches = 0
        try:
            for start in range(first, last, BATCH_SIZE):
                if deadline is not None:
                    deadline.check("scan")
                if start in skipped:
                    continue
                stop = min(start + BATCH_SIZE, last)
                cols = slice_batch(start, stop)
                n = stop - start
                scanned += n
                if stages:
                    cols, n, used_fused = _apply_filter_stages(
                        stages, cols, n
                    )
                    if used_fused:
                        fused_batches += 1
                dropped += stop - start - n
                if n == 0:
                    continue
                if indexes is not None:
                    cols = [cols[i] for i in indexes]
                if bound_cell is not None:
                    before = n
                    cols, n = _apply_topn_bound(
                        bound_cell,
                        self._bound_key,
                        self._bound_descending,
                        cols,
                        n,
                    )
                    dropped += before - n
                    if n == 0:
                        continue
                batches += 1
                yield cols, n
        finally:
            if scanned and _METRICS.enabled:
                _ROWS_SCANNED.inc(scanned)
                _BATCHES_PRODUCED.inc(batches)
                if fused_batches:
                    _FUSED_BATCHES.inc(fused_batches)
                if dropped:
                    _ROWS_FILTERED.inc(dropped)
            if skipped_segments and _METRICS.enabled:
                _SEGMENTS_SKIPPED.inc(skipped_segments)
            if self.analyze_stats is not None:
                self.analyze_stats.skipped += skipped_segments


class BatchFilterOp(BatchOperator):
    def __init__(
        self,
        child: BatchOperator,
        predicates,
        node: "LogicalNode | None" = None,
        catalog: "Catalog | None" = None,
        fused: bool = False,
    ) -> None:
        self._child = child
        self.scope = child.scope
        self._predicates = list(predicates)
        self._fns = [compile_expr_batch(p, self.scope) for p in predicates]
        if fused and node is not None and catalog is not None:
            self._filter_stages = _fusion_stages(
                self._predicates,
                self._fns,
                self.scope,
                _fusion_class_of(node, catalog),
            )
        else:
            self._filter_stages = [("closures", self._fns)]
        self._bound_cell = None
        self._bound_key = 0
        self._bound_descending = False

    def connect_bound(
        self, cell: _TopNBound, key_index: int, descending: bool
    ) -> None:
        self._bound_cell = cell
        self._bound_key = key_index
        self._bound_descending = descending

    def batches(self) -> Iterator[tuple]:
        return self.process(self._child.batches())

    def process(self, stream) -> Iterator[tuple]:
        """Filter one batch stream (the morsel-pipeline entry point)."""
        stages = self._filter_stages
        bound_cell = self._bound_cell
        dropped = 0
        batches = 0
        fused_batches = 0
        try:
            for cols, n in stream:
                before = n
                if n:
                    cols, n, used_fused = _apply_filter_stages(
                        stages, cols, n
                    )
                    if used_fused:
                        fused_batches += 1
                if n and bound_cell is not None:
                    cols, n = _apply_topn_bound(
                        bound_cell,
                        self._bound_key,
                        self._bound_descending,
                        cols,
                        n,
                    )
                dropped += before - n
                if n:
                    batches += 1
                    yield cols, n
        finally:
            if _METRICS.enabled and (dropped or batches):
                _ROWS_FILTERED.inc(dropped)
                _BATCHES_PRODUCED.inc(batches)
                if fused_batches:
                    _FUSED_BATCHES.inc(fused_batches)


def _build_join_hash_table(cols, n: int, key_indexes) -> dict:
    """Hash the build side of a join: key -> row indices into *cols*.

    Rows whose key contains a NULL never enter the table (SQL equality
    with NULL is never True).  Bucket lists preserve build-side row
    order, which both join operators rely on for output determinism.
    """
    table: dict = {}
    if len(key_indexes) == 1:
        key_column = cols[key_indexes[0]]
        for i in range(n):
            key = key_column[i]
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append(i)
    else:
        key_columns = [cols[i] for i in key_indexes]
        for i, key in enumerate(zip(*key_columns)):
            if any(value is None for value in key):
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append(i)
    return table


def _buckets_by_code(dictionary, get) -> list:
    """Resolve every dictionary entry to its hash bucket (or None) once.

    The dictionary-encoded probe fast path: after this, probing is one
    list index per row instead of a hash lookup.  Dead (GC'd) dictionary
    slots are None and map to no bucket.
    """
    return [
        None if value is None else get(value) for value in dictionary.values
    ]


def _drain_pairs(
    left_sel: list, right_sel: list, everything: bool = False
) -> Iterator[tuple]:
    """Yield, then remove, leading pairs of two aligned selection vectors.

    Pairs leave in :data:`BATCH_SIZE`-long slices; the shorter tail
    stays behind (to ride with later pairs) unless *everything* is set.
    """
    stop = len(left_sel)
    if not everything:
        stop -= stop % BATCH_SIZE
    for start in range(0, stop, BATCH_SIZE):
        end = start + BATCH_SIZE
        yield left_sel[start:end], right_sel[start:end]
    del left_sel[:stop]
    del right_sel[:stop]


def _join_output(source) -> Iterator[tuple]:
    """Hand on a batch join's output, one cancellation point per batch."""
    deadline = current_deadline()
    joined = 0
    batches = 0
    try:
        for out, n in source:
            if deadline is not None:
                deadline.check("join")
            joined += n
            batches += 1
            yield out, n
    finally:
        if joined and _METRICS.enabled:
            _ROWS_JOINED.inc(joined)
            _BATCHES_PRODUCED.inc(batches)


class _HashProbe:
    """Per-execution probe of a join hash table, shared by both joins.

    :meth:`probe` takes one probe-side batch and yields aligned
    ``(probe row indices, build row indices)`` selection vectors of at
    most :data:`BATCH_SIZE` pairs each — one entry per matching pair,
    in probe-row order, bucket order preserved within a probe row.  It
    is a generator: pairs past the chunk a consumer stopped at are
    never produced.  NULL keys never match.  The dictionary-encoded
    fast path (code → bucket, resolved once per dictionary and reused
    across batches) lives here so the inner and LEFT hash joins stay in
    lockstep.
    """

    __slots__ = ("_key_indexes", "_get", "_single", "_dictionary", "_buckets")

    def __init__(self, table: dict, key_indexes) -> None:
        self._key_indexes = key_indexes
        self._get = table.get
        self._single = len(key_indexes) == 1
        self._dictionary = None
        self._buckets: list = []

    def _row_buckets(self, cols):
        """Each probe row's bucket, or None (NULL keys are in no bucket)."""
        if not self._single:
            return map(self._get, zip(*[cols[i] for i in self._key_indexes]))
        key_column = cols[self._key_indexes[0]]
        if not isinstance(key_column, EncodedColumn):
            return map(self._get, key_column)
        dictionary = key_column.dictionary
        if dictionary is not self._dictionary:
            self._dictionary = dictionary
            self._buckets = _buckets_by_code(dictionary, self._get)
        buckets = self._buckets
        return [
            None if code is None else buckets[code]
            for code in key_column.codes
        ]

    def probe(self, cols) -> Iterator[tuple]:
        left_sel: list = []
        right_sel: list = []
        extend_left = left_sel.extend
        append_left = left_sel.append
        extend_right = right_sel.extend
        append_right = right_sel.append
        for i, bucket in enumerate(self._row_buckets(cols)):
            if not bucket:
                continue
            if len(bucket) == 1:
                append_left(i)
                append_right(bucket[0])
                continue
            extend_left([i] * len(bucket))
            extend_right(bucket)
            # only a fan-out can outgrow a batch
            if len(left_sel) >= BATCH_SIZE:
                yield from _drain_pairs(left_sel, right_sel)
        yield from _drain_pairs(left_sel, right_sel, everything=True)


class BatchHashJoinOp(BatchOperator):
    """Hash join building and probing from column slices.

    The build (right) side is materialized into full columns once; the
    hash table maps key -> row indices into those columns.  Probe output
    is assembled by gathering both sides through selection vectors, so
    no per-row tuples are built below the presentation operators.
    """

    def __init__(
        self, left: BatchOperator, right: BatchOperator, equi
    ) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._left_indexes: list = []
        self._right_indexes: list = []
        for predicate in equi:
            if left.scope.try_resolve(predicate.left) is not None:
                self._left_indexes.append(left.scope.resolve(predicate.left))
                self._right_indexes.append(right.scope.resolve(predicate.right))
            else:
                self._left_indexes.append(left.scope.resolve(predicate.right))
                self._right_indexes.append(right.scope.resolve(predicate.left))
        #: morsel exchange over the build side (None = serial build)
        self._build_exchange = None

    def set_parallel_build(self, exchange) -> None:
        """Partition the build side's materialization + hashing."""
        self._build_exchange = exchange

    def _build_morsel(self, stream) -> tuple:
        """Worker task: materialize one morsel and hash it locally."""
        cols: list = [[] for __ in range(len(self._right.scope))]
        total = 0
        for batch_cols, n in stream:
            total += n
            for accumulated, column in zip(cols, batch_cols):
                accumulated.extend(column)
        return (
            cols,
            total,
            _build_join_hash_table(cols, total, self._right_indexes),
        )

    def _parallel_build(self) -> tuple:
        """Merge per-morsel partitions, in morsel order, with offsets.

        Bucket lists stay in build-side row order (partitions cover
        disjoint, increasing row ranges), so probe output is identical
        to the serial build; dict *key insertion* order differs, but
        probing never iterates the table.
        """
        cols: list = [[] for __ in range(len(self._right.scope))]
        table: dict = {}
        offset = 0
        for part_cols, part_n, part_table in self._build_exchange.run_tasks(
            self._build_morsel
        ):
            for accumulated, column in zip(cols, part_cols):
                accumulated.extend(column)
            for key, bucket in part_table.items():
                existing = table.get(key)
                if existing is None:
                    table[key] = (
                        [offset + i for i in bucket] if offset else bucket
                    )
                else:
                    existing.extend(offset + i for i in bucket)
            offset += part_n
        return cols, offset, table

    def batches(self) -> Iterator[tuple]:
        return _join_output(
            self._hash_batches() if self._left_indexes
            else self._cross_batches()
        )

    def _hash_batches(self) -> Iterator[tuple]:
        if self._build_exchange is not None:
            right_cols, __, table = self._parallel_build()
        else:
            right_cols, right_n = _materialize_batches(self._right)
            table = _build_join_hash_table(
                right_cols, right_n, self._right_indexes
            )
        probe = _HashProbe(table, self._left_indexes)
        for cols, __ in self._left.batches():
            for left_sel, right_sel in probe.probe(cols):
                out = gather_columns(cols, left_sel)
                out.extend(
                    [column[j] for j in right_sel] for column in right_cols
                )
                yield out, len(left_sel)

    def _cross_batches(self) -> Iterator[tuple]:
        right_cols, right_n = _materialize_batches(self._right)
        if right_n == 0:
            return
        right_chunks = [
            (
                [column[start:start + BATCH_SIZE] for column in right_cols],
                min(BATCH_SIZE, right_n - start),
            )
            for start in range(0, right_n, BATCH_SIZE)
        ]
        for cols, n in self._left.batches():
            for i in range(n):
                for chunk, m in right_chunks:
                    out = [[column[i]] * m for column in cols]
                    out.extend(chunk)
                    yield out, m


class BatchLeftJoinOp(BatchOperator):
    """LEFT OUTER join with NULL padding: hash path or broadcast.

    The default execution is the **gather-based hash path**: the build
    (right) side is materialized once and hashed on the recognised equi
    key columns, each left batch probes it (one lookup per row —
    dictionary-encoded probe columns resolve every code to its bucket
    once and then index a list), residual ON conjuncts are evaluated
    vectorized over the candidate pairs only, and unmatched left rows
    are NULL-padded through selection vectors in left-row order —
    byte-identical output to the broadcast path.

    The broadcast path (one vectorized condition evaluation per left
    row against the whole right side) remains for conditions without a
    usable equi conjunct, and wherever hashing could diverge from
    ``compare_values`` semantics: REAL keys (NaN compares equal to
    every number, but never hash-matches), cross-class keys, and
    residuals that could raise data-dependent errors the broadcast
    evaluation order would surface.  ``enable_hash`` is called by the
    plan builder after that analysis (see :func:`_analyze_left_join`).
    """

    def __init__(
        self, left: BatchOperator, right: BatchOperator, condition
    ) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._condition_fn = compile_expr_batch(condition, self.scope)
        self._key_pairs: tuple = ()
        self._residual_fns: list = []

    def enable_hash(self, key_pairs, residual_fns) -> None:
        """Switch to the hash path (builder-verified equi keys)."""
        self._key_pairs = tuple(key_pairs)
        self._residual_fns = list(residual_fns)

    def batches(self) -> Iterator[tuple]:
        return _join_output(
            self._hash_batches() if self._key_pairs
            else self._broadcast_batches()
        )

    def _emit(
        self, cols, right_cols, left_sel, right_sel, everything=False
    ) -> Iterator[tuple]:
        """Gather (and drain) the leading pairs; a None right index pads."""
        for lefts, rights in _drain_pairs(left_sel, right_sel, everything):
            out = gather_columns(cols, lefts)
            out.extend(
                [None if j is None else column[j] for j in rights]
                for column in right_cols
            )
            yield out, len(lefts)

    # ------------------------------------------------------------------
    def _hash_batches(self) -> Iterator[tuple]:
        right_cols, right_n = _materialize_batches(self._right)
        left_keys = [pair[0] for pair in self._key_pairs]
        right_keys = [pair[1] for pair in self._key_pairs]
        table = _build_join_hash_table(right_cols, right_n, right_keys)
        probe = _HashProbe(table, left_keys)
        for cols, n in self._left.batches():
            left_sel: list = []
            right_sel: list = []  # right row index, or None for padding

            def pad(unmatched: range) -> None:
                left_sel.extend(unmatched)
                right_sel.extend([None] * len(unmatched))

            # left rows below `settled` are matched or already padded;
            # matches and NULL pads merge in left-row order
            settled = 0
            for cand_left, cand_right in probe.probe(cols):
                # candidate (left row, right row) pairs in left order;
                # the last row's candidates may continue in the next chunk
                open_row = cand_left[-1]
                if self._residual_fns:
                    cand_left, cand_right = self._pass_residuals(
                        cols, right_cols, cand_left, cand_right
                    )
                for i, j in zip(cand_left, cand_right):
                    if i > settled:
                        pad(range(settled, i))
                    left_sel.append(i)
                    right_sel.append(j)
                    settled = i + 1
                if open_row > settled:
                    pad(range(settled, open_row))
                    settled = open_row
                if len(left_sel) >= BATCH_SIZE:
                    yield from self._emit(cols, right_cols, left_sel, right_sel)
            pad(range(settled, n))
            yield from self._emit(
                cols, right_cols, left_sel, right_sel, everything=True
            )

    def _pass_residuals(self, cols, right_cols, cand_left, cand_right) -> tuple:
        """The candidate pairs every residual ON conjunct holds for.

        Residuals run over the candidates only (they are builder-proven
        side-effect free, so this matches the broadcast evaluation
        exactly).
        """
        combined = gather_columns(cols, cand_left)
        combined.extend(
            [column[j] for j in cand_right] for column in right_cols
        )
        m = len(cand_left)
        for fn in self._residual_fns:
            if m == 0:
                break
            mask = fn(combined, m)
            selected = [i for i, value in enumerate(mask) if value is True]
            if len(selected) == m:
                continue
            cand_left = [cand_left[i] for i in selected]
            cand_right = [cand_right[i] for i in selected]
            combined = gather_columns(combined, selected)
            m = len(selected)
        return cand_left, cand_right

    # ------------------------------------------------------------------
    def _broadcast_batches(self) -> Iterator[tuple]:
        right_cols, right_n = _materialize_batches(self._right)
        condition_fn = self._condition_fn
        for cols, n in self._left.batches():
            left_sel: list = []
            right_sel: list = []  # right row index, or None for padding
            for i in range(n):
                matches: list = []
                if right_n:
                    combined = [[column[i]] * right_n for column in cols]
                    combined.extend(right_cols)
                    mask = condition_fn(combined, right_n)
                    matches = [j for j, v in enumerate(mask) if v is True]
                if matches:
                    left_sel.extend([i] * len(matches))
                    right_sel.extend(matches)
                else:
                    left_sel.append(i)
                    right_sel.append(None)
                if len(left_sel) >= BATCH_SIZE:
                    yield from self._emit(cols, right_cols, left_sel, right_sel)
            yield from self._emit(
                cols, right_cols, left_sel, right_sel, everything=True
            )


# hash-key compatible SqlTypes: within one class, dict hashing agrees
# exactly with compare_values equality.  REAL is deliberately absent —
# NaN compares equal to every number under compare_values but never
# equals itself in a hash table.
_HASH_KEY_CLASS = {
    SqlType.INTEGER: "int",
    SqlType.TEXT: "str",
    SqlType.DATE: "date",
    SqlType.BOOLEAN: "bool",
}

#: value classes used by the residual-safety analysis
_VALUE_CLASS = {
    SqlType.INTEGER: "num",
    SqlType.REAL: "num",
    SqlType.TEXT: "str",
    SqlType.DATE: "date",
    SqlType.BOOLEAN: "bool",
}

#: scalar functions that can never raise, whatever their input
_SAFE_FUNCTIONS = {"lower", "upper", "length", "coalesce"}


def _as_left_join_key(conjunct, left_scope: Scope, right_scope: Scope):
    """``(left index, right index)`` if *conjunct* is a cross-side equi."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    a, b = conjunct.left, conjunct.right
    if not (isinstance(a, ColumnRef) and isinstance(b, ColumnRef)):
        return None
    a_left, a_right = left_scope.try_resolve(a), right_scope.try_resolve(a)
    b_left, b_right = left_scope.try_resolve(b), right_scope.try_resolve(b)
    if a_left is not None and a_right is None and b_left is None \
            and b_right is not None:
        return a_left, b_right
    if b_left is not None and b_right is None and a_left is None \
            and a_right is not None:
        return b_left, a_right
    return None


def _value_class(expr, class_of) -> tuple:
    """``(safe, class)``: can *expr* never raise, and what does it yield?

    *class_of* maps a ColumnRef to its ``_VALUE_CLASS`` entry (or None
    when unresolvable).  ``safe`` is conservative: False means "could
    raise a data-dependent error", not "will".  A safe expression with
    class None (e.g. CASE) still composes under operators that accept
    any value (NOT, AND/OR, LIKE, ``||``) but blocks comparisons.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return True, "null"
        if isinstance(value, bool):
            return True, "bool"
        if isinstance(value, (int, float)):
            return True, "num"
        if isinstance(value, str):
            return True, "str"
        if isinstance(value, datetime.date):
            return True, "date"
        return True, None
    if isinstance(expr, ColumnRef):
        cls = class_of(expr)
        return cls is not None, cls
    if isinstance(expr, UnaryOp):
        safe, cls = _value_class(expr.operand, class_of)
        if expr.op == "NOT":  # `not value` never raises
            return safe, "bool"
        if expr.op == "-":  # raises on non-numbers
            return safe and cls in ("num", "null"), "num"
        return False, None
    if isinstance(expr, BinaryOp):
        op = expr.op
        left_safe, left_cls = _value_class(expr.left, class_of)
        right_safe, right_cls = _value_class(expr.right, class_of)
        if not (left_safe and right_safe):
            return False, None
        if op in ("AND", "OR"):  # identity checks only, never raise
            return True, "bool"
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _safe_compare(expr.left, left_cls, expr.right,
                                 right_cls), "bool"
        if op in ("+", "-", "*"):  # raise on non-numbers only
            return (left_cls in ("num", "null")
                    and right_cls in ("num", "null")), "num"
        if op == "||":  # str() never raises
            return True, "str"
        return False, None  # '/' can divide by zero
    if isinstance(expr, Like):  # str()/regex never raise
        operand_safe, __ = _value_class(expr.operand, class_of)
        pattern_safe, __ = _value_class(expr.pattern, class_of)
        return operand_safe and pattern_safe, "bool"
    if isinstance(expr, IsNull):
        safe, __ = _value_class(expr.operand, class_of)
        return safe, "bool"
    if isinstance(expr, Between):
        operand_safe, operand_cls = _value_class(expr.operand, class_of)
        low_safe, low_cls = _value_class(expr.low, class_of)
        high_safe, high_cls = _value_class(expr.high, class_of)
        safe = (
            operand_safe and low_safe and high_safe
            and _safe_compare(expr.operand, operand_cls, expr.low, low_cls)
            and _safe_compare(expr.operand, operand_cls, expr.high, high_cls)
        )
        return safe, "bool"
    if isinstance(expr, InList):
        operand_safe, operand_cls = _value_class(expr.operand, class_of)
        if not operand_safe:
            return False, None
        for item in expr.items:
            item_safe, item_cls = _value_class(item, class_of)
            if not item_safe or not _safe_compare(
                expr.operand, operand_cls, item, item_cls
            ):
                return False, None
        return True, "bool"
    if isinstance(expr, CaseWhen):
        for condition, value in expr.branches:
            if not _value_class(condition, class_of)[0]:
                return False, None
            if not _value_class(value, class_of)[0]:
                return False, None
        if expr.default is not None and not _value_class(
            expr.default, class_of
        )[0]:
            return False, None
        return True, None
    if isinstance(expr, FuncCall):
        if expr.name not in _SAFE_FUNCTIONS:
            return False, None
        for arg in expr.args:
            if not _value_class(arg, class_of)[0]:
                return False, None
        if expr.name in ("lower", "upper"):
            return True, "str"
        if expr.name == "length":
            return True, "num"
        return True, None  # coalesce: class depends on its arguments
    return False, None


def _safe_compare(left_expr, left_cls, right_expr, right_cls) -> bool:
    """Can ``compare_values(left, right)`` never raise for these shapes?"""
    if left_cls == "null" or right_cls == "null":
        return True
    if left_cls is None or right_cls is None:
        return False
    if left_cls == right_cls and left_cls in ("num", "str", "bool", "date"):
        return True
    # DATE against a string literal parses the literal — validate it now
    for date_cls, other_cls, other_expr in (
        (left_cls, right_cls, right_expr),
        (right_cls, left_cls, left_expr),
    ):
        if (
            date_cls == "date"
            and other_cls == "str"
            and isinstance(other_expr, Literal)
        ):
            try:
                parse_date(other_expr.value)
            except SqlTypeError:
                return False
            return True
    return False


def _analyze_left_join(
    node: LogicalLeftJoin, left_scope: Scope, right_scope: Scope,
    catalog: Catalog
):
    """Hash-path plan for a LEFT JOIN condition, or None for broadcast.

    Returns ``(key_pairs, residual_conjuncts)`` when every ON conjunct
    is either a hash-compatible cross-side equi predicate or a
    provably error-free residual — the exact conditions under which the
    hash path is byte-identical (results *and* errors) to the
    broadcast/row evaluation.
    """
    tables = {
        binding: catalog.table(name)
        for binding, name in scan_bindings(node).items()
    }

    def sql_type_at(scope: Scope, index: int) -> SqlType:
        binding, column = scope.pairs[index]
        return tables[binding].column(column).sql_type

    def class_of(ref: ColumnRef):
        left_index = left_scope.try_resolve(ref)
        right_index = right_scope.try_resolve(ref)
        if left_index is not None and right_index is None:
            return _VALUE_CLASS.get(sql_type_at(left_scope, left_index))
        if right_index is not None and left_index is None:
            return _VALUE_CLASS.get(sql_type_at(right_scope, right_index))
        return None

    key_pairs: list = []
    residual: list = []
    for conjunct in split_conjuncts(node.condition):
        pair = _as_left_join_key(conjunct, left_scope, right_scope)
        if pair is not None:
            left_cls = _HASH_KEY_CLASS.get(sql_type_at(left_scope, pair[0]))
            right_cls = _HASH_KEY_CLASS.get(sql_type_at(right_scope, pair[1]))
            if left_cls is not None and left_cls == right_cls:
                key_pairs.append(pair)
                continue
        if _value_class(conjunct, class_of)[0]:
            residual.append(conjunct)
        else:
            return None
    if not key_pairs:
        return None
    return key_pairs, residual


class BatchAggregateOp(BatchOperator):
    """GROUP BY over batches: grouped hash table + accumulators.

    Group keys and aggregate arguments are evaluated once per batch as
    whole columns; the per-row work is one dict probe and the
    accumulator updates.  Output follows row mode exactly: the
    representative (first) row of each group extended with the
    aggregate results, groups in first-occurrence order, HAVING applied
    over the extended batch.
    """

    def __init__(self, child: BatchOperator, node: LogicalAggregate) -> None:
        self._child = child
        self._node = node
        scope = child.scope
        self._group_fns = [
            compile_expr_batch(expr, scope) for expr in node.group_by
        ]
        self._arg_fns: list = []
        for call in node.agg_calls:
            if call.star:
                self._arg_fns.append(None)
            else:
                if len(call.args) != 1:
                    raise SqlExecutionError(
                        f"aggregate {call.to_sql()} takes exactly one argument"
                    )
                self._arg_fns.append(compile_expr_batch(call.args[0], scope))
        self.agg_slots = {
            call: len(scope) + i for i, call in enumerate(node.agg_calls)
        }
        self.scope = Scope(
            scope.pairs
            + [(None, f"__agg_{i}") for i in range(len(node.agg_calls))]
        )
        self._having_fn = (
            compile_expr_batch(node.having, self.scope, self.agg_slots)
            if node.having is not None
            else None
        )
        #: morsel exchange over the input chain (None = serial consume)
        self._exchange = None

    def set_parallel(self, exchange) -> None:
        """Fold each morsel into a partial state inside the workers."""
        self._exchange = exchange

    def batches(self) -> Iterator[tuple]:
        exchange = self._exchange
        if exchange is not None:
            state = None
            for partial in exchange.run_tasks(self._consume_morsel):
                if state is None:
                    state = partial
                else:
                    self._merge_state(state, partial)
            if state is None:  # pragma: no cover - exchange always tasks
                state = ({}, [])
        else:
            state = ({}, [])
            self._consume(state, self._child.batches())
        return self._finish(state)

    def _consume_morsel(self, stream) -> tuple:
        state: tuple = ({}, [])
        self._consume(state, stream)
        return state

    def _merge_state(self, state: tuple, other: tuple) -> None:
        """Absorb a later partition's partial state, preserving order.

        Partitions cover increasing input ranges and are merged in
        partition order, so first-occurrence group order and each
        group's representative row land exactly where serial
        consumption would have put them; accumulator ``merge`` is
        order-independent by construction (exact sums, commutative
        counts, first-wins min/max ties).
        """
        groups, group_order = state
        other_groups, __ = other
        for key in other[1]:
            incoming = other_groups[key]
            mine = groups.get(key)
            if mine is None:
                groups[key] = incoming
                group_order.append(key)
            else:
                for accumulator, partial in zip(mine[1], incoming[1]):
                    accumulator.merge(partial)

    def _consume(self, state: tuple, stream) -> None:
        groups, group_order = state
        node = self._node
        calls = node.agg_calls
        arg_fns = self._arg_fns
        group_fns = self._group_fns
        for cols, n in stream:
            key_cols = [fn(cols, n) for fn in group_fns]
            arg_cols = [
                None if fn is None else fn(cols, n) for fn in arg_fns
            ]
            # dictionary-encoded key columns group on their integer
            # codes (code <-> value is a bijection within the shared
            # dictionary, so group identity and first-occurrence order
            # are unchanged); values decode once per group below
            if len(key_cols) == 1:
                only = key_cols[0]
                keys = only.codes if isinstance(only, EncodedColumn) else only
            elif key_cols:
                keys = list(
                    zip(
                        *[
                            column.codes
                            if isinstance(column, EncodedColumn)
                            else column
                            for column in key_cols
                        ]
                    )
                )
            else:
                keys = None  # no GROUP BY: a single global group

            # bucket this batch's row indices per group (one dict probe
            # and one C-level append per row) ...
            touched: dict = {}
            get = touched.get
            if keys is None:
                if () not in groups:
                    groups[()] = (
                        tuple(column[0] for column in cols) if n else (),
                        [
                            make_accumulator(
                                call.name, call.star, call.distinct
                            )
                            for call in calls
                        ],
                    )
                    group_order.append(())
                touched[()] = list(range(n))
            else:
                for i in range(n):
                    key = keys[i]
                    bucket = get(key)
                    if bucket is None:
                        touched[key] = bucket = []
                        if key not in groups:
                            groups[key] = (
                                tuple(column[i] for column in cols),
                                [
                                    make_accumulator(
                                        call.name, call.star, call.distinct
                                    )
                                    for call in calls
                                ],
                            )
                            group_order.append(key)
                    bucket.append(i)

            # ... then feed each accumulator a whole value slice
            for key, indices in touched.items():
                accumulators = groups[key][1]
                count = len(indices)
                whole = count == n
                for arg_col, accumulator in zip(arg_cols, accumulators):
                    if arg_col is None:
                        accumulator.add_repeat(count)
                    elif whole:
                        accumulator.add_many(arg_col)
                    else:
                        accumulator.add_many([arg_col[i] for i in indices])

    def _finish(self, state: tuple) -> Iterator[tuple]:
        groups, group_order = state
        node = self._node
        calls = node.agg_calls
        # aggregate query over empty input and no GROUP BY -> one empty group
        if not groups and not node.group_by:
            accumulators = [
                make_accumulator(call.name, call.star, call.distinct)
                for call in calls
            ]
            null_row = (None,) * len(self._child.scope)
            groups[()] = (null_row, accumulators)
            group_order.append(())

        for start in range(0, len(group_order), BATCH_SIZE):
            extended_rows = [
                groups[key][0]
                + tuple(accumulator.result() for accumulator in groups[key][1])
                for key in group_order[start:start + BATCH_SIZE]
            ]
            n = len(extended_rows)
            out_cols = [list(column) for column in zip(*extended_rows)]
            if self._having_fn is not None:
                mask = self._having_fn(out_cols, n)
                selected = [i for i, value in enumerate(mask) if value is True]
                if len(selected) != n:
                    out_cols = gather_columns(out_cols, selected)
                    n = len(selected)
            if n:
                yield out_cols, n


class BatchProjectOp:
    """Evaluate the select list over batches.

    Yields ``(out_cols, pre_cols, n)`` triples — the projected columns
    plus the pre-projection batch, the columnar analogue of row mode's
    ``(out_row, pre_row)`` pairs.
    """

    def __init__(
        self,
        child: BatchOperator,
        node: LogicalProject,
        agg_slots: "dict | None",
        catalog: "Catalog | None" = None,
        fused: bool = False,
    ) -> None:
        self._child = child
        self.scope = child.scope
        self.agg_slots = agg_slots or {}
        self.columns, targets = _project_targets(node, child.scope)
        self.targets = targets
        self._fns: list = [
            _make_batch_picker(target)
            if isinstance(target, int)
            else compile_expr_batch(target, child.scope, self.agg_slots)
            for target in targets
        ]
        # fused value codegen: every provably-safe compound target is
        # computed by one generated function per batch; bare pickers and
        # unfusible expressions keep their closures.  Fused targets
        # never raise, so lifting them ahead of the remaining closures
        # is unobservable.
        self._fused = None
        if fused and catalog is not None:
            self._fused = fuse_batch_exprs(
                targets,
                child.scope,
                _fusion_class_of(node, catalog),
                mode="value",
            )

    def pres_batches(self) -> Iterator[tuple]:
        return self.process(self._child.batches())

    def process(self, stream) -> Iterator[tuple]:
        """Project one batch stream (the morsel-pipeline entry point)."""
        fns = self._fns
        fused = self._fused
        if fused is None:
            for cols, n in stream:
                yield [fn(cols, n) for fn in fns], cols, n
            return
        fused_fn = fused.fn
        positions = fused.indexes
        fused_batches = 0
        try:
            for cols, n in stream:
                out: list = [None] * len(fns)
                for position, column in zip(positions, fused_fn(cols, n)):
                    out[position] = column
                for i, fn in enumerate(fns):
                    if out[i] is None:
                        out[i] = fn(cols, n)
                fused_batches += 1
                yield out, cols, n
        finally:
            if fused_batches and _METRICS.enabled:
                _FUSED_BATCHES.inc(fused_batches)


class BatchDistinctOp:
    """Deduplicate projected rows across batches, keeping first occurrences."""

    def __init__(self, child) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots

    def pres_batches(self) -> Iterator[tuple]:
        seen: set = set()
        add = seen.add
        for out_cols, pre_cols, n in self._child.pres_batches():
            kept: list = []
            keep = kept.append
            # encoded output columns dedupe on codes (bijective per
            # dictionary, and the per-column stream type is stable
            # across batches), skipping the decode for dropped rows
            key_streams = [
                column.codes if isinstance(column, EncodedColumn) else column
                for column in out_cols
            ]
            for i, row in enumerate(zip(*key_streams)):
                if row in seen:
                    continue
                add(row)
                keep(i)
            if not kept:
                continue
            if len(kept) == n:
                yield out_cols, pre_cols, n
            else:
                yield (
                    gather_columns(out_cols, kept),
                    gather_columns(pre_cols, kept),
                    len(kept),
                )


class BatchSortOp:
    """Stable multi-key sort: materialize, argsort indices, gather."""

    def __init__(self, child, node: LogicalSort) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._key_specs: list = []
        for position, expr, descending in _sort_targets(node, self.columns):
            if position is not None:
                self._key_specs.append((position, None, descending))
            else:
                fn = compile_expr_batch(expr, self.scope, self.agg_slots)
                self._key_specs.append((None, fn, descending))

    def pres_batches(self) -> Iterator[tuple]:
        out_cols: list = [[] for __ in range(len(self.columns))]
        pre_cols: list = [[] for __ in range(len(self.scope))]
        total = 0
        for batch_out, batch_pre, n in self._child.pres_batches():
            total += n
            for accumulated, column in zip(out_cols, batch_out):
                accumulated.extend(column)
            for accumulated, column in zip(pre_cols, batch_pre):
                accumulated.extend(column)
        if total == 0:
            return
        indices = list(range(total))
        # stable multi-pass argsort, last key first (same as row mode)
        for position, key_fn, descending in reversed(self._key_specs):
            key_column = (
                out_cols[position]
                if position is not None
                else key_fn(pre_cols, total)
            )
            decorated = [sort_key(value) for value in key_column]
            indices.sort(key=decorated.__getitem__, reverse=descending)
        for start in range(0, total, BATCH_SIZE):
            chunk = indices[start:start + BATCH_SIZE]
            yield (
                gather_columns(out_cols, chunk),
                gather_columns(pre_cols, chunk),
                len(chunk),
            )


class BatchLimitOp:
    def __init__(self, child, limit: int) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._limit = limit

    def pres_batches(self) -> Iterator[tuple]:
        remaining = self._limit
        if remaining <= 0:
            return
        for out_cols, pre_cols, n in self._child.pres_batches():
            if n >= remaining:
                yield (
                    [column[:remaining] for column in out_cols],
                    [column[:remaining] for column in pre_cols],
                    remaining,
                )
                return
            yield out_cols, pre_cols, n
            remaining -= n


class BatchTopNOp:
    """Fused Sort+Limit over batches: bounded candidate set, one gather.

    Sort keys are still computed vectorized per batch; instead of
    materializing and fully sorting the input, candidate rows are
    pruned back down to the best *limit* whenever they outgrow a small
    multiple of it.  Candidate entries order exactly like BatchSortOp's
    stable multi-key argsort: the composite key tuple (descending keys
    wrapped in :class:`_ReversedKey`) is extended with the global input
    sequence number, so ties keep arrival order and entry comparisons
    never reach the row payloads.
    """

    def __init__(self, child, node: LogicalTopN) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._limit = node.limit
        self._key_specs: list = []
        for position, expr, descending in _sort_targets(node, self.columns):
            if position is not None:
                self._key_specs.append((position, None, descending))
            else:
                fn = compile_expr_batch(expr, self.scope, self.agg_slots)
                self._key_specs.append((None, fn, descending))
        #: bound-pushdown cell shared with upstream scan/filter ops
        #: (connected by _connect_topn_bound when provably safe)
        self._bound_cell = None

    def publish_bound(self, cell: _TopNBound) -> None:
        self._bound_cell = cell

    def pres_batches(self) -> Iterator[tuple]:
        limit = self._limit
        if limit <= 0:
            return
        cell = self._bound_cell
        if cell is not None:
            cell.value = None  # plans re-execute; reset before pulling
        key_specs = self._key_specs
        prune_at = max(limit * 4, 64)
        single = len(key_specs) == 1
        entries: list = []  # (composite key + (seq,), candidate row index)
        # the current worst kept composite key: once `limit` candidates
        # exist, a row whose key sorts at or after the bound is dropped
        # before its payload is ever materialized (a later row never
        # beats an equal key: the sequence tiebreaker orders it after).
        # Only the leading key is decorated vectorized; ties fall
        # through to the full composite.
        bound = None
        first_bound = None
        seq = 0
        kept_out: list = []  # candidate payloads, indexed by entries[i][1]
        kept_pre: list = []
        for out_cols, pre_cols, n in self._child.pres_batches():
            # every ORDER BY key expression is evaluated over the whole
            # batch, exactly like BatchSortOp and the row engine, so
            # data-dependent errors (division by zero, type errors in a
            # sort expression) surface identically in all plans; only
            # the sort_key decoration of secondary keys and the payload
            # tuples are deferred until a row survives the bound —
            # neither of those can raise
            raw_columns = [
                out_cols[position] if position is not None
                else key_fn(pre_cols, n)
                for position, key_fn, __ in key_specs
            ]
            first_descending = key_specs[0][2]
            if first_descending:
                first_column = [
                    _ReversedKey(sort_key(value)) for value in raw_columns[0]
                ]
            else:
                first_column = [sort_key(value) for value in raw_columns[0]]

            def composite(i: int) -> tuple:
                parts = [first_column[i]]
                for spec, column in zip(key_specs[1:], raw_columns[1:]):
                    decorated = sort_key(column[i])
                    parts.append(
                        _ReversedKey(decorated) if spec[2] else decorated
                    )
                return tuple(parts)

            for i in range(n):
                if bound is not None:
                    first_key = first_column[i]
                    if first_bound < first_key:
                        seq += 1  # leading key already past the bound
                        continue
                    if not first_key < first_bound:  # tie on the lead key
                        if single or not composite(i) < bound:
                            seq += 1
                            continue
                key = composite(i)
                entries.append((key + (seq,), len(kept_out)))
                kept_out.append(tuple(column[i] for column in out_cols))
                kept_pre.append(tuple(column[i] for column in pre_cols))
                seq += 1
                if len(entries) >= prune_at or (
                    bound is None and len(entries) >= limit
                ):
                    entries = heapq.nsmallest(limit, entries)
                    kept_out = [kept_out[entry[1]] for entry in entries]
                    kept_pre = [kept_pre[entry[1]] for entry in entries]
                    entries = [
                        (entry[0], index)
                        for index, entry in enumerate(entries)
                    ]
                    if len(entries) == limit:
                        bound = entries[-1][0][:-1]
                        first_bound = bound[0]
                        if cell is not None:
                            cell.value = first_bound
        if not entries:
            return
        entries = heapq.nsmallest(limit, entries)
        for start in range(0, len(entries), BATCH_SIZE):
            chunk = entries[start:start + BATCH_SIZE]
            yield (
                [
                    list(column)
                    for column in zip(*[kept_out[entry[1]] for entry in chunk])
                ],
                [
                    list(column)
                    for column in zip(*[kept_pre[entry[1]] for entry in chunk])
                ],
                len(chunk),
            )


def _make_batch_picker(index: int):
    return lambda cols, n: cols[index]


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


class PreparedPlan:
    """A compiled, re-executable plan (what the plan cache stores)."""

    def __init__(
        self,
        root,
        logical: LogicalNode,
        columns: list,
        mode: str = "row",
        parallel_nodes: "dict | None" = None,
    ) -> None:
        self._root = root
        self.logical = logical
        self.columns = columns
        self.mode = mode
        #: ``id(logical scan node) -> worker count`` for every scan that
        #: executes under a morsel exchange (EXPLAIN's ``[parallel n=K]``)
        self.parallel_nodes = parallel_nodes or {}

    def execute(self) -> ResultSet:
        if self.mode == "batch":
            rows: list = []
            extend = rows.extend
            for out_cols, __, n in self._root.pres_batches():
                if out_cols:
                    extend(zip(*out_cols))
                else:  # pragma: no cover - select lists are never empty
                    extend(() for __ in range(n))
            return ResultSet(columns=list(self.columns), rows=rows)
        return ResultSet(
            columns=list(self.columns),
            rows=[out_row for out_row, __ in self._root.pairs()],
        )


def _no_instrument(operator, node):
    """The default ``instrument`` hook: leave the operator bare."""
    return operator


class _BuildContext:
    """Batch-builder state: knobs, instrumentation, parallel bookkeeping."""

    __slots__ = (
        "catalog",
        "instrument",
        "instrumented",
        "fused",
        "workers",
        "dispatcher",
        "parallel_nodes",
    )

    def __init__(
        self, catalog: Catalog, instrument, fused: bool, workers: int
    ) -> None:
        self.catalog = catalog
        self.instrumented = instrument is not None
        self.instrument = instrument or _no_instrument
        self.fused = fused
        # EXPLAIN ANALYZE wraps every operator in timing shims, which
        # both breaks chain detection and wants serial per-operator
        # numbers — instrumented plans always run serial and unpushed
        self.workers = 1 if self.instrumented else workers
        self.dispatcher = (
            MorselDispatcher(self.workers) if self.workers > 1 else None
        )
        self.parallel_nodes: dict = {}


def build_physical(
    root: LogicalNode,
    catalog: Catalog,
    config: EngineConfig = DEFAULT_CONFIG,
    instrument=None,
) -> PreparedPlan:
    """Compile a logical plan into a :class:`PreparedPlan` for *config*.

    *instrument* (optional) is called as ``instrument(operator, node)``
    on every physical operator right after construction, with the
    logical node it was built from, and its return value takes the
    operator's place in the tree — EXPLAIN ANALYZE passes an
    :class:`~repro.sqlengine.planner.analyze.Instrumenter` here to wrap
    each operator in a counting/timing shim.  Instrumented plans must
    not be cached, and always execute serial/unfused-pushdown so the
    per-operator numbers describe the plain pipeline.

    In batch mode ``config.fused`` compiles provably-safe filter/project
    expressions into generated per-batch functions and
    ``config.parallel_workers`` > 1 runs scan-rooted pipelines
    morsel-parallel.  Both layers are locked to byte-identical results
    and errors, so they are pure speed knobs.
    """
    mode = config.execution_mode
    if mode == "batch":
        ctx = _BuildContext(
            catalog, instrument, config.fused, config.parallel_workers
        )
        operator = _build_presentation_batch(root, ctx)
        return PreparedPlan(
            root=operator,
            logical=root,
            columns=list(operator.columns),
            mode=mode,
            parallel_nodes=ctx.parallel_nodes,
        )
    operator = _build_presentation(root, catalog, instrument or _no_instrument)
    return PreparedPlan(
        root=operator, logical=root, columns=list(operator.columns), mode=mode
    )


def _build_presentation(node: LogicalNode, catalog: Catalog, instrument):
    """Build the pair-yielding presentation tree (project and above)."""
    if isinstance(node, LogicalLimit):
        child = _build_presentation(node.child, catalog, instrument)
        return instrument(LimitOp(child, node.limit), node)
    if isinstance(node, LogicalTopN):
        child = _build_presentation(node.child, catalog, instrument)
        return instrument(TopNOp(child, node), node)
    if isinstance(node, LogicalSort):
        child = _build_presentation(node.child, catalog, instrument)
        return instrument(SortOp(child, node), node)
    if isinstance(node, LogicalDistinct):
        child = _build_presentation(node.child, catalog, instrument)
        return instrument(DistinctOp(child), node)
    if isinstance(node, LogicalProject):
        child, agg_slots = _build_relational(node.child, catalog, instrument)
        return instrument(ProjectOp(child, node, agg_slots), node)
    raise SqlExecutionError(
        f"malformed plan: unexpected presentation node {type(node).__name__}"
    )


def _build_relational(node: LogicalNode, catalog: Catalog, instrument):
    """Build a row-yielding operator; returns ``(operator, agg_slots)``."""
    if isinstance(node, LogicalScan):
        return instrument(ScanOp(catalog, node), node), None
    if isinstance(node, LogicalFilter):
        child, agg_slots = _build_relational(node.child, catalog, instrument)
        return instrument(FilterOp(child, node.predicates), node), agg_slots
    if isinstance(node, LogicalJoin):
        left, __ = _build_relational(node.left, catalog, instrument)
        right, __ = _build_relational(node.right, catalog, instrument)
        return instrument(HashJoinOp(left, right, node.equi), node), None
    if isinstance(node, LogicalLeftJoin):
        left, __ = _build_relational(node.left, catalog, instrument)
        right, __ = _build_relational(node.right, catalog, instrument)
        return instrument(LeftJoinOp(left, right, node.condition), node), None
    if isinstance(node, LogicalAggregate):
        child, __ = _build_relational(node.child, catalog, instrument)
        operator = AggregateOp(child, node)
        return instrument(operator, node), operator.agg_slots
    raise SqlExecutionError(
        f"malformed plan: unexpected relational node {type(node).__name__}"
    )


def _chain_parts(operator) -> "tuple | None":
    """``(scan, stages)`` when *operator* is a morsel-splittable chain.

    A chain is a bare :class:`BatchScanOp` leaf under zero or more
    :class:`BatchFilterOp` stages — the shapes whose batch streams can
    be partitioned by scan row range with byte-identical output.
    """
    stages: list = []
    current = operator
    while isinstance(current, BatchFilterOp):
        stages.append(current)
        current = current._child
    if isinstance(current, BatchScanOp):
        stages.reverse()
        return current, stages
    return None


def _make_exchange(operator, ctx: _BuildContext) -> "ParallelChainOp | None":
    """A morsel exchange over *operator*, or None if not parallelizable."""
    if ctx.dispatcher is None:
        return None
    parts = _chain_parts(operator)
    if parts is None:
        return None
    scan, stages = parts
    ctx.parallel_nodes[id(scan.node)] = ctx.workers
    return ParallelChainOp(ctx.dispatcher, scan, stages)


def _maybe_exchange(operator, ctx: _BuildContext):
    """*operator* behind a morsel exchange when possible, else itself."""
    exchange = _make_exchange(operator, ctx)
    return operator if exchange is None else exchange


def _parallel_agg_eligible(node: LogicalAggregate) -> bool:
    """Can this aggregate merge per-partition partial states?

    DISTINCT sum/avg accumulators keep a seen-set whose merge is not
    implemented (the exact-sum state already folded the values), so
    those plans keep serial consumption; everything else merges
    deterministically.
    """
    return all(
        not (call.distinct and call.name in ("sum", "avg"))
        for call in node.agg_calls
    )


def _connect_topn_bound(
    operator: BatchTopNOp, child, node: LogicalTopN, ctx: _BuildContext
) -> None:
    """Wire TopN's worst-kept-key bound into the upstream scan/filters.

    Only when provably unobservable: the chain below must be
    project → filter* → scan over one table, the leading sort key a
    bare column of that chain's scope, and every expression a
    pre-dropped row would have skipped (filter predicates, project
    targets, secondary sort keys) provably error-free, so dropping rows
    the TopN bound check would discard anyway cannot change results or
    errors.
    """
    project = child
    if isinstance(project, ParallelProjectOp):
        project = project._project
    if not isinstance(project, BatchProjectOp):
        return
    parts = _chain_parts(project._child)
    if parts is None:
        return
    scan, filters = parts
    pre_scope = project.scope
    pair_class = _fusion_class_of(node, ctx.catalog)

    def ref_class(ref):
        index = pre_scope.try_resolve(ref)
        if index is None:
            return None
        return pair_class(*pre_scope.pairs[index])

    specs = _sort_targets(node, project.columns)
    position, expr, descending = specs[0]
    if position is not None:
        target = project.targets[position]
        if isinstance(target, int):
            key_index = target
        elif isinstance(target, ColumnRef):
            key_index = pre_scope.try_resolve(target)
        else:
            return
    elif isinstance(expr, ColumnRef):
        key_index = pre_scope.try_resolve(expr)
    else:
        return
    if key_index is None:
        return
    for __, secondary, __d in specs[1:]:
        if secondary is not None and not _value_class(secondary, ref_class)[0]:
            return
    for target in project.targets:
        if not isinstance(target, int) and not _value_class(
            target, ref_class
        )[0]:
            return
    for stage in filters:
        for predicate in stage._predicates:
            if not _value_class(predicate, ref_class)[0]:
                return
    cell = _TopNBound()
    operator.publish_bound(cell)
    scan.connect_bound(cell, key_index, descending)
    for stage in filters:
        stage.connect_bound(cell, key_index, descending)


def _build_presentation_batch(node: LogicalNode, ctx: _BuildContext):
    """Build the batch presentation tree (project and above)."""
    instrument = ctx.instrument
    if isinstance(node, LogicalLimit):
        child = _build_presentation_batch(node.child, ctx)
        return instrument(BatchLimitOp(child, node.limit), node)
    if isinstance(node, LogicalTopN):
        child = _build_presentation_batch(node.child, ctx)
        operator = BatchTopNOp(child, node)
        if not ctx.instrumented:
            _connect_topn_bound(operator, child, node, ctx)
        return instrument(operator, node)
    if isinstance(node, LogicalSort):
        child = _build_presentation_batch(node.child, ctx)
        return instrument(BatchSortOp(child, node), node)
    if isinstance(node, LogicalDistinct):
        child = _build_presentation_batch(node.child, ctx)
        return instrument(BatchDistinctOp(child), node)
    if isinstance(node, LogicalProject):
        child, agg_slots = _build_relational_batch(node.child, ctx)
        operator = BatchProjectOp(
            child, node, agg_slots, catalog=ctx.catalog, fused=ctx.fused
        )
        exchange = _make_exchange(child, ctx)
        if exchange is not None:
            operator = ParallelProjectOp(exchange, operator)
        return instrument(operator, node)
    raise SqlExecutionError(
        f"malformed plan: unexpected presentation node {type(node).__name__}"
    )


def _build_relational_batch(node: LogicalNode, ctx: _BuildContext):
    """Build a batch-yielding operator; returns ``(operator, agg_slots)``."""
    catalog = ctx.catalog
    instrument = ctx.instrument
    if isinstance(node, LogicalScan):
        return instrument(BatchScanOp(catalog, node, fused=ctx.fused), node), None
    if isinstance(node, LogicalFilter):
        child, agg_slots = _build_relational_batch(node.child, ctx)
        operator = BatchFilterOp(
            child, node.predicates, node=node, catalog=catalog, fused=ctx.fused
        )
        return instrument(operator, node), agg_slots
    if isinstance(node, LogicalJoin):
        left, __ = _build_relational_batch(node.left, ctx)
        right, __ = _build_relational_batch(node.right, ctx)
        left = _maybe_exchange(left, ctx)
        if node.equi:
            # partitioned build: each morsel of the build side hashes
            # inside its worker; the join merges partitions in order
            operator = BatchHashJoinOp(left, right, node.equi)
            build_exchange = _make_exchange(right, ctx)
            if build_exchange is not None:
                operator.set_parallel_build(build_exchange)
        else:
            operator = BatchHashJoinOp(
                left, _maybe_exchange(right, ctx), node.equi
            )
        return instrument(operator, node), None
    if isinstance(node, LogicalLeftJoin):
        left, __ = _build_relational_batch(node.left, ctx)
        right, __ = _build_relational_batch(node.right, ctx)
        left = _maybe_exchange(left, ctx)
        right = _maybe_exchange(right, ctx)
        operator = BatchLeftJoinOp(left, right, node.condition)
        analysis = _analyze_left_join(node, left.scope, right.scope, catalog)
        if analysis is not None:
            key_pairs, residual = analysis
            operator.enable_hash(
                key_pairs,
                [
                    compile_expr_batch(conjunct, operator.scope)
                    for conjunct in residual
                ],
            )
        return instrument(operator, node), None
    if isinstance(node, LogicalAggregate):
        child, __ = _build_relational_batch(node.child, ctx)
        operator = BatchAggregateOp(child, node)
        exchange = _make_exchange(child, ctx)
        if exchange is not None:
            if _parallel_agg_eligible(node):
                operator.set_parallel(exchange)
            else:
                # DISTINCT sum/avg: parallelize the scan, consume serial
                operator._child = exchange
        return instrument(operator, node), operator.agg_slots
    raise SqlExecutionError(
        f"malformed plan: unexpected relational node {type(node).__name__}"
    )
