"""Physical operators: the vectorized batch engine.

``build_physical`` compiles an optimized logical plan into a tree of
batch operators.  Expression compilation happens once, at build time,
so a cached :class:`PreparedPlan` can be re-executed without
re-planning — each execution streams fresh results from the underlying
tables.

Operators exchange *column batches* — ``(cols, n)`` where ``cols`` is
one Python list per scope column, all of length ``n``.  ``n`` is at
most :data:`BATCH_SIZE` for every batch of every operator — a fan-out
join, a sort or an aggregate hands its output on in slices, never as
one batch — and every ``batches()``/``pres_batches()`` is a generator
that does the work for a batch when that batch is pulled, so a consumer
that stops pulling (LIMIT) stops the producers below it.  Relational
operators (scan/filter/join/aggregate) yield ``(cols, n)`` laid out by
their :class:`~repro.sqlengine.expressions.Scope`; presentation
operators (project/distinct/sort/limit/top-n) yield ``(out_cols,
pre_cols, n)``, keeping the pre-projection batch so ORDER BY can sort
on expressions that were never projected.  Scans slice the table's
columnar storage directly, filters turn whole-batch predicate
evaluation into selection vectors, hash joins build once and then probe
and gather per output batch, and aggregation feeds grouped accumulators
from per-batch argument columns.  Every expression — scan and filter
conjuncts, join conditions, group keys and aggregate arguments, HAVING,
the select list, sort keys — is compiled by
:func:`~repro.sqlengine.expressions.compile_batch` into one generated
function per operator, which keeps row-at-a-time semantics exactly
(three-valued logic, ``compare_values`` ordering, short-circuit error
behavior, the first error raised within a batch).

The semantics every operator keeps: three-valued predicate logic, hash
joins skipping NULL keys, LEFT JOIN null padding, the
representative-row leniency for non-aggregated GROUP BY expressions,
ORDER BY aliases/positions, and NULLs-first mixed-type ordering.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_right
from functools import partial
from typing import Any, Iterator

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.resilience.deadline import current_deadline
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Literal,
    collect_column_refs,
)
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.segments import snapshot_of
from repro.sqlengine.expressions import (
    Scope,
    class_of_tables,
    compile_batch,
    fuse_grouping,
    fuse_merge,
    gather_columns,
    never_raises,
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
from repro.sqlengine.results import ResultSet
from repro.sqlengine.types import SqlType

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
_SEGMENTS_SKIPPED = _METRICS.counter("engine.segments_skipped")
_AGG_ROWS_GATHERED = _METRICS.counter("engine.agg_rows_gathered")


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


class _ReversedKey:
    """Inverts the ordering of a ``sort_key`` tuple (descending keys)."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_ReversedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReversedKey) and self.key == other.key


def sort_key(value: Any) -> tuple:
    """Total order over mixed values: NULLs first, then by type group;
    NaN, unordered among numbers, sorts as NULL (as sqlite stores it)."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        if value != value:
            return (0, 0, 0)
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


def _select(cols: list, n: int, selected: list) -> tuple:
    """The batch compacted to *selected* (row indices); ``(cols, n)``."""
    if len(selected) == n:
        return cols, n
    return gather_columns(cols, selected), len(selected)


class _TopNBound(threading.local):
    """A shared cell streaming BatchTopNOp's worst-kept leading key.

    Once N candidates exist the TopN operator sets ``armed`` and writes
    the raw leading key of its worst kept row to ``value`` when it
    tightens (None for NULL or NaN).  The scan below reads it per batch
    and pre-drops rows that sort strictly past it — rows the TopN check
    would skip — with one more generated filter conjunct, and skips a
    batch whose frozen segments' zones all lie past it.  The cell is
    per thread: two threads executing one cached plan over different
    pins each read only their own top-N's bound.
    """

    def __init__(self) -> None:
        self.armed = False
        self.value = None


#: op -> (op with the operands swapped, "no ``v`` in ``[low, high]``
#: satisfies ``v <op> x``")
_ZONE_OPS = {
    "=": ("=", lambda low, high, x: x < low or x > high),
    "<": (">", lambda low, high, x: low >= x),
    "<=": (">=", lambda low, high, x: low > x),
    ">": ("<", lambda low, high, x: high <= x),
    ">=": ("<=", lambda low, high, x: high < x),
}


def _zone_tests(predicates, table, fused) -> tuple:
    """``(column index, excludes, number)`` per ``col <op> number`` conjunct.

    Empty unless the compiler calls the scan's filter *fused* safe
    (:attr:`~repro.sqlengine.expressions.FusedBatch.safe`): a skipped
    batch must be one whose evaluation could neither match nor raise.
    """
    if fused is None or not fused.safe:
        return ()
    tests = []
    for predicate in predicates:
        if not (isinstance(predicate, BinaryOp) and predicate.op in _ZONE_OPS):
            continue
        column, literal, op = predicate.left, predicate.right, predicate.op
        if isinstance(column, Literal):
            column, literal, op = literal, column, _ZONE_OPS[op][0]
        value = getattr(literal, "value", None)
        # the filter is safe, so a number here meets an INTEGER/REAL
        # column (any other class compares through compare_values,
        # which can raise); NaN compares equal to every number
        if isinstance(column, ColumnRef) and type(value) in (int, float) \
                and value == value:
            tests.append(
                (table.column_index(column.column), _ZONE_OPS[op][1], value)
            )
    return tuple(tests)


def _batch_segments(snapshot, start: int) -> "range | None":
    """The segments the grid batch at *start* overlaps; None if it
    reaches the delta, which is never skipped."""
    prefix = snapshot.prefix
    stop = min(start + BATCH_SIZE, snapshot.row_count)
    high = bisect_right(prefix, stop - 1) - 1
    if high >= len(snapshot.entries):
        return None
    return range(bisect_right(prefix, start) - 1, high + 1)


def _zone_skips(snapshot, tests: tuple) -> set:
    """The grid-batch starts of *snapshot* whose every row lies in a
    frozen segment some test excludes."""
    excluded = [
        any(
            (zone := segment.zone(index)) is not None
            and excludes(*zone, value)
            for index, excludes, value in tests
        )
        for segment, __, __ in snapshot.entries
    ]
    skipped = set()
    for start in range(0, snapshot.row_count, BATCH_SIZE):
        parts = _batch_segments(snapshot, start)
        if parts is not None and all(excluded[p] for p in parts):
            skipped.add(start)
    return skipped


def _batch_past_bound(snapshot, start: int, column: int, bound, descending):
    """Whether the grid batch at *start* lies in frozen segments only,
    each sorting strictly past a top-N *bound* on *column* (a tie could
    still win on a secondary key; NULLs sort first, so ascending needs
    the zone's min past the bound and no NULL)."""
    parts = _batch_segments(snapshot, start)
    if parts is None:
        return False
    key = sort_key(bound)
    for segment, __, __ in snapshot.entries[parts.start:parts.stop]:
        zone = segment.zone(column)
        if zone is None or not (
            sort_key(zone[1]) < key if descending
            else key < sort_key(zone[0]) and not segment.holds_null(column)
        ):
            return False
    return True


def _segments_skipped(snapshot, starts: set) -> int:
    """Frozen segments whose every overlapping grid batch is in *starts*."""
    prefix = snapshot.prefix
    return sum(
        1
        for part in range(len(snapshot.entries))
        if prefix[part] // BATCH_SIZE * BATCH_SIZE in starts
        and (prefix[part + 1] - 1) // BATCH_SIZE * BATCH_SIZE in starts
    )


class BatchScanOp(BatchOperator):
    """Slice the table's columnar storage into batches; filter and prune.

    The scan consults each frozen segment's zone (:meth:`~repro.
    sqlengine.segments.FrozenSegment.zone`) against the
    ``col <op> number`` conjuncts among its pushed predicates and never
    slices a grid batch whose every row lies in excluded segments: such
    a batch would have filtered down to nothing, so results, float sums
    and batch boundaries are unchanged.  Under a connected top-N bound
    (:class:`_TopNBound`) a batch is also skipped when every segment it
    overlaps sorts strictly past the bound on a numeric key column.
    Zones are consulted only when the compiler calls the scan's
    generated filter safe (``_filter.safe``, see :class:`~repro.
    sqlengine.expressions.FusedBatch`), so errors stay those of a full
    scan; the delta is always read, and the deadline is checked per
    batch.

    Only the columns the predicates or the output read are sliced: the
    predicates compile against that sub-layout, and the output columns
    are picked from it after filtering.

    A connected top-N bound is one more fused filter conjunct, and a
    fused GROUP BY (:class:`BatchAggregateOp`) swaps the filter for its
    filter-and-fold; zone skips, pins, per-batch deadline checks, scan
    counters and EXPLAIN ANALYZE rows stay, and the scan's self-time
    then includes the grouping.
    """

    def __init__(self, catalog: Catalog, node: LogicalScan) -> None:
        self._table = catalog.table(node.table)
        self.binding = node.binding
        full_scope = Scope(
            [(node.binding, name) for name in self._table.column_names()]
        )
        if node.columns is None:
            output = list(range(len(full_scope)))
            self.scope = full_scope
        else:
            output = [self._table.column_index(name) for name in node.columns]
            self.scope = Scope([(node.binding, name) for name in node.columns])
        refs = [
            full_scope.try_resolve(ref)
            for predicate in node.predicates
            for ref in collect_column_refs(predicate)
        ]
        #: table columns sliced per batch: the output's, then the others
        #: the predicates read — all of them when a reference does not
        #: resolve, so the compile error is the full scan's
        if None in refs:
            self._read = list(range(len(full_scope)))
            read_scope, project = full_scope, output
        else:
            self._read = list(dict.fromkeys(output + refs))
            project = list(range(len(output)))
            read_scope = (
                self.scope if len(self._read) == len(output)
                else Scope([full_scope.pairs[i] for i in self._read])
            )
        #: output positions within the read layout; None = all, in order
        self._project = (
            None if project == list(range(len(self._read))) else project
        )
        self._class_of = class_of_tables({node.binding: self._table})
        self._read_scope = read_scope
        self._predicates = node.predicates
        #: the generated filter over every pushed predicate, or None
        self._filter = self._compile_filter()
        self._zone_tests = _zone_tests(
            node.predicates, self._table, self._filter
        )
        #: EXPLAIN ANALYZE's OperatorStats (receives ``skipped``), or None
        self.analyze_stats = None
        # TopN bound pushdown (see _connect_topn_bound): a shared cell,
        # the key's read-layout index, the filters ending in its conjunct
        # (_filter_under) and, when zones can skip, its table index
        self._bound_cell = None
        self._bound_key = 0
        self._bound_filters = None
        self._bound_descending = False
        self._bound_column = None

    def connect_bound(
        self, cell: _TopNBound, key_index: int, descending: bool
    ) -> None:
        """Pre-drop rows past *cell*'s bound on output column *key_index*."""
        self._bound_cell = cell
        self._bound_descending = descending
        self._bound_key = self._project[key_index] if self._project else key_index
        self._bound_filters = {}
        table = self._table
        column = table.column_index(self.scope.pairs[key_index][1])
        if table.columns[column].sql_type in (
            SqlType.INTEGER, SqlType.REAL
        ) and (self._filter is None or self._filter.safe):
            self._bound_column = column

    def _compile_filter(self, bound=None):
        """The generated filter over the pushed predicates (and a top-N
        *bound* conjunct), or None when there is nothing to test."""
        if not self._predicates and bound is None:
            return None
        return compile_batch(
            self._predicates, self._read_scope, self._class_of,
            mode="filter", bound=bound,
        )

    def _filter_under(self, bound):
        """The filter ending in *bound*'s conjunct, generated on first
        use: a bound that never arms (one batch) costs no codegen."""
        null = bound is None
        if null and self._bound_descending:
            return self._filter  # nothing sorts past a NULL bound
        fused = self._bound_filters.get(null)
        if fused is None:
            fused = self._bound_filters[null] = self._compile_filter(
                (self._bound_key, self._bound_descending, null)
            )
        return fused

    def fuse_grouping(self, node: LogicalAggregate, join_keys=()):
        """*node*'s generated filter-and-fold over this scan, or None;
        with *join_keys*, the partials of a hash join's build side."""
        rep = range(len(self._read)) if self._project is None else self._project
        return fuse_grouping(
            self._predicates, join_keys or node.group_by, node.agg_calls,
            rep, self._read_scope, self._class_of, partial=bool(join_keys),
        )

    def batches(self, snapshot=None, positions: bool = False,
                fold=None) -> Iterator[tuple]:
        """The filtered, pruned batches of the whole table.

        Batches are sliced from *snapshot*, or else from the pin the
        thread's pin scope installed, or else from a fresh pin.
        Batches whose every row lies in frozen segments excluded by a
        zone test (see :func:`_zone_skips`) or sorting past a connected
        top-N bound (see :func:`_batch_past_bound`) are never sliced; every
        batch that is emitted is the one a full scan would emit, less
        the rows past the bound.  With
        *positions*, each batch carries one more trailing column: the
        live position of every surviving row (how DML finds its rows).
        With *fold* (``fold(cols, n) -> survivors``), the fold replaces
        the filter and a batch is yielded as ``((), survivors)``.
        """
        if snapshot is None:
            snapshot = snapshot_of(self._table)
        last = snapshot.row_count
        read = self._read
        column_slice = snapshot.column_slice
        fused = self._filter
        project = self._project
        if positions and project is not None:
            project = project + [len(read)]
        skipped = set()
        if self._zone_tests and snapshot.entries:
            skipped = _zone_skips(snapshot, self._zone_tests)
        bound_cell = self._bound_cell
        bound_column = self._bound_column if snapshot.entries else None
        bound = None
        deadline = current_deadline()
        scanned = 0
        dropped = 0
        batches = 0
        try:
            for start in range(0, last, BATCH_SIZE):
                if deadline is not None:
                    deadline.check("scan")
                if start in skipped:
                    continue
                if bound_cell is not None and bound_cell.armed:
                    bound = bound_cell.value
                    if bound_column is not None and _batch_past_bound(
                        snapshot, start, bound_column, bound,
                        self._bound_descending,
                    ):
                        skipped.add(start)
                        continue
                    fused = self._filter_under(bound)
                stop = min(start + BATCH_SIZE, last)
                cols = [column_slice(i, start, stop) for i in read]
                if positions:
                    cols.append(range(start, stop))
                n = stop - start
                scanned += n
                if fold is not None:
                    n = fold(cols, n)
                elif fused is not None:
                    cols, n = _select(cols, n, fused.fn(cols, n, bound))
                dropped += stop - start - n
                if n == 0:
                    continue
                batches += 1
                if fold is not None:
                    yield (), n
                    continue
                if project is not None:
                    cols = [cols[i] for i in project]
                yield cols, n
        finally:
            if scanned and _METRICS.enabled:
                _ROWS_SCANNED.inc(scanned)
                _BATCHES_PRODUCED.inc(batches)
                if dropped:
                    _ROWS_FILTERED.inc(dropped)
            skipped_segments = (
                _segments_skipped(snapshot, skipped) if skipped else 0
            )
            if skipped_segments and _METRICS.enabled:
                _SEGMENTS_SKIPPED.inc(skipped_segments)
            if self.analyze_stats is not None:
                self.analyze_stats.skipped += skipped_segments


class BatchFilterOp(BatchOperator):
    def __init__(self, child: BatchOperator, predicates, class_of) -> None:
        self._child = child
        self.scope = child.scope
        self._predicates = list(predicates)
        self._filter = compile_batch(
            self._predicates, self.scope, class_of, mode="filter"
        )

    def batches(self) -> Iterator[tuple]:
        fn = self._filter.fn
        dropped = 0
        batches = 0
        try:
            for cols, n in self._child.batches():
                before = n
                if n:
                    cols, n = _select(cols, n, fn(cols, n))
                dropped += before - n
                if n:
                    batches += 1
                    yield cols, n
        finally:
            if _METRICS.enabled and (dropped or batches):
                _ROWS_FILTERED.inc(dropped)
                _BATCHES_PRODUCED.inc(batches)


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
    never produced.  NULL keys never match.  Both the inner and the
    LEFT hash join probe through it, so they stay in lockstep.
    """

    __slots__ = ("_key_indexes", "_get", "_single")

    def __init__(self, table: dict, key_indexes) -> None:
        self._key_indexes = key_indexes
        self._get = table.get
        self._single = len(key_indexes) == 1

    def _row_buckets(self, cols):
        """Each probe row's bucket, or None (NULL keys are in no bucket)."""
        if not self._single:
            return map(self._get, zip(*[cols[i] for i in self._key_indexes]))
        return map(self._get, cols[self._key_indexes[0]])

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

    Under an aggregate that folds into it (:meth:`fuse_aggregate`) the
    join gathers no pairs: the build scan folds its rows into one
    partial per key in its generated loop, and a generated loop over
    each probe batch merges the matches into the groups
    (``batches(fold=(build, merge))``, yielding ``((), pairs)``).  Scans,
    pins, per-batch deadline checks and ``engine.rows_joined`` (the pair
    count) stay.
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

    def batches(self, fold=None) -> Iterator[tuple]:
        return _join_output(
            self._folded_batches(*fold) if fold is not None
            else self._hash_batches() if self._left_indexes
            else self._cross_batches()
        )

    def fuse_aggregate(self, node: LogicalAggregate, class_of):
        """``(build fold, probe merge)`` for *node* folded into this
        join, or None: an inner hash join on a build scan, every group
        key reading the probe (left) side only, every argument the build
        side only, all proven non-raising."""
        scan = _unwrapped(self._right)
        width = len(self._left.scope)
        keys = [self.scope.try_resolve(ref) for key in node.group_by
                for ref in collect_column_refs(key)]
        args = [self.scope.try_resolve(ref) for call in node.agg_calls
                for arg in call.args for ref in collect_column_refs(arg)]
        if not (self._left_indexes and isinstance(scan, BatchScanOp)) or \
                None in keys + args or any(i >= width for i in keys) or \
                any(i < width for i in args):
            return None
        merge = fuse_merge(node.group_by, node.agg_calls, self._left_indexes,
                           self._left.scope, class_of)
        build = scan.fuse_grouping(node, [
            ColumnRef(*self._right.scope.pairs[i]) for i in self._right_indexes
        ])
        return None if build is None or merge is None else (build, merge)

    def _folded_batches(self, build, merge) -> Iterator[tuple]:
        """Run the build scan with *build* (``fold=``), then *merge* each
        probe batch (``merge(cols, n)`` returns its pair count), handed
        on as the batch path slices its pairs: at most
        :data:`BATCH_SIZE` per yield."""
        for __ in self._right.batches(fold=build):
            pass
        for cols, n in self._left.batches():
            pairs = merge(cols, n)
            for start in range(0, pairs, BATCH_SIZE):
                yield (), min(BATCH_SIZE, pairs - start)

    def _hash_batches(self) -> Iterator[tuple]:
        right_cols, right_n = _materialize_batches(self._right)
        table = _build_join_hash_table(right_cols, right_n, self._right_indexes)
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
    key columns, each left batch probes it (one lookup per row),
    residual ON conjuncts are evaluated
    vectorized over the candidate pairs only, and unmatched left rows
    are NULL-padded through selection vectors in left-row order —
    byte-identical output to the broadcast path.

    The broadcast path (one vectorized condition evaluation per left
    row against the whole right side) remains for conditions without a
    usable equi conjunct, and wherever hashing could diverge from
    ``compare_values`` semantics: REAL keys (NaN compares equal to
    every number, but never hash-matches), cross-class keys, and
    residuals the compiler does not call safe (:func:`~repro.sqlengine.
    expressions.never_raises`), whose errors the broadcast evaluation
    order would surface.  The plan builder's analysis
    (:func:`_analyze_left_join`) passes the hash path's ``(key_pairs,
    residual conjuncts)``, or None for the broadcast path.
    """

    def __init__(
        self, left: BatchOperator, right: BatchOperator, condition,
        class_of, hash_path,
    ) -> None:
        self._left = left
        self._right = right
        self.scope = left.scope.concat(right.scope)
        self._key_pairs: tuple = ()
        #: the broadcast path's whole ON condition (one predicate), or
        #: the hash path's residual conjuncts; None when there are none
        self._condition = None
        if hash_path is None:
            conjuncts = [condition]
        else:
            self._key_pairs = tuple(hash_path[0])
            conjuncts = hash_path[1]
        if conjuncts:
            self._condition = compile_batch(
                conjuncts, self.scope, class_of, mode="filter"
            )

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
                if self._condition is not None:
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
        selected = self._condition.fn(combined, len(cand_left))
        if len(selected) == len(cand_left):
            return cand_left, cand_right
        return [cand_left[i] for i in selected], [cand_right[i] for i in selected]

    # ------------------------------------------------------------------
    def _broadcast_batches(self) -> Iterator[tuple]:
        right_cols, right_n = _materialize_batches(self._right)
        condition_fn = self._condition.fn
        for cols, n in self._left.batches():
            left_sel: list = []
            right_sel: list = []  # right row index, or None for padding
            for i in range(n):
                matches: list = []
                if right_n:
                    combined = [[column[i]] * right_n for column in cols]
                    combined.extend(right_cols)
                    matches = condition_fn(combined, right_n)
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


def _analyze_left_join(
    node: LogicalLeftJoin, left_scope: Scope, right_scope: Scope,
    catalog: Catalog, class_of
):
    """Hash-path plan for a LEFT JOIN condition, or None for broadcast.

    Returns ``(key_pairs, residual_conjuncts)`` when every ON conjunct
    is either a hash-compatible cross-side equi predicate or a residual
    the compiler calls safe (:func:`~repro.sqlengine.expressions.
    never_raises`) — the exact conditions under which the hash path is
    byte-identical (results *and* errors) to the broadcast evaluation.
    """
    tables = {
        binding: catalog.table(name)
        for binding, name in scan_bindings(node).items()
    }

    def sql_type_at(scope: Scope, index: int) -> SqlType:
        binding, column = scope.pairs[index]
        return tables[binding].column(column).sql_type

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
        residual.append(conjunct)
    if not key_pairs or not never_raises(
        residual, left_scope.concat(right_scope), class_of
    ):
        return None
    return key_pairs, residual


class BatchAggregateOp(BatchOperator):
    """GROUP BY: the representative (first) row of each group extended
    with the aggregate results, groups in first-occurrence order, HAVING
    applied over the extended batch.

    Directly on a scan, with no HAVING, grouping runs in the scan's
    generated row loop (:func:`~repro.sqlengine.expressions.
    fuse_grouping`): filter, ``groups.get(key)`` and updates in one pass
    per row, keeping the batch path's group order, representative rows,
    ``min`` / ``max`` rule and exact sums.  Directly on an inner hash
    join whose build side is a scan (:meth:`BatchHashJoinOp.
    fuse_aggregate`), the build scan's loop folds its rows into one
    partial per join key, and each probe row that finds a partial merges
    it into its group once: fan-out counts as on the batch path, and the
    representative is the probe row plus the bucket's first build row.
    DISTINCT, HAVING, an argument of unknown class (or one that can
    raise, under a join) or an unfiltered global aggregate take the
    batch path: keys and arguments per batch as whole columns (one
    generated function), rows bucketed per group, accumulators fed
    slices.
    """

    def __init__(
        self, child: BatchOperator, node: LogicalAggregate, class_of
    ) -> None:
        self._child = child
        self._node = node
        scope = child.scope
        for call in node.agg_calls:
            if not call.star and len(call.args) != 1:
                raise SqlExecutionError(
                    f"aggregate {call.to_sql()} takes exactly one argument"
                )
        self.agg_slots = {
            call: len(scope) + i for i, call in enumerate(node.agg_calls)
        }
        self.scope = Scope(
            scope.pairs
            + [(None, f"__agg_{i}") for i in range(len(node.agg_calls))]
        )
        #: the scan's generated filter-and-fold (the build scan's, over
        #: a join, with the merge of a probe batch), or None (batch path)
        self._fold = self._merge = None
        #: the scan binding the fold runs in (EXPLAIN ANALYZE shows it)
        self.folded_into = None
        inner = _unwrapped(child)
        if node.having is None and isinstance(inner, BatchScanOp):
            self._fold = inner.fuse_grouping(node)
        elif node.having is None and isinstance(inner, BatchHashJoinOp):
            fused = inner.fuse_aggregate(node, class_of)
            if fused is not None:
                (self._fold, self._merge), inner = fused, _unwrapped(inner._right)
        if self._fold is not None:
            self.folded_into = inner.binding
        #: the batch path's group keys, then each non-star call's
        #: argument, per batch: compiled only when no fold runs
        inputs = list(node.group_by) + [
            call.args[0] for call in node.agg_calls if not call.star
        ]
        self._inputs = (
            compile_batch(inputs, scope, class_of)
            if inputs and self._fold is None else None
        )
        self._having = (
            compile_batch([node.having], self.scope, class_of, mode="filter",
                          agg_slots=self.agg_slots)
            if node.having is not None
            else None
        )

    def _accumulators(self) -> list:
        return [
            make_accumulator(call.name, call.star, call.distinct)
            for call in self._node.agg_calls
        ]

    def batches(self) -> Iterator[tuple]:
        if self._fold is None:
            rows = self._consume(self._child.batches())
        else:
            rows = self._fold_rows()
        if not rows and not self._node.group_by:
            # empty input and no GROUP BY -> one group of NULLs
            rows = [(None,) * len(self._child.scope) + tuple(
                accumulator.result() for accumulator in self._accumulators()
            )]
        return self._finish(rows)

    def _fold_rows(self) -> list:
        """Run the child with the generated fold; the extended rows."""
        groups: dict = {}
        fold = self._fold.fn
        if self._merge is None:
            fold_with = partial(fold, _g=groups)
        else:  # the build scan fills the partials the probe merges
            partials: dict = {}
            fold_with = (partial(fold, _g=partials),
                         partial(self._merge.fn, _g=groups, _p=partials))
        for __ in self._child.batches(fold=fold_with):
            pass
        names = [call.name for call in self._node.agg_calls]
        return [
            rep + tuple(map(_fold_result, names, states))
            for rep, *states in groups.values()
        ]

    def _consume(self, stream) -> list:
        """Feed every batch to the groups' accumulators; the extended
        rows, groups in first-occurrence order."""
        groups: dict = {}  # key -> (representative row, accumulators)
        calls = self._node.agg_calls
        width = len(self._node.group_by)
        gathered = 0
        for cols, n in stream:
            gathered += n
            values = self._inputs.fn(cols, n) if self._inputs else ()
            key_cols = values[:width]
            args = iter(values[width:])
            arg_cols = [None if call.star else next(args) for call in calls]
            if len(key_cols) == 1:
                keys = key_cols[0]
            elif key_cols:
                keys = list(zip(*key_cols))
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
                        self._accumulators(),
                    )
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
                                self._accumulators(),
                            )
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
        if gathered and _METRICS.enabled:
            _AGG_ROWS_GATHERED.inc(gathered)
        return [
            rep + tuple(accumulator.result() for accumulator in accumulators)
            for rep, accumulators in groups.values()
        ]

    def _finish(self, rows: list) -> Iterator[tuple]:
        for start in range(0, len(rows), BATCH_SIZE):
            extended_rows = rows[start:start + BATCH_SIZE]
            n = len(extended_rows)
            out_cols = [list(column) for column in zip(*extended_rows)]
            if self._having is not None:
                out_cols, n = _select(
                    out_cols, n, self._having.fn(out_cols, n)
                )
            if n:
                yield out_cols, n


def _fold_result(name: str, state):
    """A fused call's result; ``sum`` / ``avg`` sum their values exactly."""
    if name not in ("sum", "avg"):
        return state
    accumulator = make_accumulator(name, False, False)
    accumulator.add_many(state)
    return accumulator.result()


class BatchProjectOp:
    """Evaluate the select list over batches.

    Yields ``(out_cols, pre_cols, n)`` triples — the projected columns
    plus the pre-projection batch, so ORDER BY can read expressions the
    select list never projected.
    """

    def __init__(
        self,
        child: BatchOperator,
        node: LogicalProject,
        agg_slots: "dict | None",
        class_of,
    ) -> None:
        self._child = child
        self.scope = child.scope
        self.agg_slots = agg_slots or {}
        self.columns, targets = _project_targets(node, child.scope)
        self.targets = targets
        self._fused = compile_batch(
            targets, child.scope, class_of, agg_slots=self.agg_slots
        )

    def pres_batches(self) -> Iterator[tuple]:
        fn = self._fused.fn
        for cols, n in self._child.batches():
            yield fn(cols, n), cols, n


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
            for i, row in enumerate(zip(*out_cols)):
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

    def __init__(self, child, node: LogicalSort, class_of) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._key_specs = _key_specs(self, node, class_of)

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
        # stable multi-pass argsort, last key first
        for position, key_fn, descending in reversed(self._key_specs):
            key_column = (
                out_cols[position]
                if position is not None
                else key_fn(pre_cols, total)[0]
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

    Candidate rows are pruned back to the best *limit* whenever they
    outgrow a small multiple of it; entries order exactly like
    BatchSortOp's stable argsort (composite key, descending parts in
    :class:`_ReversedKey`, plus the input sequence number, so ties keep
    arrival order).  With a bare-column lead key over a scan chain, the
    worst kept key goes to the scan (:class:`_TopNBound`), whose fused
    filter drops only rows sorting strictly past it (ties stay, NULL and
    NaN first); any other shape feeds every row to the candidate set.
    """

    def __init__(self, child, node: LogicalTopN, class_of) -> None:
        self._child = child
        self.columns = child.columns
        self.scope = child.scope
        self.agg_slots = child.agg_slots
        self._limit = node.limit
        self._key_specs = _key_specs(self, node, class_of)
        #: bound-pushdown cell shared with the scan below (connected by
        #: _connect_topn_bound) and the lead key's index in pre rows
        self._bound_cell = None
        self._bound_key = 0

    def publish_bound(self, cell: _TopNBound, key_index: int) -> None:
        self._bound_cell = cell
        self._bound_key = key_index

    def pres_batches(self) -> Iterator[tuple]:
        limit = self._limit
        if limit <= 0:
            return
        cell = self._bound_cell
        if cell is not None:
            cell.armed = False  # plans re-execute; reset before pulling
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
            # batch, exactly like BatchSortOp, so
            # data-dependent errors (division by zero, type errors in a
            # sort expression) surface identically in all plans; only
            # the sort_key decoration of secondary keys and the payload
            # tuples are deferred until a row survives the bound —
            # neither of those can raise
            raw_columns = [
                out_cols[position] if position is not None
                else key_fn(pre_cols, n)[0]
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
                            lead = kept_pre[entries[-1][1]][self._bound_key]
                            # NaN sorts as NULL: publish both as None
                            cell.value = lead if lead == lead else None
                            cell.armed = True
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


def _key_specs(operator, node, class_of) -> list:
    """``(out_position, key_fn, descending)`` per ORDER BY item: a
    projected column, or a generated function over the pre-projection
    batch returning the key column (as a 1-tuple)."""
    specs = []
    for position, expr, descending in _sort_targets(node, operator.columns):
        key_fn = None
        if position is None:
            key_fn = compile_batch(
                [expr], operator.scope, class_of, agg_slots=operator.agg_slots
            ).fn
        specs.append((position, key_fn, descending))
    return specs


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


class PreparedPlan:
    """A compiled, re-executable plan (what the plan cache stores)."""

    def __init__(self, root, logical: LogicalNode, columns: list) -> None:
        self._root = root
        self.logical = logical
        self.columns = columns

    def execute(self) -> ResultSet:
        rows: list = []
        extend = rows.extend
        for out_cols, __, n in self._root.pres_batches():
            if out_cols:
                extend(zip(*out_cols))
            else:  # pragma: no cover - select lists are never empty
                extend(() for __ in range(n))
        return ResultSet(columns=list(self.columns), rows=rows)


def _no_instrument(operator, node):
    """The default ``instrument`` hook: leave the operator bare."""
    return operator


class _BuildContext:
    """Builder state: the catalog, instrumentation and the plan's
    ``(binding, column) -> value class`` map (bindings are unique
    within one plan)."""

    __slots__ = ("catalog", "instrument", "class_of")

    def __init__(self, catalog: Catalog, instrument, root) -> None:
        self.catalog = catalog
        self.instrument = instrument or _no_instrument
        self.class_of = class_of_tables({
            binding: catalog.table(name)
            for binding, name in scan_bindings(root).items()
        })


def build_physical(
    root: LogicalNode, catalog: Catalog, instrument=None
) -> PreparedPlan:
    """Compile a logical plan into a :class:`PreparedPlan`.

    *instrument* (optional) is called as ``instrument(operator, node)``
    on every physical operator right after construction, with the
    logical node it was built from, and its return value takes the
    operator's place in the tree — EXPLAIN ANALYZE passes an
    :class:`~repro.sqlengine.planner.analyze.Instrumenter` here to wrap
    each operator in a counting/timing shim.  Instrumented plans must
    not be cached; they get the same TopN bound pushdown as plain ones,
    so the per-operator numbers describe the plan that executes.

    Every expression compiles into a generated per-batch function
    (:func:`~repro.sqlengine.expressions.compile_batch`), locked to the
    reference interpreter's results and errors.
    """
    ctx = _BuildContext(catalog, instrument, root)
    operator = _build_presentation(root, ctx)
    return PreparedPlan(
        root=operator, logical=root, columns=list(operator.columns)
    )


def _unwrapped(operator):
    """*operator* without its EXPLAIN ANALYZE shim, if it has one."""
    return getattr(operator, "_inner", operator)


def _chain_parts(operator) -> "tuple | None":
    """``(scan, stages)`` when *operator* is a scan-rooted filter chain.

    A chain is a :class:`BatchScanOp` leaf under zero or more
    :class:`BatchFilterOp` stages, listed scan-first; EXPLAIN ANALYZE
    shims around them are looked through.
    """
    stages: list = []
    current = _unwrapped(operator)
    while isinstance(current, BatchFilterOp):
        stages.append(current)
        current = _unwrapped(current._child)
    if isinstance(current, BatchScanOp):
        stages.reverse()
        return current, stages
    return None


def _connect_topn_bound(
    operator: BatchTopNOp, project, node: LogicalTopN, ctx: _BuildContext
) -> None:
    """Wire TopN's worst-kept-key bound into the scan below it.

    Only when provably unobservable: the chain below must be
    project → filter* → scan over one table, the leading sort key a
    bare column of that chain's scope, and every expression a
    pre-dropped row would have skipped cannot raise, by the compiler's
    verdict — the filter stages' and the projection's
    :attr:`~repro.sqlengine.expressions.FusedBatch.safe`, and
    :func:`~repro.sqlengine.expressions.never_raises` for the secondary
    sort keys — so dropping rows the TopN bound check would discard
    anyway cannot change results or errors.  The key column needs a
    value class: the bound conjunct compares it natively (see
    ``_Fuser.gen_bound``).
    """
    project = _unwrapped(project)
    if not isinstance(project, BatchProjectOp):
        return
    parts = _chain_parts(project._child)
    if parts is None:
        return
    scan, filters = parts
    pre_scope = project.scope
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
    if key_index is None or ctx.class_of(*pre_scope.pairs[key_index]) is None:
        return
    secondary = [expr for __, expr, __d in specs[1:] if expr is not None]
    if not (
        project._fused.safe
        and all(stage._filter.safe for stage in filters)
        and never_raises(secondary, pre_scope, ctx.class_of)
    ):
        return
    cell = _TopNBound()
    operator.publish_bound(cell, key_index)
    scan.connect_bound(cell, key_index, descending)


def _build_presentation(node: LogicalNode, ctx: _BuildContext):
    """Build the presentation tree (project and above)."""
    instrument = ctx.instrument
    if isinstance(node, LogicalLimit):
        child = _build_presentation(node.child, ctx)
        return instrument(BatchLimitOp(child, node.limit), node)
    if isinstance(node, LogicalTopN):
        child = _build_presentation(node.child, ctx)
        operator = BatchTopNOp(child, node, ctx.class_of)
        _connect_topn_bound(operator, child, node, ctx)
        return instrument(operator, node)
    if isinstance(node, LogicalSort):
        child = _build_presentation(node.child, ctx)
        operator = BatchSortOp(child, node, ctx.class_of)
        return instrument(operator, node)
    if isinstance(node, LogicalDistinct):
        child = _build_presentation(node.child, ctx)
        return instrument(BatchDistinctOp(child), node)
    if isinstance(node, LogicalProject):
        child, agg_slots = _build_relational(node.child, ctx)
        operator = BatchProjectOp(child, node, agg_slots, ctx.class_of)
        return instrument(operator, node)
    raise SqlExecutionError(
        f"malformed plan: unexpected presentation node {type(node).__name__}"
    )


def _build_relational(node: LogicalNode, ctx: _BuildContext):
    """Build a relational operator; returns ``(operator, agg_slots)``."""
    catalog = ctx.catalog
    instrument = ctx.instrument
    if isinstance(node, LogicalScan):
        return instrument(BatchScanOp(catalog, node), node), None
    if isinstance(node, LogicalFilter):
        child, agg_slots = _build_relational(node.child, ctx)
        operator = BatchFilterOp(child, node.predicates, ctx.class_of)
        return instrument(operator, node), agg_slots
    if isinstance(node, LogicalJoin):
        left, __ = _build_relational(node.left, ctx)
        right, __ = _build_relational(node.right, ctx)
        return instrument(BatchHashJoinOp(left, right, node.equi), node), None
    if isinstance(node, LogicalLeftJoin):
        left, __ = _build_relational(node.left, ctx)
        right, __ = _build_relational(node.right, ctx)
        operator = BatchLeftJoinOp(
            left, right, node.condition, ctx.class_of,
            _analyze_left_join(
                node, left.scope, right.scope, catalog, ctx.class_of
            ),
        )
        return instrument(operator, node), None
    if isinstance(node, LogicalAggregate):
        child, __ = _build_relational(node.child, ctx)
        operator = BatchAggregateOp(child, node, ctx.class_of)
        return instrument(operator, node), operator.agg_slots
    raise SqlExecutionError(
        f"malformed plan: unexpected relational node {type(node).__name__}"
    )
