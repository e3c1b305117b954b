"""Table statistics and selectivity estimation for the planner.

Statistics are **maintained incrementally**.  The first time the
planner asks about a table, :class:`StatisticsProvider` builds one exact
value -> count multiset per column (a single C-speed
``collections.Counter`` pass) and registers itself as a
:class:`~repro.sqlengine.catalog.CatalogObserver`; from then on every
INSERT / UPDATE / DELETE — and every transaction rollback, which
replays inverse operations through the same mutation choke-point —
adjusts the multisets and the live histogram bins in place, in
proportion to the rows written.  The next ask folds the summaries into
a fresh immutable :class:`TableStats` in O(columns x bins); no row is
read again.  Only a column whose minimum or maximum moved is re-binned,
lazily, from its multiset (a C-speed sort of its distinct values, then
bisection for the bin edges).  The numbers are exactly
those a full pass over the rows would compute
(``tests/sqlengine/reference_stats.py`` is that pass, kept as the
oracle), so plans and ``[~N rows]`` estimates do not depend on write
history.  A table whose storage changed behind the observers (a
checkpoint restore sets ``Table.version`` directly) or that was dropped
and re-created is rebuilt from scratch on the next ask.

Estimates use classic System-R style heuristics — ``1/distinct`` for
equality, measured null fractions for IS NULL, independence across
conjuncts — refined with **equi-width histograms**: every numeric/date
column gets a :class:`Histogram` over its non-NULL values, so range
predicates (``<``, ``<=``, ``>``, ``>=``, BETWEEN) against literals are
estimated from the actual value distribution instead of a fixed
fraction, equality against a literal scales ``1/distinct`` by the
density of the bin the literal falls into (skew-aware; zero outside the
observed range), and equi-join selectivity is damped by the overlap of
the two key ranges.  Shapes the histogram cannot see (non-literal
comparisons, LIKE, TEXT columns) fall back to the flat estimates.
"""

from __future__ import annotations

import datetime
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.obs.metrics import registry as _metrics_registry
from repro.sqlengine.catalog import Catalog, CatalogObserver, Table
from repro.sqlengine.types import SqlType

#: default selectivities for predicate shapes the estimator cannot
#: inspect more precisely (same spirit as Selinger et al.'s constants)
RANGE_SELECTIVITY = 1 / 3
LIKE_SELECTIVITY = 1 / 4
DEFAULT_SELECTIVITY = 1 / 2

#: buckets per equi-width histogram (0 disables histogram collection)
HISTOGRAM_BINS = 16


def _bin_width(low: float, high: float, bins: int) -> "float | None":
    """The equi-width bin width, or None when only one bin is possible.

    One bin: a single distinct value, or a range whose width underflows
    to zero (neighbouring denormals) or overflows (both ends of the
    float range) and so cannot place a value.
    """
    width = (high - low) / bins
    return width if 0.0 < width < math.inf else None


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over a column's non-NULL orderable values.

    Values are mapped to floats before binning (``date`` via
    ``toordinal``), so one histogram shape serves numeric and date
    columns alike.
    """

    low: float
    high: float
    counts: tuple
    total: int

    @classmethod
    def build(cls, values: list, bins: int) -> "Histogram | None":
        """Bin *values* (already floats) into *bins* buckets.

        Non-finite values (NaN, +/-inf) are excluded: they have no bin
        and would poison the min/max bounds.
        """
        if bins <= 0:
            return None
        if any(not math.isfinite(value) for value in values):
            values = [value for value in values if math.isfinite(value)]
        if not values:
            return None
        low = min(values)
        high = max(values)
        width = _bin_width(low, high, bins)
        if width is None:
            return cls(low=low, high=high, counts=(len(values),),
                       total=len(values))
        counts = [0] * bins
        top = bins - 1
        for value in values:
            index = int((value - low) / width)
            counts[top if index > top else index] += 1
        return cls(low=low, high=high, counts=tuple(counts),
                   total=len(values))

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of values ``<= value`` (linear within bins)."""
        if self.total == 0 or value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        if self.low == self.high:
            return 1.0
        bins = len(self.counts)
        position = (value - self.low) / (self.high - self.low) * bins
        index = min(int(position), bins - 1)
        covered = sum(self.counts[:index])
        covered += self.counts[index] * (position - index)
        return min(1.0, covered / self.total)

    def fraction_between(self, low: float, high: float) -> float:
        """Estimated fraction of values in ``[low, high]``."""
        if high < low:
            return 0.0
        if self.low == self.high:
            return 1.0 if low <= self.low <= high else 0.0
        return max(0.0, self.fraction_below(high) - self.fraction_below(low))

    def bin_count(self, value: float) -> int:
        """Rows in the bin containing *value* (0 outside the range)."""
        if value < self.low or value > self.high:
            return 0
        bins = len(self.counts)
        if bins == 1:
            return self.total
        width = (self.high - self.low) / bins
        index = int((value - self.low) / width)
        return self.counts[min(index, bins - 1)]


@dataclass(frozen=True)
class ColumnStats:
    """Distinct/null counts plus the value histogram of one column."""

    distinct: int
    nulls: int
    histogram: "Histogram | None" = None


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics of one table."""

    row_count: int
    columns: dict

    def column(self, name: str) -> "ColumnStats | None":
        return self.columns.get(name)

    def distinct(self, name: str) -> int:
        stats = self.columns.get(name)
        if stats is None or stats.distinct == 0:
            return 1
        return stats.distinct

    def null_fraction(self, name: str) -> float:
        stats = self.columns.get(name)
        if stats is None or self.row_count == 0:
            return 0.0
        return stats.nulls / self.row_count

    def histogram(self, name: str) -> "Histogram | None":
        stats = self.columns.get(name)
        return stats.histogram if stats is not None else None


def _as_number(value) -> "float | None":
    """Map a value onto the histogram axis; None if not orderable here."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        number = float(value)
        return number if math.isfinite(number) else None
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    if isinstance(value, str):
        try:
            return float(datetime.date.fromisoformat(value.strip()).toordinal())
        except ValueError:
            return None
    return None


def _date_number(value: datetime.date) -> float:
    return float(value.toordinal())


#: the histogram axis of each binned column type; both maps are monotone,
#: so the extremes of a column's values are its extremes on the axis
_AXES = {
    SqlType.INTEGER: float,
    SqlType.REAL: float,
    SqlType.DATE: _date_number,
}


def _bump(counts: Counter, value, step: int) -> int:
    """Move *value*'s count by *step*, dropping it at zero; the new count."""
    left = counts[value] + step
    if left:
        counts[value] = left
    else:
        del counts[value]
    return left


class _ColumnSummary:
    """One column's exact value -> count multiset and live histogram bins.

    ``counts`` holds every non-NULL value except, in REAL columns, NaN
    and +/-inf, which are counted beside it: NaN has no usable dict
    identity (every NaN row is its own distinct value) and the
    infinities have no bin.  While ``stale`` is False,
    ``low`` / ``high`` / ``width`` / ``bins`` are exactly what
    :meth:`Histogram.build` computes over the column (``bins`` is None
    for an empty or unbinned column).
    """

    __slots__ = (
        "counts", "nulls", "nans", "infinite", "real", "axis",
        "low", "high", "width", "bins", "stale",
    )

    def __init__(self, sql_type: SqlType, values, nbins: int) -> None:
        counts = Counter(values)  # the only pass over the rows, at C speed
        self.nulls = counts.pop(None, 0)
        self.nans = 0
        self.infinite = Counter()
        self.real = sql_type is SqlType.REAL
        if self.real:
            for value in [v for v in counts if not math.isfinite(v)]:
                count = counts.pop(value)
                if value != value:
                    self.nans += count
                else:
                    self.infinite[value] += count
        self.counts = counts
        self.axis = _AXES.get(sql_type) if nbins else None
        self.rebin(nbins)

    def shift(self, value, step: int) -> None:
        """Count one more (``step=1``) or one fewer (``-1``) *value*."""
        if value is None:
            self.nulls += step
            return
        if self.real and not math.isfinite(value):
            if value != value:
                self.nans += step
            else:
                _bump(self.infinite, value, step)
            return
        left = _bump(self.counts, value, step)
        if self.axis is None or self.stale:
            return
        number = self.axis(value)
        bins = self.bins
        if (
            bins is None
            or number < self.low
            or number > self.high
            or (not left and (number == self.low or number == self.high))
        ):
            # an extreme moved (or may have): the bin width changes, so
            # the next table_stats call re-bins from the multiset
            self.stale = True
        elif len(bins) == 1:
            bins[0] += step
        else:
            index = int((number - self.low) / self.width)
            bins[min(index, len(bins) - 1)] += step

    def rebin(self, nbins: int) -> None:
        """Rebuild the bins from the multiset, with no row access.

        Same arithmetic as :meth:`Histogram.build`, but the bin index
        ``int((axis(v) - low) / width)`` is monotone in ``v``, so over
        the sorted distinct values each bin is one slice: its edges
        are found by bisection (O(bins x log distinct) index
        computations) and its count is a C-speed sum over the slice.
        """
        self.stale = False
        counts, axis = self.counts, self.axis
        self.bins = None
        if axis is None or not counts:
            return
        keys = sorted(counts)
        self.low = low = axis(keys[0])
        self.high = high = axis(keys[-1])
        self.width = width = _bin_width(low, high, nbins)
        if width is None:
            self.bins = [sum(counts.values())]
            return

        def index_of(value) -> int:
            return int((axis(value) - low) / width)

        edges = [0]
        for edge in range(1, nbins):
            edges.append(bisect_left(keys, edge, edges[-1], key=index_of))
        edges.append(len(keys))
        self.bins = [
            sum(map(counts.__getitem__, keys[start:stop]))
            for start, stop in zip(edges, edges[1:])
        ]

    def stats(self) -> ColumnStats:
        bins = self.bins
        return ColumnStats(
            distinct=len(self.counts) + len(self.infinite) + self.nans,
            nulls=self.nulls,
            histogram=None if bins is None else Histogram(
                low=self.low, high=self.high, counts=tuple(bins),
                total=sum(bins),
            ),
        )


class _TableSummary:
    """The column summaries of one table, in sync with ``table.version``."""

    __slots__ = ("table", "version", "columns", "stats")

    def __init__(self, table: Table, nbins: int) -> None:
        self.table = table
        self.version = table.version
        self.columns = [
            _ColumnSummary(column.sql_type, table.column_data(index), nbins)
            for index, column in enumerate(table.columns)
        ]
        #: the folded TableStats of ``version``; None after a delta
        self.stats: "TableStats | None" = None


_METRICS = _metrics_registry()
_FULL_BUILDS = _METRICS.counter("planner.stats.full_builds")
_DELTA_ROWS = _METRICS.counter("planner.stats.delta_rows")
_REBINS = _METRICS.counter("planner.stats.rebins")
_REFRESH_SECONDS = _METRICS.histogram("planner.stats.refresh.seconds")


class StatisticsProvider(CatalogObserver):
    """Incrementally maintained :class:`TableStats` for a catalog.

    The first ``table_stats`` call for a table builds its column
    summaries from the rows and registers the provider as a catalog
    observer (so bulk loads before the first plan cost nothing); every
    later insert, update, delete and rollback reaches the summaries
    through the observer callbacks, and ``table_stats`` only folds them
    into a new snapshot.  A summary is rebuilt from the rows when its
    table object or recorded version is not the live one — storage
    changed behind the observers — and forgotten on DROP TABLE.
    ``histogram_bins`` tunes the per-column equi-width histograms (0
    disables them, restoring the fixed range constants).
    """

    def __init__(
        self, catalog: Catalog, histogram_bins: int = HISTOGRAM_BINS
    ) -> None:
        self._catalog = catalog
        self._bins = max(0, histogram_bins)
        self._summaries: dict = {}  # table name -> _TableSummary

    @property
    def histogram_bins(self) -> int:
        return self._bins

    def table_stats(self, table_name: str) -> TableStats:
        table = self._catalog.table(table_name)
        # observer callbacks run inside the locked mutation methods, so
        # holding the storage lock here means the version that validates
        # a summary and the counts folded out of it belong together
        with table.read_guard():
            summary = self._summaries.get(table.name)
            fresh = (
                summary is not None
                and summary.table is table
                and summary.version == table.version
            )
            if fresh and summary.stats is not None:
                return summary.stats
            started = perf_counter()
            if not fresh:
                self._catalog.register_observer(self)  # no-op once in
                summary = _TableSummary(table, self._bins)
                self._summaries[table.name] = summary
            rebinned = 0
            columns = {}
            for column, column_summary in zip(table.columns, summary.columns):
                if column_summary.stale:
                    column_summary.rebin(self._bins)
                    rebinned += 1
                columns[column.name] = column_summary.stats()
            summary.stats = TableStats(
                row_count=len(table), columns=columns
            )
            if _METRICS.enabled:
                _FULL_BUILDS.inc(0 if fresh else 1)
                _REBINS.inc(rebinned)
                _REFRESH_SECONDS.observe(perf_counter() - started)
            return summary.stats

    # ------------------------------------------------------------------
    # CatalogObserver interface (called under the storage lock)
    # ------------------------------------------------------------------
    def _touched(self, table: Table) -> "_TableSummary | None":
        """The summary a write to *table* must update, moved to its version."""
        summary = self._summaries.get(table.name)
        if summary is not None:
            summary.version = table.version
            summary.stats = None
            if _METRICS.enabled:
                _DELTA_ROWS.inc()
        return summary

    def on_insert(self, table: Table, row: tuple) -> None:
        summary = self._touched(table)
        if summary is not None:
            for column, value in zip(summary.columns, row):
                column.shift(value, 1)

    def on_update(self, table: Table, old_row: tuple, new_row: tuple) -> None:
        summary = self._touched(table)
        if summary is not None:
            for column, old, new in zip(summary.columns, old_row, new_row):
                if old is not new and old != new:
                    column.shift(old, -1)
                    column.shift(new, 1)

    def on_delete(self, table: Table, row: tuple) -> None:
        summary = self._touched(table)
        if summary is not None:
            for column, value in zip(summary.columns, row):
                column.shift(value, -1)

    def on_drop_table(self, name: str) -> None:
        self._summaries.pop(name, None)


def predicate_selectivity(predicate: Expr, stats: TableStats) -> float:
    """Estimated fraction of rows of one table satisfying *predicate*."""
    if isinstance(predicate, Literal):
        return 1.0 if predicate.value is True else 0.0
    if isinstance(predicate, BinaryOp):
        if predicate.op == "AND":
            return predicate_selectivity(
                predicate.left, stats
            ) * predicate_selectivity(predicate.right, stats)
        if predicate.op == "OR":
            left = predicate_selectivity(predicate.left, stats)
            right = predicate_selectivity(predicate.right, stats)
            return min(1.0, left + right - left * right)
        if predicate.op in ("=", "<>"):
            column = _single_column(predicate)
            if column is not None:
                equality = _equality_selectivity(predicate, column, stats)
                return equality if predicate.op == "=" else 1.0 - equality
            return DEFAULT_SELECTIVITY
        if predicate.op in ("<", "<=", ">", ">="):
            estimate = _range_selectivity(predicate, stats)
            return estimate if estimate is not None else RANGE_SELECTIVITY
        return DEFAULT_SELECTIVITY
    if isinstance(predicate, UnaryOp) and predicate.op == "NOT":
        return 1.0 - predicate_selectivity(predicate.operand, stats)
    if isinstance(predicate, Like):
        inside = LIKE_SELECTIVITY
        return 1.0 - inside if predicate.negated else inside
    if isinstance(predicate, InList):
        column = _in_list_column(predicate)
        if column is not None:
            inside = min(1.0, len(predicate.items) / stats.distinct(column))
        else:
            inside = DEFAULT_SELECTIVITY
        return 1.0 - inside if predicate.negated else inside
    if isinstance(predicate, Between):
        inside = _between_selectivity(predicate, stats)
        if inside is None:
            inside = RANGE_SELECTIVITY
        return 1.0 - inside if predicate.negated else inside
    if isinstance(predicate, IsNull):
        refs = [predicate.operand] if isinstance(predicate.operand, ColumnRef) else []
        if refs:
            fraction = stats.null_fraction(refs[0].column)
            return 1.0 - fraction if predicate.negated else fraction
        return DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _equality_selectivity(
    predicate: BinaryOp, column: str, stats: TableStats
) -> float:
    """Histogram-aware estimate for ``col = literal``.

    The classic ``1/distinct`` assumes every value is equally frequent;
    with a histogram, the estimate uses the *density of the bin the
    literal falls into* instead: the bin's row count divided by the
    expected number of distinct values per bin (distinct values assumed
    evenly spread over the bins).  Hot values in skewed columns
    estimate proportionally higher, values in sparse bins lower, and a
    literal outside the observed range estimates zero.  Without a
    histogram (TEXT/BOOLEAN columns, or ``histogram_bins=0``) the flat
    ``1/distinct`` path is unchanged.
    """
    flat = 1.0 / stats.distinct(column)
    shape = _column_literal(predicate)
    if shape is None:
        return flat
    histogram = stats.histogram(column)
    number = _as_number(shape[2])
    if histogram is None or number is None or stats.row_count == 0:
        return flat
    in_bin = histogram.bin_count(number)
    if in_bin == 0:
        return 0.0
    distinct_per_bin = max(
        1.0, stats.distinct(column) / len(histogram.counts)
    )
    estimate = in_bin / distinct_per_bin / stats.row_count
    return max(0.0, min(1.0, estimate))


def _range_selectivity(
    predicate: BinaryOp, stats: TableStats
) -> "float | None":
    """Histogram estimate for ``col <op> literal``; None without one."""
    shape = _column_literal(predicate)
    if shape is None:
        return None
    column, op, value = shape
    histogram = stats.histogram(column)
    number = _as_number(value)
    if histogram is None or number is None or stats.row_count == 0:
        return None
    below = histogram.fraction_below(number)
    if op in ("<", "<="):
        inside = below
    else:
        inside = 1.0 - below
    # rows with NULL in the column never satisfy a comparison
    non_null = histogram.total / stats.row_count
    return max(0.0, min(1.0, inside * non_null))


def _between_selectivity(
    predicate: Between, stats: TableStats
) -> "float | None":
    if not isinstance(predicate.operand, ColumnRef):
        return None
    if not (
        isinstance(predicate.low, Literal)
        and isinstance(predicate.high, Literal)
    ):
        return None
    histogram = stats.histogram(predicate.operand.column)
    low = _as_number(predicate.low.value)
    high = _as_number(predicate.high.value)
    if histogram is None or low is None or high is None or stats.row_count == 0:
        return None
    inside = histogram.fraction_between(low, high)
    non_null = histogram.total / stats.row_count
    return max(0.0, min(1.0, inside * non_null))


def _single_column(predicate: BinaryOp) -> "str | None":
    """The column name of a ``col <op> literal`` comparison, if that shape."""
    left, right = predicate.left, predicate.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.column
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return right.column
    return None


def _column_literal(predicate: BinaryOp) -> "tuple | None":
    """``(column, op, literal value)`` with the column on the left."""
    left, right = predicate.left, predicate.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.column, predicate.op, right.value
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return (
            right.column,
            flipped.get(predicate.op, predicate.op),
            left.value,
        )
    return None


def _in_list_column(predicate: InList) -> "str | None":
    if isinstance(predicate.operand, ColumnRef):
        return predicate.operand.column
    return None


def join_selectivity(
    left_stats: TableStats, left_column: str, right_stats: TableStats, right_column: str
) -> float:
    """Equi-join selectivity: ``1 / max(distinct)``, damped by overlap.

    When both join keys carry histograms, the classic estimate is
    multiplied by the fraction of each side's values falling inside the
    other side's range — disjoint key ranges estimate (near) zero
    matches, partially overlapping ranges shrink proportionally, and
    fully nested ranges reduce to the classic formula.
    """
    base = 1.0 / max(
        left_stats.distinct(left_column), right_stats.distinct(right_column), 1
    )
    left_hist = left_stats.histogram(left_column)
    right_hist = right_stats.histogram(right_column)
    if (
        left_hist is None
        or right_hist is None
        or left_hist.total == 0
        or right_hist.total == 0
    ):
        return base
    low = max(left_hist.low, right_hist.low)
    high = min(left_hist.high, right_hist.high)
    if high < low:
        return 0.0
    overlap = left_hist.fraction_between(low, high) * right_hist.fraction_between(
        low, high
    )
    return base * max(0.0, min(1.0, overlap))
