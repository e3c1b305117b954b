"""The full-table statistics pass, kept as the oracle for ``StatisticsProvider``.

This is the gather loop as it ran inside ``StatisticsProvider.table_stats``
before statistics were maintained incrementally: walk every column of the
live table, collect a ``set`` of the non-NULL values, a ``numbers`` list
for the binned types and a NULL count, and hand the numbers to the
still-public :meth:`Histogram.build`.  It shares nothing with the
multiset summaries in ``planner/stats.py``, so dataclass equality between
the two is the exactness argument of the incremental path.

One caveat the oracle inherits from ``set``: NaN compares unequal to
itself, so ``set`` tells NaNs apart by *object identity*.  The provider
counts every NaN row as its own distinct value, which is what this pass
computes whenever NaN objects are not shared between rows (always after
a checkpoint reload, which decodes fresh floats).  Tests that compare against it insert one NaN object per row.
"""

from __future__ import annotations

from repro.sqlengine.planner.stats import (
    HISTOGRAM_BINS,
    ColumnStats,
    Histogram,
    TableStats,
)
from repro.sqlengine.types import SqlType


def reference_table_stats(table, bins: int = HISTOGRAM_BINS) -> TableStats:
    """``TableStats`` of *table* from one pass over its rows."""
    bins = max(0, bins)
    with table.read_guard():
        columns: dict = {}
        for index, column in enumerate(table.columns):
            values = set()
            numbers: list = []
            nulls = 0
            # histograms are collected type-directed: numeric columns
            # map straight onto the axis, DATE columns via toordinal;
            # TEXT/BOOLEAN columns carry no histogram (so the histogram
            # total is exactly the column's non-NULL count)
            is_date = column.sql_type is SqlType.DATE
            binned = bins and (
                is_date
                or column.sql_type in (SqlType.INTEGER, SqlType.REAL)
            )
            for value in table.column_data(index):
                if value is None:
                    nulls += 1
                    continue
                values.add(value)
                if binned:
                    numbers.append(
                        float(value.toordinal()) if is_date else float(value)
                    )
            columns[column.name] = ColumnStats(
                distinct=len(values),
                nulls=nulls,
                histogram=Histogram.build(numbers, bins),
            )
        return TableStats(row_count=len(table.rows), columns=columns)
