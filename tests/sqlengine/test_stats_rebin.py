"""Re-binning a histogram sorts the distinct values instead of looping.

``_ColumnSummary.rebin`` finds each bin's edge in the sorted distinct
values by bisection, because the bin index ``int((axis(v) - low) /
width)`` never decreases as ``v`` grows, and sums each bin's slice of
the multiset at C speed.  Locks, with counts:

* the histogram axis is called at most ``nbins * (ceil(log2 d) + 1) + 2``
  times per re-bin of ``d`` distinct values (a per-value loop calls it
  ``d + 2`` times);
* the result equals the full-pass oracle (``reference_stats.py``) on
  the multisets where float arithmetic is least forgiving.
"""

import datetime
import math

import pytest

from reference_stats import reference_table_stats
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner.stats import (
    HISTOGRAM_BINS,
    Histogram,
    _ColumnSummary,
)
from repro.sqlengine.types import SqlType

DAY = datetime.date(2001, 3, 4)

MULTISETS = {
    "ints_above_2_53": ("INT", [2**53 + k for k in range(0, 900, 3)]
                        + [2**60, 2**53 + 1, 2**53 + 1, -(2**62)]),
    "negatives": ("INT", [-k * k for k in range(400)] + [-5] * 9),
    "signed_zeros": ("REAL", [-0.0, 0.0, 0.0, -0.0, 1.5, -2.5, None]
                     + [k / 7 for k in range(-60, 60)]),
    "subnormals": ("REAL", [5e-324 * k for k in range(1, 300)] + [0.0]),
    "wide_subnormals": ("REAL", [5e-324, 1e-310, 2.2e-308, 0.0, -5e-324]),
    "dates": ("DATE", [DAY + datetime.timedelta(days=k * k % 4001)
                       for k in range(300)] + [None]),
    "one_value": ("INT", [7] * 40 + [None] * 3),
    "bin_edges": ("INT", list(range(17)) * 3),
    "real_bin_edges": ("REAL", [k * 0.1 for k in range(161)] * 2),
}


def _db(sql_type: str, values: list) -> Database:
    db = Database(config=EngineConfig())
    db.create_table("t", [("v", sql_type)])
    db.insert_rows("t", [(value,) for value in values])
    return db


@pytest.mark.parametrize("name", sorted(MULTISETS))
def test_rebin_equals_the_full_pass(name):
    sql_type, values = MULTISETS[name]
    db = _db(sql_type, values)
    table = db.table("t")
    provider = db.planner.statistics
    assert provider.table_stats("t") == reference_table_stats(table)
    # move both extremes: the next ask re-bins from the multiset
    low, high = min(v for v in values if v is not None), max(
        v for v in values if v is not None
    )
    if sql_type == "DATE":
        extra = [low - datetime.timedelta(3), high + datetime.timedelta(1)]
    else:
        extra = [low - 3, high * 2 + 1]
    db.insert_rows("t", [(value,) for value in extra])
    table.delete_positions([0, 1])
    assert provider.table_stats("t") == reference_table_stats(table)


def test_one_bin_edge_per_bisection():
    values = [k * 3 + (k % 5) for k in range(5000)]
    summary = _ColumnSummary(SqlType.INTEGER, values, HISTOGRAM_BINS)
    calls = []
    axis = summary.axis

    def counting(value):
        calls.append(value)
        return axis(value)

    summary.axis = counting
    summary.rebin(HISTOGRAM_BINS)
    distinct = len(set(values))
    assert len(calls) <= (
        HISTOGRAM_BINS * (math.ceil(math.log2(distinct)) + 1) + 2
    )
    expected = Histogram.build([float(v) for v in values], HISTOGRAM_BINS)
    assert tuple(summary.bins) == expected.counts
    assert (summary.low, summary.high) == (expected.low, expected.high)
