"""Histogram-based selectivity: accurate range estimates on skewed data.

The fixed Selinger constant (RANGE_SELECTIVITY = 1/3) misjudges skewed
columns badly; the equi-width histograms make range-filter cardinality
track the actual value distribution, which flips greedy join ordering
to the genuinely smaller side.
"""

import pytest

from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import lower_select, optimize_plan, render_plan
from repro.sqlengine.planner.stats import (
    HISTOGRAM_BINS,
    Histogram,
    RANGE_SELECTIVITY,
    StatisticsProvider,
    join_selectivity,
    predicate_selectivity,
)


@pytest.fixture
def skewed_db():
    """1000-row table whose `x` is 99% small values, 1% outliers."""
    db = Database()
    db.create_table("skewed", [("id", "INT"), ("x", "INT")],
                    primary_key=["id"])
    db.create_table("dim", [("id", "INT"), ("note", "TEXT")],
                    primary_key=["id"])
    db.insert_rows(
        "skewed",
        [(i, i % 100) for i in range(990)]
        + [(990 + i, 900 + 10 * i) for i in range(10)],
    )
    db.insert_rows("dim", [(i, f"note {i}") for i in range(100)])
    return db


class TestHistogram:
    def test_uniform_fraction_below(self):
        histogram = Histogram.build([float(i) for i in range(100)], bins=16)
        assert histogram.total == 100
        assert histogram.fraction_below(-1.0) == 0.0
        assert histogram.fraction_below(99.0) == 1.0
        assert abs(histogram.fraction_below(49.5) - 0.5) < 0.05

    def test_single_value_column(self):
        histogram = Histogram.build([5.0] * 40, bins=16)
        assert histogram.counts == (40,)
        assert histogram.fraction_below(5.0) == 1.0
        assert histogram.fraction_below(4.9) == 0.0

    @pytest.mark.parametrize(
        "values", [[0.0, 5e-324], [-1.7e308, 0.0, 1.7e308]]
    )
    def test_unbinnable_range_is_one_bin(self, values):
        # a bin width that underflows to 0 or overflows to inf used to
        # raise ZeroDivisionError / ValueError while planning
        histogram = Histogram.build(values, bins=16)
        assert histogram.counts == (len(values),)
        assert histogram.bin_count(values[0]) == len(values)
        db = Database()
        db.execute("CREATE TABLE t (r REAL)")
        db.insert_rows("t", [(value,) for value in values])
        stats = StatisticsProvider(db.catalog)
        assert stats.table_stats("t").column("r").histogram == histogram
        db.insert_rows("t", [(values[0],)])  # maintained, not rebuilt
        assert stats.table_stats("t").column("r").histogram.counts == (
            len(values) + 1,
        )

    def test_fraction_between_clamps(self):
        histogram = Histogram.build([float(i) for i in range(100)], bins=16)
        assert histogram.fraction_between(200.0, 100.0) == 0.0
        assert abs(histogram.fraction_between(0.0, 99.0) - 1.0) < 1e-9

    def test_empty_and_disabled(self):
        assert Histogram.build([], bins=16) is None
        assert Histogram.build([1.0], bins=0) is None


class TestRangeSelectivity:
    def test_skewed_tail_estimated_small(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        predicate = parse_select("SELECT * FROM skewed WHERE x > 900").where
        estimate = predicate_selectivity(predicate, stats)
        # the tail is 1% of rows; the fixed constant would say 33%
        assert estimate < 0.05
        assert estimate > 0.0

    def test_disabled_histograms_fall_back_to_constant(self, skewed_db):
        provider = StatisticsProvider(skewed_db.catalog, histogram_bins=0)
        stats = provider.table_stats("skewed")
        predicate = parse_select("SELECT * FROM skewed WHERE x > 900").where
        assert predicate_selectivity(predicate, stats) == RANGE_SELECTIVITY

    def test_between_uses_histogram(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        predicate = parse_select(
            "SELECT * FROM skewed WHERE x BETWEEN 900 AND 1000"
        ).where
        assert predicate_selectivity(predicate, stats) < 0.05

    def test_null_fraction_scales_estimate(self):
        db = Database()
        db.create_table("t", [("x", "INT")])
        db.insert_rows("t", [(i,) for i in range(50)] + [(None,)] * 50)
        stats = StatisticsProvider(db.catalog).table_stats("t")
        predicate = parse_select("SELECT * FROM t WHERE x >= 0").where
        # every non-NULL value matches, but NULL rows never do
        estimate = predicate_selectivity(predicate, stats)
        assert abs(estimate - 0.5) < 0.05

    def test_literal_on_left_is_flipped(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        predicate = parse_select("SELECT * FROM skewed WHERE 900 < x").where
        assert predicate_selectivity(predicate, stats) < 0.05


class TestEqualitySelectivity:
    """Histogram-aware ``col = literal``: bin density beats 1/distinct."""

    def test_hot_value_estimated_above_flat(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        # x = 50 sits among the 99% of rows packed into [0, 100): its
        # bin is dense, so the estimate must exceed the flat 1/distinct
        predicate = parse_select("SELECT * FROM skewed WHERE x = 50").where
        estimate = predicate_selectivity(predicate, stats)
        flat = 1.0 / stats.distinct("x")
        assert estimate > flat

    def test_sparse_tail_value_estimated_below_flat(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        predicate = parse_select("SELECT * FROM skewed WHERE x = 950").where
        estimate = predicate_selectivity(predicate, stats)
        flat = 1.0 / stats.distinct("x")
        assert 0.0 < estimate < flat

    def test_literal_outside_range_estimates_zero(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        predicate = parse_select("SELECT * FROM skewed WHERE x = 5000").where
        assert predicate_selectivity(predicate, stats) == 0.0

    def test_inequality_is_complement(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("skewed")
        equal = parse_select("SELECT * FROM skewed WHERE x = 50").where
        not_equal = parse_select("SELECT * FROM skewed WHERE x <> 50").where
        assert abs(
            predicate_selectivity(not_equal, stats)
            + predicate_selectivity(equal, stats)
            - 1.0
        ) < 1e-9

    def test_disabled_histograms_keep_flat_estimate(self, skewed_db):
        provider = StatisticsProvider(skewed_db.catalog, histogram_bins=0)
        stats = provider.table_stats("skewed")
        predicate = parse_select("SELECT * FROM skewed WHERE x = 50").where
        assert predicate_selectivity(predicate, stats) == (
            1.0 / stats.distinct("x")
        )

    def test_text_columns_keep_flat_estimate(self, skewed_db):
        stats = StatisticsProvider(skewed_db.catalog).table_stats("dim")
        predicate = parse_select(
            "SELECT * FROM dim WHERE note = 'note 7'"
        ).where
        assert predicate_selectivity(predicate, stats) == (
            1.0 / stats.distinct("note")
        )


class TestJoinSelectivity:
    def test_disjoint_key_ranges_estimate_zero(self):
        db = Database()
        db.create_table("a", [("k", "INT")])
        db.create_table("b", [("k", "INT")])
        db.insert_rows("a", [(i,) for i in range(100)])
        db.insert_rows("b", [(i,) for i in range(1000, 1100)])
        provider = StatisticsProvider(db.catalog)
        assert join_selectivity(
            provider.table_stats("a"), "k", provider.table_stats("b"), "k"
        ) == 0.0

    def test_full_overlap_matches_classic_estimate(self):
        db = Database()
        db.create_table("a", [("k", "INT")])
        db.create_table("b", [("k", "INT")])
        db.insert_rows("a", [(i,) for i in range(100)])
        db.insert_rows("b", [(i,) for i in range(100)])
        provider = StatisticsProvider(db.catalog)
        estimate = join_selectivity(
            provider.table_stats("a"), "k", provider.table_stats("b"), "k"
        )
        assert abs(estimate - 1 / 100) < 1e-3


class TestJoinOrderOnSkewedData:
    SQL = (
        "SELECT d.note FROM skewed s, dim d "
        "WHERE s.id = d.id AND s.x > 900"
    )

    def _plan(self, db, provider):
        logical = lower_select(db.catalog, parse_select(self.SQL))
        return render_plan(optimize_plan(logical, db.catalog, provider))

    def test_histograms_start_from_filtered_skewed_table(self, skewed_db):
        plan = self._plan(
            skewed_db,
            StatisticsProvider(skewed_db.catalog,
                               histogram_bins=HISTOGRAM_BINS),
        )
        # skewed shrinks to ~10 rows under the filter: build from it and
        # hash-join dim (100 rows) into it
        assert "hash join d on" in plan

    def test_fixed_constant_picks_the_wrong_side(self, skewed_db):
        plan = self._plan(
            skewed_db, StatisticsProvider(skewed_db.catalog, histogram_bins=0)
        )
        # 1/3 of 1000 rows looks bigger than dim's 100 rows, so the
        # greedy order starts from dim instead
        assert "hash join s on" in plan
