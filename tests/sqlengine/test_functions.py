"""Direct tests for the aggregate accumulators."""

import math

import pytest

from repro.errors import SqlExecutionError, SqlTypeError
from repro.sqlengine.functions import (
    AvgAccumulator,
    CountAccumulator,
    MaxAccumulator,
    MinAccumulator,
    SumAccumulator,
    make_accumulator,
)


class TestCount:
    def test_counts_non_null(self):
        acc = CountAccumulator()
        for value in (1, None, 2, None):
            acc.add(value)
        assert acc.result() == 2

    def test_star_counts_everything(self):
        acc = CountAccumulator(count_nulls=True)
        for value in (1, None, None):
            acc.add(value)
        assert acc.result() == 3

    def test_distinct(self):
        acc = CountAccumulator(distinct=True)
        for value in (1, 1, 2, 2, 2):
            acc.add(value)
        assert acc.result() == 2


class TestSum:
    def test_sum(self):
        acc = SumAccumulator()
        for value in (1, 2.5, None):
            acc.add(value)
        assert acc.result() == 3.5

    def test_empty_is_null(self):
        assert SumAccumulator().result() is None

    def test_distinct(self):
        acc = SumAccumulator(distinct=True)
        for value in (5, 5, 3):
            acc.add(value)
        assert acc.result() == 8

    def test_non_number_raises(self):
        with pytest.raises(SqlTypeError):
            SumAccumulator().add("x")

    def test_bool_raises(self):
        with pytest.raises(SqlTypeError):
            SumAccumulator().add(True)


class TestAvg:
    def test_avg(self):
        acc = AvgAccumulator()
        for value in (2, 4, None):
            acc.add(value)
        assert acc.result() == 3.0

    def test_empty_is_null(self):
        assert AvgAccumulator().result() is None

    def test_distinct(self):
        acc = AvgAccumulator(distinct=True)
        for value in (2, 2, 4):
            acc.add(value)
        assert acc.result() == 3.0

    def test_non_number_raises(self):
        with pytest.raises(SqlTypeError):
            AvgAccumulator().add("x")


class TestMinMax:
    def test_min_max(self):
        low, high = MinAccumulator(), MaxAccumulator()
        for value in (3, None, 1, 2):
            low.add(value)
            high.add(value)
        assert low.result() == 1
        assert high.result() == 3

    def test_strings_supported(self):
        acc = MinAccumulator()
        for value in ("pear", "apple"):
            acc.add(value)
        assert acc.result() == "apple"

    def test_empty_is_null(self):
        assert MinAccumulator().result() is None
        assert MaxAccumulator().result() is None


class TestBulkMatchesSerial:
    """``add_many`` / ``add_repeat`` feed whole batch slices; however the
    values are sliced, the result must equal the ``add`` sequence."""

    VALUES = [1, 2.5, -0.0, 10**20, 0.1, None, 7, None, 1e-300, 2.5, 1]

    @staticmethod
    def _serial(name, star, distinct, values):
        acc = make_accumulator(name, star, distinct)
        for value in values:
            acc.add(value)
        return acc.result()

    @staticmethod
    def _sliced(name, star, distinct, values, width):
        acc = make_accumulator(name, star, distinct)
        for start in range(0, len(values), width):
            acc.add_many(values[start:start + width])
        return acc.result()

    @pytest.mark.parametrize(
        "name, star, distinct",
        [
            ("count", False, False),
            ("count", True, False),
            ("count", False, True),
            ("sum", False, False),
            ("sum", False, True),
            ("avg", False, False),
            ("avg", False, True),
            ("min", False, False),
            ("max", False, False),
        ],
        ids=[
            "count", "count_star", "count_distinct", "sum", "sum_distinct",
            "avg", "avg_distinct", "min", "max",
        ],
    )
    def test_add_many_in_slices_matches_serial_add(self, name, star, distinct):
        expected = self._serial(name, star, distinct, self.VALUES)
        for width in (1, 2, 3, len(self.VALUES)):
            got = self._sliced(name, star, distinct, self.VALUES, width)
            assert repr(got) == repr(expected), width

    @pytest.mark.parametrize("name", ["sum", "avg"])
    def test_non_finite_addends_in_slices(self, name):
        values = [1.0, math.inf, None, 2.0, -math.inf, 3.0]
        for width in (1, 2, 4):
            got = self._sliced(name, False, False, values, width)
            assert math.isnan(got), width
        assert self._sliced(name, False, False, [1.0, math.inf], 1) == math.inf

    def test_negative_zero_sum_survives_slicing(self):
        values = [-0.0, None, -0.0, -0.0]
        for width in (1, 2, 4):
            assert repr(self._sliced("sum", False, False, values, width)) \
                == "-0.0"
        # one +0.0 anywhere makes the exact sum +0.0
        assert repr(self._sliced("sum", False, False, values + [0.0], 2)) \
            == "0.0"

    @pytest.mark.parametrize(
        "name, after, expected", [("min", 3.0, 3.0), ("max", 7.0, 7.0)]
    )
    def test_nan_after_the_first_slice_folds_from_the_running_best(
        self, name, after, expected
    ):
        # a slice opening with NaN: folded from its own first value it
        # stays NaN (NaN compares false both ways) and hides the value
        # behind it; folded from the running best it is the add rule
        values = [5.0, 5.0, math.nan, after, None]
        assert self._serial(name, False, False, values) == expected
        for width in (1, 2, len(values)):
            got = self._sliced(name, False, False, values, width)
            assert repr(got) == repr(expected), width

    def test_distinct_count_across_slices_counts_the_union(self):
        acc = make_accumulator("count", False, True)
        acc.add_many(["a", "b"])
        acc.add_many(["b", "c", None])
        assert acc.result() == 3

    @pytest.mark.parametrize("name", ["sum", "avg"])
    def test_bulk_type_errors_match_serial(self, name):
        for bad in ("x", True):
            with pytest.raises(SqlTypeError):
                make_accumulator(name, False, False).add_many([1, None, bad])

    @pytest.mark.parametrize(
        "name, star",
        [("count", True), ("count", False), ("sum", False), ("avg", False)],
        ids=["count_star", "count", "sum", "avg"],
    )
    def test_add_repeat_matches_repeated_add_one(self, name, star):
        expected = self._serial(name, star, False, [1] * 5)
        acc = make_accumulator(name, star, False)
        acc.add_repeat(2)
        acc.add_repeat(3)
        assert repr(acc.result()) == repr(expected)


class TestFactory:
    @pytest.mark.parametrize("name", ["count", "sum", "avg", "min", "max"])
    def test_known_aggregates(self, name):
        acc = make_accumulator(name, star=False, distinct=False)
        acc.add(1)
        assert acc.result() is not None

    def test_count_star(self):
        acc = make_accumulator("count", star=True, distinct=False)
        acc.add(None)
        assert acc.result() == 1

    def test_unknown_raises(self):
        with pytest.raises(SqlExecutionError):
            make_accumulator("median", star=False, distinct=False)


class TestMinMaxAcrossBatchesInSql:
    """The accumulator bug as SQL: 1024 rows of ``(1, 5.0)`` fill the
    first batch, then ``(1, NaN)`` opens the second and ``(1, 3.0)``
    follows.  Both aggregate paths must answer the row-at-a-time rule."""

    QUERIES = [
        # fused into the scan's row loop
        ("SELECT g, min(r), max(r) FROM t GROUP BY g", True, (1, 3.0, 5.0)),
        ("SELECT min(r), max(r) FROM t WHERE g = 1", True, (3.0, 5.0)),
        # the batch path: HAVING and DISTINCT keep their accumulators, an
        # unfiltered global aggregate feeds them whole columns
        ("SELECT min(r), max(r) FROM t", False, (3.0, 5.0)),
        ("SELECT g, min(r), max(r) FROM t GROUP BY g HAVING count(*) > 0",
         False, (1, 3.0, 5.0)),
        ("SELECT min(r), max(r), count(DISTINCT g) FROM t", False,
         (3.0, 5.0, 1)),
    ]

    @pytest.mark.parametrize("sql, fused, expected", QUERIES)
    def test_matches_the_reference(self, sql, fused, expected):
        from repro.obs.metrics import registry
        from repro.sqlengine.database import Database
        from tests.sqlengine.reference_engine import reference_execute

        db = Database()
        db.execute("CREATE TABLE t (g INT, r REAL)")
        db.insert_rows("t", [(1, 5.0)] * 1024 + [(1, math.nan), (1, 3.0)])
        gathered = registry().counter("engine.agg_rows_gathered")
        before = gathered.value
        rows = db.execute(sql).rows
        assert (gathered.value == before) is fused
        assert rows == [expected]
        assert repr(rows) == repr(reference_execute(db, sql).rows)
