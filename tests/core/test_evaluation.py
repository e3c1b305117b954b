"""Tests for precision/recall evaluation against gold standards."""

import pytest

from repro.core.evaluation import (
    PrecisionRecall,
    compare_results,
    evaluate_sql,
    match_columns,
    normalize_value,
)
from repro.errors import EvaluationError
from repro.sqlengine.database import Database
from repro.sqlengine.results import ResultSet


def rs(columns, rows):
    return ResultSet(columns=list(columns), rows=[tuple(r) for r in rows])


class TestColumnMatching:
    def test_exact_label_match(self):
        pairs = match_columns(["a", "b"], ["b"])
        assert pairs == [(1, 0)]

    def test_case_insensitive(self):
        assert match_columns(["A"], ["a"]) == [(0, 0)]

    def test_suffix_match_qualified_vs_bare(self):
        pairs = match_columns(["individuals.family_nm"], ["family_nm"])
        assert pairs == [(0, 0)]

    def test_suffix_match_requires_uniqueness(self):
        # two columns with suffix 'id' on the SODA side: no suffix match
        pairs = match_columns(["parties.id", "individuals.id"], ["id"])
        assert pairs == []

    def test_exact_beats_suffix(self):
        pairs = match_columns(
            ["parties.id", "individuals.id"], ["individuals.id"]
        )
        assert pairs == [(1, 0)]

    def test_no_overlap(self):
        assert match_columns(["a"], ["b"]) == []


class TestCompareResults:
    def test_identical_results(self):
        a = rs(["x"], [(1,), (2,)])
        metrics = compare_results(a, [rs(["x"], [(1,), (2,)])])
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_subset_high_precision_low_recall(self):
        soda = rs(["x"], [(1,)])
        gold = rs(["x"], [(1,), (2,), (3,), (4,), (5,)])
        metrics = compare_results(soda, [gold])
        assert metrics.precision == 1.0
        assert metrics.recall == pytest.approx(0.2)

    def test_superset_low_precision_full_recall(self):
        soda = rs(["x"], [(1,), (2,), (3,), (4,)])
        gold = rs(["x"], [(1,), (2,)])
        metrics = compare_results(soda, [gold])
        assert metrics.precision == 0.5
        assert metrics.recall == 1.0

    def test_no_common_columns_is_zero(self):
        metrics = compare_results(rs(["a"], [(1,)]), [rs(["b"], [(1,)])])
        assert metrics.is_zero

    def test_projection_onto_common_columns(self):
        soda = rs(["parties.id", "individuals.family_nm"], [(1, "Meier")])
        gold = rs(["family_nm"], [("Meier",), ("Huber",)])
        metrics = compare_results(soda, [gold])
        assert metrics.precision == 1.0
        assert metrics.recall == 0.5

    def test_duplicates_collapse(self):
        soda = rs(["x"], [(1,), (1,), (1,)])
        gold = rs(["x"], [(1,)])
        metrics = compare_results(soda, [gold])
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_multi_statement_gold_union_recall(self):
        soda = rs(["family_nm", "org_nm"], [("Meier", "CS")])
        gold1 = rs(["family_nm"], [("Meier",), ("Huber",)])
        gold2 = rs(["org_nm"], [("CS",), ("UBS",)])
        metrics = compare_results(soda, [gold1, gold2])
        # one of two covered in each statement
        assert metrics.recall == pytest.approx(0.5)
        assert metrics.precision == 1.0

    def test_multi_statement_gold_precision_requires_all(self):
        soda = rs(["family_nm", "org_nm"], [("Meier", "OLD-NAME")])
        gold1 = rs(["family_nm"], [("Meier",)])
        gold2 = rs(["org_nm"], [("CS",)])
        metrics = compare_results(soda, [gold1, gold2])
        assert metrics.precision == 0.0

    def test_empty_soda_vs_nonempty_gold(self):
        metrics = compare_results(rs(["x"], []), [rs(["x"], [(1,)])])
        assert metrics.is_zero

    def test_empty_both_is_perfect(self):
        metrics = compare_results(rs(["x"], []), [rs(["x"], [])])
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_no_gold_raises(self):
        with pytest.raises(EvaluationError):
            compare_results(rs(["x"], []), [])

    def test_numeric_normalisation(self):
        soda = rs(["n"], [(2,)])
        gold = rs(["n"], [(2.0,)])
        metrics = compare_results(soda, [gold])
        assert metrics.precision == 1.0

    def test_date_normalisation(self):
        import datetime

        assert normalize_value(datetime.date(2010, 1, 1)) == "2010-01-01"


class TestEvaluateSql:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (id INT, name TEXT)")
        database.execute(
            "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')"
        )
        return database

    def test_end_to_end(self, db):
        metrics = evaluate_sql(
            db,
            "SELECT id FROM t WHERE id < 3",
            ["SELECT id FROM t"],
        )
        assert metrics.precision == 1.0
        assert metrics.recall == pytest.approx(2 / 3)

    def test_estimated_rows_short_circuit(self, db):
        metrics = evaluate_sql(
            db,
            "SELECT id FROM t",
            ["SELECT id FROM t"],
            estimated_rows=10_000_000,
            max_rows=100,
        )
        assert metrics.is_zero
        assert metrics.gold_rows == 3

    def test_properties(self):
        assert PrecisionRecall(1.0, 0.2, 1, 5).is_positive
        assert PrecisionRecall(0.0, 0.0, 0, 5).is_zero
        assert not PrecisionRecall(1.0, 0.0, 1, 5).is_positive
