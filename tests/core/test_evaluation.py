"""Tests for precision/recall evaluation against gold standards."""

import datetime

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
        assert normalize_value(datetime.date(2010, 1, 1)) == "2010-01-01"

    def test_real_values_rounded_to_nine_places(self):
        # 0.1 + 0.2 is 0.30000000000000004: only the rounding makes it 0.3
        soda = rs(["n"], [(0.1 + 0.2,)])
        metrics = compare_results(soda, [rs(["n"], [(0.3,)])])
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_date_column_compares_as_iso_text(self):
        soda = rs(["d"], [(datetime.date(2010, 1, 1),), (None,)])
        metrics = compare_results(soda, [rs(["d"], [("2010-01-01",)])])
        assert metrics.precision == 0.5 and metrics.recall == 1.0

    def test_column_mixing_date_and_string_normalised_per_value(self):
        # the rule is picked from every non-NULL type, not the first one:
        # the date still becomes ISO text next to a string
        for order in (1, -1):
            values = [("x",), (None,), (datetime.date(2010, 1, 1),)][::order]
            metrics = compare_results(
                rs(["d"], values), [rs(["d"], [("2010-01-01",)])]
            )
            assert metrics.precision == pytest.approx(1 / 3)
            assert metrics.recall == 1.0

    def test_bool_column_kept_and_equal_to_numbers(self):
        soda = rs(["b"], [(True,), (False,)])
        metrics = compare_results(soda, [rs(["b"], [(1,), (0.0,)])])
        assert metrics.precision == 1.0 and metrics.recall == 1.0


class TestEvaluateSql:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (id INT, name TEXT)")
        database.execute(
            "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'a')"
        )
        return database

    def test_end_to_end(self, db):
        metrics = evaluate_sql(
            db,
            "SELECT id FROM t WHERE id < 3",
            [db.execute("SELECT id FROM t WHERE id < 4")],
        )
        assert metrics.precision == 1.0
        assert metrics.recall == pytest.approx(2 / 3)

    def test_estimated_rows_short_circuit(self, db):
        metrics = evaluate_sql(
            db,
            "SELECT id FROM t",
            [db.execute("SELECT id FROM t")],
            estimated_rows=10_000_000,
            max_rows=100,
        )
        assert metrics.is_zero
        assert metrics.gold_rows == 4

    def test_skipped_statement_counts_distinct_gold_rows(self, db):
        # the gold returns 4 rows but 3 distinct names: a statement
        # skipped for its estimate reports the 3 a scored one reports
        golds = [db.execute("SELECT name FROM t")]
        scored = evaluate_sql(db, "SELECT name FROM t", golds)
        skipped = evaluate_sql(
            db, "SELECT name FROM t", golds,
            estimated_rows=10_000_000, max_rows=100,
        )
        assert len(golds[0].rows) == 4
        assert skipped.gold_rows == scored.gold_rows == 3

    def test_properties(self):
        assert PrecisionRecall(1.0, 0.2, 1, 5).is_positive
        assert PrecisionRecall(0.0, 0.0, 0, 5).is_zero
        assert not PrecisionRecall(1.0, 0.0, 1, 5).is_positive
