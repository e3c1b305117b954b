"""Tests for the Table 5 capability matrix machinery."""

import pytest

from repro.baselines.capabilities import (
    PAPER_TABLE5,
    QUERY_TYPE_ROWS,
    QueryEvaluation,
    SystemEvaluation,
    capability_matrix,
    format_table5,
    soda_evaluation,
    synonym_dictionary,
)
from repro.core.evaluation import PrecisionRecall
from repro.experiments.workload import WORKLOAD


class TestMarks:
    def make_evaluation(self, per_query):
        evaluation = SystemEvaluation(system="fake")
        for query in WORKLOAD:
            answered, metrics = per_query.get(query.qid, (False, None))
            evaluation.per_query[query.qid] = QueryEvaluation(
                qid=query.qid,
                answered=answered,
                best=metrics,
                caveat=None,
                note="",
            )
        return evaluation

    def test_all_correct_is_x(self):
        good = PrecisionRecall(1.0, 1.0, 1, 1)
        evaluation = self.make_evaluation(
            {q.qid: (True, good) for q in WORKLOAD}
        )
        for __, tag in QUERY_TYPE_ROWS:
            assert evaluation.mark(tag) == "X"

    def test_none_answered_is_no(self):
        evaluation = self.make_evaluation({})
        for __, tag in QUERY_TYPE_ROWS:
            assert evaluation.mark(tag) == "NO"

    def test_partial_is_parenthesised(self):
        good = PrecisionRecall(1.0, 1.0, 1, 1)
        evaluation = self.make_evaluation({"2.1": (True, good)})
        assert evaluation.mark("B") == "(X)"

    def test_answered_but_wrong_is_paren_no(self):
        bad = PrecisionRecall(0.0, 0.0, 0, 1)
        evaluation = self.make_evaluation(
            {q.qid: (True, bad) for q in WORKLOAD}
        )
        assert evaluation.mark("B") == "(NO)"


class TestIntegration:
    @pytest.fixture(scope="class")
    def matrix_and_systems(self, baseline_evaluations):
        matrix = capability_matrix(baseline_evaluations)
        return matrix, [e.system for e in baseline_evaluations]

    def test_matrix_covers_all_cells(self, matrix_and_systems):
        matrix, systems = matrix_and_systems
        for __, tag in QUERY_TYPE_ROWS:
            for system in systems:
                assert (tag, system) in matrix

    def test_sqak_never_handles_plain_queries(self, matrix_and_systems):
        matrix, __ = matrix_and_systems
        assert matrix[("B", "SQAK")] == "NO"

    def test_no_baseline_handles_predicates(self, matrix_and_systems):
        matrix, systems = matrix_and_systems
        for system in systems:
            assert matrix[("P", system)] == "NO"

    def test_format_table5(self, matrix_and_systems):
        matrix, systems = matrix_and_systems
        rendered = format_table5(matrix, systems + ["SODA"])
        assert "Query type" in rendered
        assert "Aggregates" in rendered

    def test_soda_evaluation_wrapper(self, experiment_outcomes):
        evaluation = soda_evaluation(experiment_outcomes)
        assert evaluation.system == "SODA"
        assert evaluation.per_query["1.0"].correct

    def test_soda_beats_baselines_overall(
        self, matrix_and_systems, experiment_outcomes
    ):
        # the paper's headline: SODA is the only system handling every
        # query type at least partially
        matrix, systems = matrix_and_systems
        soda_matrix = capability_matrix([soda_evaluation(experiment_outcomes)])

        def supported(mark):
            return mark in ("X", "(X)")

        soda_count = sum(
            1 for __, tag in QUERY_TYPE_ROWS
            if supported(soda_matrix[(tag, "SODA")])
        )
        assert soda_count == len(QUERY_TYPE_ROWS)
        for system in systems:
            count = sum(
                1 for __, tag in QUERY_TYPE_ROWS
                if supported(matrix[(tag, system)])
            )
            assert count < soda_count


class TestSynonyms:
    def test_dictionary_derived_from_warehouse(self, warehouse):
        synonyms = synonym_dictionary(warehouse)
        assert "customers" in synonyms
        assert "client" in synonyms

    def test_paper_marks_complete(self):
        systems = {system for __, system in PAPER_TABLE5}
        assert systems == {
            "DBExplorer", "DISCOVER", "BANKS", "SQAK", "Keymantic", "SODA"
        }
        assert len(PAPER_TABLE5) == 36
