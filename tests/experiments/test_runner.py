"""Tests for the experiment runner (Tables 3 and 4 shape assertions).

These are the headline reproduction checks: the *shape* of the paper's
results must hold on the finbank warehouse — who succeeds, who fails,
and in which way.
"""

import pytest

from repro.core import evaluation
from repro.core.evaluation import PrecisionRecall
from repro.experiments.runner import ExperimentRunner, QueryOutcome
from repro.experiments.workload import WORKLOAD, query_by_id


def outcome_by_id(outcomes, qid):
    return next(o for o in outcomes if o.query.qid == qid)


class TestTable3Shape:
    PERFECT = ("1.0", "2.3", "3.1", "3.2", "4.0", "6.0", "8.0", "10.0")

    @pytest.mark.parametrize("qid", PERFECT)
    def test_perfect_queries(self, experiment_outcomes, qid):
        best = outcome_by_id(experiment_outcomes, qid).best
        assert best.precision == 1.0, qid
        assert best.recall == 1.0, qid

    def test_q21_low_recall_from_historization(self, experiment_outcomes):
        # paper: P=1.0, R=0.2 — the name history is not joinable
        best = outcome_by_id(experiment_outcomes, "2.1").best
        assert best.precision == 1.0
        assert best.recall == pytest.approx(0.2)

    def test_q22_same_as_q21(self, experiment_outcomes):
        best = outcome_by_id(experiment_outcomes, "2.2").best
        assert best.precision == 1.0
        assert best.recall == pytest.approx(0.2)

    def test_q50_degraded_by_sibling_bridge(self, experiment_outcomes):
        # paper: P=0.12, R=0.56 — partial failure, not total
        best = outcome_by_id(experiment_outcomes, "5.0").best
        assert 0.0 < best.precision < 1.0
        assert 0.0 < best.recall < 1.0

    def test_q70_half_precision_full_recall(self, experiment_outcomes):
        # paper: P=0.50, R=1.00 — SODA misses the executed-only restriction
        best = outcome_by_id(experiment_outcomes, "7.0").best
        assert best.recall == 1.0
        assert 0.3 <= best.precision <= 0.7

    def test_q90_total_failure(self, experiment_outcomes):
        # paper: P=0, R=0 — wrong join path for the count
        best = outcome_by_id(experiment_outcomes, "9.0").best
        assert best.is_zero

    def test_q21_result_split_matches_paper(self, experiment_outcomes):
        # paper: 1 result with P,R > 0 and 3 results with P,R = 0
        outcome = outcome_by_id(experiment_outcomes, "2.1")
        assert outcome.n_positive == 1
        assert outcome.n_zero == 3

    def test_counts_partition(self, experiment_outcomes):
        for outcome in experiment_outcomes:
            assert outcome.n_positive + outcome.n_zero == outcome.n_results


class TestTable4Shape:
    def test_complexities_match_paper_where_engineered(
        self, experiment_outcomes
    ):
        # Q1.0 and Q2.1 complexities are reproduced exactly
        assert outcome_by_id(experiment_outcomes, "1.0").complexity == 3
        assert outcome_by_id(experiment_outcomes, "2.1").complexity == 4
        assert outcome_by_id(experiment_outcomes, "2.2").complexity == 12

    def test_soda_time_is_small(self, experiment_outcomes):
        # the paper: SODA analysis is seconds, execution dominates; on our
        # scale both are sub-second but SODA must stay well bounded
        for outcome in experiment_outcomes:
            assert outcome.soda_seconds < 5.0

    def test_step_timings_present(self, experiment_outcomes):
        for outcome in experiment_outcomes:
            assert set(outcome.step_timings) == {
                "lookup", "rank", "tables", "filters", "sql"
            }

    def test_results_bounded_by_top_n(self, experiment_outcomes):
        for outcome in experiment_outcomes:
            assert outcome.n_results <= 10


class TestRunnerMechanics:
    def test_single_query_run(self, warehouse):
        runner = ExperimentRunner(warehouse=warehouse)
        outcome = runner.run_query(query_by_id("3.1"))
        assert isinstance(outcome, QueryOutcome)
        assert outcome.statements

    def test_empty_outcome_best_is_zero(self):
        outcome = QueryOutcome(
            query=query_by_id("1.0"),
            complexity=0,
            statements=[],
            soda_seconds=0.0,
            execute_seconds=0.0,
            eval_seconds=0.0,
            step_timings={},
        )
        assert outcome.best.is_zero
        assert outcome.n_results == 0

    def test_statements_carry_metrics(self, experiment_outcomes):
        for outcome in experiment_outcomes:
            for statement in outcome.statements:
                assert isinstance(statement.metrics, PrecisionRecall)
                assert statement.sql.startswith("SELECT")


class TestScoringWork:
    """Counter locks on what one ``run_all()`` scores, not clocks."""

    @pytest.fixture(scope="class")
    def counted_run(self, warehouse):
        gold_sqls = {sql for query in WORKLOAD for sql in query.gold}
        counts = {"gold": 0, "generated": 0, "cells": 0, "normalized": 0,
                  "per_value": 0}
        database = warehouse.database
        execute = database.execute
        compare = evaluation.compare_results
        normalize_column = evaluation._normalize_column
        normalize_value = evaluation.normalize_value

        def counting_execute(sql, *args, **kwargs):
            counts["gold" if sql in gold_sqls else "generated"] += 1
            return execute(sql, *args, **kwargs)

        def counting_compare(soda, golds):
            counts["cells"] += sum(
                len(result.rows) * len(result.columns)
                for result in (soda, *golds)
            )
            return compare(soda, golds)

        def counting_normalize_column(values):
            counts["normalized"] += len(values)
            return normalize_column(values)

        def counting_normalize_value(value):
            counts["per_value"] += 1
            return normalize_value(value)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(database, "execute", counting_execute)
            patch.setattr(evaluation, "compare_results", counting_compare)
            patch.setattr(evaluation, "_normalize_column",
                          counting_normalize_column)
            patch.setattr(evaluation, "normalize_value",
                          counting_normalize_value)
            outcomes = ExperimentRunner(warehouse=warehouse).run_all()
        return outcomes, counts

    def test_each_gold_statement_runs_once_per_query(self, counted_run):
        outcomes, counts = counted_run
        assert counts["gold"] == sum(len(query.gold) for query in WORKLOAD)
        assert counts["gold"] == 14  # 41 when each statement re-ran it
        assert counts["generated"] == sum(o.n_results for o in outcomes)

    def test_each_cell_normalised_once_per_comparison(self, counted_run):
        __, counts = counted_run
        assert counts["cells"] > 1_000_000
        assert counts["normalized"] == counts["cells"]
        # no workload column mixes types, so no cell takes the per-value
        # rule (2 384 339 calls when every row was normalised per use)
        assert counts["per_value"] == 0
