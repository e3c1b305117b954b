"""Tests for runtime metadata repair (paper Section 5.3.1 war stories)."""

import pytest

from repro.core.evaluation import evaluate_sql
from repro.core.soda import Soda, SodaConfig
from repro.errors import WarehouseError
from repro.experiments.workload import query_by_id
from repro.graph.node import Text, Vocab
from repro.warehouse.graphbuilder import join_uri
from repro.warehouse.minibank import build_minibank


@pytest.fixture
def wh():
    # fresh warehouse per test: annotations mutate the graph
    return build_minibank(seed=42, scale=0.5)


def best_metrics(soda, qid):
    query = query_by_id(qid)
    result = soda.search(query.text, execute=False)
    golds = query.run_gold(soda.warehouse.database)
    best = None
    for statement in result.statements:
        metrics = evaluate_sql(
            soda.warehouse.database, statement.sql, golds,
            estimated_rows=statement.estimated_rows,
        )
        if best is None or (metrics.precision, metrics.recall) > (
            best.precision, best.recall
        ):
            best = metrics
    return best


class TestAnnotateJoin:
    def test_annotation_adds_join_node(self, wh):
        node = join_uri("j_indiv_name_hist")
        assert not list(wh.graph.outgoing(node))
        wh.annotate_join("j_indiv_name_hist")
        assert wh.graph.has_type(node, Vocab.JOIN_NODE)

    def test_annotation_fixes_q22_recall(self, wh):
        # the paper's war-story remedy: annotating the historization join
        # lifts Q2.2 from R=0.2 to R=1.0
        before = best_metrics(Soda(wh), "2.2")
        assert before.recall == pytest.approx(0.2)
        wh.annotate_join("j_indiv_name_hist")
        after = best_metrics(Soda(wh), "2.2")
        assert after.precision == 1.0
        assert after.recall == 1.0

    def test_definition_updated(self, wh):
        wh.annotate_join("j_indiv_name_hist")
        join = next(
            j for j in wh.definition.join_relationships
            if j.name == "j_indiv_name_hist"
        )
        assert join.annotated

    def test_double_annotation_rejected(self, wh):
        wh.annotate_join("j_indiv_name_hist")
        with pytest.raises(WarehouseError):
            wh.annotate_join("j_indiv_name_hist")

    def test_annotating_annotated_join_rejected(self, wh):
        with pytest.raises(WarehouseError):
            wh.annotate_join("j_indiv_domicile")

    def test_unknown_join_rejected(self, wh):
        with pytest.raises(WarehouseError):
            wh.annotate_join("j_nonexistent")


class TestIgnoreJoin:
    def test_ignore_marks_node(self, wh):
        wh.ignore_join("j_assoc_indiv")
        node = join_uri("j_assoc_indiv")
        assert wh.graph.object(node, Vocab.IGNORED) == Text("true")

    def test_ignored_join_skipped_by_soda(self, wh):
        # Q5.0 routes through the sibling bridge; ignoring both bridge
        # joins removes associate_employment from the generated statement
        wh.ignore_join("j_assoc_indiv")
        wh.ignore_join("j_assoc_org")
        soda = Soda(wh)
        result = soda.search("customers names", execute=False)
        assert result.best is not None
        assert "associate_employment" not in result.best.statement.tables

    def test_unignore_restores(self, wh):
        wh.ignore_join("j_assoc_indiv")
        wh.unignore_join("j_assoc_indiv")
        node = join_uri("j_assoc_indiv")
        assert wh.graph.object(node, Vocab.IGNORED) is None

    def test_ignore_unannotated_rejected(self, wh):
        with pytest.raises(WarehouseError):
            wh.ignore_join("j_indiv_name_hist")

    def test_unignore_not_ignored_rejected(self, wh):
        with pytest.raises(WarehouseError, match="is not ignored"):
            wh.unignore_join("j_assoc_indiv")

    def test_unignore_does_not_mask_other_failures(self, wh, monkeypatch):
        """Only a missing triple means "not ignored"; a bug stays a bug."""
        wh.ignore_join("j_assoc_indiv")

        def broken_remove(*triple):
            raise RuntimeError("index corrupted")

        monkeypatch.setattr(wh.graph, "remove", broken_remove)
        with pytest.raises(RuntimeError, match="index corrupted"):
            wh.unignore_join("j_assoc_indiv")
