"""Ablation — metadata repair (the paper's Section 5.3.1 war story).

The Q2.x recall loss is caused by a bi-temporal historization join key
missing from the schema graph.  The paper's remedy: "the schema graph
needs to be annotated with join relationships that reflect bi-temporal
historization.  Note that SODA provides a very flexible way of
incorporating these changes."  This bench measures Q2.2 before and after
annotating the missing join at runtime.
"""

import pytest

from repro.core.evaluation import evaluate_sql
from repro.core.soda import Soda
from repro.experiments.workload import query_by_id
from repro.warehouse.minibank import build_minibank


def best_metrics(soda, query):
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


def test_annotation_repairs_recall(benchmark):
    query = query_by_id("2.2")
    wh = build_minibank(seed=42, scale=1.0)

    before = best_metrics(Soda(wh), query)
    wh.annotate_join("j_indiv_name_hist")
    after = benchmark(best_metrics, Soda(wh), query)

    print()
    print("Metadata-repair ablation (Q2.2 'Sara given name'):")
    print(f"  before annotation: P={before.precision:.2f} R={before.recall:.2f}")
    print(f"  after  annotation: P={after.precision:.2f} R={after.recall:.2f}")
    assert before.recall == pytest.approx(0.2)
    assert after.recall == 1.0
    assert after.precision == 1.0


def test_ignore_annotation_disables_bridge(benchmark):
    wh = build_minibank(seed=42, scale=1.0)
    wh.ignore_join("j_assoc_indiv")
    wh.ignore_join("j_assoc_org")
    soda = Soda(wh)
    result = benchmark(soda.search, "customers names", False)
    assert result.best is not None
    print(f"\nwith ignored sibling bridge: {result.best.sql[:90]}")
    assert "associate_employment" not in result.best.statement.tables
