"""Ablation — ranking strategies (the paper's Section 6.3 discussion).

The paper uses the simple location heuristic and points at "more
sophisticated ranking algorithms such as BLINKS" as future work.  This
bench compares the default *location* ranking with the *specificity*
strategy (ambiguous terms discounted) on the workload: for each query,
the rank at which the first correct statement (P, R > 0) appears.
"""

import pytest

from repro.core.evaluation import evaluate_sql
from repro.core.soda import Soda, SodaConfig
from repro.experiments.workload import WORKLOAD


def first_correct_rank(soda, query, database) -> "int | None":
    result = soda.search(query.text, execute=False)
    golds = query.run_gold(database)
    for position, statement in enumerate(result.statements, start=1):
        metrics = evaluate_sql(
            database, statement.sql, golds,
            estimated_rows=statement.estimated_rows,
        )
        if metrics.is_positive:
            return position
    return None


def test_ranking_strategy_comparison(warehouse, benchmark):
    location = Soda(warehouse, SodaConfig(ranking="location"))
    specificity = Soda(warehouse, SodaConfig(ranking="specificity"))

    benchmark(location.search, "Sara given name", False)

    print()
    print("Rank of first correct statement (lower is better):")
    print(f"{'Q':6s} {'location':>10s} {'specificity':>12s}")
    summary = {"location": 0, "specificity": 0, "answered": 0}
    for query in WORKLOAD:
        rank_location = first_correct_rank(location, query, warehouse.database)
        rank_specificity = first_correct_rank(
            specificity, query, warehouse.database
        )
        print(f"{query.qid:6s} {str(rank_location):>10s} "
              f"{str(rank_specificity):>12s}")
        if rank_location is not None and rank_specificity is not None:
            summary["location"] += rank_location
            summary["specificity"] += rank_specificity
            summary["answered"] += 1
    print(f"total over {summary['answered']} answered queries: "
          f"location={summary['location']}, "
          f"specificity={summary['specificity']}")
    # both strategies must answer the same queries; ordering may differ
    assert summary["answered"] >= 10
