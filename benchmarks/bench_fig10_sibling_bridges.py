"""Figure 10 — bridge tables between inheritance siblings.

The associate_employment table bridges the individuals/organizations
siblings of the party inheritance.  For Q5.0 ("customers names") SODA
routes the sibling join through this bridge instead of producing two
separate queries — the paper's documented low-precision failure.  The
bench reproduces the routing and the degraded metrics.
"""

from repro.core.evaluation import evaluate_sql
from repro.core.input_patterns import parse_query
from repro.core.ranking import rank
from repro.experiments.workload import query_by_id

QUERY = "customers names"


def test_fig10_bridge_routing(soda, benchmark):
    lookup_result = soda._lookup.run(parse_query(QUERY))
    best = rank(lookup_result, top_n=1)[0]
    tables_result = benchmark(soda._tables.run, best.interpretation)

    print()
    print(f"Fig. 10 — Q5.0 join routing for {QUERY!r}:")
    for join in tables_result.joins:
        print(f"  {join.condition_sql()}")

    assert "associate_employment" in tables_result.tables
    conditions = {join.condition_sql() for join in tables_result.joins}
    assert "associate_employment.indiv_id = individuals.id" in conditions
    assert "associate_employment.org_id = organizations.id" in conditions
    # the second sibling lost its parent join (mutually exclusive children
    # cannot both join the parent in one statement)
    assert "organizations.id = parties.id" not in conditions


def test_fig10_degraded_precision(soda, warehouse, benchmark):
    query = query_by_id("5.0")
    result = soda.search(query.text, execute=False)
    golds = query.run_gold(warehouse.database)

    def evaluate_best():
        best = None
        for statement in result.statements:
            metrics = evaluate_sql(
                warehouse.database, statement.sql, golds,
                estimated_rows=statement.estimated_rows,
            )
            if best is None or (metrics.precision, metrics.recall) > (
                best.precision, best.recall
            ):
                best = metrics
        return best

    best = benchmark(evaluate_best)
    print(f"\nQ5.0 best statement: P={best.precision:.2f} R={best.recall:.2f} "
          f"(paper: P=0.12 R=0.56)")
    assert 0 < best.precision < 1
    assert 0 < best.recall < 1
