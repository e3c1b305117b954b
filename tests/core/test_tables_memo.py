"""The Tables step's per-graph-version join memos.

Equivalence: the compiled join reach of every table must be exactly what
a lazy BFS from that table collects (``reference_reachable_joins``), the
join graph of an entry set exactly what the traverse-per-plan walk
(``reference_tables``) discovers, and the plan built from them the plan
the old ``networkx`` code built — for every table, for random entry
sets, at every depth bound.  Invalidation: a graph mutation drops every
memo, and the reach is compiled once per graph version (counted).
Concurrency: cold memos filled by racing searches give the sequential
answers.  Determinism: the compiled edge order ignores the hash seed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reference_tables import (
    reference_join_edges,
    reference_join_plan,
    reference_reachable_joins,
)
from repro.core.lookup import Assignment, EntryPoint, Interpretation
from repro.core.patterns import build_default_library
from repro.core.soda import Soda, SodaConfig
from repro.core.tables import TablesStep
from repro.experiments.workload import WORKLOAD
from repro.index.classification import EntrySource
from repro.obs.metrics import registry
from repro.warehouse.graphbuilder import (
    build_metadata_graph,
    join_uri,
    table_uri,
)
from repro.warehouse.minibank import build_minibank
from repro.warehouse.synthetic import SyntheticConfig, generate_definition

DEPTHS = (0, 2, 4, 16)  # the join-depth ablation's range, and no traversal
COMPILES = registry().counter("tables.reach_compiles")


@pytest.fixture(scope="module")
def synthetic_definition():
    return generate_definition(SyntheticConfig().scaled(0.25))


@pytest.fixture(scope="module")
def synthetic_graph(synthetic_definition):
    return build_metadata_graph(synthetic_definition)


def table_names(definition) -> list:
    return sorted(table.name for table in definition.physical_tables)


def entry_sets(names: list, count: int, seed: int) -> list:
    """Every single table, then *count* seeded random sets of size 2-5."""
    rng = random.Random(seed)
    sets = [{name} for name in names]
    for __ in range(count):
        sets.append(set(rng.sample(names, rng.randint(2, min(5, len(names))))))
    return sets


def interpretation_of(tables) -> Interpretation:
    """One physical-schema entry point per table."""
    return Interpretation(tuple(
        Assignment(index, EntryPoint(
            term=name, source=EntrySource.PHYSICAL_SCHEMA, node=table_uri(name)
        ))
        for index, name in enumerate(sorted(tables))
    ))


def assert_reach_equivalent(graph, names, depth):
    """Every table's compiled reach is the lazy BFS's, edge for edge."""
    step = TablesStep(graph, build_default_library(), join_depth=depth)
    assert set(step._compiled_reach()[2]) == set(names)
    for name in names:
        assert step._discover_join_graph([name]) == reference_reachable_joins(
            step, name
        ), (depth, name)


def assert_equivalent(graph, names, depth, random_sets, seed):
    step = TablesStep(graph, build_default_library(), join_depth=depth)
    for tables in entry_sets(names, random_sets, seed):
        assert step._discover_join_graph(tables) == reference_join_edges(
            step, tables
        ), (depth, tables)
        result = step.run(interpretation_of(tables))
        # the tables pass also follows inheritance edges down to children
        assert result.entry_tables() >= tables
        parents, final_tables, joins, components = reference_join_plan(
            step, result.entry_tables()
        )
        assert result.tables == final_tables, (depth, tables)
        assert result.joins == joins, (depth, tables)
        assert result.components == components, (depth, tables)
        assert result.inheritance_parents == parents, (depth, tables)


class TestCompiledReachEqualsBreadthFirstSearch:
    @pytest.mark.parametrize("depth", DEPTHS + (None,))
    def test_minibank(self, warehouse, depth):
        assert_reach_equivalent(
            warehouse.graph, table_names(warehouse.definition), depth
        )

    @pytest.mark.parametrize("depth", DEPTHS + (None,))
    def test_synthetic_schema(self, synthetic_definition, synthetic_graph, depth):
        assert_reach_equivalent(
            synthetic_graph, table_names(synthetic_definition), depth
        )


class TestEquivalenceWithTraversePerPlan:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_minibank(self, warehouse, depth):
        assert_equivalent(
            warehouse.graph, table_names(warehouse.definition), depth,
            random_sets=60, seed=depth,
        )

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_synthetic_schema(self, synthetic_definition, synthetic_graph, depth):
        assert_equivalent(
            synthetic_graph, table_names(synthetic_definition), depth,
            random_sets=40, seed=100 + depth,
        )

    def test_depth_bound_is_preserved(self, warehouse):
        """One table's reach grows with the step's depth, from nothing."""
        library = build_default_library()
        reach = {
            depth: TablesStep(
                warehouse.graph, library, join_depth=depth
            )._discover_join_graph(["individuals"])
            for depth in DEPTHS
        }
        assert reach[0] == frozenset()
        assert reach[0] < reach[2] < reach[16]
        assert reach[2] <= reach[4] <= reach[16]
        # depth 2 is table -> column -> join node: only the table's own joins
        assert all(
            "individuals" in (edge.left_table, edge.right_table)
            for edge in reach[2]
        )

    def test_search_results_match_reference_plans(self, warehouse):
        """End to end: every plan a real search memoised is the oracle's."""
        soda = Soda(warehouse, SodaConfig())
        for text in ("customers Zurich financial instruments", "Sara Guttinger",
                     "Credit Suisse", "wealthy customers", "trading volume"):
            soda.search(text, execute=False)
        plans = soda._tables._plan_cache
        assert plans
        for tables, plan in plans.items():
            assert plan == reference_join_plan(soda._tables, set(tables))


class TestInvalidation:
    @pytest.fixture
    def soda(self):
        # fresh warehouse per test: annotations mutate the graph
        return Soda(build_minibank(seed=42, scale=0.1), SodaConfig())

    def test_memos_are_lazy_and_reported(self, soda):
        assert soda._tables.cache_stats() == {
            "expansions": 0, "join_plans": 0, "join_reach": 0, "join_edges": 0,
        }
        soda.search("customers Zurich", execute=False)
        stats = soda._tables.cache_stats()
        # one compile covers every physical table and every join edge
        assert stats["join_reach"] == len(
            soda.warehouse.definition.physical_tables
        )
        assert stats["join_edges"] > 0

    def test_annotate_join_is_seen_by_the_next_run(self, soda):
        tables = {"individuals", "individual_name_hist"}
        before = soda._tables.run(interpretation_of(tables))
        assert "j_indiv_name_hist" not in {j.name for j in before.joins}
        soda.warehouse.annotate_join("j_indiv_name_hist")
        after = soda._tables.run(interpretation_of(tables))
        assert "j_indiv_name_hist" in {j.name for j in after.joins}
        assert after.is_connected and not before.is_connected

    def test_ignore_and_unignore_are_seen_by_the_next_run(self, soda):
        step = soda._tables
        tables = {"individuals", "associate_employment"}
        names = lambda: {j.name for j in step.run(interpretation_of(tables)).joins}
        assert "j_assoc_indiv" in names()
        filled = step.cache_stats()
        assert filled["join_edges"] > 0 and filled["join_reach"] > 0

        soda.warehouse.ignore_join("j_assoc_indiv")
        assert "j_assoc_indiv" not in names()
        assert step._joins_at(join_uri("j_assoc_indiv")) == ()
        assert "j_assoc_indiv" not in {
            edge.name for edge in step._compiled_reach()[1]
        }
        assert step.cache_stats()["join_edges"] == filled["join_edges"] - 1

        soda.warehouse.unignore_join("j_assoc_indiv")
        assert "j_assoc_indiv" in names()
        assert step.cache_stats() == filled

    def test_both_memos_cleared_with_the_graph_version(self, soda):
        step = soda._tables
        soda.search("customers Zurich", execute=False)
        soda.warehouse.ignore_join("j_assoc_indiv")
        step._check_graph_version()
        assert step.cache_stats() == {
            "expansions": 0, "join_plans": 0, "join_reach": 0, "join_edges": 0,
        }


class TestReachCompiles:
    """``tables.reach_compiles``: one compile per graph version, lazily."""

    @pytest.fixture
    def soda(self):
        # fresh warehouse per test: annotations mutate the graph
        return Soda(build_minibank(seed=42, scale=0.1), SodaConfig())

    def compiles_during(self, action) -> int:
        before = COMPILES.value
        action()
        return COMPILES.value - before

    def test_a_workload_compiles_once(self, soda):
        texts = [query.text for query in WORKLOAD]
        texts += TestConcurrentColdFill.TEXTS
        assert self.compiles_during(
            lambda: [soda.search(text, execute=False) for text in texts]
        ) == 1
        assert self.compiles_during(
            lambda: [soda.search(text, execute=False) for text in texts]
        ) == 0

    @pytest.mark.parametrize("mutation", [
        ("annotate_join", "j_indiv_name_hist"),
        ("ignore_join", "j_assoc_indiv"),
        ("unignore_join", "j_assoc_indiv"),
    ])
    def test_a_join_annotation_costs_one_compile(self, soda, mutation):
        search = lambda: soda.search("customers Zurich", execute=False)
        method, join = mutation
        if method == "unignore_join":
            soda.warehouse.ignore_join(join)
        assert self.compiles_during(search) == 1
        mutate = getattr(soda.warehouse, method)
        assert self.compiles_during(lambda: mutate(join)) == 0
        assert self.compiles_during(lambda: (search(), search())) == 1

    def test_a_sql_write_costs_none(self, soda):
        search = lambda: soda.search("customers Zurich", execute=False)
        assert self.compiles_during(search) == 1
        changed = soda.warehouse.database.execute(
            "UPDATE addresses SET city = 'Altstetten' WHERE city = 'Zurich'"
        ).rowcount
        assert changed > 0
        assert self.compiles_during(search) == 0


class TestDeterminism:
    def test_edge_order_ignores_the_hash_seed(self):
        """The bit index is JoinEdge order, never set iteration order."""
        root = Path(__file__).resolve().parents[2]
        code = (
            "from repro.core.patterns import build_default_library\n"
            "from repro.core.tables import TablesStep\n"
            "from repro.warehouse.graphbuilder import build_metadata_graph\n"
            "from repro.warehouse.minibank import build_definition\n"
            "step = TablesStep(build_metadata_graph(build_definition()),\n"
            "                  build_default_library())\n"
            "__, edges, reach = step._compiled_reach()\n"
            "print([edge.name for edge in edges], sorted(reach.items()))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(root / "src")},
                capture_output=True, text=True, timeout=300, check=True,
            ).stdout
            for seed in ("0", "12345")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


def reach_by_table(soda) -> dict:
    """Each table's decoded join reach."""
    step = soda._tables
    return {
        table: step._discover_join_graph([table])
        for table in step._compiled_reach()[2]
    }


class TestConcurrentColdFill:
    TEXTS = (
        "customers Zurich financial instruments", "Sara Guttinger",
        "Credit Suisse", "wealthy customers", "trading volume",
        "private customers family name", "organizations Zurich",
        "addresses", "transactions", "securities Credit Suisse",
        "Sara financial instruments", "customers",
    )

    def test_search_many_over_cold_memos_matches_sequential(self, warehouse):
        sequential = Soda(warehouse, SodaConfig())
        expected = [
            sequential.search(text, execute=False).sql_texts()
            for text in self.TEXTS
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for __ in range(3):
                cold = Soda(warehouse, SodaConfig())
                assert cold._tables.cache_stats()["join_reach"] == 0
                results = cold.search_many(self.TEXTS, execute=False, workers=4)
                assert [r.sql_texts() for r in results] == expected
                assert reach_by_table(cold) == reach_by_table(sequential)
        finally:
            sys.setswitchinterval(interval)
