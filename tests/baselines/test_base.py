"""Tests for the shared baseline infrastructure."""

from itertools import combinations

import networkx as nx
import pytest

from repro.baselines.base import BaselineAnswer, KeywordSearchSystem, build_sql
from repro.sqlengine.database import Database


@pytest.fixture(scope="module")
def system(warehouse):
    return KeywordSearchSystem(warehouse.database, warehouse.inverted)


@pytest.fixture(scope="module")
def nx_graph(system):
    """The same FK graph as a ``networkx`` multigraph, the test oracle."""
    graph = nx.MultiGraph()
    for table, neighbours in system.fk_graph().items():
        graph.add_node(table)
        for fks in neighbours.values():
            for fk in fks:
                if fk[0] == table:  # each FK once, from its own table
                    graph.add_edge(fk[0], fk[2])
    return graph


@pytest.fixture
def ring():
    """Three tables whose single FKs close a ring: a -> c -> b -> a."""
    database = Database()
    database.execute(
        "CREATE TABLE a (id INT, c_id INT, FOREIGN KEY (c_id) REFERENCES c (id))"
    )
    database.execute(
        "CREATE TABLE b (id INT, a_id INT, FOREIGN KEY (a_id) REFERENCES a (id))"
    )
    database.execute(
        "CREATE TABLE c (id INT, b_id INT, FOREIGN KEY (b_id) REFERENCES b (id))"
    )
    return KeywordSearchSystem(database)


def _nx_has_cycle(graph, tables) -> bool:
    """Cycle rank > 0 of the subgraph, parallel edges included."""
    subgraph = graph.subgraph(tables)
    return subgraph.number_of_edges() > nx.number_of_nodes(subgraph) - (
        nx.number_connected_components(subgraph)
    )


class TestFkGraph:
    def test_all_tables_are_nodes(self, system, warehouse):
        graph = system.fk_graph()
        assert set(graph) == set(warehouse.database.table_names())

    def test_fk_edges_present(self, system):
        graph = system.fk_graph()
        assert "parties" in graph["individuals"]
        assert "individuals" in graph["parties"]  # listed both ways
        assert "organizations" in graph["associate_employment"]

    def test_parallel_edges_kept(self, system):
        graph = system.fk_graph()
        # transactions has two FKs to parties (from/to party)
        assert len(graph["transactions"]["parties"]) == 2
        assert graph["parties"]["transactions"] is graph["transactions"]["parties"]

    def test_fks_listed_under_both_tables_in_catalog_order(self, ring):
        graph = ring.fk_graph()
        assert graph["a"] == {
            "c": [("a", "c_id", "c", "id")],
            "b": [("b", "a_id", "a", "id")],
        }
        assert list(graph["c"]) == ["a", "b"]


class TestCycleDetection:
    def test_parallel_fk_counts_as_cycle(self, system):
        assert system.schema_has_cycle(["transactions", "parties"])

    def test_tree_is_acyclic(self, system):
        assert not system.schema_has_cycle(["individuals", "parties"])

    def test_triangle_counts_as_cycle(self, system):
        # individuals-parties, individuals-addresses, party_address closes
        # a cycle with parties and addresses
        assert system.schema_has_cycle(
            ["individuals", "parties", "addresses", "party_address"]
        )

    def test_ring_of_single_fks_is_a_cycle(self, ring):
        assert ring.schema_has_cycle(["a", "b", "c"])
        assert not ring.schema_has_cycle(["a", "b"])

    def test_unknown_tables_are_ignored(self, system):
        assert not system.schema_has_cycle(["parties", "no_such_table"])
        assert system.schema_has_cycle(["transactions", "parties", "nope"])

    def test_agrees_with_cycle_rank_on_every_pair(self, system, nx_graph):
        for pair in combinations(sorted(nx_graph), 2):
            assert system.schema_has_cycle(pair) == _nx_has_cycle(
                nx_graph, pair
            ), pair

    def test_agrees_with_cycle_rank_on_every_triple(self, system, nx_graph):
        for triple in combinations(sorted(nx_graph), 3):
            assert system.schema_has_cycle(triple) == _nx_has_cycle(
                nx_graph, triple
            ), triple


class TestJoinTree:
    def test_single_table_needs_no_joins(self, system):
        assert system.join_tree(["parties"]) == []

    def test_adjacent_pair(self, system):
        joins = system.join_tree(["individuals", "parties"])
        assert joins == [("individuals", "id", "parties", "id")]

    def test_path_with_intermediate(self, system):
        joins = system.join_tree(["individual_name_hist", "parties"])
        tables = {t for join in joins for t in (join[0], join[2])}
        assert "individuals" in tables

    def test_unreachable_returns_none(self, system, warehouse):
        warehouse.database.create_table("island_x", [("id", "INT")])
        try:
            assert system.join_tree(["island_x", "parties"]) is None
        finally:
            warehouse.database.catalog.drop_table("island_x")

    def test_unknown_table_returns_none(self, system):
        assert system.join_tree(["parties", "no_such_table"]) is None

    def test_parallel_fks_join_on_the_first_by_column(self, system):
        fks = system.fk_graph()["transactions"]["parties"]
        joins = system.join_tree(["transactions", "parties"])
        assert joins == [min(fks, key=lambda fk: f"{fk[0]}.{fk[1]}")]

    def test_pair_paths_are_shortest(self, system, nx_graph):
        for source, target in combinations(sorted(nx_graph), 2):
            joins = system.join_tree([source, target])
            if not nx.has_path(nx_graph, source, target):
                assert joins is None, (source, target)
                continue
            assert len(joins) == nx.shortest_path_length(
                nx_graph, source, target
            ), (source, target)

    def test_argument_order_does_not_matter(self, ring):
        assert ring.join_tree(["c", "a", "b"]) == ring.join_tree(["a", "b", "c"])
        # every pair is adjacent, so each pair adds its own FK
        assert ring.join_tree(["a", "b", "c"]) == [
            ("b", "a_id", "a", "id"),
            ("a", "c_id", "c", "id"),
            ("c", "b_id", "b", "id"),
        ]


class TestHelpers:
    def test_keyword_hits_per_column(self, system):
        hits = system.keyword_hits("sara")
        assert ("individuals", "given_nm") in hits
        assert len(hits) == 4

    def test_segment_greedy(self, system):
        assert system.segment("credit suisse zurich") == [
            "credit suisse", "zurich"
        ]

    def test_segment_unknown_words_kept(self, system):
        assert "flurbl" in system.segment("flurbl zurich")

    def test_build_sql_plain(self):
        sql = build_sql(
            ["a", "b"],
            [("a", "x", "b", "y")],
            [("a", "name", "gold")],
        )
        assert sql == (
            "SELECT * FROM a, b WHERE a.x = b.y AND a.name LIKE '%gold%'"
        )

    def test_build_sql_aggregate(self):
        sql = build_sql(
            ["t"], [], [], aggregate="sum(t.amount)", group_by="t.ccy"
        )
        assert "GROUP BY t.ccy" in sql
        assert sql.startswith("SELECT sum(t.amount), t.ccy")

    def test_answer_answered_property(self):
        answer = BaselineAnswer(system="x", query_text="q")
        assert not answer.answered
        answer.sqls.append("SELECT 1")
        assert answer.answered
        answer.supported = False
        assert not answer.answered
