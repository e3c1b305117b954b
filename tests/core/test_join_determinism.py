"""Deterministic join tie-breaking in the tables step.

`deterministic_shortest_path` must pick the lexicographically smallest
table-name sequence among equal-cost paths, no matter how (or in which
order) the join graph was assembled — so SODA's selected joins are
stable without pinning ``PYTHONHASHSEED``.
"""

from repro.core.tables import deterministic_shortest_path


def _graph(edges, weights=None):
    """node -> neighbour -> weight, both directions, in *edges* order."""
    adjacency: dict = {}
    for u, v in edges:
        weight = (weights or {}).get((min(u, v), max(u, v)), 1.0)
        adjacency.setdefault(u, {})[v] = weight
        adjacency.setdefault(v, {})[u] = weight
    return adjacency


class TestDeterministicShortestPath:
    def test_tie_broken_by_sorted_node_name(self):
        graph = _graph([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert deterministic_shortest_path(graph, "a", "d") == ["a", "b", "d"]

    def test_insertion_order_does_not_matter(self):
        edges = [("a", "c"), ("c", "d"), ("a", "b"), ("b", "d")]
        forward = _graph(edges)
        backward = _graph(list(reversed(edges)))
        assert deterministic_shortest_path(
            forward, "a", "d"
        ) == deterministic_shortest_path(backward, "a", "d")

    def test_cheaper_path_beats_lexicographic_order(self):
        graph = _graph(
            [("a", "b"), ("b", "d"), ("a", "z"), ("z", "d")],
            {("a", "z"): 0.1, ("d", "z"): 0.1},
        )
        assert deterministic_shortest_path(graph, "a", "d") == ["a", "z", "d"]

    def test_longer_but_cheaper_route(self):
        graph = _graph(
            [("a", "d"), ("a", "b"), ("b", "c"), ("c", "d")],
            {
                ("a", "d"): 1.0,
                ("a", "b"): 0.2,
                ("b", "c"): 0.2,
                ("c", "d"): 0.2,
            },
        )
        assert deterministic_shortest_path(graph, "a", "d") == [
            "a", "b", "c", "d"
        ]

    def test_unreachable_returns_none(self):
        graph = _graph([("a", "b")])
        graph["z"] = {}
        assert deterministic_shortest_path(graph, "a", "z") is None

    def test_source_equals_target(self):
        graph = _graph([("a", "b")])
        assert deterministic_shortest_path(graph, "a", "a") == ["a"]


class TestTablesStepStability:
    def test_selected_joins_stable_across_engines(self, warehouse):
        """Two independent SODA instances select identical join plans."""
        from repro.core.soda import Soda, SodaConfig

        first = Soda(warehouse, SodaConfig())
        second = Soda(warehouse, SodaConfig())
        for query in ("Sara Guttinger", "customers Zurich", "Credit Suisse"):
            a = first.search(query, execute=False)
            b = second.search(query, execute=False)
            assert [s.sql for s in a.statements] == [
                s.sql for s in b.statements
            ]
