"""Tests for the breadth-first traversal of the metadata graph."""

import pytest

from repro.graph.node import Text, Vocab, uri
from repro.graph.traversal import iter_reachable, reachable_nodes
from repro.graph.triples import TripleStore

A, B, C, D = (uri("test", x) for x in "abcd")
EDGE = uri("meta", "edge")
OTHER = uri("meta", "other")


@pytest.fixture
def chain_store():
    s = TripleStore()
    s.add(A, EDGE, B)
    s.add(B, EDGE, C)
    s.add(C, EDGE, D)
    s.add(A, Vocab.LABEL, Text("a"))  # text labels are never traversed
    return s


class TestIterReachable:
    def test_yields_start_first(self, chain_store):
        nodes = list(iter_reachable(chain_store, A))
        assert nodes[0] == (A, 0)

    def test_reaches_whole_chain(self, chain_store):
        assert reachable_nodes(chain_store, A) == sorted([A, B, C, D])

    def test_max_depth_limits(self, chain_store):
        assert reachable_nodes(chain_store, A, max_depth=1) == sorted([A, B])

    def test_predicates_restrict_edges(self, chain_store):
        chain_store.add(A, OTHER, D)
        assert reachable_nodes(chain_store, A, predicates={OTHER}) == sorted(
            [A, D]
        )
        assert reachable_nodes(chain_store, A, predicates=frozenset()) == [A]
        assert reachable_nodes(
            chain_store, A, max_depth=1, predicates={EDGE, OTHER}
        ) == sorted([A, B, D])

    def test_traversal_does_not_touch_the_store(self, chain_store):
        before = (chain_store.version, chain_store.nodes())
        ghost = uri("test", "ghost")
        assert list(iter_reachable(chain_store, ghost)) == [(ghost, 0)]
        assert (chain_store.version, chain_store.nodes()) == before

    def test_only_outgoing_edges(self, chain_store):
        assert reachable_nodes(chain_store, C) == sorted([C, D])

    def test_cycle_terminates(self):
        s = TripleStore()
        s.add(A, EDGE, B)
        s.add(B, EDGE, A)
        assert reachable_nodes(s, A) == sorted([A, B])

    def test_depth_values(self, chain_store):
        depths = dict(iter_reachable(chain_store, A))
        assert depths == {A: 0, B: 1, C: 2, D: 3}
