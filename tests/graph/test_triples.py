"""Tests for the triple store."""

import sys
import threading

import pytest

from repro.errors import GraphError
from repro.graph.node import Text, Vocab, uri
from repro.graph.triples import Triple, TripleStore

T1 = uri("physical", "table", "parties")
T2 = uri("physical", "table", "individuals")
COL = uri("physical", "column", "parties", "id")
GHOST = uri("physical", "table", "ghost")  # never added by the fixture


@pytest.fixture
def store():
    s = TripleStore()
    s.add(T1, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
    s.add(T2, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
    s.add(T1, Vocab.TABLENAME, Text("parties"))
    s.add(T1, Vocab.COLUMN, COL)
    s.add(COL, Vocab.BELONGS_TO, T1)
    return s


class TestTripleValidation:
    def test_subject_must_be_uri(self):
        with pytest.raises(GraphError):
            Triple("parties", Vocab.TYPE, Vocab.PHYSICAL_TABLE)

    def test_predicate_must_be_uri(self):
        with pytest.raises(GraphError):
            Triple(T1, "type", Vocab.PHYSICAL_TABLE)

    def test_object_must_be_uri_or_text(self):
        with pytest.raises(GraphError):
            Triple(T1, Vocab.TABLENAME, 42)

    def test_text_object_allowed(self):
        triple = Triple(T1, Vocab.TABLENAME, Text("parties"))
        assert triple.obj == Text("parties")


class TestStoreBasics:
    def test_len(self, store):
        assert len(store) == 5

    def test_add_is_idempotent(self, store):
        store.add(T1, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        assert len(store) == 5

    def test_contains(self, store):
        assert Triple(T1, Vocab.TYPE, Vocab.PHYSICAL_TABLE) in store

    def test_iter(self, store):
        assert len(list(store)) == 5

    def test_remove(self, store):
        store.remove(T1, Vocab.COLUMN, COL)
        assert len(store) == 4
        assert not list(store.match(T1, Vocab.COLUMN))

    def test_remove_missing_raises(self, store):
        with pytest.raises(GraphError):
            store.remove(T2, Vocab.COLUMN, COL)


class TestMatch:
    def test_match_by_subject(self, store):
        assert len(list(store.match(subject=T1))) == 3

    def test_match_by_predicate(self, store):
        assert len(list(store.match(predicate=Vocab.TYPE))) == 2

    def test_match_by_object(self, store):
        found = list(store.match(obj=Vocab.PHYSICAL_TABLE))
        assert {t.subject for t in found} == {T1, T2}

    def test_match_subject_predicate(self, store):
        found = list(store.match(T1, Vocab.TABLENAME))
        assert found == [Triple(T1, Vocab.TABLENAME, Text("parties"))]

    def test_match_predicate_object(self, store):
        found = list(store.match(None, Vocab.TYPE, Vocab.PHYSICAL_TABLE))
        assert len(found) == 2

    def test_match_subject_object(self, store):
        found = list(store.match(T1, None, COL))
        assert found == [Triple(T1, Vocab.COLUMN, COL)]

    def test_match_fully_bound(self, store):
        assert len(list(store.match(T1, Vocab.TYPE, Vocab.PHYSICAL_TABLE))) == 1
        assert not list(store.match(T2, Vocab.TYPE, Vocab.JOIN_NODE))

    def test_match_all(self, store):
        assert len(list(store.match())) == 5


class TestAccessors:
    def test_objects(self, store):
        assert store.objects(T1, Vocab.TYPE) == [Vocab.PHYSICAL_TABLE]

    def test_object_single(self, store):
        assert store.object(T1, Vocab.TABLENAME) == Text("parties")

    def test_object_none(self, store):
        assert store.object(T2, Vocab.TABLENAME) is None

    def test_object_multiple_raises(self, store):
        store.add(T1, Vocab.TABLENAME, Text("other"))
        with pytest.raises(GraphError):
            store.object(T1, Vocab.TABLENAME)

    def test_subjects(self, store):
        assert store.subjects(Vocab.TYPE, Vocab.PHYSICAL_TABLE) == sorted([T1, T2])

    def test_node_neighbours_skips_text(self, store):
        assert store.node_neighbours(T1) == sorted([Vocab.PHYSICAL_TABLE, COL])

    def test_nodes(self, store):
        nodes = store.nodes()
        assert T1 in nodes and T2 in nodes and COL in nodes

    def test_has_type(self, store):
        assert store.has_type(T1, Vocab.PHYSICAL_TABLE)
        assert not store.has_type(COL, Vocab.PHYSICAL_TABLE)

    def test_edges_from(self, store):
        assert dict(store.edges_from(T1)) == {
            Vocab.TYPE: {Vocab.PHYSICAL_TABLE},
            Vocab.TABLENAME: {Text("parties")},
            Vocab.COLUMN: {COL},
        }
        assert not store.edges_from(GHOST)


class TestReadsDoNotWrite:
    """Regression: the indexes were defaultdicts indexed on the read path."""

    def test_reads_of_unknown_node_create_nothing(self, store):
        nodes, version = store.nodes(), store.version
        assert store.object(GHOST, Vocab.TABLENAME) is None
        assert store.objects(GHOST, Vocab.TABLENAME) == []
        assert store.subjects(GHOST, Text("ghost")) == []
        assert store.node_neighbours(GHOST) == []
        assert not list(store.outgoing(GHOST))
        assert not list(store.incoming(GHOST))
        assert not store.has_type(GHOST, Vocab.PHYSICAL_TABLE)
        for bound in (
            (GHOST, GHOST, None), (None, GHOST, GHOST), (GHOST, None, GHOST),
            (GHOST, None, None), (None, GHOST, None), (None, None, GHOST),
            (GHOST, GHOST, GHOST),
        ):
            assert not list(store.match(*bound))
        assert store.nodes() == nodes
        assert store.version == version
        assert len(store) == 5

    def test_fully_removed_node_leaves_nodes(self, store):
        store.add(GHOST, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        store.add(GHOST, Vocab.COLUMN, COL)
        assert GHOST in store.nodes()
        store.remove(GHOST, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        assert GHOST in store.nodes()  # one triple still mentions it
        store.remove(GHOST, Vocab.COLUMN, COL)
        assert GHOST not in store.nodes()
        assert not store.edges_from(GHOST)
        # what the removed triples shared with others is still indexed
        assert store.subjects(Vocab.TYPE, Vocab.PHYSICAL_TABLE) == sorted([T1, T2])
        assert store.object(COL, Vocab.BELONGS_TO) == T1
        assert list(store.match(T1, Vocab.COLUMN)) == [
            Triple(T1, Vocab.COLUMN, COL)
        ]

    def test_remove_then_add_again(self, store):
        store.remove(T1, Vocab.COLUMN, COL)
        store.add(T1, Vocab.COLUMN, COL)
        assert store.object(T1, Vocab.COLUMN) == COL
        assert store.subjects(Vocab.COLUMN, COL) == [T1]

    def test_nodes_is_stable_under_concurrent_reads(self, store):
        """A reader probing unknown nodes must not resize what nodes() walks."""
        for i in range(2000):
            store.add(uri("test", f"n{i}"), Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        expected = store.nodes()
        stop = threading.Event()
        errors: list = []

        def probe():
            i = 0
            while not stop.is_set():
                i += 1
                store.object(uri("test", "ghost", str(i)), Vocab.TABLENAME)
                list(store.match(uri("test", "ghost", str(i))))

        def walk():
            try:
                for __ in range(300):
                    assert store.nodes() == expected
            except Exception as exc:  # "dictionary changed size during iteration"
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            prober = threading.Thread(target=probe)
            walker = threading.Thread(target=walk)
            prober.start()
            walker.start()
            walker.join(timeout=60)
            stop.set()
            prober.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not walker.is_alive() and not prober.is_alive()
        assert errors == []


class TestStoredTriples:
    def test_match_yields_real_triples(self, store):
        (found,) = store.match(T1, Vocab.TABLENAME)
        expected = Triple(T1, Vocab.TABLENAME, Text("parties"))
        assert found == expected and hash(found) == hash(expected)
        assert found in store
        assert repr(found) == repr(expected)
        with pytest.raises(AttributeError):
            found.subject = T2

    def test_everything_entering_the_store_is_validated(self, store):
        with pytest.raises(GraphError):
            store.add("parties", Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        with pytest.raises(GraphError):
            store.add(T1, Vocab.TABLENAME, 42)
        with pytest.raises(GraphError):
            store.remove(T1, "type", Vocab.PHYSICAL_TABLE)
