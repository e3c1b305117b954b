"""An in-memory triple store with SPO/POS/OSP indexes.

This is the substrate for the metadata graph of Figure 3 in the paper:
DBpedia terms, domain ontologies, and the conceptual / logical / physical
schema layers are all stored as triples, and the SODA algorithm only ever
talks to this store (lookup, traversal, pattern matching).

The store is deliberately simple: triples are immutable, and three hash
indexes give O(1) access by any bound position.  This mirrors classic
in-memory RDF store designs and is plenty for schema-sized graphs (tens of
thousands of triples).

Everything that enters the store is validated once, by ``add`` /
``add_triple`` / ``remove``.  Reads never write: the indexes are plain
dicts read with ``.get`` (a lookup of an unknown node creates nothing,
so concurrent readers cannot resize an index under ``nodes()``), and
``match`` hands back stored data without validating it a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.errors import GraphError
from repro.graph.node import Text, is_uri


@dataclass(frozen=True)
class Triple:
    """A single (subject, predicate, object) statement.

    ``subject`` and ``predicate`` are URI strings; ``obj`` is either a URI
    string (node-to-node edge) or a :class:`Text` label (node-to-text edge),
    exactly the two triple kinds the paper's pattern language supports.
    """

    subject: str
    predicate: str
    obj: "str | Text"

    def __post_init__(self) -> None:
        if not is_uri(self.subject):
            raise GraphError(f"triple subject must be a URI: {self.subject!r}")
        if not is_uri(self.predicate):
            raise GraphError(f"triple predicate must be a URI: {self.predicate!r}")
        if not (is_uri(self.obj) or isinstance(self.obj, Text)):
            raise GraphError(
                f"triple object must be a URI or Text label: {self.obj!r}"
            )


_new_triple = object.__new__


def _stored_triple(subject: str, predicate: str, obj: "str | Text") -> Triple:
    """A :class:`Triple` for data read back out of a store's indexes.

    Skips ``__init__`` / ``__post_init__``: the three values were
    validated when they were added, and the pattern matcher reads
    millions of them.
    """
    triple = _new_triple(Triple)
    fields = triple.__dict__
    fields["subject"] = subject
    fields["predicate"] = predicate
    fields["obj"] = obj
    return triple


#: what a read of an unknown index key sees (immutable, so never filled)
_NO_EDGES: Mapping = MappingProxyType({})


class TripleStore:
    """A set of :class:`Triple` with indexes on every position.

    >>> store = TripleStore()
    >>> from repro.graph.node import uri, Text
    >>> _ = store.add(uri('physical', 'table', 'parties'),
    ...               uri('meta', 'tablename'), Text('parties'))
    >>> len(store)
    1
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set()
        self._version = 0
        self._spo: dict[str, dict[str, set["str | Text"]]] = {}
        self._pos: dict[str, dict["str | Text", set[str]]] = {}
        self._osp: dict["str | Text", dict[str, set[str]]] = {}
        for triple in triples:
            self.add_triple(triple)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, subject: str, predicate: str, obj: "str | Text") -> Triple:
        """Create, insert and return a triple."""
        triple = Triple(subject, predicate, obj)
        self.add_triple(triple)
        return triple

    def add_triple(self, triple: Triple) -> None:
        """Insert an existing triple (idempotent)."""
        if triple in self._triples:
            return
        self._version += 1
        self._triples.add(triple)
        subject, predicate, obj = triple.subject, triple.predicate, triple.obj
        self._spo.setdefault(subject, {}).setdefault(predicate, set()).add(obj)
        self._pos.setdefault(predicate, {}).setdefault(obj, set()).add(subject)
        self._osp.setdefault(obj, {}).setdefault(subject, set()).add(predicate)

    def remove(self, subject: str, predicate: str, obj: "str | Text") -> None:
        """Remove a triple; raises GraphError if it is not present."""
        triple = Triple(subject, predicate, obj)
        if triple not in self._triples:
            raise GraphError(f"triple not in store: {triple}")
        self._version += 1
        self._triples.discard(triple)
        _discard(self._spo, subject, predicate, obj)
        _discard(self._pos, predicate, obj, subject)
        _discard(self._osp, obj, subject, predicate)

    @property
    def version(self) -> int:
        """Bumped on every mutation; lets derived caches detect staleness."""
        return self._version

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: "str | Text | None" = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching the bound positions.

        ``None`` means "any value".  The most selective index available for
        the bound positions is used.
        """
        if subject is not None and predicate is not None:
            for candidate in self._spo.get(subject, _NO_EDGES).get(predicate, ()):
                if obj is None or candidate == obj:
                    yield _stored_triple(subject, predicate, candidate)
            return
        if predicate is not None and obj is not None:
            for candidate in self._pos.get(predicate, _NO_EDGES).get(obj, ()):
                yield _stored_triple(candidate, predicate, obj)
            return
        if subject is not None and obj is not None:
            for candidate in self._osp.get(obj, _NO_EDGES).get(subject, ()):
                yield _stored_triple(subject, candidate, obj)
            return
        if subject is not None:
            for pred, objs in self._spo.get(subject, _NO_EDGES).items():
                for candidate in objs:
                    yield _stored_triple(subject, pred, candidate)
            return
        if predicate is not None:
            for candidate_obj, subjects in self._pos.get(
                predicate, _NO_EDGES
            ).items():
                for subj in subjects:
                    yield _stored_triple(subj, predicate, candidate_obj)
            return
        if obj is not None:
            for subj, preds in self._osp.get(obj, _NO_EDGES).items():
                for pred in preds:
                    yield _stored_triple(subj, pred, obj)
            return
        yield from self._triples

    # ------------------------------------------------------------------
    # convenience accessors used heavily by the SODA steps
    # ------------------------------------------------------------------
    def objects(self, subject: str, predicate: str) -> "list[str | Text]":
        """All objects of (subject, predicate, ?)."""
        return sorted(
            self._spo.get(subject, _NO_EDGES).get(predicate, ()), key=_sort_key
        )

    def object(self, subject: str, predicate: str) -> "str | Text | None":
        """The unique object of (subject, predicate, ?), or None."""
        values = self._spo.get(subject, _NO_EDGES).get(predicate, ())
        if len(values) > 1:
            raise GraphError(
                f"expected at most one object for ({subject}, {predicate}), "
                f"found {len(values)}"
            )
        return next(iter(values), None)

    def subjects(self, predicate: str, obj: "str | Text") -> list[str]:
        """All subjects of (?, predicate, obj)."""
        return sorted(self._pos.get(predicate, _NO_EDGES).get(obj, ()))

    def outgoing(self, subject: str) -> Iterator[Triple]:
        """All triples with the given subject."""
        return self.match(subject=subject)

    def incoming(self, obj: "str | Text") -> Iterator[Triple]:
        """All triples with the given object."""
        return self.match(obj=obj)

    def edges_from(self, subject: str) -> "Mapping[str, set[str | Text]]":
        """The ``predicate -> objects`` index entry of *subject*, live.

        For traversals that want the outgoing edges without one
        :class:`Triple` per edge; empty for an unknown node.  Read-only
        by contract: it is the index itself, not a copy.
        """
        return self._spo.get(subject, _NO_EDGES)

    def node_neighbours(self, subject: str) -> list[str]:
        """URI objects reachable over one outgoing edge (text labels skipped)."""
        found = set()
        for pred, objs in self._spo.get(subject, _NO_EDGES).items():
            for candidate in objs:
                if isinstance(candidate, str):
                    found.add(candidate)
        return sorted(found)

    def nodes(self) -> set[str]:
        """All URI nodes appearing in subject or object position."""
        result: set[str] = set(self._spo.keys())
        for obj in self._osp:
            if isinstance(obj, str):
                result.add(obj)
        return result

    def has_type(self, subject: str, type_uri: str) -> bool:
        """True if (subject, meta:type, type_uri) is in the store."""
        from repro.graph.node import Vocab

        return any(True for __ in self.match(subject, Vocab.TYPE, type_uri))


def _discard(index: dict, first, second, third) -> None:
    """Drop ``third`` from ``index[first][second]``, pruning emptied levels."""
    inner = index[first]
    leaf = inner[second]
    leaf.discard(third)
    if not leaf:
        del inner[second]
        if not inner:
            del index[first]


def _sort_key(obj: "str | Text") -> tuple[int, str]:
    """Stable ordering for mixed URI/Text collections."""
    if isinstance(obj, Text):
        return (1, obj.value)
    return (0, obj)
