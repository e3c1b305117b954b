"""Graph traversal primitives used by the SODA steps.

Step 3 of the algorithm (paper Section 4.2.1, "Application in SODA")
traverses the metadata graph *"starting from the entry points of a given
query and recursively follow[ing] all outgoing edges"*, testing patterns
at every node.  This module provides that traversal; which edges count
is the caller's choice (schema edges for the tables pass; the join pass
compiles its bounded reach for every table at once, in ``core.tables``).
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterator

from repro.graph.triples import TripleStore


def iter_reachable(
    store: TripleStore,
    start: str,
    max_depth: int | None = None,
    predicates: Collection[str] | None = None,
) -> Iterator[tuple[str, int]]:
    """Breadth-first traversal over outgoing node edges.

    Yields ``(node, depth)`` pairs starting with ``(start, 0)``.  Text
    labels are never traversed (they have no outgoing edges).  With
    *predicates* only edges whose predicate is in that set are followed.
    Reads the store's subject index directly: no :class:`Triple` is
    built per edge.
    """
    seen = {start}
    queue: deque[tuple[str, int]] = deque([(start, 0)])
    while queue:
        node, depth = queue.popleft()
        yield node, depth
        if max_depth is not None and depth >= max_depth:
            continue
        for predicate, objects in store.edges_from(node).items():
            if predicates is not None and predicate not in predicates:
                continue
            for obj in objects:
                if isinstance(obj, str) and obj not in seen:
                    seen.add(obj)
                    queue.append((obj, depth + 1))


def reachable_nodes(
    store: TripleStore,
    start: str,
    max_depth: int | None = None,
    predicates: Collection[str] | None = None,
) -> list[str]:
    """All nodes reachable from *start* (including it), sorted."""
    return sorted(
        node for node, __ in iter_reachable(store, start, max_depth, predicates)
    )
