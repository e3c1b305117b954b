"""The traverse-per-plan join pass, kept as the oracle for ``TablesStep``.

This is the join pass as it ran before the per-graph-version memos: for
every entry-table set, walk the metadata graph to ``join_depth`` from
*each* entry table with a closure-filtered ``TripleStore.match`` BFS,
test the Join-Relationship pattern at every node not seen yet, build the
table-level join graph as an ``nx.Graph``, prune sibling-parent edges on
a copy, select joins along deterministic shortest paths and take
``nx.connected_components``.  It shares with the production code only
what that rewrite did not touch (``_table_node``,
``_join_edge_from_binding``, ``_inheritance_closure``,
``_all_inheritance_children``, ``JoinEdge``).

``reference_reachable_joins`` is the per-table memo fill that followed
it (and that the compiled bitset reach replaced): one depth-bounded
``iter_reachable`` walk from a table, matching the join pattern at every
node it visits.
"""

from __future__ import annotations

import heapq
from collections import deque

import networkx as nx

from repro.core.tables import JoinEdge, TablesStep
from repro.graph.node import Vocab
from repro.graph.pattern import match_pattern
from repro.graph.traversal import iter_reachable
from repro.warehouse.graphbuilder import JOIN_EDGES, SCHEMA_EDGES


def reference_reachable(store, start, max_depth, allowed):
    """The old ``iter_reachable``: one ``Triple`` per edge, via ``match``."""
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        node, depth = queue.popleft()
        yield node
        if depth >= max_depth:
            continue
        for triple in store.match(subject=node):
            if not isinstance(triple.obj, str):
                continue
            if triple.predicate not in allowed:
                continue
            if triple.obj not in seen:
                seen.add(triple.obj)
                queue.append((triple.obj, depth + 1))


def reference_reachable_joins(step: TablesStep, table_name: str) -> frozenset:
    """Every JoinEdge within ``join_depth`` of one table, by a lazy BFS."""
    found: set = set()
    start = step._table_node(table_name)
    if start is not None:
        for node, __ in iter_reachable(
            step._store, start, step._join_depth, SCHEMA_EDGES | JOIN_EDGES
        ):
            found.update(step._joins_at(node))
    return frozenset(found)


def reference_join_graph(step: TablesStep, entry_tables: list) -> "nx.Graph":
    """Traverse join edges from entry tables; match Join-Relationship."""
    store, library = step._store, step._library
    pattern = library.get("join_relationship")
    graph = nx.Graph()
    seen_nodes: set = set()
    for table_name in entry_tables:
        graph.add_node(table_name)
        start = step._table_node(table_name)
        if start is None:
            continue
        for node in reference_reachable(
            store, start, step._join_depth, SCHEMA_EDGES | JOIN_EDGES
        ):
            if node in seen_nodes:
                continue
            seen_nodes.add(node)
            for binding in match_pattern(store, pattern, node, library):
                if store.object(node, Vocab.IGNORED) is not None:
                    continue
                edge = step._join_edge_from_binding(node, binding)
                if edge is None:
                    continue
                _add_join_edge(graph, edge)
    return graph


def reference_join_edges(step: TablesStep, entry_tables) -> set:
    """The JoinEdges of the reference join graph, as a flat set."""
    graph = reference_join_graph(step, sorted(entry_tables))
    return {
        edge for u, v in graph.edges for edge in graph.edges[u, v]["payloads"]
    }


def reference_join_plan(step: TablesStep, preliminary: set) -> tuple:
    """(parents, tables, joins, components) for one entry-table set."""
    working = set(preliminary)
    inheritance_parents = step._inheritance_closure(working)
    join_graph = reference_join_graph(step, sorted(working))
    pruned = _prune_sibling_parent_edges(join_graph, working, inheritance_parents)
    selected, final_tables = _select_joins(step, pruned, working)
    return (
        inheritance_parents,
        sorted(final_tables),
        sorted(selected, key=JoinEdge.sort_key),
        _components(final_tables, selected),
    )


def _add_join_edge(graph, edge):
    u, v = edge.left_table, edge.right_table
    if graph.has_edge(u, v):
        payloads = graph.edges[u, v]["payloads"]
        if edge not in payloads:
            payloads.append(edge)
            payloads.sort(key=JoinEdge.sort_key)
    else:
        graph.add_edge(u, v, payloads=[edge], weight=1.0)


def _prune_sibling_parent_edges(graph, tables, parents):
    pruned = graph.copy()
    children_by_parent: dict = {}
    for child, parent in sorted(parents.items()):
        children_by_parent.setdefault(parent, []).append(child)
    for parent, children in children_by_parent.items():
        present = [child for child in children if child in tables]
        for child in present[1:]:
            if pruned.has_edge(parent, child):
                pruned.remove_edge(parent, child)
    return pruned


def _select_joins(step, graph, preliminary):
    final_tables = set(preliminary)
    selected: list = []
    selected_pairs: set = set()
    bridges = _bridge_tables(graph, step._all_inheritance_children())
    weights = {}
    for u, v in graph.edges:
        weight = 0.9 if (u in bridges or v in bridges) else 1.0
        weights[(min(u, v), max(u, v))] = weight

    pairs = sorted(
        {
            (min(a, b), max(a, b))
            for a in preliminary
            for b in preliminary
            if a != b
        }
    )
    for source, target in pairs:
        if source not in graph or target not in graph:
            continue
        path = _shortest_path(graph, source, target, weights)
        if path is None:
            continue
        for u, v in zip(path, path[1:]):
            key = (min(u, v), max(u, v))
            if key not in selected_pairs:
                selected_pairs.add(key)
                selected.append(graph.edges[u, v]["payloads"][0])
                weights[key] = 0.01
            final_tables.add(u)
            final_tables.add(v)
    return selected, final_tables


def _bridge_tables(graph, children):
    fk_out: dict = {}
    referenced: set = set()
    for u, v in graph.edges:
        for payload in graph.edges[u, v]["payloads"]:
            fk_out.setdefault(payload.left_table, set()).add(payload.name)
            referenced.add(payload.right_table)
    return {
        table
        for table, joins in fk_out.items()
        if len(joins) >= 2 and table not in referenced and table not in children
    }


def _components(tables, joins):
    graph = nx.Graph()
    graph.add_nodes_from(tables)
    for join in joins:
        graph.add_edge(join.left_table, join.right_table)
    return sorted(
        (set(component) for component in nx.connected_components(graph)),
        key=lambda c: sorted(c)[0],
    )


def _shortest_path(graph, source, target, weights):
    if source == target:
        return [source]
    frontier: list = [(0.0, (source,))]
    settled: set = set()
    while frontier:
        cost, path = heapq.heappop(frontier)
        node = path[-1]
        if node == target:
            return list(path)
        if node in settled:
            continue
        settled.add(node)
        for neighbor in graph.adj[node]:
            if neighbor in settled:
                continue
            step = weights[(min(node, neighbor), max(node, neighbor))]
            heapq.heappush(frontier, (cost + step, path + (neighbor,)))
    return None
