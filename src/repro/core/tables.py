"""Step 3 — Tables: discover tables, joins and bridge tables.

Faithful to Section 4.2.1 "Application in SODA":

1. *Tables pass* — from every entry point, recursively follow all
   outgoing schema edges; at every node test the Table, Column and
   Inheritance-Child patterns (plus the business-term patterns).  Tables
   found this way "represent the entry points".
2. *Inheritance closure* — whenever a collected table is an inheritance
   child, the parent table is collected too ("this table is needed to
   produce correct SQL statements").
3. *Join pass* — traverse again, now also over join edges (bounded
   depth: the paper notes join paths between entities "too far apart"
   are not found), testing the Join-Relationship pattern; the discovered
   join conditions form a table-level join graph.  What a table reaches
   within the depth bound depends on the metadata graph alone, so every
   table's reach is compiled at once, as a bitset over the join edges,
   on the first join pass after the graph changes; a query's join graph
   is the OR of its entry tables' bitsets.
4. *Join selection* — keep only joins on a direct path between the
   entry points (Fig. 9); already-selected edges are preferred so the
   query stays small.  Bridge tables (physical N-to-N implementations)
   enter naturally as path intermediates; bridges between inheritance
   *siblings* (Fig. 10) are the documented failure mode reproduced here.
5. *Sibling pruning* — when two mutually-exclusive inheritance children
   are present, only the first child keeps its parent join; the others
   must connect through other paths (typically a sibling bridge), which
   is exactly what degrades Q5.0 in the paper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count

from repro.graph.node import Text, Vocab, local_name
from repro.graph.pattern import PatternLibrary, match_pattern
from repro.graph.traversal import iter_reachable
from repro.graph.triples import TripleStore
from repro.core.lookup import EntryPoint, Interpretation
from repro.obs.metrics import registry as _metrics_registry
from repro.warehouse.graphbuilder import JOIN_EDGES, SCHEMA_EDGES

_METRICS = _metrics_registry()
_EXPANSION_HITS = _METRICS.counter("tables.memo.expansion_hits")
_EXPANSION_MISSES = _METRICS.counter("tables.memo.expansion_misses")
_PLAN_HITS = _METRICS.counter("tables.memo.plan_hits")
_PLAN_MISSES = _METRICS.counter("tables.memo.plan_misses")
_REACH_COMPILES = _METRICS.counter("tables.reach_compiles")

#: the edges the join pass follows: the schema edges of the tables pass
#: plus the table -> column -> join node -> column -> table edges
_JOIN_PASS_EDGES = SCHEMA_EDGES | JOIN_EDGES


@dataclass(frozen=True)
class JoinEdge:
    """One selected join condition between two physical tables."""

    name: str
    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def sort_key(self) -> tuple:
        return (self.left_table, self.right_table, self.name)

    def condition_sql(self) -> str:
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )


@dataclass(frozen=True)
class BusinessFilter:
    """A metadata-defined predicate collected from a business term."""

    table: str
    column: str
    op: str
    value: str


@dataclass(frozen=True)
class BusinessAggregation:
    """A metadata-defined aggregation collected from a business term."""

    func: str
    table: str
    column: str


@dataclass
class EntryExpansion:
    """What the tables pass found for one entry point."""

    entry: EntryPoint
    tables: set = field(default_factory=set)
    columns: list = field(default_factory=list)  # (table, column) hits
    business_filters: list = field(default_factory=list)
    business_aggregations: list = field(default_factory=list)


@dataclass
class TablesResult:
    """The output of Step 3 for one interpretation."""

    expansions: list
    tables: list  # final FROM set, sorted
    joins: list  # selected JoinEdge list, sorted
    components: list  # connected components (sets of tables) under joins
    inheritance_parents: dict  # child table -> parent table

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    def entry_tables(self) -> set:
        found: set = set()
        for expansion in self.expansions:
            found |= expansion.tables
        return found


class TablesStep:
    """Step 3, bound to one metadata graph and pattern library."""

    def __init__(
        self,
        store: TripleStore,
        library: PatternLibrary,
        join_depth: int | None = 16,
    ) -> None:
        self._store = store
        self._library = library
        self._join_depth = join_depth
        self._children_cache: set | None = None
        # memos, dropped whenever the metadata graph changes:
        #   entry point -> EntryExpansion (the schema-edge traversal)
        #   frozenset(entry tables) -> (parents, tables, joins, components)
        #   the compiled join reach of every table, tagged with its version
        # All are filled on first use, never at construction; a fill is
        # one assignment of an immutable value computed from the graph
        # alone, so concurrent searches may race to it harmlessly.
        self._expansion_cache: dict = {}
        self._plan_cache: dict = {}
        self._reach: tuple | None = None
        self._graph_version = store.version

    def _check_graph_version(self) -> None:
        """Invalidate all memos after graph mutations (e.g. annotate_join)."""
        if self._store.version != self._graph_version:
            self._expansion_cache.clear()
            self._plan_cache.clear()
            self._reach = None
            self._children_cache = None
            self._graph_version = self._store.version

    def cache_stats(self) -> dict:
        __, edges, reach = self._reach or (None, (), {})
        return {
            "expansions": len(self._expansion_cache),
            "join_plans": len(self._plan_cache),
            "join_reach": len(reach),
            "join_edges": len(edges),
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, interpretation: Interpretation) -> TablesResult:
        self._check_graph_version()
        expansions = [
            self.expand_entry(entry) for entry in interpretation.entry_points()
        ]

        preliminary: set = set()
        for expansion in expansions:
            preliminary |= expansion.tables

        plan = self._join_plan(preliminary)
        inheritance_parents, final_tables, selected, components = plan
        return TablesResult(
            expansions=expansions,
            tables=list(final_tables),
            joins=list(selected),
            components=[set(component) for component in components],
            inheritance_parents=dict(inheritance_parents),
        )

    def _join_plan(self, preliminary: set) -> tuple:
        """The join-discovery outcome for one entry-table set (memoized).

        Join discovery (graph traversal + shortest paths) only depends
        on the set of preliminary tables, which repeats heavily across
        interpretations and across the queries of a batch.
        """
        key = frozenset(preliminary)
        cached = self._plan_cache.get(key)
        if cached is None:
            if _METRICS.enabled:
                _PLAN_MISSES.inc()
            working = set(preliminary)
            inheritance_parents = self._inheritance_closure(working)
            skipped = self._pruned_sibling_pairs(working, inheritance_parents)
            joins = [
                edge
                for edge in self._discover_join_graph(working)
                if _pair(edge.left_table, edge.right_table) not in skipped
            ]
            selected, final_tables = self._select_joins(joins, working)
            components = self._components(final_tables, selected)
            cached = (
                inheritance_parents,
                sorted(final_tables),
                sorted(selected, key=JoinEdge.sort_key),
                components,
            )
            self._plan_cache[key] = cached
        elif _METRICS.enabled:
            _PLAN_HITS.inc()
        return cached

    # ------------------------------------------------------------------
    # tables pass
    # ------------------------------------------------------------------
    def expand_entry(self, entry: EntryPoint) -> EntryExpansion:
        """Traverse schema edges from *entry*, testing the basic patterns.

        Memoized per entry point: the traversal depends only on the
        metadata graph, so the same term resolution across ranked
        interpretations (or across a query batch) is computed once.
        """
        self._check_graph_version()
        cached = self._expansion_cache.get(entry)
        if cached is not None:
            if _METRICS.enabled:
                _EXPANSION_HITS.inc()
            return cached
        if _METRICS.enabled:
            _EXPANSION_MISSES.inc()
        expansion = EntryExpansion(entry=entry)
        for node, __ in iter_reachable(
            self._store, entry.node, predicates=SCHEMA_EDGES
        ):
            self._test_patterns_at(node, expansion)
        self._expansion_cache[entry] = expansion
        return expansion

    def _test_patterns_at(self, node: str, expansion: EntryExpansion) -> None:
        store, library = self._store, self._library

        for binding in match_pattern(store, library.get("table"), node, library):
            table_label = binding.get("y")
            if isinstance(table_label, Text):
                expansion.tables.add(table_label.value)

        for binding in match_pattern(store, library.get("column"), node, library):
            column_label = binding.get("y")
            table_node = binding.get("z")
            if isinstance(column_label, Text) and isinstance(table_node, str):
                table_label = store.object(table_node, Vocab.TABLENAME)
                if isinstance(table_label, Text):
                    expansion.tables.add(table_label.value)
                    hit = (table_label.value, column_label.value)
                    if hit not in expansion.columns:
                        expansion.columns.append(hit)

        for binding in match_pattern(
            store, library.get("business_filter"), node, library
        ):
            column_node = binding.get("c")
            op = binding.get("op")
            value = binding.get("v")
            table, column = self._column_location(column_node)
            if table is not None:
                business = BusinessFilter(
                    table=table, column=column, op=op.value, value=value.value
                )
                if business not in expansion.business_filters:
                    expansion.business_filters.append(business)

        for binding in match_pattern(
            store, library.get("business_aggregation"), node, library
        ):
            column_node = binding.get("c")
            func = binding.get("f")
            table, column = self._column_location(column_node)
            if table is not None:
                business_agg = BusinessAggregation(
                    func=func.value, table=table, column=column
                )
                if business_agg not in expansion.business_aggregations:
                    expansion.business_aggregations.append(business_agg)

    def _column_location(self, column_node) -> tuple:
        """(table name, column name) of a physical column node."""
        if not isinstance(column_node, str):
            return None, None
        column_label = self._store.object(column_node, Vocab.COLUMNNAME)
        table_node = self._store.object(column_node, Vocab.BELONGS_TO)
        if not isinstance(column_label, Text) or not isinstance(table_node, str):
            return None, None
        table_label = self._store.object(table_node, Vocab.TABLENAME)
        if not isinstance(table_label, Text):
            return None, None
        return table_label.value, column_label.value

    # ------------------------------------------------------------------
    # inheritance closure
    # ------------------------------------------------------------------
    def _inheritance_closure(self, tables: set) -> dict:
        """Add parents of collected children; returns child -> parent."""
        parents: dict = {}
        pattern = self._library.get("inheritance_child")
        frontier = list(sorted(tables))
        while frontier:
            table_name = frontier.pop()
            node = self._table_node(table_name)
            if node is None:
                continue
            for binding in match_pattern(self._store, pattern, node, self._library):
                parent_node = binding.get("p")
                if not isinstance(parent_node, str):
                    continue
                parent_label = self._store.object(parent_node, Vocab.TABLENAME)
                if not isinstance(parent_label, Text):
                    continue  # logical-layer inheritance: no physical table
                parents[table_name] = parent_label.value
                if parent_label.value not in tables:
                    tables.add(parent_label.value)
                    frontier.append(parent_label.value)
        return parents

    def _table_node(self, table_name: str) -> str | None:
        subjects = self._store.subjects(Vocab.TABLENAME, Text(table_name))
        return subjects[0] if subjects else None

    # ------------------------------------------------------------------
    # join pass
    # ------------------------------------------------------------------
    def _discover_join_graph(self, entry_tables) -> frozenset:
        """Every JoinEdge within ``join_depth`` of any entry table."""
        __, edges, reach = self._compiled_reach()
        bits = 0
        for table in entry_tables:
            bits |= reach.get(table, 0)
        found = []
        while bits:
            low = bits & -bits
            found.append(edges[low.bit_length() - 1])
            bits ^= low
        return frozenset(found)

    def _compiled_reach(self) -> tuple:
        """(graph version, JoinEdge per bit, table -> bits of its reach).

        ``R_0(v)`` holds the edges the join pattern yields at node v and
        ``R_d(v)`` ORs ``R_{d-1}`` of v and its join-pass successors: a BFS
        to depth d from v.  Rounds stop at ``join_depth`` or a fixpoint.
        """
        compiled, store = self._reach, self._store
        version = store.version
        if compiled is not None and compiled[0] == version:
            return compiled
        if _METRICS.enabled:
            _REACH_COMPILES.inc()
        starts = {
            triple.obj.value: self._table_node(triple.obj.value)
            for triple in store.match(predicate=Vocab.TABLENAME)
            if isinstance(triple.obj, Text)
        }
        successors: dict = {}
        frontier = list(starts.values())
        while frontier:
            node = frontier.pop()
            if node not in successors:
                successors[node] = [
                    obj for predicate, objs in store.edges_from(node).items()
                    if predicate in _JOIN_PASS_EDGES for obj in objs
                    if isinstance(obj, str)
                ]
                frontier.extend(successors[node])
        at = {node: self._joins_at(node) for node in successors}
        edges = tuple(sorted(
            {edge for found in at.values() for edge in found},
            key=lambda e: (e.sort_key(), e.left_column, e.right_column),
        ))
        bit = {edge: 1 << index for index, edge in enumerate(edges)}
        reach = {node: sum(bit[e] for e in set(at[node])) for node in at}
        depth = self._join_depth
        for __ in count() if depth is None else range(depth):
            grown = {}
            for node, targets in successors.items():
                bits = reach[node]
                for target in targets:
                    bits |= reach[target]
                grown[node] = bits
            if grown == reach:
                break
            reach = grown
        reach = {table: reach[node] for table, node in starts.items()}
        self._reach = compiled = (version, edges, reach)
        return compiled

    def _joins_at(self, node: str) -> tuple:
        """The JoinEdges the Join-Relationship pattern yields at *node*."""
        bindings = match_pattern(
            self._store, self._library.get("join_relationship"), node,
            self._library,
        )
        if bindings and self._store.object(node, Vocab.IGNORED) is not None:
            return ()
        candidates = (
            self._join_edge_from_binding(node, binding) for binding in bindings
        )
        return tuple(edge for edge in candidates if edge is not None)

    def _join_edge_from_binding(self, join_node: str, binding: dict):
        left_table, left_column = self._column_location(binding.get("l"))
        right_table, right_column = self._column_location(binding.get("r"))
        if left_table is None or right_table is None:
            return None
        if left_table == right_table:
            return None  # self-joins are out of scope
        return JoinEdge(
            name=local_name(join_node),
            left_table=left_table,
            left_column=left_column,
            right_table=right_table,
            right_column=right_column,
        )

    # ------------------------------------------------------------------
    # sibling pruning (Fig. 10 failure mode)
    # ------------------------------------------------------------------
    @staticmethod
    def _pruned_sibling_pairs(tables: set, parents: dict) -> set:
        """Keep the parent join only for the first sibling present.

        Returns the (parent, child) table pairs whose joins are left out
        of the join graph.
        """
        children_by_parent: dict = {}
        for child, parent in sorted(parents.items()):
            if child in tables:
                children_by_parent.setdefault(parent, []).append(child)
        return {
            _pair(parent, child)
            for parent, children in children_by_parent.items()
            for child in children[1:]
        }

    # ------------------------------------------------------------------
    # join selection: direct paths between entry points (Fig. 9)
    # ------------------------------------------------------------------
    def _select_joins(self, joins: list, preliminary: set) -> tuple:
        final_tables = set(preliminary)
        selected: list = []
        selected_pairs: set = set()

        # Bridge tables (pure N-to-N link tables) are the *intended* way to
        # connect two entities, so paths through them are slightly
        # preferred over incidental attribute joins.
        bridges = self._bridge_tables(joins, self._all_inheritance_children())
        # the table-level join graph: table -> neighbour -> edge weight,
        # both directions; parallel join conditions collapse into one
        # edge that carries the first of them in sort order
        adjacency: dict = {table: {} for table in preliminary}
        payload: dict = {}
        for edge in joins:
            u, v = edge.left_table, edge.right_table
            key = _pair(u, v)
            first = payload.get(key)
            if first is None:
                weight = 0.9 if (u in bridges or v in bridges) else 1.0
                adjacency.setdefault(u, {})[v] = weight
                adjacency.setdefault(v, {})[u] = weight
            if first is None or edge.sort_key() < first.sort_key():
                payload[key] = edge

        for source, target in sorted(
            {_pair(a, b) for a in preliminary for b in preliminary if a != b}
        ):
            path = deterministic_shortest_path(adjacency, source, target)
            if path is None:
                continue
            for u, v in zip(path, path[1:]):
                key = _pair(u, v)
                if key not in selected_pairs:
                    selected_pairs.add(key)
                    selected.append(payload[key])
                    # prefer reusing selected edges
                    adjacency[u][v] = adjacency[v][u] = 0.01
                final_tables.add(u)
                final_tables.add(v)
        return selected, final_tables

    @staticmethod
    def _bridge_tables(joins: list, children: set) -> set:
        """Tables that look like pure N-to-N link tables.

        A bridge has at least two outgoing foreign keys (it is the FK side
        of >= 2 join nodes), is never referenced by anyone else, and is
        not an inheritance child (children share the bridge *shape* but
        carry entity data).
        """
        fk_out: dict = {}
        referenced: set = set()
        for edge in joins:
            fk_out.setdefault(edge.left_table, set()).add(edge.name)
            referenced.add(edge.right_table)
        return {
            table
            for table, names in fk_out.items()
            if len(names) >= 2
            and table not in referenced
            and table not in children
        }

    def _all_inheritance_children(self) -> set:
        """Table names that are children in any physical inheritance."""
        if self._children_cache is None:
            children: set = set()
            for node in self._store.subjects(Vocab.TYPE, Vocab.INHERITANCE_NODE):
                for child in self._store.objects(node, Vocab.INHERITANCE_CHILD):
                    if not isinstance(child, str):
                        continue
                    label = self._store.object(child, Vocab.TABLENAME)
                    if isinstance(label, Text):
                        children.add(label.value)
            self._children_cache = children
        return self._children_cache

    @staticmethod
    def _components(tables: set, joins: list) -> list:
        """Connected components of *tables* under *joins* (union-find)."""
        root = {table: table for table in tables}

        def find(table: str) -> str:
            while root[table] != table:
                root[table] = table = root[root[table]]
            return table

        for join in joins:
            root[find(join.left_table)] = find(join.right_table)
        components: dict = {}
        for table in tables:
            components.setdefault(find(table), set()).add(table)
        return sorted(components.values(), key=min)


def _pair(u: str, v: str) -> tuple:
    """The unordered table pair {u, v} as a sorted tuple."""
    return (u, v) if u <= v else (v, u)


def deterministic_shortest_path(
    adjacency: dict, source: str, target: str
) -> "list | None":
    """Dijkstra with deterministic tie-breaking by node-name sequence.

    *adjacency* maps node -> neighbour -> edge weight (both directions
    present).  A textbook Dijkstra breaks equal-weight ties by adjacency
    iteration order, which inherits the process hash seed through the
    set-built join graph — so equally-good join paths could differ
    between runs unless ``PYTHONHASHSEED`` was pinned.  This variant
    orders the frontier heap by ``(cost, path)``: among equal-cost
    routes the lexicographically smallest table-name sequence always
    wins, independent of insertion or iteration order.  Returns the node
    list or ``None`` when *target* is unreachable.
    """
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
        for neighbor, step in adjacency[node].items():
            if neighbor not in settled:
                heapq.heappush(frontier, (cost + step, path + (neighbor,)))
    return None
