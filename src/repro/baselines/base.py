"""Common interface for the related keyword-search systems of Table 5.

Each baseline is a (simplified but algorithmically faithful) Python
reimplementation of the published system.  They all consume the same
inputs a real deployment would have had: the physical catalog with its
foreign keys, and — where the original system used one — an inverted
index over the base data.  None of them sees SODA's metadata graph;
that is precisely the comparison the paper's Table 5 makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.index.inverted import InvertedIndex, tokenize_text
from repro.sqlengine.database import Database


@dataclass
class BaselineAnswer:
    """What one baseline produced for one query."""

    system: str
    query_text: str
    sqls: list = field(default_factory=list)
    supported: bool = True
    caveat: str | None = None  # partial support, e.g. cycles in the schema
    note: str = ""

    @property
    def answered(self) -> bool:
        return self.supported and bool(self.sqls)


class KeywordSearchSystem:
    """Base class: holds the database handle and shared helpers."""

    name = "abstract"
    #: static feature claims, used as documentation and checked by tests
    features: dict = {}

    def __init__(self, database: Database, inverted: InvertedIndex | None = None):
        self.database = database
        self.inverted = inverted or InvertedIndex.build(database.catalog)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def fk_graph(self) -> dict:
        """The schema graph: table -> neighbour -> FK tuples.

        Every table is a key; each FK constraint ``(from_table, column,
        to_table, ref_column)`` is listed under both of its tables (one
        shared list per table pair), in ``foreign_key_edges()`` order.
        """
        graph: dict = {name: {} for name in self.database.table_names()}
        for from_table, to_table, fk in self.database.catalog.foreign_key_edges():
            fks = graph[from_table].setdefault(to_table, [])
            graph[to_table].setdefault(from_table, fks)
            fks.append((from_table, fk.columns[0], to_table, fk.ref_columns[0]))
        return graph

    def schema_has_cycle(self, tables: Sequence[str]) -> bool:
        """True if the schema subgraph spanning *tables* contains a cycle.

        Parallel FK edges between two tables (transactions has two
        foreign keys to parties) count as a cycle — the situation that
        breaks DBExplorer's and DISCOVER's candidate-network generation.
        Otherwise a union-find pass looks for an edge that closes a
        cycle (the subgraph's cycle rank is positive).
        """
        graph = self.fk_graph()
        nodes = set(tables) & graph.keys()
        root = {table: table for table in nodes}

        def find(table: str) -> str:
            while root[table] != table:
                root[table] = root[root[table]]
                table = root[table]
            return table

        for u in nodes:
            for v, fks in graph[u].items():
                if v not in nodes or v < u:
                    continue
                if len(fks) > 1 or find(u) == find(v):
                    return True
                root[find(u)] = find(v)
        return False

    def join_tree(self, tables: Sequence[str]) -> "list | None":
        """Connect *tables* with FK joins (shortest paths, SODA-free).

        Each pair is joined along a breadth-first path from its
        lower-named table, neighbours visited in graph order; a table
        pair with several FKs joins on the first by ``"table.column"``.
        Returns a list of (t1, c1, t2, c2) join conditions, or None if
        some pair cannot be connected.
        """
        wanted = sorted(set(tables))
        if len(wanted) <= 1:
            return []
        graph = self.fk_graph()
        if any(table not in graph for table in wanted):
            return None
        joins: list = []
        seen_pairs: set = set()
        for i, source in enumerate(wanted[:-1]):
            parent = {source: None}
            frontier = [source]
            while frontier:
                next_frontier = []
                for node in frontier:
                    for neighbour in graph[node]:
                        if neighbour not in parent:
                            parent[neighbour] = node
                            next_frontier.append(neighbour)
                frontier = next_frontier
            for target in wanted[i + 1:]:
                if target not in parent:
                    return None
                path = [target]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                for u, v in zip(path, path[1:]):
                    pair = (min(u, v), max(u, v))
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    joins.append(
                        min(graph[u][v], key=lambda fk: f"{fk[0]}.{fk[1]}")
                    )
        return joins

    def keyword_hits(self, term: str) -> list:
        """Base-data hits of a term, one per (table, column)."""
        seen: set = set()
        hits: list = []
        for posting in self.inverted.lookup_phrase(term):
            key = (posting.table, posting.column)
            if key not in seen:
                seen.add(key)
                hits.append(key)
        return hits

    def segment(self, text: str) -> list:
        """Greedy longest-match segmentation against the base data."""
        words = tokenize_text(text)
        segments: list = []
        position = 0
        while position < len(words):
            matched = False
            for size in range(min(3, len(words) - position), 0, -1):
                phrase = " ".join(words[position:position + size])
                if self.inverted.lookup_phrase(phrase):
                    segments.append(phrase)
                    position += size
                    matched = True
                    break
            if not matched:
                segments.append(words[position])
                position += 1
        return segments


def build_sql(
    tables: Sequence[str],
    joins: Sequence[tuple],
    filters: Sequence[tuple],
    select: str = "*",
    group_by: str | None = None,
    aggregate: str | None = None,
) -> str:
    """Render a simple SPJ(+GROUP BY) statement."""
    parts = ["SELECT"]
    if aggregate is not None:
        select_list = aggregate
        if group_by is not None:
            select_list += f", {group_by}"
        parts.append(select_list)
    else:
        parts.append(select)
    parts.append("FROM " + ", ".join(sorted(set(tables))))
    conditions = [
        f"{t1}.{c1} = {t2}.{c2}" for t1, c1, t2, c2 in joins
    ]
    conditions.extend(
        f"{table}.{column} LIKE '%{value}%'" for table, column, value in filters
    )
    if conditions:
        parts.append("WHERE " + " AND ".join(conditions))
    if group_by is not None:
        parts.append(f"GROUP BY {group_by}")
    return " ".join(parts)
