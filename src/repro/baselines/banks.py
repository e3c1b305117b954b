"""BANKS (Bhalotia et al. — ICDE 2002), simplified.

BANKS models the database as a **data graph**: one node per tuple, one
edge per foreign-key reference between tuples.  A keyword query selects
the node sets containing each keyword (keywords may also match table
names — BANKS handles schema terms, unlike DBExplorer/DISCOVER), and a
*backward expanding search* grows shortest-path trees from each node set
until a connection tree covering all keywords is found.  Results are at
the granularity of individual tuple trees.

Because BANKS returns tuple trees rather than SQL, `answer` renders each
group of connection trees rooted in the same table combination as one
SQL statement over that combination — the closest SQL-shaped equivalent
that preserves the tuple granularity for evaluation.

Reproduced limitations (Table 5): no inheritance semantics, no domain
ontology, no predicates, no aggregates.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.baselines.base import BaselineAnswer, KeywordSearchSystem, build_sql
from repro.index.inverted import tokenize_text


class Banks(KeywordSearchSystem):
    name = "BANKS"
    features = {
        "base_data": True,
        "schema": True,
        "inheritance": False,
        "domain_ontology": False,
        "predicates": False,
        "aggregates": False,
    }

    max_answers = 10

    # ------------------------------------------------------------------
    def answer(self, text: str) -> BaselineAnswer:
        answer = BaselineAnswer(system=self.name, query_text=text)
        if any(symbol in text for symbol in ("(", ">", "<", "=")):
            answer.supported = False
            answer.note = "operators and aggregates are outside the model"
            return answer

        graph = self._data_graph()
        segments = self.segment(text)
        keyword_nodes: list = []
        for segment in segments:
            nodes = self._nodes_for_keyword(graph, segment)
            if not nodes:
                answer.supported = False
                answer.note = f"no tuple or table matches keyword {segment!r}"
                return answer
            keyword_nodes.append(nodes)

        trees = self._backward_search(graph, keyword_nodes)
        if not trees:
            answer.note = "no connection tree found"
            return answer

        # group connection trees by the set of tables they span and emit
        # one statement per table combination
        by_tables: dict = defaultdict(list)
        for tree_nodes in trees:
            tables = tuple(sorted({node[0] for node in tree_nodes}))
            by_tables[tables].append(tree_nodes)
        for tables in sorted(by_tables):
            joins = self.join_tree(list(tables))
            if joins is None:
                continue
            involved = set(tables)
            for t1, __, t2, __ in joins:
                involved.add(t1)
                involved.add(t2)
            filters = []
            for segment in segments:
                hits = [
                    (table, column)
                    for table, column in self.keyword_hits(segment)
                    if table in tables
                ]
                if hits:
                    table, column = hits[0]
                    filters.append((table, column, segment))
            answer.sqls.append(build_sql(sorted(involved), joins, filters))
        if not answer.sqls:
            answer.note = "connection trees could not be rendered as SQL"
        return answer

    # ------------------------------------------------------------------
    def _data_graph(self) -> dict:
        """Tuple-level graph: node (table, row number) -> neighbour -> None.

        Edges are FK references, undirected.  Neighbours are a dict, not
        a set, so the search visits them in insertion order whatever the
        process hash seed.
        """
        graph: dict = {}
        catalog = self.database.catalog
        # index rows by (table, key value) for FK targets
        row_index: dict = {}
        for table in catalog.tables():
            keys = table.primary_key_columns()
            key_col = keys[0] if keys else table.columns[0].name
            keys = table.column_data(table.column_index(key_col))
            for row_number, key in enumerate(keys):
                node = (table.name, row_number)
                graph[node] = {}
                row_index[(table.name, key)] = node
        for table in catalog.tables():
            for fk in table.foreign_keys:
                references = table.column_data(table.column_index(fk.columns[0]))
                for row_number, reference in enumerate(references):
                    target = row_index.get((fk.ref_table, reference))
                    if target is not None:
                        source = (table.name, row_number)
                        graph[source][target] = None
                        graph[target][source] = None
        return graph

    def _nodes_for_keyword(self, graph: dict, segment: str) -> list:
        """Tuple nodes containing the keyword, plus whole-table matches."""
        nodes: list = []
        catalog = self.database.catalog
        for table, column in self.keyword_hits(segment):
            table_object = catalog.table(table)
            values = table_object.column_data(table_object.column_index(column))
            needle = " " + segment + " "
            for row_number, value in enumerate(values):
                if value is None:
                    continue
                haystack = " " + " ".join(tokenize_text(str(value))) + " "
                if needle in haystack:
                    nodes.append((table, row_number))
        # metadata nodes: keywords matching a table name select all tuples
        normalized = segment.replace(" ", "_")
        for table_name in self.database.table_names():
            stripped = table_name.rstrip("s")
            if normalized in (table_name, stripped):
                table_object = catalog.table(table_name)
                nodes.extend(
                    (table_name, row_number)
                    for row_number in range(min(len(table_object), 200))
                )
        return nodes

    def _backward_search(self, graph: dict, keyword_nodes: list) -> list:
        """Backward expanding search; returns connection-tree node sets."""
        if len(keyword_nodes) == 1:
            return [[node] for node in keyword_nodes[0][: self.max_answers]]

        # multi-source BFS from each keyword set, recording origins
        distances: list = []
        parents: list = []
        for nodes in keyword_nodes:
            dist: dict = {}
            parent: dict = {}
            frontier = list(dict.fromkeys(nodes))
            for node in frontier:
                dist[node] = 0
                parent[node] = None
            depth = 0
            while frontier and depth < 6:
                depth += 1
                next_frontier = []
                for node in frontier:
                    if node not in graph:
                        continue
                    for neighbour in graph[node]:
                        if neighbour not in dist:
                            dist[neighbour] = depth
                            parent[neighbour] = node
                            next_frontier.append(neighbour)
                frontier = next_frontier
            distances.append(dist)
            parents.append(parent)

        # candidate roots reachable from every keyword set
        candidates = []
        common = set(distances[0])
        for dist in distances[1:]:
            common &= set(dist)
        for node in common:
            cost = sum(dist[node] for dist in distances)
            candidates.append((cost, node))
        candidates.sort(key=lambda item: (item[0], str(item[1])))

        trees = []
        for __, root in candidates[: self.max_answers]:
            tree_nodes = set()
            for parent in parents:
                node = root
                while node is not None:
                    tree_nodes.add(node)
                    node = parent.get(node)
            trees.append(sorted(tree_nodes))
        return trees
