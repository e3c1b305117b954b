"""DISCOVER (Hristidis, Papakonstantinou — VLDB 2002), simplified.

DISCOVER computes, per keyword, the *tuple set* of every table that
contains the keyword, then enumerates **candidate networks**: join
expressions over tuple sets and "free" intermediate tables, bounded by a
maximum size, using the schema's key/foreign-key edges.  Each candidate
network is translated to one SQL statement.

Reproduced limitations (Table 5): base data only (no schema/metadata
matching), no inheritance/ontology/predicates/aggregates, and cyclic
schema subgraphs break the candidate-network generator.
"""

from __future__ import annotations

import itertools

from repro.baselines.base import BaselineAnswer, KeywordSearchSystem, build_sql


class Discover(KeywordSearchSystem):
    name = "DISCOVER"
    features = {
        "base_data": "partial",  # (X): breaks on cycles
        "schema": False,
        "inheritance": False,
        "domain_ontology": False,
        "predicates": False,
        "aggregates": False,
    }

    #: maximum candidate-network size (tables), the paper's Tmax
    max_network_size = 5
    max_networks = 12

    def answer(self, text: str) -> BaselineAnswer:
        answer = BaselineAnswer(system=self.name, query_text=text)
        if any(symbol in text for symbol in ("(", ">", "<", "=")):
            answer.supported = False
            answer.note = "operators and aggregates are outside the model"
            return answer

        segments = self.segment(text)
        tuple_sets = []
        for segment in segments:
            hits = self.keyword_hits(segment)
            if not hits:
                answer.supported = False
                answer.note = f"empty tuple set for keyword {segment!r}"
                return answer
            tuple_sets.append([(segment, table, column) for table, column in hits])

        networks = self._candidate_networks(tuple_sets)
        for tables, filters in networks[: self.max_networks]:
            joins = self.join_tree(tables)
            if joins is None:
                continue
            involved = set(tables)
            for t1, __, t2, __ in joins:
                involved.add(t1)
                involved.add(t2)
            if len(involved) > self.max_network_size:
                continue
            if self.schema_has_cycle(involved):
                answer.caveat = "candidate network touches a schema cycle"
            answer.sqls.append(build_sql(sorted(involved), joins, filters))
        if not answer.sqls:
            answer.note = "no candidate network within the size bound"
        return answer

    def _candidate_networks(self, tuple_sets: list) -> list:
        """All combinations of per-keyword tuple-set choices."""
        networks = []
        for combination in itertools.islice(
            itertools.product(*tuple_sets), 48
        ):
            tables = sorted({table for __, table, __ in combination})
            filters = [
                (table, column, segment)
                for segment, table, column in combination
            ]
            networks.append((tables, filters))
        return networks
