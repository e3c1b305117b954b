"""Robustness and failure-injection tests.

A production system survives broken metadata, empty data and hostile
input.  These tests corrupt the warehouse in the ways the paper's war
stories describe (imperfect schema descriptions, unpopulated tables,
inconsistent modelling) and assert that SODA degrades gracefully
instead of crashing.
"""

import pytest

from repro.core.soda import Soda, SodaConfig
from repro.graph.node import Text, Vocab
from repro.graph.triples import TripleStore
from repro.warehouse.graphbuilder import table_uri
from repro.warehouse.minibank import build_definition, build_minibank
from repro.warehouse.warehouse import Warehouse


@pytest.fixture
def wh():
    return build_minibank(seed=42, scale=0.25)


class TestHostileInput:
    @pytest.mark.parametrize(
        "text",
        [
            "'; DROP TABLE parties; --",
            "((((((((",
            ">>>>> <<<<<",
            "date(9999-99-99)",
            "sum()" * 30,
            "a " * 200,
            "ümlaut-кириллица-漢字",
        ],
    )
    def test_garbage_queries_do_not_crash(self, wh, text):
        soda = Soda(wh)
        from repro.errors import ReproError

        try:
            result = soda.search(text, execute=True)
        except ReproError:
            return  # a clean library error is acceptable
        for statement in result.statements:
            assert statement.sql.startswith("SELECT")

    def test_sql_injection_in_values_is_escaped(self, wh):
        # a keyword matching a stored value containing a quote must not
        # break the generated SQL
        wh.database.insert_rows(
            "agreements_td",
            [(39999, 1, "O'Hara Special Agreement", None)],
        )
        wh.inverted.add("agreements_td", "agreement_nm",
                        "O'Hara Special Agreement")
        soda = Soda(wh)
        result = soda.search("ohara", execute=True)
        for statement in result.statements:
            assert statement.execution_error is None or (
                "exceeds" in statement.execution_error
            )


class TestEmptyWarehouse:
    def test_empty_database_searchable(self):
        definition = build_definition()
        warehouse = Warehouse.build(definition, populate=None)  # 0 rows
        soda = Soda(warehouse)
        # metadata queries still work
        result = soda.search("private customers family name")
        assert result.statements
        assert result.best.snippet is not None
        assert result.best.snippet.rows == []
        # base-data queries find nothing
        assert soda.search("Zurich").statements == []


class TestCorruptedMetadata:
    def test_table_without_tablename_is_skipped(self, wh):
        # injected node that matches `type physical_table` but carries no
        # tablename: the Table pattern must simply not match
        node = table_uri("ghost")
        wh.graph.add(node, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        soda = Soda(wh)
        result = soda.search("private customers", execute=False)
        assert result.statements
        assert all("ghost" not in s.sql for s in result.statements)

    def test_dangling_classifies_edge(self, wh):
        # ontology term pointing at a node that has no further structure
        from repro.warehouse.graphbuilder import ontology_term_uri

        term = ontology_term_uri("customer_ontology", "broken term")
        wh.graph.add(term, Vocab.TYPE, Vocab.ONTOLOGY_TERM)
        wh.graph.add(term, Vocab.LABEL, Text("broken term"))
        wh.graph.add(term, Vocab.CLASSIFIES, table_uri("nonexistent_tbl"))
        soda = Soda(wh)
        result = soda.search("broken term", execute=False)
        # the term resolves but yields no tables -> no statements, no crash
        assert result.statements == []

    def test_metadata_table_missing_from_database(self, wh):
        # graph knows a table the engine does not have (schema drift):
        # an ontology term classifies a phantom physical table
        from repro.warehouse.graphbuilder import ontology_term_uri

        node = table_uri("phantom_td")
        wh.graph.add(node, Vocab.TYPE, Vocab.PHYSICAL_TABLE)
        wh.graph.add(node, Vocab.TABLENAME, Text("phantom_td"))
        term = ontology_term_uri("customer_ontology", "phantom things")
        wh.graph.add(term, Vocab.TYPE, Vocab.ONTOLOGY_TERM)
        wh.graph.add(term, Vocab.LABEL, Text("phantom things"))
        wh.graph.add(term, Vocab.CLASSIFIES, node)
        soda = Soda(wh)
        result = soda.search("phantom things", execute=True)
        # the statement is generated but execution reports the error
        assert result.statements
        assert result.best.execution_error is not None

    def test_cyclic_refinement_terminates(self, wh):
        from repro.warehouse.graphbuilder import (
            conceptual_entity_uri,
            logical_entity_uri,
        )

        # refinement cycle: logical Parties -> conceptual Parties
        wh.graph.add(
            logical_entity_uri("Parties"),
            Vocab.REFINES,
            conceptual_entity_uri("Parties"),
        )
        soda = Soda(wh)
        result = soda.search("customers", execute=False)
        assert result.statements  # traversal's seen-set breaks the cycle


class TestUnpopulatedBridge:
    def test_empty_bridge_yields_empty_but_valid_result(self, wh):
        # the war story: bridge tables that are "not populated yet"
        wh.database.execute("DELETE FROM associate_employment")
        soda = Soda(wh)
        result = soda.search("customers names")
        assert result.best is not None
        if "associate_employment" in result.best.statement.tables:
            assert result.best.snippet is not None
            assert result.best.snippet.rows == []

    def test_ignoring_unpopulated_bridge_restores_results(self, wh):
        wh.database.execute("DELETE FROM associate_employment")
        wh.ignore_join("j_assoc_indiv")
        wh.ignore_join("j_assoc_org")
        soda = Soda(wh)
        result = soda.search("customers names")
        assert result.best is not None
        assert "associate_employment" not in result.best.statement.tables
