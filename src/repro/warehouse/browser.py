"""Schema browser (paper Section 5.3.2).

*"Next, they would use the SODA schema browser to dive deeper.  By an
interactive approach of generating automatic queries based on keywords
and analyzing the schema, they would identify potential flaws in the
schema design or data quality issues."*

The browser answers two navigation questions over one warehouse:

* :func:`describe_table` — everything about one physical table: columns,
  join relationships (flagging unannotated ones — the data-quality
  signal), inheritance role, refinement chain up to the business layer,
  and the ontology terms that classify it;
* :func:`describe_term` — where a business term anchors in the graph
  and which physical tables it ultimately reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WarehouseError
from repro.graph.node import Text, Vocab
from repro.graph.traversal import iter_reachable
from repro.index.classification import ClassificationIndex
from repro.warehouse.graphbuilder import (
    SCHEMA_EDGES,
    build_classification_index,
    table_uri,
)
from repro.warehouse.warehouse import Warehouse


@dataclass
class TableDescription:
    """The browser's view of one physical table."""

    name: str
    columns: list = field(default_factory=list)  # (name, type, pk)
    joins: list = field(default_factory=list)  # (description, annotated)
    inheritance_parent: str | None = None
    inheritance_children: list = field(default_factory=list)
    refinement_chain: list = field(default_factory=list)  # logical, conceptual
    classified_by: list = field(default_factory=list)  # ontology terms

    def render(self) -> str:
        lines = [f"table {self.name}"]
        lines.append("  columns:")
        for name, type_name, is_pk in self.columns:
            marker = " PK" if is_pk else ""
            lines.append(f"    {name} {type_name}{marker}")
        if self.refinement_chain:
            lines.append(
                "  implements: " + " <- ".join(self.refinement_chain)
            )
        if self.inheritance_parent:
            lines.append(f"  inherits from: {self.inheritance_parent}")
        if self.inheritance_children:
            lines.append(
                "  children: " + ", ".join(self.inheritance_children)
            )
        if self.joins:
            lines.append("  joins:")
            for description, annotated in self.joins:
                flag = "" if annotated else "  [NOT ANNOTATED IN GRAPH]"
                lines.append(f"    {description}{flag}")
        if self.classified_by:
            lines.append(
                "  classified by: " + ", ".join(self.classified_by)
            )
        return "\n".join(lines)


@dataclass
class TermDescription:
    """The browser's view of one searchable term."""

    term: str
    locations: list = field(default_factory=list)  # (source, node)
    reachable_tables: list = field(default_factory=list)

    def render(self) -> str:
        lines = [f"term {self.term!r}"]
        for source, node in self.locations:
            lines.append(f"  found in {source}: {node}")
        if self.reachable_tables:
            lines.append(
                "  reaches tables: " + ", ".join(self.reachable_tables)
            )
        if not self.locations:
            lines.append("  (unknown term)")
        return "\n".join(lines)


class SchemaBrowser:
    """Interactive-style navigation over one warehouse."""

    def __init__(self, warehouse: Warehouse) -> None:
        self.warehouse = warehouse
        self._classification: ClassificationIndex | None = None

    # ------------------------------------------------------------------
    def describe_table(self, table_name: str) -> TableDescription:
        definition = self.warehouse.definition
        table = definition.physical_table(table_name)  # raises if unknown
        description = TableDescription(name=table_name)

        for column in table.columns:
            description.columns.append(
                (column.name, column.sql_type, column.primary_key)
            )

        for join in definition.joins_of_table(table_name):
            rendered = (
                f"{join.left_table}.{join.left_column} = "
                f"{join.right_table}.{join.right_column} ({join.kind})"
            )
            description.joins.append((rendered, join.annotated))

        for inheritance in definition.inheritances:
            if inheritance.layer != "physical":
                continue
            if table_name in inheritance.children:
                description.inheritance_parent = inheritance.parent
            if inheritance.parent == table_name:
                description.inheritance_children.extend(inheritance.children)

        if table.refines is not None:
            logical = definition.logical_entity(table.refines)
            description.refinement_chain.append(f"logical:{logical.name}")
            if logical.refines is not None:
                description.refinement_chain.append(
                    f"conceptual:{logical.refines}"
                )

        # ontology terms pointing at the table, its columns, or the
        # logical/conceptual entities it implements
        from repro.warehouse.graphbuilder import (
            column_uri,
            conceptual_entity_uri,
            logical_entity_uri,
        )

        targets = [table_uri(table_name)] + [
            column_uri(table_name, column.name) for column in table.columns
        ]
        if table.refines is not None:
            targets.append(logical_entity_uri(table.refines))
            logical = definition.logical_entity(table.refines)
            if logical.refines is not None:
                targets.append(conceptual_entity_uri(logical.refines))
        found: set = set()
        for target in targets:
            for triple in self.warehouse.graph.match(
                predicate=Vocab.CLASSIFIES, obj=target
            ):
                label = self.warehouse.graph.object(triple.subject, Vocab.LABEL)
                if isinstance(label, Text):
                    found.add(label.value)
        description.classified_by = sorted(found)
        return description

    # ------------------------------------------------------------------
    def describe_term(self, term: str) -> TermDescription:
        if self._classification is None:
            self._classification = build_classification_index(
                self.warehouse.graph
            )
        description = TermDescription(term=term)
        reachable: set = set()
        for match in self._classification.lookup(term):
            description.locations.append((match.source.value, match.node))
            for node, __ in iter_reachable(
                self.warehouse.graph, match.node, predicates=SCHEMA_EDGES
            ):
                label = self.warehouse.graph.object(node, Vocab.TABLENAME)
                if isinstance(label, Text):
                    reachable.add(label.value)
        description.reachable_tables = sorted(reachable)
        return description

    def unannotated_joins(self) -> list:
        """All join relationships missing from the metadata graph.

        The data-quality report of the war stories: these are exactly
        the joins whose absence degrades recall (Q2.x).
        """
        return [
            join
            for join in self.warehouse.definition.join_relationships
            if not join.annotated
        ]
