"""Domain ontologies (paper Section 2.2).

A domain ontology classifies data for a specific domain: *"At Credit
Suisse, customers are divided into private and corporate customers"*.
Ontology terms point at schema elements (``classifies``) and may carry

* a metadata-defined **filter** — the paper's "wealthy customers":
  customers whose salary exceeds a threshold defined in the metadata,
* a metadata-defined **aggregation** — the paper's "trading volume":
  the sum of transaction amounts (Section 4.4.2 discusses inferring
  "aggregation of transaction amount" from "trading volume").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FilterSpec:
    """A metadata-defined predicate: ``table.column <op> value``."""

    table: str
    column: str
    op: str  # one of: = <> < <= > >= like
    value: object


@dataclass(frozen=True)
class AggSpec:
    """A metadata-defined aggregation: ``func(table.column)``."""

    func: str  # 'sum' | 'count' | 'avg' | 'min' | 'max'
    table: str
    column: str


@dataclass(frozen=True)
class OntologyTerm:
    """One term of a domain ontology.

    *classifies* lists target specs: ``conceptual:Name``,
    ``logical:Name``, ``physical:table``, ``column:table.column`` or
    ``ontology:term`` (term hierarchies).
    """

    term: str
    classifies: tuple = ()
    filter: FilterSpec | None = None
    aggregation: AggSpec | None = None


@dataclass(frozen=True)
class Ontology:
    """A named domain ontology: a collection of terms."""

    name: str
    terms: tuple = ()
