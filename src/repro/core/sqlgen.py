"""Step 5 — SQL generation (paper Section 3, Step 5).

Combines everything collected earlier into one "reasonable, executable"
SQL statement: the FROM list is the final table set, the WHERE clause
holds the selected join conditions (including inheritance joins) and the
filters, aggregation queries get their GROUP BY / ORDER BY ... DESC
(the paper's Query 4 orders by the aggregate descending), and ``top N``
becomes ``LIMIT N``.

The statement is built as a :mod:`repro.sqlengine` AST, so it is
executable by construction; ``to_sql()`` renders the text shown to the
user.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.filters import FiltersResult, ResolvedAggregation
from repro.core.query import SodaQuery
from repro.core.tables import TablesResult
from repro.index.classification import EntrySource
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
)
from repro.sqlengine.catalog import Catalog


@dataclass
class GeneratedStatement:
    """One executable statement plus provenance."""

    select: Select
    sql: str
    tables: tuple
    disconnected: bool


class SqlGenerator:
    """Step 5, bound to the physical catalog (for key inference)."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def generate(
        self,
        query: SodaQuery,
        tables_result: TablesResult,
        filters_result: FiltersResult,
    ) -> GeneratedStatement | None:
        """Build the statement; returns None if no tables were found."""
        if not tables_result.tables:
            return None

        aggregations = list(filters_result.aggregations)
        if not aggregations and query.top_n is not None:
            aggregations.extend(self._business_aggregations(tables_result))

        group_refs = [
            ColumnRef(group.table, group.column)
            for group in filters_result.group_by
        ]
        if aggregations and query.top_n is not None and not group_refs:
            inferred = self._infer_group_key(tables_result)
            if inferred is not None:
                group_refs.append(inferred)

        where = self._where_clause(tables_result, filters_result)

        if aggregations:
            items = [
                SelectItem(expr=self._aggregate_expr(agg)) for agg in aggregations
            ]
            items.extend(SelectItem(expr=ref) for ref in group_refs)
            order_by = ()
            if group_refs or query.top_n is not None:
                order_by = (
                    OrderItem(
                        expr=self._aggregate_expr(aggregations[0]),
                        descending=True,
                    ),
                )
            select = Select(
                items=tuple(items),
                tables=tuple(
                    TableRef(name) for name in tables_result.tables
                ),
                where=where,
                group_by=tuple(group_refs),
                order_by=order_by,
                limit=query.top_n,
            )
        else:
            select = Select(
                items=(SelectItem(expr=None),),  # SELECT *
                tables=tuple(TableRef(name) for name in tables_result.tables),
                where=where,
                limit=query.top_n,
            )

        return GeneratedStatement(
            select=select,
            sql=select.to_sql(),
            tables=tuple(tables_result.tables),
            disconnected=not tables_result.is_connected,
        )

    # ------------------------------------------------------------------
    def _where_clause(
        self, tables_result: TablesResult, filters_result: FiltersResult
    ) -> Expr | None:
        conjuncts: list = []
        for join in tables_result.joins:
            conjuncts.append(
                BinaryOp(
                    "=",
                    ColumnRef(join.left_table, join.left_column),
                    ColumnRef(join.right_table, join.right_column),
                )
            )
        for condition in filters_result.filters:
            conjuncts.append(condition.expr)
        if not conjuncts:
            return None
        clause = conjuncts[0]
        for conjunct in conjuncts[1:]:
            clause = BinaryOp("AND", clause, conjunct)
        return clause

    @staticmethod
    def _aggregate_expr(agg: ResolvedAggregation) -> Expr:
        if agg.column is None:
            return FuncCall(name=agg.func, star=True)
        return FuncCall(name=agg.func, args=(ColumnRef(agg.table, agg.column),))

    @staticmethod
    def _business_aggregations(tables_result: TablesResult) -> list:
        """Metadata-defined aggregations ("trading volume" -> sum(amount))."""
        found: list = []
        for expansion in tables_result.expansions:
            for business in expansion.business_aggregations:
                agg = ResolvedAggregation(
                    func=business.func, table=business.table, column=business.column
                )
                if agg not in found:
                    found.append(agg)
        return found

    def _infer_group_key(self, tables_result: TablesResult):
        """Group key for ``top N`` entity rankings: the entity's PK.

        Picks the first metadata entry point that expanded to tables and
        uses the inheritance root of its expansion (the stable key for
        mutually exclusive children), falling back to the first table.
        """
        metadata_sources = (
            EntrySource.DOMAIN_ONTOLOGY,
            EntrySource.CONCEPTUAL_SCHEMA,
            EntrySource.LOGICAL_SCHEMA,
        )
        for expansion in tables_result.expansions:
            if expansion.entry.source not in metadata_sources:
                continue
            if not expansion.tables:
                continue
            if expansion.business_aggregations:
                continue  # the aggregation term itself is not the entity
            parents = {
                tables_result.inheritance_parents.get(name)
                for name in expansion.tables
            }
            parents.discard(None)
            roots = sorted(parent for parent in parents
                           if parent in expansion.tables)
            table_name = roots[0] if roots else sorted(expansion.tables)[0]
            if not self._catalog.has_table(table_name):
                continue
            table = self._catalog.table(table_name)
            keys = table.primary_key_columns()
            if keys:
                return ColumnRef(table_name, keys[0])
        return None
