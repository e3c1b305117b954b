"""The `Warehouse` facade: definition + database + metadata graph + indexes.

Bundles everything SODA needs about one data warehouse:

* the declarative :class:`~repro.warehouse.model.WarehouseDefinition`,
* the populated relational :class:`~repro.sqlengine.database.Database`,
* the metadata graph (a :class:`~repro.graph.triples.TripleStore`),
* the base-data inverted index (incrementally maintained: an
  :class:`~repro.index.maintenance.InvertedIndexMaintainer` is
  registered on the catalog, so INSERT/UPDATE/DELETE/DDL keep the
  index fresh without rebuilds),
* a cache of classification-index variants shared by every `Soda`
  built on this warehouse.

A warehouse can persist its built indexes as a versioned snapshot
(:meth:`save_index_snapshot`) and warm-start from it
(:meth:`Warehouse.build` with ``snapshot=path``), skipping the
full catalog scan that the paper reports as a 24-hour build.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Callable

from repro.errors import GraphError, WarehouseError
from repro.graph.node import Text, Vocab
from repro.graph.triples import TripleStore
from repro.index.inverted import InvertedIndex
from repro.index.maintenance import InvertedIndexMaintainer
from repro.index.snapshot import (
    IndexSnapshot,
    catalog_digest,
    load_snapshot,
    save_snapshot,
)
from repro.sqlengine.database import Database
from repro.warehouse.graphbuilder import (
    build_classification_index,
    build_metadata_graph,
    column_uri,
    graph_statistics,
    join_uri,
)
from repro.warehouse.model import WarehouseDefinition, build_database

logger = logging.getLogger(__name__)


class Warehouse:
    """One fully materialised data warehouse."""

    def __init__(
        self,
        definition: WarehouseDefinition,
        database: Database,
        graph: TripleStore,
        inverted: InvertedIndex,
        maintain_indexes: bool = True,
    ) -> None:
        self.definition = definition
        self.database = database
        self.graph = graph
        self.inverted = inverted
        self.maintainer: "InvertedIndexMaintainer | None" = None
        # (include_dbpedia, include_physical) -> (graph version, index)
        self._classification_cache: dict = {}
        if maintain_indexes:
            self.enable_index_maintenance()

    @classmethod
    def build(
        cls,
        definition: WarehouseDefinition,
        populate: "Callable[[Database], None] | None" = None,
        snapshot: "str | None" = None,
        engine_config=None,
    ) -> "Warehouse":
        """Create tables, load data, build graph and build/load indexes.

        With *snapshot*, the inverted and classification indexes are
        warm-started from that file instead of scanned from the catalog;
        a missing, malformed or stale snapshot falls back to the cold
        build with a logged warning saying why (use
        :meth:`load_index_snapshot` for strict loading).  With
        *engine_config*, the underlying SQL engine uses those settings
        (segment size, plan-cache size, …) instead of defaults.
        """
        database = build_database(definition, engine_config=engine_config)
        if populate is not None:
            populate(database)
        graph = build_metadata_graph(definition)
        loaded: "IndexSnapshot | None" = None
        if snapshot is not None:
            try:
                candidate = load_snapshot(snapshot)
                candidate.verify(
                    definition.name,
                    database.catalog.fingerprint(),
                    catalog_digest(database.catalog),
                )
                loaded = candidate
            except WarehouseError as exc:
                kind = getattr(exc, "kind", "") or "stale"
                logger.warning(
                    "index snapshot %s unusable (%s): %s -- "
                    "falling back to cold index build",
                    snapshot,
                    kind,
                    exc,
                )
                loaded = None
        inverted = (
            loaded.inverted if loaded is not None
            else InvertedIndex.build(database.catalog)
        )
        warehouse = cls(
            definition=definition,
            database=database,
            graph=graph,
            inverted=inverted,
        )
        if loaded is not None:
            warehouse._adopt_classifications(loaded)
        return warehouse

    # ------------------------------------------------------------------
    # long-lived index maintenance and warm-start snapshots
    # ------------------------------------------------------------------
    def enable_index_maintenance(self) -> InvertedIndexMaintainer:
        """Register write-through maintenance of the inverted index."""
        if self.maintainer is not None:
            self.database.catalog.unregister_observer(self.maintainer)
        self.maintainer = InvertedIndexMaintainer(self.inverted)
        self.database.catalog.register_observer(self.maintainer)
        return self.maintainer

    def classification_index(
        self,
        include_dbpedia: bool = True,
        include_physical: bool = False,
    ):
        """The classification index for one flag combination, memoized.

        The cache key includes the metadata-graph version, so graph
        repairs (:meth:`annotate_join` and friends) invalidate
        naturally while every `Soda` built on an unchanged warehouse
        shares one index build.
        """
        key = (include_dbpedia, include_physical)
        cached = self._classification_cache.get(key)
        if cached is not None and cached[0] == self.graph.version:
            return cached[1]
        index = build_classification_index(
            self.graph,
            include_dbpedia=include_dbpedia,
            include_physical=include_physical,
        )
        self._classification_cache[key] = (self.graph.version, index)
        return index

    def index_snapshot(self) -> IndexSnapshot:
        """The current indexes bundled for serialization."""
        return IndexSnapshot(
            name=self.definition.name,
            fingerprint=self.database.catalog.fingerprint(),
            content_digest=catalog_digest(self.database.catalog),
            inverted=self.inverted,
            classifications={
                key: index
                for key, (version, index) in sorted(
                    self._classification_cache.items()
                )
                if version == self.graph.version
            },
        )

    def save_index_snapshot(self, path) -> None:
        """Persist the built indexes, stamped with the catalog fingerprint."""
        save_snapshot(self.index_snapshot(), path)

    def load_index_snapshot(self, path) -> IndexSnapshot:
        """Replace the live indexes with a snapshot's (strict).

        Raises :class:`WarehouseError` when the snapshot does not match
        this warehouse's name and catalog fingerprint.  `Soda` instances
        constructed before the load keep the old index objects; build
        new ones to serve from the snapshot.
        """
        snapshot = load_snapshot(path)
        snapshot.verify(
            self.definition.name,
            self.database.catalog.fingerprint(),
            catalog_digest(self.database.catalog),
        )
        self.inverted = snapshot.inverted
        if self.maintainer is not None:
            self.enable_index_maintenance()  # re-point at the new index
        self._adopt_classifications(snapshot)
        return snapshot

    def _adopt_classifications(self, snapshot: IndexSnapshot) -> None:
        for key, index in snapshot.classifications.items():
            self._classification_cache[key] = (self.graph.version, index)

    # ------------------------------------------------------------------
    # metadata repair (the paper's war stories, Section 5.3.1)
    # ------------------------------------------------------------------
    def annotate_join(self, join_name: str) -> None:
        """Add a previously unannotated join relationship to the graph.

        This is the paper's remedy for the bi-temporal historization
        recall loss: *"the schema graph needs to be annotated with join
        relationships that reflect bi-temporal historization"*.  The next
        `Soda` built on this warehouse immediately uses the join.
        """
        join = self._join_by_name(join_name)
        node = join_uri(join.name)
        if list(self.graph.outgoing(node)):
            raise WarehouseError(f"join {join_name!r} is already annotated")
        left = column_uri(join.left_table, join.left_column)
        right = column_uri(join.right_table, join.right_column)
        self.graph.add(node, Vocab.TYPE, Vocab.JOIN_NODE)
        self.graph.add(node, Vocab.JOIN_LEFT, left)
        self.graph.add(node, Vocab.JOIN_RIGHT, right)
        self.graph.add(left, Vocab.HAS_JOIN, node)
        self.graph.add(right, Vocab.HAS_JOIN, node)
        index = self.definition.join_relationships.index(join)
        self.definition.join_relationships[index] = dataclasses.replace(
            join, annotated=True
        )

    def ignore_join(self, join_name: str) -> None:
        """Annotate a join relationship as ignored.

        The paper: *"if some database tables that are part of a bridge
        table between siblings are not populated yet, the schema can be
        annotated indicating that the respective relationship should be
        ignored"*.  SODA's join discovery skips ignored join nodes.
        """
        join = self._join_by_name(join_name)
        node = join_uri(join.name)
        if not list(self.graph.outgoing(node)):
            raise WarehouseError(
                f"join {join_name!r} is not annotated in the graph"
            )
        self.graph.add(node, Vocab.IGNORED, Text("true"))

    def unignore_join(self, join_name: str) -> None:
        """Remove the ignore annotation from a join relationship."""
        join = self._join_by_name(join_name)
        node = join_uri(join.name)
        try:
            self.graph.remove(node, Vocab.IGNORED, Text("true"))
        except GraphError as exc:  # the triple is not there: not ignored
            raise WarehouseError(
                f"join {join_name!r} is not ignored"
            ) from exc

    def _join_by_name(self, join_name: str):
        for join in self.definition.join_relationships:
            if join.name == join_name:
                return join
        raise WarehouseError(f"no join relationship named {join_name!r}")

    # ------------------------------------------------------------------
    def row_counts(self) -> dict:
        """Table name -> row count."""
        return {
            name: self.database.row_count(name)
            for name in self.database.table_names()
        }

    def statistics(self) -> dict:
        """Combined schema/graph/index statistics."""
        stats = dict(self.definition.schema_statistics())
        stats.update({f"graph_{k}": v for k, v in graph_statistics(self.graph).items()})
        stats.update(
            {f"index_{k}": v for k, v in self.inverted.size_summary().items()}
        )
        stats["total_rows"] = sum(self.row_counts().values())
        return stats
