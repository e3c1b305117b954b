"""Tests for the cost-aware planner subsystem.

Covers logical lowering, the optimizer rules (constant folding,
predicate pushdown, projection pruning, statistics-driven join
ordering), the volcano physical operators (via naive-vs-optimized
equivalence), EXPLAIN determinism and the LRU plan cache.
"""

import random

import pytest

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import QueryPlanner, render_plan, lower_select
from repro.sqlengine.planner.cache import PlanCache
from repro.sqlengine.planner.logical import (
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.sqlengine.planner.optimizer import fold_constants
from repro.sqlengine.planner.stats import StatisticsProvider


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE small (id INT PRIMARY KEY, tag TEXT)")
    database.execute(
        "CREATE TABLE big (id INT PRIMARY KEY, small_id INT, amount REAL, "
        "status TEXT)"
    )
    database.execute("INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    database.execute(
        "INSERT INTO big VALUES "
        + ", ".join(
            f"({i}, {i % 3 + 1}, {i * 10.0}, "
            f"'{'OPEN' if i % 4 else 'DONE'}')"
            for i in range(1, 41)
        )
    )
    return database


class TestLowering:
    def test_canonical_plan_shape(self, db):
        select = parse_select(
            "SELECT tag FROM small, big WHERE small.id = big.small_id "
            "ORDER BY tag LIMIT 5"
        )
        root = lower_select(db.catalog, select)
        assert isinstance(root, LogicalLimit)
        assert isinstance(root.child, LogicalSort)
        assert isinstance(root.child.child, LogicalProject)
        filter_node = root.child.child.child
        assert isinstance(filter_node, LogicalFilter)
        assert isinstance(filter_node.child, LogicalJoin)
        assert filter_node.child.equi == ()  # canonical = cross join

    def test_scans_in_syntax_order(self, db):
        select = parse_select("SELECT count(*) FROM big, small")
        root = lower_select(db.catalog, select)
        scans = []

        def walk(node):
            if isinstance(node, LogicalScan):
                scans.append(node.binding)
            for child in node.children():
                walk(child)

        walk(root)
        assert scans == ["big", "small"]


class TestOptimizerRules:
    def test_constant_folding(self):
        select = parse_select("SELECT * FROM t WHERE id = 1 + 2")
        folded = fold_constants(select.where)
        assert folded.to_sql() == "(id = 3)"

    def test_always_true_conjunct_dropped(self, db):
        plan = db.explain("SELECT tag FROM small WHERE 1 = 1 AND tag = 'a'")
        assert "1 = 1" not in plan
        assert "filter: (tag = 'a')" in plan

    def test_folding_preserves_division_by_zero(self, db):
        from repro.errors import SqlExecutionError

        with pytest.raises(SqlExecutionError, match="division by zero"):
            db.execute("SELECT tag FROM small WHERE id = 1 / 0")

    def test_predicate_pushdown_reaches_scan(self, db):
        plan = db.explain(
            "SELECT tag FROM small, big "
            "WHERE small.id = big.small_id AND big.status = 'DONE'"
        )
        assert "scan big as big (40 rows) filter: (big.status = 'DONE')" in plan
        assert "residual" not in plan

    def test_projection_pruning_listed_in_plan(self, db):
        plan = db.explain(
            "SELECT tag FROM small, big WHERE small.id = big.small_id"
        )
        # big is narrowed to the join key; small needs both its columns
        # (join key + projected tag) so it keeps its full layout
        assert "[cols: small_id]" in plan
        assert "scan small as small (3 rows)\n" in plan + "\n"

    def test_no_pruning_with_star(self, db):
        plan = db.explain(
            "SELECT * FROM small, big WHERE small.id = big.small_id"
        )
        assert "[cols:" not in plan

    def test_join_order_starts_from_most_selective(self, db):
        # big shrinks to ~10 rows after the filter; small has 3 rows ->
        # small is still the cheapest start, big is hash-joined into it.
        plan = db.explain(
            "SELECT tag FROM big, small "
            "WHERE small.id = big.small_id AND big.status = 'DONE'"
        )
        assert "hash join big on" in plan

    def test_cardinality_estimates_present(self, db):
        plan = db.explain(
            "SELECT tag FROM small, big WHERE small.id = big.small_id"
        )
        assert "[~" in plan and "rows]" in plan

    def test_residual_predicate_stays_above_join(self, db):
        plan = db.explain(
            "SELECT tag FROM small, big "
            "WHERE small.id = big.small_id AND small.id + big.id > 4"
        )
        assert "residual filter ((small.id + big.id) > 4)" in plan


class TestExplain:
    def test_explain_is_deterministic(self, db):
        sql = (
            "SELECT status, count(*) FROM big, small "
            "WHERE small.id = big.small_id GROUP BY status "
            "ORDER BY count(*) DESC LIMIT 2"
        )
        assert db.explain(sql) == db.explain(sql)

    def test_explain_renders_every_stage(self, db):
        plan = db.explain(
            "SELECT DISTINCT status, count(*) FROM big GROUP BY status "
            "HAVING count(*) > 1 ORDER BY count(*) DESC LIMIT 2"
        )
        for needle in (
            "top-n 2 by count(*) DESC",  # Sort+Limit fused by the optimizer
            "distinct",
            "project status, count(*)",
            "aggregate group by status having (count(*) > 1)",
            "scan big as big (40 rows)",
        ):
            assert needle in plan

    def test_render_plan_matches_database_explain(self, db):
        select = parse_select("SELECT tag FROM small WHERE id = 2")
        planner = db.planner
        rendered = render_plan(planner.prepare(select).logical)
        assert rendered == db.explain("SELECT tag FROM small WHERE id = 2")


NAIVE_EQUIVALENCE_QUERIES = [
    "SELECT tag FROM small ORDER BY tag",
    "SELECT small.tag, big.amount FROM small, big "
    "WHERE small.id = big.small_id AND big.status = 'DONE' "
    "ORDER BY big.amount",
    "SELECT count(*), status FROM big GROUP BY status ORDER BY count(*)",
    "SELECT s.tag, sum(b.amount) FROM small s, big b "
    "WHERE s.id = b.small_id GROUP BY s.tag ORDER BY 2 DESC",
    "SELECT DISTINCT status FROM big ORDER BY status LIMIT 2",
    "SELECT s.tag, b.amount FROM small s "
    "LEFT JOIN big b ON s.id = b.small_id AND b.amount > 350 "
    "ORDER BY s.tag, b.amount",
    "SELECT count(*) FROM small a, small2 c, big b "
    "WHERE a.id = b.small_id AND c.id = a.id",
    "SELECT tag FROM small WHERE id IN (1, 3) OR tag = 'b' ORDER BY tag",
]


class TestNaiveOptimizedEquivalence:
    @pytest.fixture
    def planners(self, db):
        db.execute("CREATE TABLE small2 (id INT PRIMARY KEY, note TEXT)")
        db.execute("INSERT INTO small2 VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        naive = QueryPlanner(
            db.catalog, EngineConfig(plan_cache_size=0), optimize=False
        )
        return naive, db.planner

    @pytest.mark.parametrize("sql", NAIVE_EQUIVALENCE_QUERIES)
    def test_same_rows_and_columns(self, planners, sql):
        naive, optimized = planners
        select = parse_select(sql)
        naive_result = naive.execute(select)
        optimized_result = optimized.execute(select)
        assert naive_result.columns == optimized_result.columns
        assert sorted(naive_result.rows, key=repr) == sorted(
            optimized_result.rows, key=repr
        )


class TestPlanCache:
    def test_repeated_statement_hits_cache(self, db):
        sql = "SELECT tag FROM small WHERE id = 1"
        db.execute(sql)
        before = db.planner.cache.stats.hits
        db.execute(sql)
        db.execute(sql)
        assert db.planner.cache.stats.hits == before + 2

    def test_normalized_key_collapses_formatting(self, db):
        db.execute("SELECT tag FROM small WHERE id = 1")
        before = db.planner.cache.stats.hits
        db.execute("select  tag\nfrom small  where id = 1")
        assert db.planner.cache.stats.hits == before + 1

    def test_insert_invalidates_via_fingerprint(self, db):
        sql = "SELECT count(*) FROM small"
        assert db.execute(sql).rows == [(3,)]
        db.execute("INSERT INTO small VALUES (4, 'd')")
        assert db.execute(sql).rows == [(4,)]

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self, db):
        database = Database(config=EngineConfig(plan_cache_size=0))
        database.execute("CREATE TABLE t (id INT)")
        database.execute("SELECT * FROM t")
        database.execute("SELECT * FROM t")
        assert database.planner.cache.stats.hits == 0

    def test_cached_plan_sees_fresh_rows_after_replan(self, db):
        sql = "SELECT tag FROM small ORDER BY tag"
        first = db.execute(sql).column("tag")
        db.execute("INSERT INTO small VALUES (9, 'zz')")
        second = db.execute(sql).column("tag")
        assert second == first + ["zz"]

    def test_template_workload_plans_each_statement_once(self, db):
        planner = QueryPlanner(db.catalog, EngineConfig(plan_cache_size=16))
        for i in range(40):
            planner.execute(
                parse_select(f"SELECT id FROM big WHERE small_id = {i % 5}")
            )
        assert (planner.cache.stats.misses, planner.cache.stats.hits) == (5, 35)


class TestPerTableInvalidation:
    """Writes drop only the cached plans that scan the written table."""

    def test_write_to_other_table_keeps_plan_cached(self, db):
        small_sql = "SELECT tag FROM small WHERE id = 1"
        db.execute(small_sql)
        hits = db.planner.cache.stats.hits
        db.execute("UPDATE big SET status = 'HELD' WHERE id = 1")
        db.execute("INSERT INTO big VALUES (99, 1, 990.0, 'OPEN')")
        db.execute("DELETE FROM big WHERE id = 99")
        db.execute(small_sql)
        assert db.planner.cache.stats.hits == hits + 1
        assert db.planner.cache.stats.invalidations == 0

    def test_write_to_scanned_table_invalidates(self, db):
        big_sql = "SELECT count(*) FROM big WHERE status = 'DONE'"
        before = db.execute(big_sql).rows
        db.execute("UPDATE big SET status = 'OPEN' WHERE status = 'DONE'")
        assert db.execute(big_sql).rows == [(0,)]
        assert before != [(0,)]
        assert db.planner.cache.stats.invalidations == 1

    def test_update_invalidates_join_plans_of_either_table(self, db):
        join_sql = (
            "SELECT count(*) FROM small, big "
            "WHERE small.id = big.small_id AND small.tag = 'a'"
        )
        db.execute(join_sql)
        db.execute("UPDATE small SET tag = 'z' WHERE tag = 'a'")
        assert db.execute(join_sql).rows == [(0,)]
        assert db.planner.cache.stats.invalidations == 1

    def test_delete_then_count_via_cached_statement(self, db):
        sql = "SELECT count(*) FROM big"
        total = db.execute(sql).rows[0][0]
        removed = db.execute("DELETE FROM big WHERE status = 'DONE'").rowcount
        assert removed > 0
        assert db.execute(sql).rows == [(total - removed,)]

    def test_drop_and_recreate_invalidates_via_ddl_version(self, db):
        sql = "SELECT count(*) FROM small"
        assert db.execute(sql).rows == [(3,)]
        db.catalog.drop_table("small")
        db.execute("CREATE TABLE small (id INT PRIMARY KEY, tag TEXT)")
        # the re-created table starts empty; a stale plan would still
        # scan the old table object and report 3
        assert db.execute(sql).rows == [(0,)]

    def test_plan_optimized_before_a_write_is_not_stamped_after_it(
        self, db, monkeypatch
    ):
        # the stamp's marks are read before the optimizer reads
        # statistics: a write that lands while the plan is being built
        # leaves a pre-write stamp, and the next lookup re-plans
        import repro.sqlengine.planner as planner_module

        real_optimize = planner_module.optimize_plan

        def optimize_then_write(logical, catalog, statistics):
            optimized = real_optimize(logical, catalog, statistics)
            catalog.table("big").insert((999, 1, 5.0, "OPEN"))
            return optimized

        select = parse_select("SELECT count(*) FROM big WHERE status = 'OPEN'")
        monkeypatch.setattr(planner_module, "optimize_plan", optimize_then_write)
        db.planner.prepare(select)
        monkeypatch.setattr(planner_module, "optimize_plan", real_optimize)
        assert db.planner.cache.stats.invalidations == 0
        db.planner.prepare(select)
        assert db.planner.cache.stats.invalidations == 1
        assert db.planner.cache.stats.hits == 0


#: the mixed read/write workload: 5 cached templates on each of 8
#: tables, one UPDATE of a random table per 9 reads
MIXED_TABLES = 8
MIXED_TEMPLATES = 5
MIXED_OPS = 400


def _mixed_workload_hit_rate(flush_on_write: bool) -> tuple:
    """(hit rate of the reads, invalidations, writes) after warming.

    ``flush_on_write`` empties the whole plan cache after every write,
    which is what a cache stamped with every catalog table amounts to;
    both runs see the identical operation sequence.
    """
    rng = random.Random(23)
    db = Database()
    for t in range(MIXED_TABLES):
        db.create_table(f"t{t}", [("id", "INT"), ("grp", "INT"), ("v", "REAL")])
        db.insert_rows(
            f"t{t}", [(i, i % 20, float(rng.randrange(100))) for i in range(200)]
        )

    def read(t, grp):
        db.execute(
            f"SELECT grp, count(*), sum(v) FROM t{t} "
            f"WHERE grp = {grp} GROUP BY grp"
        )

    for t in range(MIXED_TABLES):
        for grp in range(MIXED_TEMPLATES):
            read(t, grp)
    stats = db.planner.cache.stats
    hits_at_warm, writes = stats.hits, 0
    rng = random.Random(5)
    for op in range(MIXED_OPS):
        t = rng.randrange(MIXED_TABLES)
        grp = rng.randrange(MIXED_TEMPLATES)
        if op % 10 == 9:
            db.execute(f"UPDATE t{t} SET v = v * 1.01 WHERE grp = {grp}")
            if flush_on_write:
                db.planner.cache.clear()
            writes += 1
        else:
            read(t, grp)
    reads = MIXED_OPS - writes
    return (stats.hits - hits_at_warm) / reads, stats.invalidations, writes


class TestMixedWorkloadInvalidation:
    def test_hit_rate_beats_a_whole_catalog_flush(self):
        per_table, invalidations, writes = _mixed_workload_hit_rate(False)
        flushed, __, __ = _mixed_workload_hit_rate(True)
        # most reads stay on cached plans, far above flushing everything
        # on every write over the same sequence ...
        assert per_table >= 0.60
        assert per_table >= flushed + 0.25
        # ... and a write drops at most the written table's templates
        assert invalidations <= writes * MIXED_TEMPLATES


class TestStatistics:
    def test_distinct_and_null_counts(self, db):
        provider = StatisticsProvider(db.catalog)
        stats = provider.table_stats("small")
        assert stats.row_count == 3
        assert stats.distinct("tag") == 3
        assert stats.null_fraction("tag") == 0.0

    def test_stats_cache_refreshes_on_growth(self, db):
        provider = StatisticsProvider(db.catalog)
        assert provider.table_stats("small").row_count == 3
        db.execute("INSERT INTO small VALUES (4, 'd')")
        assert provider.table_stats("small").row_count == 4

    def test_stats_cache_refreshes_after_drop_recreate(self, db):
        provider = StatisticsProvider(db.catalog)
        assert provider.table_stats("small").distinct("tag") == 3
        db.catalog.drop_table("small")
        db.execute("CREATE TABLE small (id INT PRIMARY KEY, tag TEXT)")
        db.execute("INSERT INTO small VALUES (1, 'z'), (2, 'z'), (3, 'z')")
        # same name and row count as before: only the DDL version differs
        assert provider.table_stats("small").distinct("tag") == 1


class TestSodaIntegration:
    def test_facade_explain(self, soda):
        result = soda.search("private customers family name", execute=False)
        plan = soda.explain(result.best.sql)
        assert "scan" in plan and "project" in plan

    def test_plan_cache_stats_exposed(self, soda):
        stats = soda.plan_cache_stats()
        assert stats.hits + stats.misses > 0
