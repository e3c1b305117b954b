"""SearchSession: stateless serving over one warm Soda engine."""

import pytest

from repro.core.serving import SearchSession
from repro.core.soda import Soda, SodaConfig


class TestSearchSession:
    def test_search_delegates_to_engine(self, soda):
        session = SearchSession(soda, execute=False)
        result = session.search("Zurich")
        assert result.statements
        assert all(s.snippet is None for s in result.statements)

    def test_limit_trims_statements(self, soda):
        session = SearchSession(soda, execute=False, limit=2)
        result = session.search("Sara")
        assert len(result.statements) <= 2

    def test_limit_preserves_order_and_metadata(self, soda):
        full = soda.search("Sara", execute=False)
        trimmed = SearchSession(soda, execute=False, limit=1).search("Sara")
        assert trimmed.statements == full.statements[:1]
        assert trimmed.query.describe() == full.query.describe()
        assert trimmed.complexity == full.complexity

    def test_sessions_share_the_engine_state(self, soda):
        a = SearchSession(soda, execute=False)
        b = SearchSession(soda, execute=False, limit=1)
        assert a.soda is b.soda
        assert a.search("Zurich").statements[:1] == b.search("Zurich").statements

    def test_session_is_frozen(self, soda):
        session = SearchSession(soda)
        with pytest.raises(Exception):
            session.execute = False

    def test_search_many_applies_limit(self, soda):
        session = SearchSession(soda, execute=False, limit=1)
        results = session.search_many(["Sara", "Sara", "Zurich"])
        assert len(results) == 3
        assert all(len(r.statements) <= 1 for r in results)
        # dedup survives trimming: duplicate inputs share one object
        assert results[0] is results[1]

    def test_best_sql(self, soda):
        session = SearchSession(soda)
        sql = session.best_sql("Zurich")
        assert sql is not None and sql.startswith("SELECT")
        assert session.best_sql("zzzkwxq") is None

    def test_explain_passthrough(self, soda):
        session = SearchSession(soda)
        sql = session.best_sql("Zurich")
        assert "scan" in session.explain(sql)

    def test_no_feedback_mutation(self, warehouse):
        engine = Soda(warehouse, SodaConfig())
        SearchSession(engine, execute=False).search("Zurich")
        assert len(engine.feedback) == 0


@pytest.fixture(scope="module")
def writable_warehouse():
    """A private warehouse this module may mutate (inserts, feedback)."""
    from repro.warehouse.minibank import build_minibank

    return build_minibank(seed=42, scale=0.25)


class TestSessionResultCache:
    def test_repeat_query_served_from_cache(self, soda):
        # the default cache is shared engine-wide, so other tests may
        # have touched it: assert on deltas with a text only we use
        session = SearchSession(soda, execute=False)
        before = session.cache_stats()
        first = session.search("gold agreement repeat probe")
        second = session.search("gold agreement repeat probe")
        assert second is first
        stats = session.cache_stats()
        assert stats["hits"] == before["hits"] + 1
        assert stats["misses"] == before["misses"] + 1

    def test_cache_is_shared_across_sessions(self, soda):
        # the PR-9 redesign: sessions with the same presentation knobs
        # serve each other's cached results (one cache per Soda)
        a = SearchSession(soda, execute=False)
        b = SearchSession(soda, execute=False)
        assert a.search("Zurich") is b.search("Zurich")
        # a session with a *private* cache computes its own objects
        c = SearchSession(soda, execute=False, result_cache_size=4)
        assert c.search("Zurich") is not a.search("Zurich")
        assert c.search("Zurich") is c.search("Zurich")

    def test_presentation_knobs_partition_the_shared_cache(self, soda):
        full = SearchSession(soda, execute=False)
        trimmed = SearchSession(soda, execute=False, limit=1)
        assert full.search("Sara") is not trimmed.search("Sara")
        assert len(trimmed.search("Sara").statements) <= 1

    def test_zero_capacity_disables_memo(self, soda):
        session = SearchSession(soda, execute=False, result_cache_size=0)
        assert session.search("Zurich") is not session.search("Zurich")
        assert session.cache_stats() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": 0,
        }

    def test_search_many_shares_cached_results(self, soda):
        session = SearchSession(soda, execute=False, limit=1)
        results = session.search_many(["Sara", "Sara", "Zurich"])
        assert results[0] is results[1]
        assert all(len(r.statements) <= 1 for r in results)
        # a later batch reuses the same memo entries
        again = session.search_many(["Sara"])
        assert again[0] is results[0]

    def test_insert_invalidates_cached_results(self, writable_warehouse):
        # a write to a table the cached statement reads drops the entry
        engine = Soda(writable_warehouse, SodaConfig())
        session = SearchSession(engine, execute=False)
        first = session.search("Zurich")
        table = first.best.statement.tables[0]
        columns = writable_warehouse.database.table(table).columns
        writable_warehouse.database.insert_rows(
            table, [tuple(None for __ in columns)]
        )
        second = session.search("Zurich")
        assert second is not first
        stats = session.cache_stats()
        assert (stats["misses"], stats["invalidations"]) == (2, 1)

    def test_insert_into_an_unrelated_table_keeps_cached_results(
        self, writable_warehouse
    ):
        # the mirror: no statement of the entry reads the written table
        # and no token it probed was touched, so the entry stays
        engine = Soda(writable_warehouse, SodaConfig())
        session = SearchSession(engine, execute=False)
        first = session.search("Zurich")
        read = {t for s in first.statements for t in s.statement.tables}
        table = next(
            name for name in writable_warehouse.database.table_names()
            if name not in read
        )
        columns = writable_warehouse.database.table(table).columns
        writable_warehouse.database.insert_rows(
            table, [tuple(None for __ in columns)]
        )
        assert session.search("Zurich") is first
        stats = session.cache_stats()
        assert (stats["hits"], stats["misses"], stats["invalidations"]) == (
            1, 1, 0,
        )

    def test_feedback_invalidates_cached_results(self, writable_warehouse):
        engine = Soda(writable_warehouse, SodaConfig())
        session = SearchSession(engine, execute=False)
        first = session.search("Zurich")
        best = first.best
        assert best is not None
        engine.feedback.like(best.sql)
        assert session.search("Zurich") is not first

    def test_feedback_clear_and_readd_invalidates(self, writable_warehouse):
        # clear() + a new judgement restores the old length; the token
        # must still change (FeedbackStore.version counts mutations)
        engine = Soda(writable_warehouse, SodaConfig())
        session = SearchSession(engine, execute=False)
        best = session.search("Zurich").best
        engine.feedback.like(best.sql)
        liked = session.search("Zurich")
        engine.feedback.clear()
        engine.feedback.dislike(best.sql)
        assert len(engine.feedback) == 1
        assert session.search("Zurich") is not liked

    def test_lru_eviction_respects_capacity(self, soda):
        session = SearchSession(soda, execute=False, result_cache_size=1)
        session.search("Zurich")
        session.search("Sara")  # evicts Zurich
        assert session.cache_stats()["size"] == 1
        session.search("Zurich")
        assert session.cache_stats()["misses"] == 3
