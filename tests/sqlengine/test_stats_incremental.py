"""Planner statistics maintained from the write path (PR 13).

``tests/property/test_property_stats.py`` proves the maintained numbers
equal a full pass for any DML sequence.  This file pins the lifecycle
around them: when a summary is built, when it is only folded, when it is
thrown away, who owns the provider, and what the ``planner.stats.*``
counters say — the counters, not a timer, are what locks "no re-scan
after a write" in tier-1.
"""

import importlib.util
import sys
import threading
from pathlib import Path

from reference_stats import reference_table_stats
from repro.obs.metrics import registry
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import QueryPlanner
from repro.sqlengine.planner.stats import StatisticsProvider

ROWS = 400


def make_db(**config) -> Database:
    db = Database(config=EngineConfig(**config))
    db.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, qty INT, amount REAL, "
        "tag TEXT)"
    )
    db.insert_rows(
        "items",
        [(i, i % 17, float(i % 101), f"tag {i % 5}") for i in range(ROWS)],
    )
    return db


class Counters:
    """Movement of the ``planner.stats.*`` counters since construction."""

    NAMES = ("full_builds", "delta_rows", "rebins")

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> dict:
        return {
            name: registry().counter(f"planner.stats.{name}").value
            for name in Counters.NAMES
        }

    def moved(self) -> dict:
        now = self._read()
        return {name: now[name] - self._start[name] for name in self.NAMES}


def stats_observers(db: Database) -> list:
    return [
        observer
        for observer in db.catalog.observers()
        if isinstance(observer, StatisticsProvider)
    ]


class TestLifecycle:
    def test_registers_on_first_ask_not_before(self):
        db = make_db()
        assert stats_observers(db) == []  # the bulk load above was free
        db.execute("SELECT count(*) FROM items WHERE qty > 3")
        assert stats_observers(db) == [db.planner.statistics]

    def test_write_then_select_folds_without_a_full_build(self):
        db = make_db()
        db.execute("SELECT id FROM items WHERE id = 7")  # first plan
        counters = Counters()
        assert db.execute(
            "UPDATE items SET qty = qty + 1 WHERE id >= 100 AND id < 150"
        ).rowcount == 50
        db.execute("SELECT id FROM items WHERE id = 7")
        moved = counters.moved()
        assert moved["full_builds"] == 0
        assert moved["delta_rows"] == 50
        refresh = registry().histogram("planner.stats.refresh.seconds")
        assert refresh.count > 0
        assert db.planner.statistics.table_stats(
            "items"
        ) == reference_table_stats(db.table("items"))

    def test_unchanged_table_returns_the_same_snapshot(self):
        db = make_db()
        provider = db.planner.statistics
        first = provider.table_stats("items")
        assert provider.table_stats("items") is first
        db.execute("DELETE FROM items WHERE id = 3")
        assert provider.table_stats("items") is not first
        assert first.row_count == ROWS  # snapshots are immutable

    def test_update_touches_only_the_columns_that_changed(self):
        db = make_db()
        provider = db.planner.statistics
        provider.table_stats("items")
        counters = Counters()
        # qty moves inside its range; id/amount/tag keep their values
        db.execute("UPDATE items SET qty = 5 WHERE id < 40")
        provider.table_stats("items")
        assert counters.moved() == {
            "full_builds": 0, "delta_rows": 40, "rebins": 0,
        }

    def test_rolled_back_transaction_leaves_the_stats_of_an_untouched_catalog(
        self,
    ):
        untouched = make_db()
        db = make_db()
        provider = db.planner.statistics
        before = provider.table_stats("items")
        counters = Counters()
        db.execute("BEGIN")
        db.execute("DELETE FROM items WHERE id < 10 OR id > 390")
        db.execute("UPDATE items SET amount = amount * 3.5, tag = 'moved'")
        db.execute("INSERT INTO items VALUES (9000, 9000, -1.0, NULL)")
        assert provider.table_stats("items") != before
        db.execute("ROLLBACK")
        after = provider.table_stats("items")
        assert after == before
        assert after == StatisticsProvider(untouched.catalog).table_stats(
            "items"
        )
        assert counters.moved()["full_builds"] == 1  # the untouched one

    def test_reopened_database_builds_once_and_matches_the_closed_one(
        self, tmp_path
    ):
        db = Database(data_dir=str(tmp_path), wal_sync=False)
        db.execute(
            "CREATE TABLE items (id INT PRIMARY KEY, qty INT, amount REAL, "
            "tag TEXT)"
        )
        db.insert_rows(
            "items", [(i, i % 17, float(i), f"tag {i % 5}") for i in range(90)]
        )
        db.execute("DELETE FROM items WHERE id < 10")
        db.checkpoint()
        db.execute("UPDATE items SET qty = 99 WHERE id = 50")  # WAL tail
        before = db.planner.statistics.table_stats("items")
        db.close()

        reopened = Database(data_dir=str(tmp_path), wal_sync=False)
        counters = Counters()
        assert reopened.planner.statistics.table_stats("items") == before
        reopened.execute("INSERT INTO items VALUES (500, 1, 2.0, 'new')")
        reopened.planner.statistics.table_stats("items")
        assert counters.moved()["full_builds"] == 1
        reopened.close()

    def test_storage_changed_behind_the_observers_forces_a_rebuild(self):
        db = make_db()
        provider = db.planner.statistics
        provider.table_stats("items")
        table = db.table("items")
        # what checkpoint.restore_catalog does: bulk-load, then set the
        # version directly — no observer hears about it
        columns = [table.column_data(i) for i in range(len(table.columns))]
        columns[1] = [1] * len(table)
        table.load_columns(columns)
        table._version += 7
        counters = Counters()
        assert provider.table_stats("items") == reference_table_stats(table)
        assert counters.moved()["full_builds"] == 1


class TestDroppedTables:
    def test_provider_forgets_every_dropped_table(self):
        db = Database()
        provider = db.planner.statistics
        for number in range(50):
            name = f"scratch_{number}"
            db.execute(f"CREATE TABLE {name} (id INT PRIMARY KEY, v INT)")
            db.execute(f"INSERT INTO {name} VALUES (1, {number}), (2, 0)")
            db.execute(f"SELECT id FROM {name} WHERE v > 0")
            assert len(provider._summaries) == 1
            db.catalog.drop_table(name)
        assert provider._summaries == {}

    def test_recreated_table_gets_its_own_stats(self):
        db = Database()
        provider = db.planner.statistics
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        assert provider.table_stats("t").distinct("v") == 3
        db.catalog.drop_table("t")
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        # same name, same row count, same Table.version as before
        db.execute("INSERT INTO t VALUES (1, 7), (2, 7), (3, 7)")
        stats = provider.table_stats("t")
        assert stats.distinct("v") == 1
        assert stats.histogram("v").low == 7.0


class TestOneProviderPerCatalog:
    def test_second_planner_adopts_the_registered_provider(self):
        db = make_db()
        db.execute("SELECT id FROM items WHERE qty = 2")
        second = QueryPlanner(db.catalog)
        assert second.statistics is db.planner.statistics
        second.execute(parse_select("SELECT id FROM items WHERE qty = 3"))
        assert len(stats_observers(db)) == 1

    def test_planner_per_call_executor_does_not_stack_observers(self):
        db = make_db()
        select = parse_select("SELECT count(*) FROM items WHERE qty < 9")
        counters = Counters()
        for __ in range(5):
            assert QueryPlanner(db.catalog).execute(select).rows == [(216,)]
        assert len(stats_observers(db)) == 1
        assert counters.moved()["full_builds"] == 1

    def test_other_bin_settings_keep_their_own_provider(self):
        db = make_db()
        flat = StatisticsProvider(db.catalog, histogram_bins=0)
        assert flat.table_stats("items").histogram("qty") is None
        assert db.planner.statistics is not flat
        assert db.planner.statistics.table_stats("items").histogram(
            "qty"
        ) is not None


class TestConcurrentReaders:
    def test_stats_readers_and_a_writer_never_disagree_with_the_rows(self):
        db = make_db(segment_rows=64)
        provider = db.planner.statistics
        table = db.table("items")
        failures: list = []
        done = threading.Event()

        def reader() -> None:
            try:
                while not done.is_set():
                    stats = provider.table_stats("items")
                    histogram = stats.histogram("id")
                    # a snapshot is internally consistent: every id is
                    # non-NULL, so its histogram covers every row
                    if histogram.total != stats.row_count:
                        failures.append(
                            f"torn stats: {histogram.total} binned ids "
                            f"for {stats.row_count} rows"
                        )
            except Exception as exc:  # noqa: BLE001 - collect, don't die
                failures.append(f"reader raised {exc!r}")

        def writer() -> None:
            try:
                for op in range(120):
                    kind = op % 3
                    if kind == 0:
                        db.execute(
                            f"INSERT INTO items VALUES "
                            f"({1000 + op}, {op}, {op}.5, 'fresh')"
                        )
                    elif kind == 1:
                        db.execute(
                            f"UPDATE items SET qty = qty + 1, amount = -amount "
                            f"WHERE id >= {op} AND id < {op + 9}"
                        )
                    else:
                        db.execute(
                            f"DELETE FROM items WHERE id >= {3 * op} "
                            f"AND id < {3 * op + 4}"
                        )
            except Exception as exc:  # noqa: BLE001
                failures.append(f"writer raised {exc!r}")
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for __ in range(2)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert failures == []
        assert provider.table_stats("items") == reference_table_stats(table)


def _ledger_workloads():
    """``benchmarks/ledger/workloads.py``, loaded without touching sys.path."""
    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "ledger" / "workloads.py"
    )
    spec = importlib.util.spec_from_file_location("_ledger_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_engine_ingest_mix_loop_builds_each_table_once(tmp_path):
    """The ledger's write-heavy loop at smoke size, in process."""
    workloads = _ledger_workloads()
    sizes = workloads.SMOKE
    db = Database(
        data_dir=str(tmp_path), wal_sync=False,
        config=EngineConfig(segment_rows=256),
    )
    db.create_table("dims", workloads.DIMS_COLUMNS, primary_key=["id"])
    db.create_table("facts", workloads.FACTS_COLUMNS, primary_key=["id"])
    db.insert_rows("dims", workloads.engine_dims())
    for batch in workloads.engine_batches(sizes.facts, sizes.ingest_batch):
        db.insert_rows("facts", batch)
    counters = Counters()
    written = 0
    for iteration in range(sizes.engine_iterations):
        statements = workloads.engine_selects(iteration, sizes.facts)
        for name in workloads.engine_read_order(7, iteration):
            db.execute(statements[name])
        written += db.execute(
            workloads.engine_write(iteration, sizes.facts)[1]
        ).rowcount
    moved = counters.moved()
    assert moved["full_builds"] == 2  # facts and dims, once each
    assert moved["delta_rows"] == written
    assert db.planner.statistics.table_stats(
        "facts"
    ) == reference_table_stats(db.table("facts"))
    db.close()
