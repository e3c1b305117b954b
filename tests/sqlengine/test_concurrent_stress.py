"""Threaded stress: N reader threads never observe torn writes.

The concurrent storage contract of PR 9: a query pins a
``(frozen segments, delta snapshot)`` set at execution start, so a
reader sees *some* consistent past state — never a half-applied
UPDATE, never a row present in one column scan and absent from
another.  Every mutation here preserves two per-state invariants:

* every row has ``unit = 1`` and ``a + b = 100``;
* therefore any consistent snapshot satisfies
  ``COUNT(*) = SUM(unit)`` and ``SUM(a) + SUM(b) = 100 * COUNT(*)``.

Readers hammer those aggregates (in one batch or across many) while one
writer thread interleaves single-statement UPDATE/INSERT/DELETE; any
torn read breaks an equality.  A final check proves the decoded rows
and a fresh pin converged to the same bytes.  The default engine config
gets the same guarantee: its scans race scattered and range DELETEs and
UPDATEs without an error, and answer as the reference interpreter does
once the writer stops.
"""

import sys
import threading

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

from tests.sqlengine.reference_engine import reference_execute, snapshot_rows

READERS = 4
WRITER_OPS = 150
START_ROWS = 120


def _build() -> Database:
    db = Database(config=EngineConfig(segment_rows=32))
    db.execute(
        "CREATE TABLE funds (id INT PRIMARY KEY, unit INT, a INT, b INT)"
    )
    db.execute(
        "INSERT INTO funds VALUES "
        + ", ".join(f"({i}, 1, {30 + i % 40}, {70 - i % 40})"
                    for i in range(START_ROWS))
    )
    return db


def _run_stress(db: Database) -> list:
    """Readers assert snapshot invariants while one writer churns."""
    failures: list = []
    done = threading.Event()

    def reader() -> None:
        while not done.is_set():
            try:
                row = db.execute(
                    "SELECT COUNT(*), SUM(unit), SUM(a), SUM(b) FROM funds"
                ).rows[0]
                count, units, a_sum, b_sum = row
                if count == 0:
                    continue
                if units != count:
                    failures.append(f"torn row count: {row}")
                if a_sum + b_sum != 100 * count:
                    failures.append(f"torn update: {row}")
            except Exception as exc:  # noqa: BLE001 - collect, don't die
                failures.append(f"reader raised {type(exc).__name__}: {exc}")

    def writer() -> None:
        try:
            for op in range(WRITER_OPS):
                kind = op % 4
                if kind in (0, 1):
                    # atomic single-statement transfer keeps a + b = 100
                    db.execute(
                        f"UPDATE funds SET a = a + 1, b = b - 1 "
                        f"WHERE id = {op % START_ROWS}"
                    )
                elif kind == 2:
                    db.execute(
                        f"INSERT INTO funds VALUES "
                        f"({1000 + op}, 1, 45, 55)"
                    )
                else:
                    db.execute(f"DELETE FROM funds WHERE id = {1000 + op - 1}")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer raised {type(exc).__name__}: {exc}")
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for __ in range(READERS)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    done.set()
    return failures


class TestConcurrentStress:
    def test_readers_see_only_consistent_snapshots(self):
        db = _build()
        failures = _run_stress(db)
        assert not failures, failures[:5]
        # after the dust settles: decoded rows and a fresh pin agree
        table = db.table("funds")
        assert snapshot_rows(table.pin()) == table.rows

    def test_readers_with_many_batch_scans(self, monkeypatch):
        # with 16-row batches every scan spans several batches; each
        # later batch must come from the snapshot the first one pinned,
        # not from live state the writer has moved on
        import repro.sqlengine.planner.physical as physical

        monkeypatch.setattr(physical, "BATCH_SIZE", 16)
        db = _build()
        failures = _run_stress(db)
        assert not failures, failures[:5]

    def test_multi_statement_pinned_read_is_stable(self):
        from repro.sqlengine.segments import pinned

        db = _build()
        pins = db.catalog.pin_tables(["funds"])
        failures: list = []
        done = threading.Event()

        def churn() -> None:
            for op in range(60):
                db.execute(f"INSERT INTO funds VALUES ({2000 + op}, 1, 1, 99)")
                db.execute(f"DELETE FROM funds WHERE id = {op}")
            done.set()

        def pinned_reader() -> None:
            while not done.is_set():
                try:
                    with pinned(pins):
                        first = db.execute(
                            "SELECT COUNT(*) FROM funds"
                        ).rows[0][0]
                        second = db.execute(
                            "SELECT SUM(unit) FROM funds"
                        ).rows[0][0]
                    if (first, second) != (START_ROWS, START_ROWS):
                        failures.append((first, second))
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))

        threads = [threading.Thread(target=pinned_reader) for __ in range(2)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:5]


def test_code_reusing_writer_never_tears_a_decoded_read():
    """Readers group and filter on an encoded TEXT column while a writer
    frees dictionary codes and interns new values into them.  Every row
    has ``a = length(tag)``, so a code decoded through the wrong
    dictionary version breaks the per-group sums."""
    db = Database(config=EngineConfig(segment_rows=32))
    db.execute("CREATE TABLE t (id INT, tag TEXT, a INT)")
    db.insert_rows(
        "t", [(i, "x" * (1 + i % 5), 1 + i % 5) for i in range(200)]
    )
    failures: list = []
    done = threading.Event()

    def reader() -> None:
        while not done.is_set():
            try:
                for tag, count, total in db.execute(
                    "SELECT tag, count(*), sum(a) FROM t GROUP BY tag"
                ).rows:
                    if total != count * len(tag):
                        failures.append((tag, count, total))
                for tag, a in db.execute(
                    "SELECT tag, a FROM t WHERE tag LIKE 'z%' OR tag = 'xx'"
                ).rows:
                    if a != len(tag):
                        failures.append((tag, a))
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))

    def writer() -> None:
        try:
            for op in range(120):
                width = 1 + op % 7
                # a fresh value takes the code the last delete freed
                db.execute(
                    f"INSERT INTO t VALUES ({1000 + op}, '{'z' * width}', "
                    f"{width})"
                )
                db.execute(
                    f"UPDATE t SET tag = '{'y' * width}', a = {width} "
                    f"WHERE id = {op * 13 % 200}"
                )
                db.execute(f"DELETE FROM t WHERE id = {1000 + op}")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer raised {exc!r}")
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for __ in range(READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]


def test_zone_skipping_readers_find_every_row():
    """Point lookups skip frozen segments by their memoised zones while
    a writer replaces segments (copy-on-write UPDATE, compaction) and
    freezes new ones; every lookup still finds its one consistent row."""
    rows = 2600
    db = Database(config=EngineConfig(segment_rows=64))
    db.execute("CREATE TABLE funds (id INT, a INT, b INT)")
    db.insert_rows("funds", [(i, i % 40, 100 - i % 40) for i in range(rows)])
    failures: list = []
    done = threading.Event()

    def reader(offset: int) -> None:
        k = offset
        while not done.is_set():
            k = (k * 7919 + 13) % rows
            try:
                found = db.execute(
                    f"SELECT a + b FROM funds WHERE id = {k}"
                ).rows
                if found != [(100,)]:
                    failures.append((k, found))
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))

    def writer() -> None:
        try:
            for op in range(200):
                db.execute(
                    f"UPDATE funds SET a = a + 1, b = b - 1 "
                    f"WHERE id = {op * 37 % rows}"
                )
                db.execute(f"INSERT INTO funds VALUES ({10_000 + op}, 1, 99)")
                if op % 2:
                    db.execute(f"DELETE FROM funds WHERE id = {10_000 + op}")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer raised {exc!r}")
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(READERS)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]


#: what the default-config readers scan: whole-table aggregates, a
#: GROUP BY, a filtered projection and a top-N
SCANS = [
    "SELECT COUNT(*), SUM(a), SUM(b) FROM funds",
    "SELECT a, COUNT(*), SUM(b) FROM funds GROUP BY a",
    "SELECT id, a FROM funds WHERE b > 60 AND m < 20",
    "SELECT id, b FROM funds ORDER BY b DESC, id LIMIT 25",
]


def test_default_config_scans_race_deletes_and_updates():
    """Four readers scan a default ``Database()`` (frozen segments and a
    delta) while one writer runs scattered DELETEs (the keep-mask
    path), range DELETEs (tombstones and compaction) and UPDATEs; no
    reader raises, and once the writer stops every scan answers what
    ``reference_execute`` answers."""
    rows = 6000
    db = Database()
    db.execute("CREATE TABLE funds (id INT, m INT, a INT, b INT)")
    db.insert_rows(
        "funds", [(i, i % 97, i % 40, 100 - i % 40) for i in range(rows)]
    )
    assert db.table("funds").segment_stats()["segments"] == 1
    failures: list = []
    done = threading.Event()

    def reader(offset: int) -> None:
        turn = offset
        while not done.is_set():
            try:
                db.execute(SCANS[turn % len(SCANS)])
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))
            turn += 1

    def writer() -> None:
        try:
            for op in range(40):
                if op % 3 == 0:
                    db.execute(f"DELETE FROM funds WHERE m = {op}")
                elif op % 3 == 1:
                    start = op * 131 % rows
                    db.execute(
                        f"DELETE FROM funds WHERE id >= {start} "
                        f"AND id < {start + 40}"
                    )
                else:
                    db.execute(
                        f"UPDATE funds SET a = a + 1, b = b - 1 "
                        f"WHERE m >= {op} AND m < {op + 9}"
                    )
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer raised {exc!r}")
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(READERS)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]
    for sql in SCANS:
        expected = reference_execute(db, sql)
        assert db.execute(sql).rows == expected.rows, sql
