"""Durability: WAL codec, checkpoints, crash recovery, fault injection.

The centerpiece is the byte-budget sweep: the same workload is run
against a :class:`FaultInjector` that kills the write path after *N*
bytes, for every *N* from 0 to the workload's total WAL traffic, and
each torn prefix must recover to a state byte-identical to an oracle
that executed only the statements acknowledged before the crash.
"""

import gzip
import os
import struct
import zlib
from pathlib import Path

import pytest

from repro.errors import RecoveryError, SqlExecutionError, TransactionError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.txn import (
    FaultInjector,
    FileLogStorage,
    InjectedCrash,
)
from repro.sqlengine.txn.wal import (
    MemoryLogStorage,
    dump_payload,
    encode_record,
    load_payload,
    scan_records,
)

DATA = Path(__file__).parent / "data"

#: the statements behind ``data/legacy_dict_checkpoint.json.gz`` (run,
#: then ``CHECKPOINT``, by a build that dictionary-encoded TEXT columns)
LEGACY_DICT_SQL = [
    "CREATE TABLE accounts (id INT PRIMARY KEY, status TEXT, region TEXT, "
    "balance REAL)",
    "INSERT INTO accounts VALUES (1, 'OPEN', 'north', 10.5), "
    "(2, 'HELD', 'south', 0.0), (3, 'OPEN', 'east', 7.25), "
    "(4, 'GONE', 'north', 1.0), (5, NULL, 'west', NULL), "
    "(6, 'DONE', NULL, 3.5)",
    "DELETE FROM accounts WHERE id = 4",
    "UPDATE accounts SET region = 'south' WHERE id = 3",
]

SEED_SQL = [
    "CREATE TABLE items (id INT PRIMARY KEY, grp INT, amount REAL, "
    "label TEXT)",
    "INSERT INTO items VALUES (1, 1, 10.0, 'alpha'), (2, 1, 20.0, 'beta')",
]

WORKLOAD_SQL = SEED_SQL + [
    "INSERT INTO items VALUES (3, 2, 30.0, NULL)",
    "UPDATE items SET amount = amount + 1.0 WHERE grp = 1",
    "BEGIN",
    "INSERT INTO items VALUES (4, 2, 40.0, 'delta')",
    "DELETE FROM items WHERE id = 1",
    "COMMIT",
    "UPDATE items SET label = 'last' WHERE id = 3",
]


def catalog_state(db: Database) -> dict:
    state = {"fingerprint": db.catalog.fingerprint()}
    for name in db.table_names():
        table = db.table(name)
        state[name] = {
            "rows": list(table.rows),
            "columns": [
                list(table.column_data(i)) for i in range(len(table.columns))
            ],
        }
    return state


def oracle_state(statements) -> dict:
    """The state an in-memory database reaches executing *statements*.

    An open explicit transaction at the end is rolled back — a crash
    discards uncommitted work by definition.
    """
    db = Database()
    for sql in statements:
        db.execute(sql)
    if db.txn.active:
        db.execute("ROLLBACK")
    return catalog_state(db)


class TestRecordCodec:
    def test_round_trip(self):
        payload = dump_payload({"t": "sql", "sql": "SELECT 1"})
        record = encode_record(payload)
        payloads, length, corruption = scan_records(record)
        assert payloads == [payload]
        assert length == len(record)
        assert corruption is None
        assert load_payload(payloads[0]) == {"t": "sql", "sql": "SELECT 1"}

    def test_date_values_survive(self):
        import datetime

        day = datetime.date(2024, 2, 29)
        out = load_payload(dump_payload({"rows": [[1, day]]}))
        assert out == {"rows": [[1, day]]}

    def test_empty_log(self):
        assert scan_records(b"") == ([], 0, None)

    def test_torn_header_tolerated(self):
        record = encode_record(b"hello")
        payloads, length, corruption = scan_records(record + b"\x00\x01")
        assert payloads == [b"hello"]
        assert length == len(record)
        assert corruption is None

    def test_torn_payload_tolerated(self):
        first = encode_record(b"hello")
        second = encode_record(b"world")
        data = first + second[:-2]
        payloads, length, corruption = scan_records(data)
        assert payloads == [b"hello"]
        assert length == len(first)
        assert corruption is None

    def test_bad_final_checksum_is_a_torn_write(self):
        first = encode_record(b"hello")
        bad = struct.pack(">II", 5, zlib.crc32(b"other")) + b"xxxxx"
        payloads, length, corruption = scan_records(first + bad)
        assert payloads == [b"hello"]
        assert length == len(first)
        assert corruption is None

    def test_mid_log_checksum_failure_is_corruption(self):
        first = encode_record(b"hello")
        second = bytearray(encode_record(b"world"))
        second[-1] ^= 0xFF  # flip a payload bit, keep the old CRC
        third = encode_record(b"again")
        payloads, length, corruption = scan_records(
            first + bytes(second) + third
        )
        assert payloads == [b"hello"]
        assert length == len(first)
        assert corruption is not None
        assert "checksum mismatch" in corruption

    def test_memory_log_storage(self):
        storage = MemoryLogStorage()
        storage.append(b"abc")
        assert storage.synced_length == 0
        storage.sync()
        assert storage.synced_length == 3
        storage.append(b"def")
        assert storage.read() == b"abcdef"
        assert storage.synced_length == 3

    def test_closing_the_database_closes_the_storage_behind_an_injector(
        self, tmp_path
    ):
        injectors = []

        def factory(path):
            injectors.append(FaultInjector(FileLogStorage(path)))
            return injectors[-1]

        db = Database(data_dir=str(tmp_path / "db"), wal_storage_factory=factory)
        db.execute("CREATE TABLE t (id INT)")
        db.close()
        assert injectors[-1].inner._file.closed


class TestRoundTrip:
    def test_fresh_directory_replays_wal(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        assert db.recovery_info == {
            "checkpoint": False,
            "replayed": 0,
            "generation": 0,
        }
        for sql in WORKLOAD_SQL:
            db.execute(sql)
        expected = catalog_state(db)
        db.close()

        reopened = Database(data_dir=data_dir)
        assert reopened.recovery_info["checkpoint"] is False
        assert reopened.recovery_info["replayed"] > 0
        assert catalog_state(reopened) == expected
        assert catalog_state(reopened) == oracle_state(WORKLOAD_SQL)
        reopened.close()

    def test_checkpoint_then_reopen(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in WORKLOAD_SQL:
            db.execute(sql)
        summary = db.checkpoint()
        assert summary["generation"] == 1
        expected = catalog_state(db)
        db.close()

        reopened = Database(data_dir=data_dir)
        assert reopened.recovery_info == {
            "checkpoint": True,
            "replayed": 0,
            "generation": 1,
        }
        assert catalog_state(reopened) == expected
        reopened.close()

    def test_statements_after_checkpoint_replay_on_top(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in WORKLOAD_SQL:
            db.execute(sql)
        db.execute("CHECKPOINT")
        db.execute("INSERT INTO items VALUES (9, 9, 9.0, 'post')")
        expected = catalog_state(db)
        db.close()

        reopened = Database(data_dir=data_dir)
        assert reopened.recovery_info == {
            "checkpoint": True,
            "replayed": 1,
            "generation": 1,
        }
        assert catalog_state(reopened) == expected
        reopened.close()

    def test_dict_tagged_checkpoint_loads_as_plain_columns(self, tmp_path):
        """Images written while TEXT columns were dictionary-encoded load.

        ``data/legacy_dict_checkpoint.json.gz`` was written by the last
        build with dictionary encoding, from :data:`LEGACY_DICT_SQL`.
        Its TEXT columns are tagged ``"dict"``: a value table with a
        dead ``None`` slot (``'GONE'``, whose last row was deleted) and
        one ``None`` code per NULL.  It must reopen into the rows and
        counters the same statements leave in memory, and the next
        checkpoint must write every column plain.
        """
        image = (DATA / "legacy_dict_checkpoint.json.gz").read_bytes()
        stored = load_payload(gzip.decompress(image))["tables"][0]["data"]
        status, region = stored[1], stored[2]
        assert status["t"] == region["t"] == "dict"
        assert None in status["values"] and None in region["values"]
        assert None in status["codes"] and None in region["codes"]
        data_dir = tmp_path / "db"
        data_dir.mkdir()
        (data_dir / "checkpoint.json.gz").write_bytes(image)

        reference = Database()
        for sql in LEGACY_DICT_SQL:
            reference.execute(sql)
        reopened = Database(data_dir=str(data_dir))
        assert reopened.recovery_info["checkpoint"] is True
        assert catalog_state(reopened) == catalog_state(reference)
        table, twin = reopened.table("accounts"), reference.table("accounts")
        assert (table.version, table.mutation_count) == (
            twin.version, twin.mutation_count,
        )
        assert reopened.execute(
            "SELECT id FROM accounts WHERE status = 'OPEN' ORDER BY id"
        ).rows == [(1,), (3,)]

        reopened.checkpoint()
        rewritten = load_payload(
            gzip.decompress((data_dir / "checkpoint.json.gz").read_bytes())
        )
        assert {
            column["t"]
            for table_state in rewritten["tables"]
            for column in table_state["data"]
        } == {"plain"}
        reopened.close()

    def test_array_tagged_checkpoint_loads_as_plain_columns(self, tmp_path):
        """Images from the removed typed-array store stay readable.

        Such an image tags each INTEGER/REAL column ``"array"`` with a
        typecode and its values, NULLs as ``None``; it must reopen into
        the catalog a plain-column database holds for the same rows.
        """
        rows = [
            (1, 10, 1.5, "red"),
            (2, None, None, "blue"),
            (3, -7, -0.0, None),
            (4, 2**40, 2.0, "red"),
        ]
        state = {
            "checkpoint_version": 1,
            "generation": 1,
            "ddl_version": 1,
            "tables": [
                {
                    "name": "m",
                    "columns": [
                        ["id", "INTEGER", True],
                        ["qty", "INTEGER", False],
                        ["price", "REAL", False],
                        ["label", "TEXT", False],
                    ],
                    "foreign_keys": [],
                    "version": 1,
                    "mutation_count": 0,
                    "row_count": len(rows),
                    "data": [
                        {"t": "array", "typecode": "q",
                         "values": [row[0] for row in rows]},
                        {"t": "array", "typecode": "q",
                         "values": [row[1] for row in rows]},
                        {"t": "array", "typecode": "d",
                         "values": [row[2] for row in rows]},
                        {"t": "dict", "values": ["red", "blue"],
                         "codes": [0, 1, None, 0]},
                    ],
                }
            ],
        }
        data_dir = tmp_path / "db"
        data_dir.mkdir()
        (data_dir / "checkpoint.json.gz").write_bytes(
            gzip.compress(dump_payload(state), mtime=0)
        )

        reference = Database()
        reference.execute(
            "CREATE TABLE m (id INT PRIMARY KEY, qty INT, price REAL, "
            "label TEXT)"
        )
        reference.insert_rows("m", rows)

        def typed(db):
            table = db.table("m")
            return (
                [c.sql_type for c in table.columns],
                repr(table.rows),
                [
                    repr(list(table.column_data(i)))
                    for i in range(len(table.columns))
                ],
            )

        reopened = Database(data_dir=str(data_dir))
        assert reopened.recovery_info["checkpoint"] is True
        table = reopened.table("m")
        assert all(
            type(table.column_data(i)) is list
            for i in range(len(table.columns))
        )
        assert typed(reopened) == typed(reference)
        assert reopened.execute(
            "SELECT sum(qty), count(price) FROM m"
        ).rows == [(2**40 + 3, 3)]
        reopened.close()

    def test_checkpoint_reopen_refreezes_segments(self, tmp_path):
        """The bulk fill refreezes the segments, so pins stay cheap and
        zone maps apply straight after recovery."""
        from repro.obs.metrics import registry

        data_dir = str(tmp_path / "db")
        config = EngineConfig(segment_rows=256)
        db = Database(data_dir=data_dir, config=config)
        db.execute("CREATE TABLE f (id INT, label TEXT)")
        db.insert_rows(
            "f", [(i, ["red", "green"][i % 2]) for i in range(20_580)]
        )
        before = db.table("f").segment_stats()
        assert before["segments"] == 80
        db.checkpoint()
        db.close()

        reopened = Database(data_dir=data_dir, config=config)
        assert reopened.table("f").segment_stats() == before
        skipped = registry().counter("engine.segments_skipped")
        start = skipped.value
        assert reopened.execute(
            "SELECT label FROM f WHERE id = 5000"
        ).rows == [("red",)]
        assert skipped.value - start == 76
        reopened.close()

    def test_insert_rows_and_create_table_replay(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        db.create_table(
            "t",
            [("id", "INTEGER"), ("label", "TEXT")],
            primary_key=["id"],
        )
        db.insert_rows("t", [(1, "alpha"), (2, None)])
        expected = catalog_state(db)
        db.close()

        reopened = Database(data_dir=data_dir)
        assert catalog_state(reopened) == expected
        assert reopened.table("t").columns[0].primary_key
        reopened.close()

    def test_uncommitted_transaction_is_not_recovered(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in SEED_SQL:
            db.execute(sql)
        db.execute("BEGIN")
        db.execute("DELETE FROM items")
        committed = oracle_state(SEED_SQL)
        db.close()  # crash with the transaction still open

        reopened = Database(data_dir=data_dir)
        assert catalog_state(reopened) == committed
        reopened.close()


class TestCorruption:
    def test_torn_tail_is_truncated(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in SEED_SQL:
            db.execute(sql)
        expected = catalog_state(db)
        db.close()
        wal = os.path.join(data_dir, "wal.0.log")
        size = os.path.getsize(wal)
        with open(wal, "ab") as handle:
            handle.write(b"\x00\x00\x00\x10partial")

        reopened = Database(data_dir=data_dir)
        assert catalog_state(reopened) == expected
        assert os.path.getsize(wal) == size  # tail dropped on disk too
        reopened.close()

    def test_mid_log_bit_flip_raises(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in SEED_SQL:
            db.execute(sql)
        db.close()
        wal = os.path.join(data_dir, "wal.0.log")
        with open(wal, "r+b") as handle:
            handle.seek(12)  # inside the first record's payload
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(RecoveryError) as excinfo:
            Database(data_dir=data_dir)
        assert excinfo.value.kind == "wal"
        assert excinfo.value.path == wal

    def test_truncated_checkpoint_raises(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in SEED_SQL:
            db.execute(sql)
        db.checkpoint()
        db.close()
        checkpoint = os.path.join(data_dir, "checkpoint.json.gz")
        image = open(checkpoint, "rb").read()
        with open(checkpoint, "wb") as handle:
            handle.write(image[: len(image) // 2])
        with pytest.raises(RecoveryError) as excinfo:
            Database(data_dir=data_dir)
        assert excinfo.value.kind == "checkpoint"
        assert excinfo.value.path == checkpoint

    def test_malformed_checkpoint_raises(self, tmp_path):
        data_dir = str(tmp_path / "db")
        os.makedirs(data_dir)
        checkpoint = os.path.join(data_dir, "checkpoint.json.gz")
        with open(checkpoint, "wb") as handle:
            handle.write(gzip.compress(b'{"not": "a checkpoint"}'))
        with pytest.raises(RecoveryError) as excinfo:
            Database(data_dir=data_dir)
        assert excinfo.value.kind == "checkpoint"

    def test_stale_generation_is_deleted_not_replayed(self, tmp_path):
        """Duplicate-replay protection across the checkpoint window."""
        data_dir = str(tmp_path / "db")
        db = Database(data_dir=data_dir)
        for sql in SEED_SQL:
            db.execute(sql)
        db.checkpoint()  # now at generation 1, wal.0.log deleted
        expected = catalog_state(db)
        db.close()
        # resurrect a stale pre-checkpoint WAL, as if the crash hit
        # between writing the new checkpoint and deleting the old log
        stale = os.path.join(data_dir, "wal.0.log")
        with open(stale, "wb") as handle:
            handle.write(
                encode_record(
                    dump_payload(
                        {"t": "sql", "sql": SEED_SQL[1]}  # the INSERT again
                    )
                )
            )

        reopened = Database(data_dir=data_dir)
        assert catalog_state(reopened) == expected  # rows NOT doubled
        assert not os.path.exists(stale)
        reopened.close()


class TestGuards:
    def test_checkpoint_requires_durability(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        with pytest.raises(SqlExecutionError, match="durable"):
            db.execute("CHECKPOINT")

    def test_checkpoint_inside_transaction_rejected(self, tmp_path):
        db = Database(data_dir=str(tmp_path / "db"))
        db.execute("CREATE TABLE t (id INT)")
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("CHECKPOINT")
        db.execute("ROLLBACK")
        db.close()


def run_workload_until_crash(data_dir: str, byte_budget: "int | None"):
    """Run WORKLOAD_SQL durably, killing the WAL after *byte_budget* bytes.

    Returns the statements acknowledged (completed without raising)
    before the crash.  The database object is abandoned afterwards,
    exactly like a killed process.
    """
    db = Database(
        data_dir=data_dir,
        wal_storage_factory=lambda path: FaultInjector(
            FileLogStorage(path), byte_budget=byte_budget
        ),
    )
    acknowledged = []
    try:
        for sql in WORKLOAD_SQL:
            db.execute(sql)
            acknowledged.append(sql)
    except InjectedCrash:
        pass
    return acknowledged


class TestFaultInjection:
    def test_crash_at_every_byte_boundary(self, tmp_path):
        """Recovery from any torn WAL prefix equals the acknowledged state."""
        total = run_workload_until_crash(str(tmp_path / "full"), None)
        assert total == WORKLOAD_SQL
        wal_bytes = os.path.getsize(str(tmp_path / "full" / "wal.0.log"))
        assert wal_bytes > 0

        for budget in range(wal_bytes + 1):
            data_dir = str(tmp_path / f"crash{budget}")
            acknowledged = run_workload_until_crash(data_dir, budget)
            recovered = Database(data_dir=data_dir)
            assert catalog_state(recovered) == oracle_state(acknowledged), (
                f"divergence at byte budget {budget} "
                f"({len(acknowledged)} acknowledged statements)"
            )
            recovered.close()

    def test_crashed_statement_rolls_back_in_memory(self, tmp_path):
        """A WAL write failure degrades to a failed statement, not poison."""
        data_dir = str(tmp_path / "db")
        plain = Database(data_dir=data_dir)
        for sql in SEED_SQL:
            plain.execute(sql)
        plain.close()
        wal_bytes = os.path.getsize(os.path.join(data_dir, "wal.0.log"))

        crash_dir = str(tmp_path / "crash")
        db = Database(
            data_dir=crash_dir,
            wal_storage_factory=lambda path: FaultInjector(
                FileLogStorage(path), byte_budget=wal_bytes + 10
            ),
        )
        for sql in SEED_SQL:
            db.execute(sql)
        before = catalog_state(db)
        with pytest.raises(InjectedCrash):
            db.execute("DELETE FROM items")
        assert catalog_state(db) == before

    def test_failed_commit_rolls_the_transaction_back(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = Database(
            data_dir=data_dir,
            wal_storage_factory=lambda path: FaultInjector(
                FileLogStorage(path), fail_sync=True
            ),
        )
        # fail_sync kills every commit point; even CREATE TABLE can't
        # be acknowledged, so drive the catalog programmatically by
        # disabling the injector for the seed, then arming it
        with pytest.raises(InjectedCrash):
            db.execute("CREATE TABLE t (id INT)")
        assert db.table_names() == []  # the create was rolled back

    def test_fail_sync_after_seed(self, tmp_path):
        data_dir = str(tmp_path / "db")
        injectors = []

        def factory(path):
            injector = FaultInjector(FileLogStorage(path))
            injectors.append(injector)
            return injector

        db = Database(data_dir=data_dir, wal_storage_factory=factory)
        for sql in SEED_SQL:
            db.execute(sql)
        before = catalog_state(db)
        injectors[-1].fail_sync = True
        db.execute("BEGIN")
        db.execute("DELETE FROM items WHERE id = 1")
        with pytest.raises(InjectedCrash):
            db.execute("COMMIT")
        # the commit was refused: memory shows the pre-transaction state
        assert catalog_state(db) == before
        assert not db.txn.active
