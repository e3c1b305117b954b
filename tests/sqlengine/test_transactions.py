"""Explicit transactions: BEGIN/COMMIT/ROLLBACK semantics and parity.

The core invariant under test: after ROLLBACK the catalog is
*byte-identical* — fingerprint, tuple rows, columnar stores, and any
write-through-maintained inverted index — to an oracle catalog that
never saw the transaction.  This must hold across every storage
layout (plain lists; frozen segments of 1, 2 or 3 rows plus a delta)
because rollback routes through the same public mutation paths as
forward execution.
"""

import pytest

from repro.errors import SqlTypeError, TransactionError
from repro.index.inverted import InvertedIndex
from repro.index.maintenance import attach_maintainer
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

SEED_SQL = [
    "CREATE TABLE items (id INT PRIMARY KEY, grp INT, amount REAL, "
    "label TEXT)",
    "INSERT INTO items VALUES "
    "(1, 1, 10.0, 'alpha'), (2, 1, 20.0, 'beta'), "
    "(3, 2, 30.0, NULL), (4, NULL, 40.0, 'delta')",
]

TXN_SQL = [
    "BEGIN",
    "INSERT INTO items VALUES (5, 3, 50.0, 'epsilon')",
    "UPDATE items SET amount = amount * 2 WHERE grp = 1",
    "DELETE FROM items WHERE id = 3",
    "UPDATE items SET label = 'rewritten' WHERE id = 4",
]


def make_db(**kwargs) -> Database:
    db = Database(config=EngineConfig(**kwargs))
    for sql in SEED_SQL:
        db.execute(sql)
    return db


def catalog_state(db: Database) -> dict:
    """Everything observable about the catalog, for byte-identity checks."""
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


def index_state(index: InvertedIndex) -> dict:
    tokens = ["alpha", "beta", "epsilon", "rewritten", "delta", "zurich"]
    return {
        "summary": index.size_summary(),
        "lookups": {token: index.lookup(token) for token in tokens},
    }


class TestProtocol:
    def test_commit_without_begin(self):
        db = make_db()
        with pytest.raises(TransactionError, match="no transaction"):
            db.execute("COMMIT")

    def test_rollback_without_begin(self):
        db = make_db()
        with pytest.raises(TransactionError, match="no transaction"):
            db.execute("ROLLBACK")

    def test_nested_begin_rejected(self):
        db = make_db()
        db.execute("BEGIN")
        with pytest.raises(TransactionError, match="already open"):
            db.execute("BEGIN")

    def test_begin_transaction_keyword_optional(self):
        db = make_db()
        db.execute("BEGIN TRANSACTION")
        db.execute("INSERT INTO items VALUES (9, 9, 9.0, 'nine')")
        db.execute("COMMIT")
        assert db.row_count("items") == 5

    def test_ddl_inside_transaction_rejected(self):
        db = make_db()
        db.execute("BEGIN")
        with pytest.raises(TransactionError, match="auto-commit"):
            db.execute("CREATE TABLE other (id INT)")
        with pytest.raises(TransactionError, match="auto-commit"):
            db.create_table("other", [("id", "INTEGER")])
        db.execute("ROLLBACK")

    def test_transaction_reusable_after_close(self):
        db = make_db()
        for _ in range(3):
            db.execute("BEGIN")
            db.execute("DELETE FROM items WHERE id = 1")
            db.execute("ROLLBACK")
        assert db.row_count("items") == 4


class TestCommit:
    def test_commit_keeps_changes(self):
        db = make_db()
        for sql in TXN_SQL:
            db.execute(sql)
        db.execute("COMMIT")
        oracle = make_db()
        for sql in TXN_SQL[1:]:  # same statements, auto-commit
            oracle.execute(sql)
        assert catalog_state(db) == catalog_state(oracle)

    def test_empty_transaction_is_a_noop(self):
        db = make_db()
        before = catalog_state(db)
        db.execute("BEGIN")
        db.execute("COMMIT")
        assert catalog_state(db) == before


class TestRollbackParity:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"segment_rows": 2}, {"segment_rows": 1}, {"segment_rows": 3}],
        ids=["default", "segmented", "segmented_1", "segmented_3"],
    )
    def test_rollback_restores_byte_identical_state(self, kwargs):
        oracle = make_db(**kwargs)
        db = make_db(**kwargs)
        for sql in TXN_SQL:
            db.execute(sql)
        db.execute("ROLLBACK")
        assert catalog_state(db) == catalog_state(oracle)

    def test_rollback_of_insert_rows(self):
        oracle = make_db()
        db = make_db()
        db.execute("BEGIN")
        db.insert_rows("items", [(10, 5, 1.0, "bulk one"), (11, 5, 2.0, None)])
        db.execute("ROLLBACK")
        assert catalog_state(db) == catalog_state(oracle)

    def test_rollback_spans_multiple_tables(self):
        def seed(database):
            database.execute("CREATE TABLE notes (id INT, body TEXT)")
            database.execute("INSERT INTO notes VALUES (1, 'gold bond')")

        oracle = make_db()
        seed(oracle)
        db = make_db()
        seed(db)
        db.execute("BEGIN")
        db.execute("INSERT INTO notes VALUES (2, 'silver')")
        db.execute("DELETE FROM items WHERE grp = 1")
        db.execute("UPDATE notes SET body = 'rewritten'")
        db.execute("ROLLBACK")
        assert catalog_state(db) == catalog_state(oracle)

    def test_rollback_restores_inverted_index(self):
        """The maintained index converges back without index-specific undo."""
        db = make_db()
        maintained = InvertedIndex.build(db.catalog)
        attach_maintainer(db.catalog, maintained)
        baseline = index_state(maintained)
        for sql in TXN_SQL:
            db.execute(sql)
        assert index_state(maintained) != baseline  # writes flowed through
        db.execute("ROLLBACK")
        assert index_state(maintained) == baseline
        rebuilt = InvertedIndex.build(db.catalog)
        assert index_state(maintained) == index_state(rebuilt)

    def test_rollback_of_delete_heavy_transaction(self):
        """restore_rows puts deleted rows back at their old positions."""
        oracle = make_db()
        db = make_db()
        db.execute("BEGIN")
        db.execute("DELETE FROM items WHERE id = 2")
        db.execute("DELETE FROM items WHERE id = 4")
        db.execute("INSERT INTO items VALUES (6, 6, 6.0, 'six')")
        db.execute("DELETE FROM items")
        db.execute("ROLLBACK")
        assert catalog_state(db) == catalog_state(oracle)


class TestFingerprintToken:
    def test_mid_transaction_fingerprint_is_marked(self):
        db = make_db()
        before = db.catalog.fingerprint()
        db.execute("BEGIN")
        during = db.catalog.fingerprint()
        assert during != before
        assert during[-1][0] == "txn"
        db.execute("ROLLBACK")
        assert db.catalog.fingerprint() == before

    def test_successive_transactions_get_distinct_tokens(self):
        """A memo keyed on txn 1's fingerprint can't validate in txn 2."""
        db = make_db()
        db.execute("BEGIN")
        first = db.catalog.fingerprint()
        db.execute("ROLLBACK")
        db.execute("BEGIN")
        second = db.catalog.fingerprint()
        db.execute("ROLLBACK")
        assert first != second

    def test_plan_cache_survives_rollback(self):
        """SELECT inside a txn, rollback, SELECT again: same results."""
        db = make_db()
        baseline = db.execute("SELECT id FROM items ORDER BY id").rows
        db.execute("BEGIN")
        db.execute("INSERT INTO items VALUES (7, 7, 7.0, 'seven')")
        inside = db.execute("SELECT id FROM items ORDER BY id").rows
        assert inside != baseline
        db.execute("ROLLBACK")
        assert db.execute("SELECT id FROM items ORDER BY id").rows == baseline


class TestStatementAtomicity:
    def test_multi_row_insert_fails_atomically(self):
        """A coercion failure on row three leaves rows one and two out."""
        oracle = make_db()
        db = make_db()
        with pytest.raises(SqlTypeError):
            db.execute(
                "INSERT INTO items VALUES "
                "(5, 5, 5.0, 'ok'), (6, 6, 6.0, 'ok'), (7, 7, 'bad', 'x')"
            )
        assert catalog_state(db) == catalog_state(oracle)

    def test_insert_rows_fails_atomically(self):
        oracle = make_db()
        db = make_db()
        with pytest.raises(SqlTypeError):
            db.insert_rows(
                "items", [(5, 5, 5.0, "ok"), (6, 6, "bad", "x")]
            )
        assert catalog_state(db) == catalog_state(oracle)

    def test_failed_statement_inside_transaction_keeps_earlier_writes(self):
        """Savepoint rollback: the failed statement vanishes, the rest stay."""
        db = make_db()
        db.execute("BEGIN")
        db.execute("INSERT INTO items VALUES (5, 5, 5.0, 'keep me')")
        with pytest.raises(SqlTypeError):
            db.execute(
                "INSERT INTO items VALUES (6, 6, 6.0, 'ok'), "
                "(7, 7, 'bad', 'x')"
            )
        db.execute("COMMIT")
        oracle = make_db()
        oracle.execute("INSERT INTO items VALUES (5, 5, 5.0, 'keep me')")
        assert catalog_state(db) == catalog_state(oracle)

    def test_failed_statement_then_rollback(self):
        """Savepoint undo composes with a later full ROLLBACK."""
        oracle = make_db()
        db = make_db()
        db.execute("BEGIN")
        db.execute("UPDATE items SET amount = 0.0 WHERE id = 1")
        with pytest.raises(SqlTypeError):
            db.execute(
                "INSERT INTO items VALUES (6, 6, 6.0, 'ok'), "
                "(7, 7, 'bad', 'x')"
            )
        db.execute("ROLLBACK")
        assert catalog_state(db) == catalog_state(oracle)
