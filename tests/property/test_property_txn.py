"""Property tests for transactions + durability.

For *any* sequence of DML statements interleaved with
BEGIN/COMMIT/ROLLBACK, run durably and killed by a fault injector at
an arbitrary WAL byte offset, the recovered database must be
byte-identical (fingerprint, rows, columnar stores) to an undo-free
oracle that executes only the statements acknowledged before the
crash — with a trailing rollback if the crash caught a transaction
open.  The oracle has no undo log, no WAL, and no recovery code, so
agreement means the whole durability stack (undo guards, commit
ordering, torn-tail truncation, replay) composes correctly.
"""

import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.sqlengine.database import Database
from repro.sqlengine.txn import FaultInjector, FileLogStorage, InjectedCrash

settings.register_profile("txn", max_examples=30, deadline=None)
settings.load_profile("txn")

SEED_SQL = [
    "CREATE TABLE t (id INT PRIMARY KEY, n INT, label TEXT)",
    "INSERT INTO t VALUES (1, 10, 'alpha'), (2, 20, 'beta'), "
    "(3, 30, NULL)",
]

WORDS = ["alpha", "beta", "gamma", "delta", "zurich"]

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 9),
            st.sampled_from(WORDS),
        ),
        st.tuples(st.just("update"), st.integers(0, 9), st.integers(0, 99)),
        st.tuples(
            st.just("relabel"),
            st.integers(0, 9),
            st.one_of(st.none(), st.sampled_from(WORDS)),
        ),
        st.tuples(st.just("delete"), st.integers(0, 9)),
        st.tuples(st.just("begin")),
        st.tuples(st.just("commit")),
        st.tuples(st.just("rollback")),
    ),
    min_size=0,
    max_size=25,
)


def to_statements(operations) -> list:
    """Abstract ops -> valid SQL (protocol-invalid txn ops are dropped)."""
    statements = list(SEED_SQL)
    open_txn = False
    next_id = 100
    for op in operations:
        kind = op[0]
        if kind == "begin":
            if not open_txn:
                statements.append("BEGIN")
                open_txn = True
        elif kind in ("commit", "rollback"):
            if open_txn:
                statements.append(kind.upper())
                open_txn = False
        elif kind == "insert":
            statements.append(
                f"INSERT INTO t VALUES ({next_id}, {op[1]}, '{op[2]}')"
            )
            next_id += 1
        elif kind == "update":
            statements.append(f"UPDATE t SET n = {op[2]} WHERE n = {op[1]}")
        elif kind == "relabel":
            label = "NULL" if op[2] is None else f"'{op[2]}'"
            statements.append(
                f"UPDATE t SET label = {label} WHERE id = {op[1]}"
            )
        else:  # delete
            statements.append(f"DELETE FROM t WHERE n = {op[1]}")
    return statements


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
    db = Database()
    for sql in statements:
        db.execute(sql)
    if db.txn.active:
        db.execute("ROLLBACK")
    return catalog_state(db)


@given(operations=ops, byte_budget=st.integers(0, 4000))
def test_recovery_matches_undo_free_oracle(operations, byte_budget):
    statements = to_statements(operations)
    data_dir = tempfile.mkdtemp(prefix="txnprop")
    try:
        db = Database(
            data_dir=data_dir,
            wal_storage_factory=lambda path: FaultInjector(
                FileLogStorage(path), byte_budget=byte_budget
            ),
        )
        acknowledged = []
        try:
            for sql in statements:
                db.execute(sql)
                acknowledged.append(sql)
        except InjectedCrash:
            pass  # the process "died"; db is abandoned un-closed

        recovered = Database(data_dir=data_dir)
        try:
            assert catalog_state(recovered) == oracle_state(acknowledged)
        finally:
            recovered.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


@given(operations=ops)
def test_rollback_restores_oracle_state(operations):
    """Pure in-memory: a rolled-back suffix leaves no trace."""
    statements = to_statements(operations)
    oracle = Database()
    db = Database()
    for sql in SEED_SQL:
        oracle.execute(sql)
        db.execute(sql)
    # replay the generated suffix on both; on the oracle, skip
    # everything between BEGIN and its matching COMMIT unless committed
    suffix = statements[len(SEED_SQL):]
    pending: "list | None" = None
    for sql in suffix:
        db.execute(sql)
        if sql == "BEGIN":
            pending = []
        elif sql == "COMMIT":
            for replay in pending or []:
                oracle.execute(replay)
            pending = None
        elif sql == "ROLLBACK":
            pending = None
        elif pending is not None:
            pending.append(sql)
        else:
            oracle.execute(sql)
    if db.txn.active:
        db.execute("ROLLBACK")
    assert catalog_state(db) == catalog_state(oracle)
