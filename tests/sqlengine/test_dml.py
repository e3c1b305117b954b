"""UPDATE/DELETE: parsing, execution, 3VL matching, storage sync.

Every behavioral test here runs through the engine and through the
row-at-a-time reference interpreter (``reference_engine``), which
shares the catalog mutation path, and asserts byte-identical outcomes;
storage-sync tests check that the tuple list and the columnar store
never diverge.
"""

import pytest

from repro.errors import (
    SqlCatalogError,
    SqlExecutionError,
    SqlSyntaxError,
    SqlTypeError,
)
from repro.sqlengine.ast_nodes import Delete, Update
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_sql

from tests.sqlengine.reference_engine import reference_execute

#: the two executors every behavioral test runs through: ``run(db, sql)``
RUNS = pytest.mark.parametrize(
    "run", [reference_execute, Database.execute], ids=["reference", "batch"]
)


def make_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, grp INT, amount REAL, "
        "label TEXT)"
    )
    db.execute(
        "INSERT INTO items VALUES "
        "(1, 1, 10.0, 'alpha'), (2, 1, 20.0, 'beta'), "
        "(3, 2, 30.0, NULL), (4, NULL, 40.0, 'delta')"
    )
    return db


def storage_snapshot(db: Database, table: str = "items"):
    """Both storage layouts, for lockstep assertions."""
    t = db.table(table)
    columns = [t.column_data(i) for i in range(len(t.columns))]
    return list(t.rows), [list(c) for c in columns]


def assert_storages_in_sync(db: Database, table: str = "items"):
    rows, columns = storage_snapshot(db, table)
    rebuilt = [tuple(column[i] for column in columns)
               for i in range(len(rows))]
    assert rebuilt == rows


class TestParsing:
    def test_update_statement(self):
        stmt = parse_sql(
            "UPDATE items SET label = 'x', amount = amount + 1 WHERE id = 2"
        )
        assert isinstance(stmt, Update)
        assert stmt.table == "items"
        assert [a.column for a in stmt.assignments] == ["label", "amount"]
        assert stmt.where is not None
        assert stmt.to_sql() == (
            "UPDATE items SET label = 'x', amount = (amount + 1) "
            "WHERE (id = 2)"
        )

    def test_update_without_where(self):
        stmt = parse_sql("UPDATE items SET grp = 0")
        assert isinstance(stmt, Update)
        assert stmt.where is None

    def test_delete_statement(self):
        stmt = parse_sql("DELETE FROM items WHERE grp = 1;")
        assert isinstance(stmt, Delete)
        assert stmt.table == "items"
        assert stmt.to_sql() == "DELETE FROM items WHERE (grp = 1)"

    def test_delete_without_where(self):
        stmt = parse_sql("DELETE FROM items")
        assert isinstance(stmt, Delete)
        assert stmt.where is None

    def test_update_requires_set(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("UPDATE items WHERE id = 1")

    def test_delete_requires_from(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("DELETE items WHERE id = 1")


@RUNS
class TestUpdate:
    def test_update_matching_rows(self, run):
        db = make_db()
        result = run(db, "UPDATE items SET amount = 99.0 WHERE grp = 1")
        assert result.rowcount == 2
        assert run(db, 
            "SELECT id, amount FROM items ORDER BY id"
        ).rows == [(1, 99.0), (2, 99.0), (3, 30.0), (4, 40.0)]
        assert_storages_in_sync(db)

    def test_set_expressions_read_the_old_row(self, run):
        db = make_db()
        run(db, "UPDATE items SET amount = amount * 2, grp = id")
        assert run(db, 
            "SELECT grp, amount FROM items ORDER BY id"
        ).rows == [(1, 20.0), (2, 40.0), (3, 60.0), (4, 80.0)]
        assert_storages_in_sync(db)

    def test_swap_via_old_row_semantics(self, run):
        db = Database()
        run(db, "CREATE TABLE p (a INT, b INT)")
        run(db, "INSERT INTO p VALUES (1, 2)")
        run(db, "UPDATE p SET a = b, b = a")
        assert run(db, "SELECT a, b FROM p").rows == [(2, 1)]

    def test_null_where_does_not_match(self, run):
        """3VL: a WHERE evaluating to NULL leaves the row untouched."""
        db = make_db()
        # grp IS NULL on row 4 makes "grp = 1" evaluate to NULL there
        result = run(db, "UPDATE items SET amount = 0.0 WHERE grp = 1")
        assert result.rowcount == 2
        assert run(db, 
            "SELECT amount FROM items WHERE id = 4"
        ).rows == [(40.0,)]

    def test_where_null_comparison_updates_nothing(self, run):
        db = make_db()
        result = run(db, "UPDATE items SET amount = 0.0 WHERE grp = NULL")
        assert result.rowcount == 0
        assert run(db, "SELECT sum(amount) FROM items").rows == [(100.0,)]

    def test_update_to_null_and_back(self, run):
        db = make_db()
        run(db, "UPDATE items SET label = NULL WHERE id = 1")
        assert run(db, 
            "SELECT id FROM items WHERE label IS NULL ORDER BY id"
        ).rows == [(1,), (3,)]
        run(db, "UPDATE items SET label = 'restored' WHERE id = 1")
        assert run(db, 
            "SELECT label FROM items WHERE id = 1"
        ).rows == [("restored",)]
        assert_storages_in_sync(db)

    def test_update_unknown_column_raises(self, run):
        db = make_db()
        with pytest.raises(SqlCatalogError):
            run(db, "UPDATE items SET nope = 1")

    def test_update_unknown_table_raises(self, run):
        db = make_db()
        with pytest.raises(SqlCatalogError):
            run(db, "UPDATE missing SET id = 1")

    def test_duplicate_assignment_raises(self, run):
        db = make_db()
        with pytest.raises(SqlCatalogError):
            run(db, "UPDATE items SET grp = 1, grp = 2")

    def test_type_error_leaves_table_untouched(self, run):
        db = make_db()
        before = storage_snapshot(db)
        with pytest.raises(SqlTypeError):
            run(db, "UPDATE items SET grp = 'not an int'")
        assert storage_snapshot(db) == before

    def test_out_of_range_position_leaves_table_untouched(self, run):
        """The primitive validates before the first write (atomicity)."""
        db = make_db()
        table = db.table("items")
        before = storage_snapshot(db)
        version = table.version
        for positions in ([0, 99], [-1]):
            with pytest.raises(SqlCatalogError, match="out of range"):
                table.update_positions(
                    positions, [(8, 8, 8.0, "x")] * len(positions)
                )
        assert storage_snapshot(db) == before
        assert table.version == version

    def test_aggregate_in_where_raises(self, run):
        db = make_db()
        with pytest.raises(SqlExecutionError):
            run(db, "UPDATE items SET grp = 1 WHERE count(*) > 1")


@RUNS
class TestDelete:
    def test_delete_matching_rows(self, run):
        db = make_db()
        result = run(db, "DELETE FROM items WHERE amount > 25.0")
        assert result.rowcount == 2
        assert run(db, 
            "SELECT id FROM items ORDER BY id"
        ).rows == [(1,), (2,)]
        assert_storages_in_sync(db)

    def test_null_where_does_not_match(self, run):
        db = make_db()
        result = run(db, "DELETE FROM items WHERE grp = 2")
        assert result.rowcount == 1
        # row 4 (grp NULL) survives: NULL never matches
        assert run(db, 
            "SELECT id FROM items ORDER BY id"
        ).rows == [(1,), (2,), (4,)]

    def test_delete_every_row(self, run):
        db = make_db()
        result = run(db, "DELETE FROM items")
        assert result.rowcount == 4
        assert run(db, "SELECT count(*) FROM items").rows == [(0,)]
        assert run(db, "SELECT * FROM items").rows == []
        rows, columns = storage_snapshot(db)
        assert rows == []
        assert all(column == [] for column in columns)
        # the emptied table accepts fresh inserts on both storages
        run(db, "INSERT INTO items VALUES (9, 9, 9.0, 'nine')")
        assert run(db, "SELECT label FROM items").rows == [("nine",)]
        assert_storages_in_sync(db)

    def test_delete_unknown_table_raises(self, run):
        db = make_db()
        with pytest.raises(SqlCatalogError):
            run(db, "DELETE FROM missing")


class TestReferenceParity:
    """Identical DML workloads leave reference and engine databases equal."""

    WORKLOAD = [
        "UPDATE items SET amount = amount + 0.5 WHERE grp = 1",
        "DELETE FROM items WHERE label LIKE 'b%'",
        "UPDATE items SET label = upper(label) WHERE label IS NOT NULL",
        "INSERT INTO items VALUES (5, 2, 50.0, 'epsilon')",
        "UPDATE items SET grp = grp + 1 WHERE amount BETWEEN 20.0 AND 60.0",
        "DELETE FROM items WHERE grp = 3 AND amount < 35.0",
    ]

    def test_byte_identical_after_mixed_dml(self):
        row_db, batch_db = make_db(), make_db()
        for sql in self.WORKLOAD:
            row_result = reference_execute(row_db, sql)
            batch_result = batch_db.execute(sql)
            assert row_result.rowcount == batch_result.rowcount, sql
        assert storage_snapshot(row_db) == storage_snapshot(batch_db)
        probe = "SELECT * FROM items ORDER BY id"
        assert reference_execute(row_db, probe).rows == batch_db.execute(
            probe
        ).rows

    def test_large_table_batch_boundaries(self):
        """The DML scan spans multiple 1024-row batches correctly."""
        row_db, batch_db = Database(), Database()
        for db, run in ((row_db, reference_execute),
                        (batch_db, Database.execute)):
            run(db, "CREATE TABLE big (id INT, bucket INT)")
            db.insert_rows("big", [(i, i % 7) for i in range(3000)])
            run(db, "UPDATE big SET bucket = 99 WHERE bucket = 3")
            run(db, "DELETE FROM big WHERE bucket = 5")
        probe = "SELECT count(*), sum(bucket) FROM big"
        assert reference_execute(row_db, probe).rows == batch_db.execute(
            probe
        ).rows
        assert storage_snapshot(row_db, "big") == storage_snapshot(
            batch_db, "big"
        )


class TestWhereErrorParity:
    """DML splits its WHERE into conjuncts only when none can raise.

    Row 4 has ``grp`` NULL and ``amount`` 40.0: its first conjunct is
    NULL, so 3VL still evaluates the second, which divides by zero.
    Dropping the row after the first conjunct would hide that error.
    """

    WHERE = " WHERE grp = 1 AND 10 / (amount - 40.0) > 0"

    @pytest.mark.parametrize(
        "statement", ["UPDATE items SET grp = 0", "DELETE FROM items"]
    )
    def test_null_first_conjunct_does_not_hide_the_error(self, statement):
        errors = []
        for run in (reference_execute, Database.execute):
            db = make_db()
            before = storage_snapshot(db)
            with pytest.raises(SqlExecutionError) as info:
                run(db, statement + self.WHERE)
            errors.append(str(info.value))
            assert storage_snapshot(db) == before
        assert errors[0] == errors[1]


class TestWhereMixedCoalesce:
    """A ``coalesce`` whose arguments have two classes can raise.

    Row 4 has ``grp`` NULL: ``coalesce(grp, label)`` is ``'delta'`` and
    negating it raises.  The first conjunct is NULL there, so the split
    WHERE would drop the row first and hide the error; a class analysis
    that typed the ``coalesce`` by its known arguments only called the
    conjunct safe and split it.
    """

    WHERE = " WHERE grp = 1 AND -coalesce(coalesce(grp, label), 0) > 0"

    @pytest.mark.parametrize(
        "statement", ["UPDATE items SET grp = 0", "DELETE FROM items"]
    )
    def test_null_first_conjunct_does_not_hide_the_error(self, statement):
        errors = []
        for run in (reference_execute, Database.execute):
            db = make_db()
            before = storage_snapshot(db)
            with pytest.raises(SqlTypeError) as info:
                run(db, statement + self.WHERE)
            errors.append(str(info.value))
            assert storage_snapshot(db) == before
        assert errors[0] == errors[1]


class TestVersionsAndFingerprint:
    def test_update_bumps_version_and_mutations(self):
        db = make_db()
        table = db.table("items")
        version, mutations = table.version, table.mutation_count
        db.execute("UPDATE items SET grp = 5 WHERE id = 1")
        assert table.version == version + 1
        assert table.mutation_count == mutations + 1

    def test_no_match_bumps_nothing(self):
        db = make_db()
        table = db.table("items")
        version = table.version
        db.execute("UPDATE items SET grp = 5 WHERE id = 999")
        db.execute("DELETE FROM items WHERE id = 999")
        assert table.version == version

    def test_fingerprint_reflects_update_and_delete_reinsert(self):
        db = make_db()
        start = db.catalog.fingerprint()
        db.execute("UPDATE items SET amount = 11.0 WHERE id = 1")
        after_update = db.catalog.fingerprint()
        assert after_update != start  # row count unchanged, mutations not
        db.execute("DELETE FROM items WHERE id = 1")
        db.execute("INSERT INTO items VALUES (1, 1, 11.0, 'alpha')")
        after_churn = db.catalog.fingerprint()
        assert after_churn != after_update
        assert after_churn[1] == after_update[1]  # same total row count
