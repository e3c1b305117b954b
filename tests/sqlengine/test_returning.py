"""RETURNING clauses on INSERT/UPDATE/DELETE."""

import pytest

from repro.errors import SqlCatalogError, SqlSyntaxError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database


def make_db(mode: str = "batch") -> Database:
    db = Database(config=EngineConfig(execution_mode=mode))
    db.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, grp INT, amount REAL, "
        "label TEXT)"
    )
    db.execute(
        "INSERT INTO items VALUES "
        "(1, 1, 10.0, 'alpha'), (2, 1, 20.0, 'beta'), (3, 2, 30.0, NULL)"
    )
    return db


class TestInsertReturning:
    def test_returning_star(self):
        db = make_db()
        result = db.execute(
            "INSERT INTO items VALUES (4, 2, 40.0, 'delta') RETURNING *"
        )
        assert result.columns == ["id", "grp", "amount", "label"]
        assert result.rows == [(4, 2, 40.0, "delta")]
        assert result.rowcount == 1

    def test_returning_projects_and_aliases(self):
        db = make_db()
        result = db.execute(
            "INSERT INTO items VALUES (4, 2, 40.0, 'delta'), "
            "(5, 3, 50.0, 'epsilon') "
            "RETURNING id, amount * 2 AS doubled"
        )
        assert result.columns == ["id", "doubled"]
        assert result.rows == [(4, 80.0), (5, 100.0)]
        assert result.rowcount == 2

    def test_returning_sees_coerced_values(self):
        """RETURNING reflects the stored row, not the literal text."""
        db = make_db()
        result = db.execute(
            "INSERT INTO items VALUES (4, 2, 40, 'delta') RETURNING amount"
        )
        assert result.rows == [(40.0,)]

    def test_named_column_insert_returning(self):
        db = make_db()
        result = db.execute(
            "INSERT INTO items (id, label) VALUES (4, 'partial') "
            "RETURNING id, grp, label"
        )
        assert result.rows == [(4, None, "partial")]


class TestUpdateReturning:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_returning_new_image(self, mode):
        db = make_db(mode)
        result = db.execute(
            "UPDATE items SET amount = amount + 1.0 WHERE grp = 1 "
            "RETURNING id, amount"
        )
        assert sorted(result.rows) == [(1, 11.0), (2, 21.0)]
        assert result.rowcount == 2

    def test_no_matches_returns_empty(self):
        db = make_db()
        result = db.execute(
            "UPDATE items SET amount = 0.0 WHERE id = 99 RETURNING *"
        )
        assert result.rows == []
        assert result.rowcount == 0
        assert result.columns == ["id", "grp", "amount", "label"]


class TestDeleteReturning:
    def test_returning_deleted_rows(self):
        db = make_db()
        result = db.execute(
            "DELETE FROM items WHERE grp = 1 RETURNING id, label"
        )
        assert sorted(result.rows) == [(1, "alpha"), (2, "beta")]
        assert result.rowcount == 2
        assert db.row_count("items") == 1

    def test_returning_star_captures_old_image(self):
        db = make_db()
        result = db.execute("DELETE FROM items WHERE id = 3 RETURNING *")
        assert result.rows == [(3, 2, 30.0, None)]


class TestErrorsAndTransactions:
    def test_unknown_column_rejected(self):
        db = make_db()
        with pytest.raises(SqlCatalogError):
            db.execute(
                "INSERT INTO items VALUES (4, 2, 40.0, 'x') RETURNING nope"
            )
        assert db.row_count("items") == 3  # statement rolled back whole

    def test_wrong_star_qualifier_rejected(self):
        db = make_db()
        with pytest.raises(SqlCatalogError):
            db.execute("DELETE FROM items WHERE id = 1 RETURNING other.*")

    def test_returning_requires_items(self):
        db = make_db()
        with pytest.raises(SqlSyntaxError):
            db.execute("DELETE FROM items RETURNING")

    def test_returning_inside_rolled_back_transaction(self):
        """RETURNING reports the provisional rows; ROLLBACK discards them."""
        db = make_db()
        db.execute("BEGIN")
        result = db.execute(
            "INSERT INTO items VALUES (4, 2, 40.0, 'delta') RETURNING id"
        )
        assert result.rows == [(4,)]
        db.execute("ROLLBACK")
        assert db.row_count("items") == 3
