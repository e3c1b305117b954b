"""The literal LIKE's per-call match table, against the reference.

Generated code evaluates ``x [NOT] LIKE '<literal>'`` by running the
regex once per distinct string that reaches it in a batch, through a
``{value: result}`` table local to one call (``expressions._LikeTable``):
it fills as rows reach the LIKE, and only ``str`` values enter it,
because ``1``, ``1.0`` and ``True`` hash alike but render as ``'1'``,
``'1.0'`` and ``'True'``.
Every answer here is checked against the row-at-a-time reference
interpreter, which matches each row on its own.

Named mutants, each killed by a test below:

(a) one table shared between two LIKE patterns of the same statement
    (a memo keyed by value only, outliving its pattern):
    ``test_two_patterns_in_one_where`` and
    ``test_two_patterns_in_one_select_list``;
(b) a table keyed across types (the ``str`` check dropped):
    ``test_values_that_hash_alike_across_types``, whose
    ``CASE WHEN par = 0 THEN 1 ELSE 1.0 END LIKE '1'`` (``par`` holds
    ``id % 2``; the dialect has no ``%`` operator) puts ``1`` and ``1.0``
    in one batch.
"""

import pytest

from repro.sqlengine.database import Database

from tests.sqlengine.reference_engine import reference_execute

WORDS = ["alpha", "alps", "beta", "zeta", "Alpha", "a%b", "a_b", "", None]


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.execute("CREATE TABLE t (id INT, s TEXT, u TEXT, n INT, par INT)")
    db.insert_rows(
        "t",
        [
            (
                i,
                WORDS[i % len(WORDS)],
                WORDS[(i * 5) % len(WORDS)],
                None if i % 4 == 0 else i % 3,
                i % 2,
            )
            for i in range(300)
        ],
    )
    return db


def same_as_reference(db, sql):
    expected = reference_execute(db, sql)
    actual = db.execute(sql)
    assert actual.columns == expected.columns, sql
    assert actual.rows == expected.rows, sql
    return actual.rows


def test_two_patterns_in_one_where(db):
    rows = same_as_reference(
        db, "SELECT id FROM t WHERE s LIKE 'al%' AND s NOT LIKE '%s'"
    )
    assert rows and len(rows) < 300


def test_two_patterns_in_one_select_list(db):
    rows = same_as_reference(
        db,
        "SELECT id, s LIKE 'al%', s LIKE '%a', u NOT LIKE 'a_b' FROM t",
    )
    # the same values answer differently under the two patterns
    assert any(row[1] is True and row[2] is False for row in rows)
    assert any(row[1] is False and row[2] is True for row in rows)


def test_values_that_hash_alike_across_types(db):
    rows = same_as_reference(
        db,
        "SELECT id, CASE WHEN par = 0 THEN 1 ELSE 1.0 END LIKE '1' FROM t",
    )
    assert {row[1] for row in rows} == {True, False}
    same_as_reference(
        db,
        "SELECT id FROM t WHERE CASE WHEN n = 0 THEN 1 WHEN n = 1 THEN 1.0 "
        "ELSE TRUE END NOT LIKE '1%'",
    )


@pytest.mark.parametrize(
    "condition",
    [
        "s LIKE '%a%'",
        "s NOT LIKE '%a%'",
        "s LIKE 'a\\%b'",
        "s LIKE 'a_b'",
        "s LIKE ''",
        "s NOT LIKE ''",
        "s LIKE NULL",
        "s NOT LIKE NULL",
        "NULL LIKE 'a%'",
        "n LIKE '1'",
        "n NOT LIKE '2'",
        "lower(s) LIKE 'al%'",
        "s || u LIKE '%ab%'",
    ],
)
def test_like_forms_match_the_reference(db, condition):
    same_as_reference(db, f"SELECT id, {condition} FROM t")
    same_as_reference(db, f"SELECT id FROM t WHERE {condition}")
    same_as_reference(db, f"SELECT id FROM t WHERE NOT ({condition})")


def test_cached_plan_sees_new_values():
    """The table lives for one call: a cached plan re-run after a write
    answers from the new values."""
    db = Database()
    db.execute("CREATE TABLE w (id INT, s TEXT)")
    db.insert_rows("w", [(i, ("red", "blue")[i % 2]) for i in range(50)])
    sql = "SELECT count(*) FROM w WHERE s LIKE 'r%'"
    assert same_as_reference(db, sql) == [(25,)]
    db.execute("UPDATE w SET s = 'rose' WHERE s = 'blue'")
    assert same_as_reference(db, sql) == [(50,)]
    db.execute("UPDATE w SET s = NULL WHERE id < 10")
    assert same_as_reference(db, sql) == [(40,)]
