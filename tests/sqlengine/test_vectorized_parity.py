"""Batch-engine parity with the row-at-a-time reference interpreter.

Property-style lock for the vectorized engine: every query shape the
SQL layer supports is executed by the engine and by
``tests/sqlengine/reference_engine.py`` and must produce
*byte-identical* ``ResultSet``s — same columns, same rows, same order.
Includes the planner fixture corpus plus edge cases: empty tables,
all-NULL columns, LEFT JOIN padding, DISTINCT + ORDER BY, and error
parity.

The engine is additionally run with batches shrunk so the fixtures
genuinely span many batches, and must still match the reference
byte-for-byte, including which exception a failing query raises.
"""

import pytest

from repro.errors import SqlError
from repro.sqlengine.database import Database

from tests.sqlengine.reference_engine import reference_execute
from tests.sqlengine.test_planner import NAIVE_EQUIVALENCE_QUERIES


def _populate_planner_schema(db: Database) -> None:
    """The test_planner fixture schema (small / big / small2)."""
    db.execute("CREATE TABLE small (id INT PRIMARY KEY, tag TEXT)")
    db.execute(
        "CREATE TABLE big (id INT PRIMARY KEY, small_id INT, amount REAL, "
        "status TEXT)"
    )
    db.execute("CREATE TABLE small2 (id INT PRIMARY KEY, note TEXT)")
    db.execute("INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    db.execute(
        "INSERT INTO big VALUES "
        + ", ".join(
            f"({i}, {i % 3 + 1}, {i * 10.0}, "
            f"'{'OPEN' if i % 4 else 'DONE'}')"
            for i in range(1, 41)
        )
    )
    db.execute("INSERT INTO small2 VALUES (1, 'x'), (2, 'y'), (3, 'z')")


def _populate_rich_schema(db: Database) -> None:
    """NULL-heavy schema with empty / all-NULL / date / boolean columns."""
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, val REAL, "
        "flag BOOLEAN, born DATE, grp TEXT)"
    )
    db.execute("CREATE TABLE child (id INT, t_id INT, label TEXT)")
    db.execute("CREATE TABLE empty_t (id INT, name TEXT)")
    db.execute("CREATE TABLE all_null (id INT, hole TEXT)")
    rows = [
        "(1, 'alpha', 1.5, TRUE, '1990-01-15', 'g1')",
        "(2, 'beta', NULL, FALSE, '1985-06-30', 'g1')",
        "(3, NULL, -2.25, TRUE, NULL, 'g2')",
        "(4, 'delta', 0.0, NULL, '2000-12-01', 'g2')",
        "(5, 'Echo', 7.0, FALSE, '1990-01-15', NULL)",
        "(6, 'alpha', 3.5, TRUE, '1970-03-03', 'g3')",
    ]
    db.execute("INSERT INTO t VALUES " + ", ".join(rows))
    db.execute(
        "INSERT INTO child VALUES (1, 1, 'c1'), (2, 1, 'c2'), (3, 3, 'c3'), "
        "(4, NULL, 'c4'), (5, 99, 'c5')"
    )
    db.execute(
        "INSERT INTO all_null VALUES (1, NULL), (2, NULL), (3, NULL)"
    )


def _dual(populate) -> tuple:
    """(database the reference reads, database the engine runs on)."""
    databases = []
    for __ in range(2):
        db = Database()
        populate(db)
        databases.append(db)
    return tuple(databases)


@pytest.fixture(scope="module")
def planner_dbs():
    return _dual(_populate_planner_schema)


@pytest.fixture(scope="module")
def rich_dbs():
    return _dual(_populate_rich_schema)


def _assert_parity(dbs, sql: str) -> None:
    row_db, batch_db = dbs
    row_rs = reference_execute(row_db, sql)
    batch_rs = batch_db.execute(sql)
    assert batch_rs.columns == row_rs.columns, sql
    assert batch_rs.rows == row_rs.rows, sql


class TestPlannerCorpusParity:
    @pytest.mark.parametrize("sql", NAIVE_EQUIVALENCE_QUERIES)
    def test_fixture_queries_identical(self, planner_dbs, sql):
        _assert_parity(planner_dbs, sql)


RICH_CORPUS = [
    # scans + projection
    "SELECT * FROM t",
    "SELECT t.* FROM t",
    "SELECT id, name FROM t",
    "SELECT id + 1, val * 2, -val FROM t",
    "SELECT name || '!' FROM t",
    "SELECT lower(name), upper(name), length(name) FROM t",
    "SELECT abs(val), coalesce(name, grp, 'none') FROM t",
    "SELECT year(born), month(born) FROM t",
    "SELECT CASE WHEN val > 1 THEN 'big' WHEN val >= 0 THEN 'small' "
    "ELSE 'neg' END FROM t",
    # filters: every comparison + logic shape
    "SELECT id FROM t WHERE id = 3",
    "SELECT id FROM t WHERE id <> 3",
    "SELECT id FROM t WHERE val < 2.0",
    "SELECT id FROM t WHERE val <= 1.5",
    "SELECT id FROM t WHERE val > 0",
    "SELECT id FROM t WHERE val >= 0.0",
    "SELECT id FROM t WHERE 4 > id",
    "SELECT id FROM t WHERE name = 'alpha' AND val > 1",
    "SELECT id FROM t WHERE name = 'alpha' OR grp = 'g2'",
    "SELECT id FROM t WHERE NOT (flag = TRUE)",
    "SELECT id FROM t WHERE name LIKE 'a%'",
    "SELECT id FROM t WHERE name NOT LIKE '%a'",
    "SELECT id FROM t WHERE name LIKE grp",
    "SELECT id FROM t WHERE id IN (1, 3, 5)",
    "SELECT id FROM t WHERE id NOT IN (1, 3, 5)",
    "SELECT id FROM t WHERE name IN ('alpha', 'Echo')",
    "SELECT id FROM t WHERE id IN (val, 2)",
    "SELECT id FROM t WHERE val BETWEEN 0 AND 4",
    "SELECT id FROM t WHERE val NOT BETWEEN 0 AND 4",
    "SELECT id FROM t WHERE name IS NULL",
    "SELECT id FROM t WHERE born IS NOT NULL",
    "SELECT id FROM t WHERE CASE WHEN grp = 'g1' THEN 1 ELSE 0 END = 1",
    "SELECT id FROM t WHERE born > '1989-01-01'",
    # joins
    "SELECT t.id, child.label FROM t, child WHERE t.id = child.t_id",
    "SELECT t.id, c.label FROM t JOIN child c ON t.id = c.t_id "
    "WHERE c.label <> 'c2'",
    "SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.grp = b.grp",
    "SELECT t.id, e.id FROM t, empty_t e",
    "SELECT t.id, c.label FROM t LEFT JOIN child c ON t.id = c.t_id",
    "SELECT t.id, c.label FROM t LEFT JOIN child c "
    "ON t.id = c.t_id AND c.label <> 'c1'",
    "SELECT t.id, e.name FROM t LEFT JOIN empty_t e ON t.id = e.id",
    # aggregates
    "SELECT count(*) FROM t",
    "SELECT count(name) FROM t",
    "SELECT count(DISTINCT name) FROM t",
    "SELECT sum(val), avg(val), min(val), max(val) FROM t",
    "SELECT grp, count(*) FROM t GROUP BY grp",
    "SELECT grp, sum(val) FROM t GROUP BY grp HAVING count(*) > 1",
    "SELECT grp, flag, count(*) FROM t GROUP BY grp, flag",
    "SELECT year(born), count(*) FROM t GROUP BY year(born)",
    "SELECT count(*) FROM empty_t",
    "SELECT sum(id), min(name) FROM empty_t",
    "SELECT count(hole), count(*) FROM all_null",
    "SELECT sum(id) FROM all_null WHERE hole IS NOT NULL",
    "SELECT min(hole), max(hole) FROM all_null",
    # distinct / sort / limit
    "SELECT DISTINCT grp FROM t",
    "SELECT DISTINCT grp FROM t ORDER BY grp",
    "SELECT DISTINCT grp, flag FROM t ORDER BY grp DESC, flag",
    "SELECT id, name FROM t ORDER BY name",
    "SELECT id, name FROM t ORDER BY 2 DESC, 1",
    "SELECT id, val FROM t ORDER BY val DESC",
    "SELECT id FROM t ORDER BY grp, born DESC, id",
    "SELECT id AS ident FROM t ORDER BY ident DESC",
    "SELECT id FROM t ORDER BY val + id",
    "SELECT id FROM t ORDER BY id LIMIT 3",
    "SELECT id FROM t ORDER BY id LIMIT 0",
    "SELECT id FROM t ORDER BY id LIMIT 99",
    "SELECT grp, count(*) FROM t GROUP BY grp ORDER BY count(*) DESC, grp",
    # set operations
    "SELECT id FROM t UNION SELECT t_id FROM child",
    "SELECT grp FROM t UNION ALL SELECT label FROM child",
    "SELECT id FROM empty_t UNION SELECT id FROM t WHERE id > 4",
]


class TestRichCorpusParity:
    @pytest.mark.parametrize("sql", RICH_CORPUS)
    def test_byte_identical_results(self, rich_dbs, sql):
        _assert_parity(rich_dbs, sql)


class TestErrorParity:
    ERROR_QUERIES = [
        "SELECT id FROM t WHERE id = 1 / 0",
        "SELECT val / 0 FROM t",
        "SELECT name + 1 FROM t",
        "SELECT -name FROM t",
        "SELECT abs(name) FROM t",
        "SELECT sum(name) FROM t",
    ]

    @pytest.mark.parametrize("sql", ERROR_QUERIES)
    def test_same_error_as_reference(self, rich_dbs, sql):
        row_db, batch_db = rich_dbs
        with pytest.raises(SqlError) as row_error:
            reference_execute(row_db, sql)
        with pytest.raises(SqlError) as batch_error:
            batch_db.execute(sql)
        assert type(batch_error.value) is type(row_error.value)
        assert str(batch_error.value) == str(row_error.value)

    #: one case per node that runs a part only on the rows reaching it
    #: (val is 0.0 on id 4, NULL on id 2; flag is NULL on id 4): the
    #: part that would divide by zero is skipped — or, where the
    #: reference evaluates it, raises its error
    ERROR_ORDER = {
        "and": "SELECT id, (val <> 0.0 AND 10 / val > 1) FROM t",
        "and-null-left": "SELECT id FROM t WHERE (flag AND 10 / val > 1) "
                         "OR id < 0",
        "or": "SELECT id FROM t WHERE NOT (val = 0.0 OR 10 / val > 1)",
        "case": "SELECT CASE WHEN val = 0.0 THEN 0 WHEN 10 / val > 1 "
                "THEN 1 ELSE 2 END FROM t",
        "in": "SELECT id FROM t WHERE id IN (4, 10 / val)",
        # the reference evaluates every argument of coalesce
        "coalesce": "SELECT coalesce(id, 10 / val) FROM t",
    }

    @pytest.mark.parametrize(
        "sql", list(ERROR_ORDER.values()), ids=list(ERROR_ORDER)
    )
    def test_lazy_parts_raise_as_the_reference(self, rich_dbs, sql):
        outcomes = []
        for run, db in zip((reference_execute, Database.execute), rich_dbs):
            try:
                outcomes.append(repr(run(db, sql).rows))
            except SqlError as error:
                outcomes.append(f"{type(error).__name__}: {error}")
        assert outcomes[1] == outcomes[0], sql

    def test_short_circuit_protects_division(self, rich_dbs):
        # the reference never divides where the guard is False; the
        # engine must compact the batch the same way instead of raising
        sql = "SELECT id FROM t WHERE val <> 0.0 AND 10 / val > 1"
        _assert_parity(rich_dbs, sql)

    def test_case_guards_division(self, rich_dbs):
        sql = (
            "SELECT CASE WHEN val > 0 THEN 10 / val ELSE 0 END FROM t "
            "WHERE val IS NOT NULL"
        )
        _assert_parity(rich_dbs, sql)

    def test_in_list_items_short_circuit(self):
        # the reference never evaluates 10 / y for the row whose x
        # matched the first item; the engine must confine later items
        # to the rows that actually reach them
        row_db, batch_db = _dual(
            lambda db: (
                db.execute("CREATE TABLE g (x INT, y INT)"),
                db.execute("INSERT INTO g VALUES (1, 0), (5, 2)"),
            )
        )
        sql = "SELECT x FROM g WHERE x IN (1, 10 / y)"
        assert batch_db.execute(sql).rows == reference_execute(
            row_db, sql
        ).rows == [
            (1,),
            (5,),
        ]

    def test_like_null_pattern_still_evaluates_operand(self):
        row_db, batch_db = _dual(
            lambda db: (
                db.execute("CREATE TABLE g (x INT, y INT)"),
                db.execute("INSERT INTO g VALUES (1, 0)"),
            )
        )
        sql = "SELECT x FROM g WHERE (10 / y) LIKE NULL"
        for run in (lambda: reference_execute(row_db, sql),
                    lambda: batch_db.execute(sql)):
            with pytest.raises(SqlError, match="division by zero"):
                run()


class TestFloatEdgeParity:
    """NaN and -0.0 reach the engine via the programmatic insert path."""

    @staticmethod
    def _nan_dbs():
        def populate(db):
            db.create_table("f", [("id", "INT"), ("x", "REAL")])
            db.insert_rows(
                "f", [(1, float("nan")), (2, 1.0), (3, -0.0), (4, None)]
            )

        return _dual(populate)

    def test_nan_in_list_matches_the_reference(self):
        row_db, batch_db = self._nan_dbs()
        # compare_values treats NaN as equal to any number, so the
        # reference keeps the NaN row; the batch set fast path must agree
        sql = "SELECT id FROM f WHERE x IN (5.0, 6.0)"
        row_rows = reference_execute(row_db, sql).rows
        assert batch_db.execute(sql).rows == row_rows == [(1,)]

    def test_nan_survives_statistics_collection(self):
        row_db, batch_db = self._nan_dbs()
        # histogram build must not crash on non-finite values
        sql = "SELECT count(*) FROM f WHERE x > 0.5"
        assert reference_execute(row_db, sql).rows == [(1,)]
        assert batch_db.execute(sql).rows == [(1,)]

    def test_negative_zero_sum_is_byte_identical(self):
        def populate(db):
            db.create_table("z", [("x", "REAL")])
            db.insert_rows("z", [(-0.0,), (None,)])

        row_db, batch_db = _dual(populate)
        sql = "SELECT sum(x) FROM z"
        row_rows = reference_execute(row_db, sql).rows
        batch_rows = batch_db.execute(sql).rows
        assert repr(batch_rows) == repr(row_rows) == "[(-0.0,)]"


def _populate_string_schema(db: Database) -> None:
    """Low-cardinality TEXT-heavy schema for the string paths.

    ``items`` carries three TEXT columns with NULLs and few, repeated
    values (the per-batch LIKE table's case), ``codes`` is a LEFT JOIN
    target with NULL keys
    and duplicate keys, and ``no_rows`` exercises empty right sides.
    """
    db.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, status TEXT, city TEXT, "
        "note TEXT, score REAL)"
    )
    db.execute("CREATE TABLE codes (code TEXT, label TEXT)")
    db.execute("CREATE TABLE no_rows (code TEXT, label TEXT)")
    statuses = ["NEW", "OPEN", "HELD", "DONE", None]
    cities = ["Zurich", "Basel", "Geneva", None, "Bern", "Zug"]
    rows = []
    for i in range(200):
        status = statuses[i % 5]
        city = cities[(i * 3) % 6]
        note = None if i % 17 == 0 else f"note {i % 9}"
        rows.append(
            "({}, {}, {}, {}, {})".format(
                i,
                "NULL" if status is None else f"'{status}'",
                "NULL" if city is None else f"'{city}'",
                "NULL" if note is None else f"'{note}'",
                "NULL" if i % 13 == 0 else f"{(i * 7) % 50}.5",
            )
        )
    db.execute("INSERT INTO items VALUES " + ", ".join(rows))
    db.execute(
        "INSERT INTO codes VALUES ('NEW', 'fresh'), ('DONE', 'finished'), "
        "(NULL, 'unkeyed'), ('DONE', 'complete'), ('GONE', 'unmatched')"
    )


STRING_CORPUS = [
    # string predicates: equality / inequality / IN / LIKE
    "SELECT id FROM items WHERE status = 'DONE'",
    "SELECT id FROM items WHERE status <> 'DONE'",
    "SELECT id FROM items WHERE status = 'ABSENT'",
    "SELECT id FROM items WHERE status <> 'ABSENT'",
    "SELECT id FROM items WHERE 'OPEN' = status",
    "SELECT id FROM items WHERE status IN ('NEW', 'HELD')",
    "SELECT id FROM items WHERE status NOT IN ('NEW', 'HELD')",
    "SELECT id FROM items WHERE status IN ('ABSENT', 'MISSING')",
    "SELECT id FROM items WHERE city LIKE 'Z%'",
    "SELECT id FROM items WHERE city NOT LIKE '%e%'",
    "SELECT id FROM items WHERE city LIKE '_asel'",
    "SELECT id FROM items WHERE status LIKE note",
    # TEXT columns through expressions, ordering, grouping
    "SELECT lower(status), upper(city) FROM items",
    "SELECT status || '-' || city FROM items",
    "SELECT coalesce(status, city, 'none') FROM items",
    "SELECT id, status FROM items ORDER BY status, id",
    "SELECT id FROM items ORDER BY city DESC, status, id",
    "SELECT status, count(*) FROM items GROUP BY status",
    "SELECT status, city, count(*), min(score) FROM items "
    "GROUP BY status, city",
    "SELECT status, count(*) FROM items GROUP BY status "
    "HAVING count(*) > 30",
    "SELECT count(DISTINCT status), count(status) FROM items",
    "SELECT DISTINCT status FROM items",
    "SELECT DISTINCT status, city FROM items ORDER BY status, city",
    "SELECT CASE WHEN status = 'DONE' THEN city ELSE status END "
    "FROM items",
    # LIMIT with ORDER BY (the fused TopN path), including ties
    "SELECT id, status FROM items ORDER BY status, id LIMIT 7",
    "SELECT id FROM items ORDER BY city DESC, id LIMIT 5",
    "SELECT id FROM items ORDER BY score DESC, id LIMIT 3",
    "SELECT status, count(*) FROM items GROUP BY status "
    "ORDER BY count(*) DESC, status LIMIT 2",
    "SELECT id FROM items ORDER BY status LIMIT 0",
    "SELECT id FROM items ORDER BY status LIMIT 999",
    "SELECT DISTINCT status FROM items ORDER BY status LIMIT 3",
    # joins keyed on TEXT columns
    "SELECT i.id, c.label FROM items i, codes c WHERE i.status = c.code",
    "SELECT i.id, c.label FROM items i JOIN codes c ON i.status = c.code "
    "WHERE c.label <> 'fresh'",
    # LEFT JOIN: hash path with NULL keys on both sides, duplicate
    # build keys, residual ON conjuncts, and empty right sides
    "SELECT i.id, c.label FROM items i LEFT JOIN codes c "
    "ON i.status = c.code",
    "SELECT i.id, c.label FROM items i LEFT JOIN codes c "
    "ON i.status = c.code AND c.label <> 'complete'",
    "SELECT i.id, c.label FROM items i LEFT JOIN codes c "
    "ON i.status = c.code AND c.label LIKE 'f%' AND i.score > 10",
    "SELECT i.id, n.label FROM items i LEFT JOIN no_rows n "
    "ON i.status = n.code",
    "SELECT i.id, c.label FROM items i LEFT JOIN codes c "
    "ON i.status = c.code AND i.city = 'Zurich' "
    "ORDER BY i.id, c.label LIMIT 20",
    # non-equi ON condition: broadcast fallback must agree too
    "SELECT i.id, c.label FROM items i LEFT JOIN codes c "
    "ON i.status > c.code WHERE i.id < 12",
]


@pytest.fixture(scope="module")
def string_dbs():
    """(reference, engine) over the same data."""
    return _dual(_populate_string_schema)


class TestStringHeavyParity:
    """Reference and engine must be byte-identical."""

    @pytest.mark.parametrize("sql", STRING_CORPUS)
    def test_byte_identical(self, string_dbs, sql):
        row_db, batch_db = string_dbs
        row_rs = reference_execute(row_db, sql)
        batch_rs = batch_db.execute(sql)
        assert batch_rs.columns == row_rs.columns, sql
        assert batch_rs.rows == row_rs.rows, sql

    def test_parity_survives_dml(self):
        sql = (
            "SELECT status, city, count(*) FROM items "
            "GROUP BY status, city ORDER BY status, city LIMIT 8"
        )
        row_db, batch_db = _dual(_populate_string_schema)
        for db, run in ((row_db, reference_execute), (batch_db, Database.execute)):
            run(db, "UPDATE items SET status = 'HELD' WHERE status = 'NEW'")
            run(db, "DELETE FROM items WHERE city = 'Zug'")
            run(db, "UPDATE items SET city = NULL WHERE status = 'DONE'")
        assert batch_db.execute(sql).rows == reference_execute(row_db, sql).rows


class TestTopNParity:
    """The fused TopN operator vs the canonical Sort+Limit plan."""

    def test_optimized_plan_fuses_sort_limit(self, string_dbs):
        __, batch_db = string_dbs
        plan = batch_db.explain(
            "SELECT id FROM items ORDER BY status, id LIMIT 4"
        )
        assert "top-n 4 by status, id" in plan
        assert "sort by" not in plan

    def test_secondary_key_errors_survive_bound_pruning(self):
        # >1 batch of rows whose leading key loses to the bound must
        # still evaluate the secondary ORDER BY expression — the
        # reference and the unfused Sort+Limit raise, so TopN must too
        def populate(db):
            db.execute("CREATE TABLE t (id INT, a INT, b INT)")
            db.insert_rows(
                "t",
                [(i, 0, 1) for i in range(1300)] + [(9999, 5, 0)],
            )

        row_db, batch_db = _dual(populate)
        sql = "SELECT id FROM t ORDER BY a, 10 / b LIMIT 2"
        with pytest.raises(SqlError) as row_error:
            reference_execute(row_db, sql)
        with pytest.raises(SqlError) as batch_error:
            batch_db.execute(sql)
        assert str(batch_error.value) == str(row_error.value)
        assert "division by zero" in str(row_error.value)

    def test_canonical_plan_keeps_sort_limit(self, string_dbs):
        from repro.sqlengine.parser import parse_select
        from repro.sqlengine.planner import QueryPlanner

        __, batch_db = string_dbs
        naive = QueryPlanner(batch_db.catalog, optimize=False)
        select = parse_select(
            "SELECT id FROM items ORDER BY status, id LIMIT 4"
        )
        assert naive.execute(select).rows == batch_db.execute(
            "SELECT id FROM items ORDER BY status, id LIMIT 4"
        ).rows


@pytest.fixture(scope="module")
def small_batches():
    """Shrink batches so 200-row fixtures span many batches."""
    import repro.sqlengine.planner.physical as physical

    saved = physical.BATCH_SIZE
    physical.BATCH_SIZE = 16
    yield
    physical.BATCH_SIZE = saved


def _matrix(populate, small_batches) -> tuple:
    """(reference baseline, engine db) over one schema."""
    return _dual(populate)


@pytest.fixture(scope="module")
def rich_matrix(small_batches):
    return _matrix(_populate_rich_schema, small_batches)


@pytest.fixture(scope="module")
def string_matrix(small_batches):
    return _matrix(_populate_string_schema, small_batches)


class TestSmallBatchParity:
    """With 16-row batches the engine must be byte-identical to the
    reference across the rich corpus, the string-heavy corpus, and the
    error corpus — results, columns, and exceptions all identical.
    """

    @staticmethod
    def _assert_all(matrix, sql):
        baseline, db = matrix
        expected = reference_execute(baseline, sql)
        got = db.execute(sql)
        assert got.columns == expected.columns, sql
        assert got.rows == expected.rows, sql

    @pytest.mark.parametrize("sql", RICH_CORPUS)
    def test_rich_corpus(self, rich_matrix, sql):
        self._assert_all(rich_matrix, sql)

    @pytest.mark.parametrize("sql", STRING_CORPUS)
    def test_string_corpus(self, string_matrix, sql):
        self._assert_all(string_matrix, sql)

    @pytest.mark.parametrize("sql", TestErrorParity.ERROR_QUERIES)
    def test_error_parity(self, rich_matrix, sql):
        baseline, db = rich_matrix
        with pytest.raises(SqlError) as expected:
            reference_execute(baseline, sql)
        with pytest.raises(SqlError) as got:
            db.execute(sql)
        assert type(got.value) is type(expected.value), sql
        assert str(got.value) == str(expected.value), sql

    def test_small_batches_really_split_the_scan(self, string_matrix):
        # the 200-row fixture must really span many batches, otherwise
        # the matrix silently degrades to single-batch coverage
        __, db = string_matrix
        before = db.metrics().get("engine.batches_produced", {}).get(
            "value", 0
        )
        db.execute("SELECT count(*), sum(score) FROM items WHERE id >= 0")
        after = db.metrics()["engine.batches_produced"]["value"]
        assert after - before >= 200 // 16

    def test_error_row_identity_in_a_late_batch(self, small_batches):
        # the failing row sits in a late batch; the engine must
        # surface the division error even though earlier batches
        # complete and later ones are never produced
        def populate(db):
            db.execute("CREATE TABLE m (id INT, d INT)")
            db.insert_rows(
                "m", [(i, 1) for i in range(150)] + [(150, 0), (151, 1)]
            )

        baseline, db = _matrix(populate, small_batches)
        sql = "SELECT 10 / d FROM m"
        with pytest.raises(SqlError) as expected:
            reference_execute(baseline, sql)
        with pytest.raises(SqlError) as got:
            db.execute(sql)
        assert str(got.value) == str(expected.value)
