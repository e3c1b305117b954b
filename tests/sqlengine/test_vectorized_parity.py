"""Row/batch execution parity across the whole query corpus.

Property-style lock for the vectorized engine: every query shape the
SQL layer supports is executed through both ``execution_mode="row"``
and ``execution_mode="batch"`` and must produce *byte-identical*
``ResultSet``s — same columns, same rows, same order.  Includes the
planner fixture corpus plus edge cases: empty tables, all-NULL
columns, LEFT JOIN padding, DISTINCT + ORDER BY, and error parity.

The batch side is additionally swept across the full engine-knob
matrix — fused expression codegen on/off × array-backed column
storage on/off × morsel workers 1/4 (with batches shrunk so the
fixtures genuinely span multiple morsels) — and every combination
must match row mode byte-for-byte, including which exception a
failing query raises.
"""

import pytest

from repro.errors import SqlError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

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
    databases = []
    for mode in ("row", "batch"):
        db = Database(config=EngineConfig(execution_mode=mode))
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
    row_rs = row_db.execute(sql)
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
    def test_same_error_both_modes(self, rich_dbs, sql):
        row_db, batch_db = rich_dbs
        with pytest.raises(SqlError) as row_error:
            row_db.execute(sql)
        with pytest.raises(SqlError) as batch_error:
            batch_db.execute(sql)
        assert type(batch_error.value) is type(row_error.value)
        assert str(batch_error.value) == str(row_error.value)

    def test_short_circuit_protects_division(self, rich_dbs):
        # row mode never divides where the guard is False; batch mode
        # must compact the batch the same way instead of raising
        sql = "SELECT id FROM t WHERE val <> 0.0 AND 10 / val > 1"
        _assert_parity(rich_dbs, sql)

    def test_case_guards_division(self, rich_dbs):
        sql = (
            "SELECT CASE WHEN val > 0 THEN 10 / val ELSE 0 END FROM t "
            "WHERE val IS NOT NULL"
        )
        _assert_parity(rich_dbs, sql)

    def test_in_list_items_short_circuit(self):
        # row mode never evaluates 10 / y for the row whose x matched
        # the first item; batch mode must confine later items to the
        # rows that actually reach them
        row_db, batch_db = _dual(
            lambda db: (
                db.execute("CREATE TABLE g (x INT, y INT)"),
                db.execute("INSERT INTO g VALUES (1, 0), (5, 2)"),
            )
        )
        sql = "SELECT x FROM g WHERE x IN (1, 10 / y)"
        assert batch_db.execute(sql).rows == row_db.execute(sql).rows == [
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
        for db in (row_db, batch_db):
            with pytest.raises(SqlError, match="division by zero"):
                db.execute(sql)


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

    def test_nan_in_list_matches_row_mode(self):
        row_db, batch_db = self._nan_dbs()
        # compare_values treats NaN as equal to any number, so row mode
        # keeps the NaN row; the batch set fast path must agree
        sql = "SELECT id FROM f WHERE x IN (5.0, 6.0)"
        row_rows = row_db.execute(sql).rows
        assert batch_db.execute(sql).rows == row_rows == [(1,)]

    def test_nan_survives_statistics_collection(self):
        row_db, batch_db = self._nan_dbs()
        # histogram build must not crash on non-finite values
        for db in (row_db, batch_db):
            assert db.execute("SELECT count(*) FROM f WHERE x > 0.5").rows \
                == [(1,)]

    def test_negative_zero_sum_is_byte_identical(self):
        def populate(db):
            db.create_table("z", [("x", "REAL")])
            db.insert_rows("z", [(-0.0,), (None,)])

        row_db, batch_db = _dual(populate)
        sql = "SELECT sum(x) FROM z"
        row_rows = row_db.execute(sql).rows
        batch_rows = batch_db.execute(sql).rows
        assert repr(batch_rows) == repr(row_rows) == "[(-0.0,)]"


def _populate_string_schema(db: Database) -> None:
    """Low-cardinality TEXT-heavy schema for the dictionary-encoded paths.

    ``items`` carries three encodable TEXT columns (with NULLs and
    repeated values), ``codes`` is a LEFT JOIN target with NULL keys
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
    # encoded fast paths: equality / inequality / IN / LIKE
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
    # encoded columns through expressions, ordering, grouping
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
    # joins keyed on encoded TEXT columns
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


def _string_trio() -> list:
    """Fresh (row, batch-encoded, batch-unencoded) databases."""
    return [
        Database(config=EngineConfig(execution_mode="row")),
        Database(config=EngineConfig(execution_mode="batch")),
        Database(
            config=EngineConfig(
                execution_mode="batch", dict_encoding_threshold=0
            )
        ),
    ]


@pytest.fixture(scope="module")
def string_dbs():
    """(row, batch-encoded, batch-unencoded) over the same data."""
    databases = _string_trio()
    for db in databases:
        _populate_string_schema(db)
    return tuple(databases)


class TestStringHeavyParity:
    """Row / batch-encoded / batch-unencoded must be byte-identical."""

    def test_fixture_is_actually_encoded(self, string_dbs):
        __, encoded, unencoded = string_dbs
        items = encoded.table("items")
        assert items.encoded_column_names() == ["status", "city", "note"]
        assert unencoded.table("items").encoded_column_names() == []

    @pytest.mark.parametrize("sql", STRING_CORPUS)
    def test_three_way_byte_identical(self, string_dbs, sql):
        row_db, encoded_db, unencoded_db = string_dbs
        row_rs = row_db.execute(sql)
        encoded_rs = encoded_db.execute(sql)
        unencoded_rs = unencoded_db.execute(sql)
        assert encoded_rs.columns == row_rs.columns, sql
        assert encoded_rs.rows == row_rs.rows, sql
        assert unencoded_rs.columns == row_rs.columns, sql
        assert unencoded_rs.rows == row_rs.rows, sql

    def test_parity_survives_dml_and_gc(self, string_dbs):
        sql = (
            "SELECT status, city, count(*) FROM items "
            "GROUP BY status, city ORDER BY status, city LIMIT 8"
        )
        fresh = _string_trio()
        for db in fresh:
            _populate_string_schema(db)
            db.execute("UPDATE items SET status = 'HELD' WHERE status = 'NEW'")
            db.execute("DELETE FROM items WHERE city = 'Zug'")
            db.execute(
                "UPDATE items SET city = NULL WHERE status = 'DONE'"
            )
        row_db, encoded_db, unencoded_db = fresh
        # 'NEW' and 'Zug' are gone: their codes must be collected
        status_dict = encoded_db.table("items").column_dictionary(1)
        assert "NEW" not in status_dict.code_of
        expected = row_db.execute(sql).rows
        assert encoded_db.execute(sql).rows == expected
        assert unencoded_db.execute(sql).rows == expected


class TestTopNParity:
    """The fused TopN operator vs the canonical Sort+Limit plan."""

    def test_optimized_plan_fuses_sort_limit(self, string_dbs):
        __, encoded_db, __unused = string_dbs
        plan = encoded_db.explain(
            "SELECT id FROM items ORDER BY status, id LIMIT 4"
        )
        assert "top-n 4 by status, id" in plan
        assert "sort by" not in plan
        assert "[dict: status" in plan

    def test_secondary_key_errors_survive_bound_pruning(self):
        # >1 batch of rows whose leading key loses to the bound must
        # still evaluate the secondary ORDER BY expression — row mode
        # and the unfused Sort+Limit raise, so the fused TopN must too
        def populate(db):
            db.execute("CREATE TABLE t (id INT, a INT, b INT)")
            db.insert_rows(
                "t",
                [(i, 0, 1) for i in range(1300)] + [(9999, 5, 0)],
            )

        row_db, batch_db = _dual(populate)
        sql = "SELECT id FROM t ORDER BY a, 10 / b LIMIT 2"
        with pytest.raises(SqlError) as row_error:
            row_db.execute(sql)
        with pytest.raises(SqlError) as batch_error:
            batch_db.execute(sql)
        assert str(batch_error.value) == str(row_error.value)
        assert "division by zero" in str(row_error.value)

    def test_canonical_plan_keeps_sort_limit(self, string_dbs):
        from repro.sqlengine.parser import parse_select
        from repro.sqlengine.planner import QueryPlanner

        __, encoded_db, __unused = string_dbs
        naive = QueryPlanner(encoded_db.catalog, optimize=False)
        select = parse_select(
            "SELECT id FROM items ORDER BY status, id LIMIT 4"
        )
        assert naive.execute(select).rows == encoded_db.execute(
            "SELECT id FROM items ORDER BY status, id LIMIT 4"
        ).rows


#: every combination of the PR-7 engine knobs: fused expression
#: codegen × array-backed column storage × morsel worker count
MODE_MATRIX = [
    pytest.param(fused, array, workers,
                 id=f"fused={int(fused)}-array={int(array)}-w={workers}")
    for fused in (True, False)
    for array in (True, False)
    for workers in (1, 4)
]


@pytest.fixture(scope="module")
def small_morsels():
    """Shrink batches/morsels so 200-row fixtures span many morsels."""
    import repro.sqlengine.planner.parallel as parallel
    import repro.sqlengine.planner.physical as physical

    saved = (physical.BATCH_SIZE, parallel.MORSEL_BATCHES)
    physical.BATCH_SIZE = 16
    parallel.MORSEL_BATCHES = 2
    yield
    physical.BATCH_SIZE, parallel.MORSEL_BATCHES = saved


def _matrix(populate, small_morsels) -> tuple:
    """(row baseline, {(fused, array, workers): batch db}) over one schema."""
    baseline = Database(config=EngineConfig(execution_mode="row"))
    populate(baseline)
    combos = {}
    for fused in (True, False):
        for array in (True, False):
            for workers in (1, 4):
                db = Database(
                    config=EngineConfig(
                        fused=fused,
                        array_store=array,
                        parallel_workers=workers,
                    )
                )
                populate(db)
                combos[(fused, array, workers)] = db
    return baseline, combos


@pytest.fixture(scope="module")
def rich_matrix(small_morsels):
    return _matrix(_populate_rich_schema, small_morsels)


@pytest.fixture(scope="module")
def string_matrix(small_morsels):
    return _matrix(_populate_string_schema, small_morsels)


class TestModeMatrixParity:
    """Every knob combination must be byte-identical to row mode.

    {fused on/off} × {array store on/off} × {workers 1/4}, across the
    rich corpus, the string-heavy (dictionary-encoded) corpus, and the
    error corpus — results, columns, and exceptions all identical.
    """

    @staticmethod
    def _assert_all(matrix, sql):
        baseline, combos = matrix
        expected = baseline.execute(sql)
        for combo, db in combos.items():
            got = db.execute(sql)
            assert got.columns == expected.columns, (sql, combo)
            assert got.rows == expected.rows, (sql, combo)

    @pytest.mark.parametrize("sql", RICH_CORPUS)
    def test_rich_corpus(self, rich_matrix, sql):
        self._assert_all(rich_matrix, sql)

    @pytest.mark.parametrize("sql", STRING_CORPUS)
    def test_string_corpus(self, string_matrix, sql):
        self._assert_all(string_matrix, sql)

    @pytest.mark.parametrize("sql", TestErrorParity.ERROR_QUERIES)
    def test_error_parity(self, rich_matrix, sql):
        baseline, combos = rich_matrix
        with pytest.raises(SqlError) as expected:
            baseline.execute(sql)
        for combo, db in combos.items():
            with pytest.raises(SqlError) as got:
                db.execute(sql)
            assert type(got.value) is type(expected.value), (sql, combo)
            assert str(got.value) == str(expected.value), (sql, combo)

    def test_parallel_plans_actually_split_morsels(self, rich_matrix):
        # the workers=4 fixture must really dispatch multiple morsels,
        # otherwise the matrix silently degrades to serial coverage
        __, combos = rich_matrix
        db = combos[(True, False, 4)]
        before = db.metrics().get("engine.morsels_dispatched", {}).get(
            "value", 0
        )
        db.execute("SELECT count(*), sum(val) FROM t WHERE id >= 0")
        after = db.metrics()["engine.morsels_dispatched"]["value"]
        assert after > before

    def test_error_row_identity_across_morsel_boundaries(self, small_morsels):
        # the failing row sits in a late morsel; every combo must
        # surface the division error even though earlier morsels
        # complete and later ones are cancelled
        def populate(db):
            db.execute("CREATE TABLE m (id INT, d INT)")
            db.insert_rows(
                "m", [(i, 1) for i in range(150)] + [(150, 0), (151, 1)]
            )

        baseline, combos = _matrix(populate, small_morsels)
        sql = "SELECT 10 / d FROM m"
        with pytest.raises(SqlError) as expected:
            baseline.execute(sql)
        for combo, db in combos.items():
            with pytest.raises(SqlError) as got:
                db.execute(sql)
            assert str(got.value) == str(expected.value), combo


class TestModeSwitching:
    """Each engine is chosen by the config a database is built with."""

    @staticmethod
    def _db(mode: str) -> Database:
        db = Database(config=EngineConfig(execution_mode=mode))
        db.execute("CREATE TABLE x (id INT)")
        db.execute("INSERT INTO x VALUES (1), (2)")
        return db

    def test_both_engines_answer_alike(self):
        batch, row = self._db("batch"), self._db("row")
        assert batch.config.execution_mode == "batch"
        assert row.config.execution_mode == "row"
        sql = "SELECT id FROM x ORDER BY id"
        assert row.execute(sql).rows == batch.execute(sql).rows

    def test_unknown_mode_rejected(self):
        from repro.errors import SqlExecutionError

        with pytest.raises(SqlExecutionError, match="unknown execution mode"):
            EngineConfig(execution_mode="turbo")

    def test_explain_annotates_mode(self):
        sql = "SELECT id FROM x"
        assert "[batch]" in self._db("batch").explain(sql)
        assert "[row]" in self._db("row").explain(sql)
