"""The batch engine against stdlib ``sqlite3``, over fixed corpora.

Every statement of the vectorized parity corpora (planner, rich,
string), a three-valued-logic corpus, the perf ledger's
``engine_selects`` templates at all their literal rotations and a
16-iteration ``engine_write`` cycle over ~3 000 facts runs in our
engine, at ``segment_rows`` 3 and 64, and in ``sqlite3`` loaded from
the same rows (``sqlite_oracle.load``).  Answers go through the one
normalisation shim (``sqlite_oracle.normalized``) and must be equal.

Where the two dialects really differ, the statement is a named entry of
``DEVIATIONS``: the test asserts *our* answer, and that sqlite's
differs, so an entry that stops deviating is noticed.

Named mutant this oracle kills: the generated OR value
(``expressions._Fuser._gen_binary``) answering TRUE OR NULL with NULL.
``test_matches_sqlite[three_valued-00-*]`` (a select list),
``test_matches_sqlite[three_valued-08-*]`` (constant folding) and
``test_dml_three_valued`` (a SET expression) fail under it; an OR in
WHERE is decided by the t() form, which never yields NULL.
"""

from dataclasses import dataclass

import pytest

from repro.errors import SqlError
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

from tests.core.stamp_oracle import load_ledger_workloads
from tests.sqlengine.sqlite_oracle import answer, load, normalized
from tests.sqlengine.test_planner import NAIVE_EQUIVALENCE_QUERIES
from tests.sqlengine.test_vectorized_parity import (
    RICH_CORPUS,
    STRING_CORPUS,
    _populate_planner_schema,
    _populate_rich_schema,
    _populate_string_schema,
)

ledger = load_ledger_workloads()

LAYOUTS = {"seg3": 3, "seg64": 64}

#: three-valued logic where it shows: TRUE OR NULL, FALSE AND NULL,
#: NOT NULL, IN lists with NULL items (rich schema: val is NULL on id 2,
#: flag on id 4, name on id 3)
THREE_VALUED = [
    "SELECT id, id = 2 OR val > 0 FROM t",
    "SELECT id FROM t WHERE id = 2 OR val > 0",
    "SELECT id, flag AND val > 0, flag OR val > 0, NOT flag FROM t",
    "SELECT id, name LIKE 'a%' OR grp IS NULL FROM t",
    "SELECT count(*) FROM t WHERE NOT (val > 0 OR name IS NULL)",
    "SELECT id FROM t WHERE val IN (1.5, NULL) OR id = 3",
    "SELECT id FROM t WHERE NOT (val IN (1.5, NULL))",
    "SELECT id, CASE WHEN val > 0 OR flag THEN 'y' ELSE 'n' END FROM t",
    "SELECT id, TRUE OR NULL, FALSE AND NULL, NULL OR FALSE FROM t "
    "WHERE id = 1",
]



def _populate_overflow_schema(db: Database) -> None:
    """REAL addends whose sums leave the float range: same-sign groups
    (``pos``, ``neg``) and one whose exact sum is back in range
    (``mix``)."""
    db.execute("CREATE TABLE big (id INT, g TEXT, x REAL)")
    db.insert_rows("big", [
        (1, "pos", 1e308), (2, "pos", 1e308), (3, "neg", -1e308),
        (4, "neg", -1e308), (5, "mix", 1e308), (6, "mix", 1e308),
        (7, "mix", -1e308),
    ])


#: sums past the float range answer ±inf, as sqlite's do (they used to
#: raise a bare OverflowError): the scan fold, the batch path (HAVING)
#: and a global aggregate
OVERFLOW = [
    "SELECT sum(x), avg(x) FROM big WHERE g = 'pos'",
    "SELECT sum(x), avg(x) FROM big WHERE g = 'neg'",
    "SELECT g, sum(x), avg(x) FROM big WHERE g <> 'mix' GROUP BY g",
    "SELECT g, sum(x), avg(x) FROM big WHERE g <> 'mix' GROUP BY g "
    "HAVING count(*) > 1",
    "SELECT sum(x), avg(x) FROM big WHERE x > 0",
]

CORPORA = {
    "planner": (_populate_planner_schema, NAIVE_EQUIVALENCE_QUERIES),
    "rich": (_populate_rich_schema, RICH_CORPUS),
    "string": (_populate_string_schema, STRING_CORPUS),
    "three_valued": (_populate_rich_schema, THREE_VALUED),
    "overflow": (_populate_overflow_schema, OVERFLOW),
}


@dataclass(frozen=True)
class Deviation:
    corpus: str
    sql: str
    #: our normalized rows, or ``"TypeName: message"`` for an error
    ours: object
    why: str


DEVIATIONS = {
    "integer-division": Deviation(
        "rich", "SELECT id, id / 2 FROM t",
        [(1.0, 0.5), (2.0, 1.0), (3.0, 1.5), (4.0, 2.0), (5.0, 2.5),
         (6.0, 3.0)],
        "'/' is true division here; sqlite truncates INTEGER / INTEGER",
    ),
    "division-by-zero": Deviation(
        "rich", "SELECT id FROM t WHERE 10 / (id - 3) > 1",
        "SqlExecutionError: division by zero in (10 / (id - 3))",
        "dividing by zero raises here; sqlite answers NULL",
    ),
    "text-vs-number": Deviation(
        "rich", "SELECT id FROM t WHERE name > 5",
        "SqlTypeError: cannot compare 'alpha' with 5",
        "comparing TEXT with a number raises here; sqlite orders every "
        "number before every text",
    ),
    "sum-of-text": Deviation(
        "rich", "SELECT sum(name) FROM t",
        "SqlTypeError: sum() expects numbers, got 'alpha'",
        "sum() of TEXT raises here; sqlite reads non-numeric text as 0",
    ),
    "sum-overflow-cancels": Deviation(
        "overflow", "SELECT sum(x), avg(x) FROM big WHERE g = 'mix'",
        [(1e308, 1e308 / 3)],
        "1e308 + 1e308 - 1e308 sums exactly here, to 1e308; sqlite adds "
        "in order and its first step already overflows to inf",
    ),
}

_DEVIATING = {deviation.sql for deviation in DEVIATIONS.values()}

CASES = [
    pytest.param(corpus, sql, id=f"{corpus}-{i:02d}")
    for corpus, (__, queries) in CORPORA.items()
    for i, sql in enumerate(queries)
]


@pytest.fixture(scope="module")
def databases():
    """``(layout, corpus) -> (our db, sqlite copy)``, built on first use."""
    built: dict = {}

    def get(layout: str, corpus: str):
        key = (layout, corpus)
        if key not in built:
            db = Database(config=EngineConfig(segment_rows=LAYOUTS[layout]))
            CORPORA[corpus][0](db)
            built[key] = db, load(db)
        return built[key]

    return get


def outcome(db: Database, sql: str):
    try:
        return db.execute(sql)
    except SqlError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("corpus,sql", CASES)
def test_matches_sqlite(layout, corpus, sql, databases):
    assert sql not in _DEVIATING
    db, conn = databases(layout, corpus)
    ours, theirs = answer(db.execute(sql), conn, sql)
    assert ours == theirs, sql


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(DEVIATIONS))
def test_deviation(layout, name, databases):
    deviation = DEVIATIONS[name]
    db, conn = databases(layout, deviation.corpus)
    ours = outcome(db, deviation.sql)
    if not isinstance(ours, str):
        ours = normalized(ours.rows)
    assert ours == deviation.ours
    assert normalized(conn.execute(deviation.sql).fetchall()) != ours


# ----------------------------------------------------------------------
# DML: three-valued WHERE and SET, compared table by table
# ----------------------------------------------------------------------
DML_THREE_VALUED = [
    "UPDATE t SET flag = id = 2 OR val > 0",
    "UPDATE t SET name = 'hit' WHERE grp = 'g1' OR val > 100",
    "DELETE FROM child WHERE t_id = 1 OR label = 'none'",
    "UPDATE child SET label = NULL WHERE NOT (t_id IN (3, NULL))",
    "DELETE FROM t WHERE NOT (val > 1 OR name IS NULL)",
]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_dml_three_valued(layout):
    db = Database(config=EngineConfig(segment_rows=LAYOUTS[layout]))
    _populate_rich_schema(db)
    conn = load(db)
    for sql in DML_THREE_VALUED:
        assert db.execute(sql).rowcount == conn.execute(sql).rowcount, sql
        for table in ("t", "child"):
            probe = f"SELECT * FROM {table}"
            assert normalized(db.execute(probe).rows) == normalized(
                conn.execute(probe).fetchall()
            ), sql


# ----------------------------------------------------------------------
# the perf ledger's engine workload at ~1/30 size
# ----------------------------------------------------------------------
FACTS = 3000


def ledger_db(layout: str) -> Database:
    db = Database(config=EngineConfig(segment_rows=LAYOUTS[layout]))
    db.create_table("dims", ledger.DIMS_COLUMNS)
    db.insert_rows("dims", ledger.engine_dims())
    db.create_table("facts", ledger.FACTS_COLUMNS)
    for batch in ledger.engine_batches(FACTS, 500):
        db.insert_rows("facts", batch)
    return db


@pytest.fixture(scope="module")
def ledger_dbs():
    return {
        layout: (db, load(db))
        for layout, db in ((name, ledger_db(name)) for name in LAYOUTS)
    }


TEMPLATES = sorted(ledger.engine_selects(0, FACTS))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("rotation", range(ledger.LITERALS))
def test_ledger_selects(layout, template, rotation, ledger_dbs):
    db, conn = ledger_dbs[layout]
    sql = ledger.engine_selects(rotation, FACTS)[template]
    ours, theirs = answer(db.execute(sql), conn, sql)
    assert ours == theirs, sql
    assert ours, sql  # not vacuous


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_ledger_write_cycle(layout):
    """16 iterations of write-then-read, as ``engine_ingest_mix`` runs."""
    db = ledger_db(layout)
    conn = load(db)
    for iteration in range(16):
        __, write = ledger.engine_write(iteration, FACTS)
        assert db.execute(write).rowcount == conn.execute(write).rowcount
        for sql in ledger.engine_selects(iteration, FACTS).values():
            ours, theirs = answer(db.execute(sql), conn, sql)
            assert ours == theirs, (iteration, sql)
    probe = "SELECT * FROM facts"
    assert normalized(db.execute(probe).rows) == normalized(
        conn.execute(probe).fetchall()
    )
