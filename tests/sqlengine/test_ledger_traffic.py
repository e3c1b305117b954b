"""The perf ledger's ``engine_ingest_mix`` traffic, at tier-1 size.

``make ledger-smoke`` runs the ledger at 1/100 size, where ``facts``
never freezes a segment, so it cannot see what the segment-skipping
scan does.  This test replays six iterations of the ledger's own
statements (``benchmarks/ledger/workloads.py``, imported read-only:
the six SELECT templates in seed 1's order, then the iteration's
UPDATE / DELETE / INSERT) over 20k facts at ``segment_rows=1024``, and
locks, per template, how many rows the scans slice
(``engine.rows_scanned``):

* ``strfilter`` (``... ORDER BY f.id LIMIT 50``) reads the batches up
  to the one holding its 50th match, the delta, and at most one batch
  more: every later frozen segment starts past the top-N's bound;
* every other template reads exactly what it read before the top-N
  bound learnt to skip segments (the counts below were recorded then).

Every answer is also checked against stdlib ``sqlite3``, which replays
the same writes.

The same ingest, run durably, must write the bytes the per-row insert
path wrote: the WAL file and the checkpoint image that follows it are
locked by sha256.
"""

import hashlib

from repro.obs.metrics import registry
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.planner.physical import BATCH_SIZE

from tests.core.stamp_oracle import load_ledger_workloads
from tests.sqlengine.sqlite_oracle import answer, load

ledger = load_ledger_workloads()

FACTS = 20_000
SEGMENT_ROWS = 1024
ITERATIONS = 6
SEED = 1

#: rows sliced per template over the six iterations, recorded before
#: top-N bounds skipped segments, when strfilter read every row
SCANNED_BEFORE = {
    "headline": 121_496,
    "topn": 119_960,
    "groupby": 119_960,
    "leftjoin": 97_944,
    "point": 31_024,
}
STRFILTER_BEFORE = 119_960

#: sha256 of the WAL and of the checkpoint image after a durable ingest
#: of the dims and 20k facts in 5000-row batches.  The WAL digest was
#: recorded when every insert still went row by row (the image stores
#: ``Table.version``).  The checkpoint digest was re-recorded when TEXT
#: columns stopped being dictionary-encoded: the image now tags every
#: column ``"plain"`` and stores strings where it stored a value table
#: plus codes; decoded, it holds the same values, versions and counters
#: as the image before (141 346 -> 141 982 bytes)
WAL_SHA256 = "2738d0ecbe133110209baceadea350d448776de8a738e0dcff6ff899ccbadc3b"
CHECKPOINT_SHA256 = (
    "451a93134cf623c530d1e19480fce514543cf50bef6e1b5797546089d057519a"
)


def _database(**options) -> Database:
    db = Database(config=EngineConfig(segment_rows=SEGMENT_ROWS), **options)
    db.create_table("dims", ledger.DIMS_COLUMNS, primary_key=["id"])
    db.create_table("facts", ledger.FACTS_COLUMNS, primary_key=["id"])
    db.insert_rows("dims", ledger.engine_dims())
    for batch in ledger.engine_batches(FACTS, 5000):
        db.insert_rows("facts", batch)
    return db


def _strfilter_bound(db: Database, conn, sql: str) -> int:
    """Rows the strfilter scan may slice: the batches up to the one
    holding the 50th match, the delta, and one batch more."""
    last_id = conn.execute(sql).fetchall()[-1][0]
    ids = db.table("facts").column_data(0)
    position = ids.index(last_id)
    delta = db.table("facts").segment_stats()["delta_rows"]
    return (position // BATCH_SIZE + 1) * BATCH_SIZE + delta + BATCH_SIZE


def test_ledger_traffic_scans_what_it_touches():
    db = _database()
    conn = load(db)
    counter = registry().counter("engine.rows_scanned")
    scanned = {name: 0 for name in ledger.engine_selects(0, FACTS)}
    for iteration in range(ITERATIONS):
        statements = ledger.engine_selects(iteration, FACTS)
        for name in ledger.engine_read_order(SEED, iteration):
            sql = statements[name]
            before = counter.value
            result = db.execute(sql)
            moved = counter.value - before
            scanned[name] += moved
            ours, theirs = answer(result, conn, sql)
            assert ours == theirs, (iteration, name)
            if name == "strfilter":
                assert moved <= _strfilter_bound(db, conn, sql), iteration
        __, write = ledger.engine_write(iteration, FACTS)
        assert db.execute(write).rowcount == conn.execute(write).rowcount
    assert scanned.pop("strfilter") < STRFILTER_BEFORE / 2
    assert scanned == SCANNED_BEFORE


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_durable_ingest_writes_the_per_row_bytes(tmp_path):
    db = _database(data_dir=str(tmp_path / "db"))
    durability = db.durability
    assert _sha256(durability.wal_path(durability.generation)) == WAL_SHA256
    db.checkpoint()
    assert _sha256(durability.checkpoint_path) == CHECKPOINT_SHA256
    db.close()
