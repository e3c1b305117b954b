"""Parity of the one-step batch insert with the per-row oracle.

``Table.insert_many`` appends a whole batch under one lock acquisition,
with one undo record, one segment-freeze check and one version bump.
``tests/sqlengine/reference_storage.py`` keeps the per-row insert it
replaced.  Two twin databases receive the
same prefill and the same batch through ``Database.insert_rows``, one
through each path; the batch mixes exact-typed values with ``None``,
``int`` into REAL, ISO strings into DATE, ``bool`` into INTEGER and
other bad values, wrong arity at any row, and fresh TEXT values.  It runs
at ``segment_rows`` 1, 4 and 64, outside a transaction, inside
``BEGIN … ROLLBACK``, and under a per-statement guard whose WAL append
fails.  The twins must agree on the error (type and message) and on
the multiset of observer events.  When the batch is applied they must
agree on the column lists, every frozen segment's columns and zones,
``mutation_count`` and ``Table.version``.

Where the two paths differ by design:

* a batch that fails validation leaves the batch path's table, version
  and observers untouched, while the oracle
  appended a prefix that the statement guard then undid;
* a batch that is rolled back is undone by one ``delete_positions`` of
  its run, the oracle's by one per row, last row first.  The rows and
  counters agree, and the segments hold the same live rows, split where
  the per-row deletes compacted them.

Named mutant: column-major coercion, which reports the first bad
*column* instead of the first bad *row* (see the pinned example).
"""

import datetime
import functools
import shutil
import tempfile
from collections import Counter

from hypothesis import event, example, given, settings, strategies as st

from repro.sqlengine.catalog import CatalogObserver
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.txn import FaultInjector, FileLogStorage, InjectedCrash

from tests.sqlengine.reference_storage import reference_insert_many

COLUMNS = [
    ("i", "INTEGER"),
    ("r", "REAL"),
    ("s", "TEXT"),
    ("d", "DATE"),
    ("b", "BOOLEAN"),
]
NUMERIC = (0, 1)
#: distinct TEXT values the prefill cycles through
POOL = [f"p{k}" for k in range(255)]
DAY = datetime.date(2024, 1, 1)

GOOD = [
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(
        st.none(), st.floats(-10, 10, allow_nan=False), st.integers(-5, 5)
    ),
    st.one_of(
        st.none(),
        st.sampled_from(POOL[:3]),
        st.integers(0, 20).map(lambda k: f"fresh{k}"),
    ),
    st.one_of(
        st.none(),
        st.integers(0, 40).map(lambda k: DAY + datetime.timedelta(days=k)),
        st.integers(0, 40).map(
            lambda k: (DAY + datetime.timedelta(days=k)).isoformat()
        ),
    ),
    st.one_of(st.none(), st.booleans()),
]
BAD = [
    st.sampled_from([True, 2.5, "7"]),
    st.sampled_from([False, "x"]),
    st.sampled_from([7, 1.5]),
    st.sampled_from(["2024-13-01", 3]),
    st.sampled_from([1, "yes"]),
]


@st.composite
def batches(draw):
    """Good rows, then up to two bad values and one wrong-arity row."""
    rows = draw(
        st.lists(st.tuples(*GOOD).map(list), min_size=1, max_size=30)
    )
    for __ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(COLUMNS) - 1))
        rows[row][column] = draw(BAD[column])
    if draw(st.booleans()) and draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + [0]
    return [tuple(row) for row in rows]


class Recorder(CatalogObserver):
    def __init__(self) -> None:
        self.events: list = []

    def on_insert(self, table, row) -> None:
        self.events.append(("insert", table.name, row))

    def on_delete(self, table, row) -> None:
        self.events.append(("delete", table.name, row))


def typed(values) -> list:
    """Values with their types: ``2 == 2.0`` must not hide a coercion."""
    return [(type(value).__name__, value) for value in values]


def state(table, physical: bool = True) -> dict:
    """Everything a batch insert may change, except ``version``.

    With ``physical=False``, what a rollback must restore: the segments'
    live rows rather than their layout.
    """
    storage = table._storage
    if physical:
        segments = (
            storage.frozen_live,
            [
                (
                    [typed(column) for column in segment.columns],
                    segment.size,
                    sorted(segment.tombstones),
                    [segment.zone(index) for index in NUMERIC],
                )
                for segment in storage.segments
            ],
        )
    else:
        segments = (
            storage.frozen_live,
            [
                typed(
                    value
                    for segment in storage.segments
                    for value in segment.live_column(index, segment.tombstones)
                )
                for index in range(len(table.columns))
            ],
        )
    return {
        "columns": [
            typed(table.column_data(index))
            for index in range(len(table.columns))
        ],
        "segments": segments,
        "mutation_count": table.mutation_count,
    }


def prefill_rows(count: int) -> list:
    return [
        (k, float(k), POOL[k % len(POOL)], DAY, k % 2 == 0)
        for k in range(count)
    ]


def run(oracle: bool, segment_rows: int, mode: str, prefill: int, batch):
    """Prefill, then the batch; what the twin looks like afterwards."""
    data_dir = tempfile.mkdtemp(prefix="insertprop") if mode == "wal" else None
    injectors = []

    def storage(path):
        injectors.append(FaultInjector(FileLogStorage(path)))
        return injectors[-1]

    try:
        db = Database(
            config=EngineConfig(segment_rows=segment_rows),
            data_dir=data_dir,
            wal_sync=False,
            wal_storage_factory=storage if data_dir else None,
        )
        recorder = Recorder()
        db.catalog.register_observer(recorder)
        table = db.create_table("t", COLUMNS)
        if oracle:
            table.insert_many = functools.partial(reference_insert_many, table)
        db.insert_rows("t", prefill_rows(prefill))
        del recorder.events[:]
        if mode == "wal":  # the batch's record is the next append: it fails
            injectors[-1].byte_budget = injectors[-1].bytes_written
        if mode == "txn":
            db.execute("BEGIN")
        version = table.version
        outcome = {"error": None, "before": state(table)}
        try:
            db.insert_rows("t", batch)
        except Exception as exc:
            outcome["error"] = (type(exc), str(exc))
        outcome["state"] = state(table)
        outcome["logical"] = state(table, physical=False)
        outcome["version"] = table.version - version
        if mode == "txn":
            db.execute("ROLLBACK")
            outcome["rolled_back"] = state(table, physical=False)
            outcome["rollback_version"] = table.version - version
        outcome["events"] = Counter(recorder.events)
        db.close()
        return outcome
    finally:
        if data_dir:
            shutil.rmtree(data_dir, ignore_errors=True)


def cancels(events: Counter) -> bool:
    """Every insert event has a matching delete: a net no-op."""
    inserted = Counter({row: n for (kind, __, row), n in events.items()
                        if kind == "insert"})
    deleted = Counter({row: n for (kind, __, row), n in events.items()
                       if kind == "delete"})
    return inserted == deleted


@settings(max_examples=200, deadline=None)
@given(
    segment_rows=st.sampled_from([1, 4, 64]),
    mode=st.sampled_from(["plain", "txn", "wal"]),
    prefill=st.sampled_from([0, 7, len(POOL) + 3]),
    batch=batches(),
)
@example(  # two bad rows in different columns: the first *row* wins
    segment_rows=1,
    mode="plain",
    prefill=0,
    batch=[
        (1, 1.0, 7, DAY, True),  # TEXT column: int
        (2, 2.0, "a", DAY, True),
        (True, 3.0, "b", DAY, True),  # INTEGER column: bool
    ],
)
@example(  # fresh TEXT values into a segmented table, rolled back
    segment_rows=4,
    mode="txn",
    prefill=len(POOL) + 3,
    batch=[(k, 1, f"fresh{k}", DAY.isoformat(), None) for k in range(9)],
)
def test_batch_insert_matches_per_row_oracle(segment_rows, mode, prefill, batch):
    ours = run(False, segment_rows, mode, prefill, batch)
    theirs = run(True, segment_rows, mode, prefill, batch)
    assert ours["error"] == theirs["error"]
    error = ours["error"]
    validation_error = error is not None and error[0] is not InjectedCrash
    event(f"{mode}: " + ("applied" if error is None else error[0].__name__))
    if error is None:
        assert ours["state"] == theirs["state"]
        assert ours["version"] == theirs["version"] == len(batch)
    elif not validation_error:  # the WAL append failed: applied, undone
        assert ours["logical"] == theirs["logical"]
        assert ours["version"] > len(batch)
    else:  # the batch path wrote nothing; the oracle's prefix was undone
        assert ours["state"] == ours["before"]
        assert ours["version"] == 0
        assert ours["events"] == Counter()
        assert theirs["state"]["columns"] == ours["state"]["columns"]
        assert cancels(theirs["events"])
    if not validation_error:
        assert ours["events"] == theirs["events"]
    if mode == "txn":
        assert ours["rolled_back"]["columns"] == ours["before"]["columns"]
        if not validation_error:  # the rollback bumps the version again
            assert ours["rolled_back"] == theirs["rolled_back"]
            assert ours["rollback_version"] > ours["version"]
