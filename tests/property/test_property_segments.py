"""Property tests for the frozen-segment + delta table storage.

For several freeze thresholds and *any* interleaving of INSERT / UPDATE
/ DELETE statements, some inside a ``BEGIN … ROLLBACK`` or ``COMMIT``,
a table must hold exactly what the flat column-list model
(``tests/sqlengine/reference_storage.py``) holds after the same
statements:

* every ``column_data(i)``, every ``row(i)`` and ``iter_rows()``, and
  every column slice of a pin, at batch boundaries too;
* every SELECT the engine runs over the pinned segments returns what
  the reference interpreter returns over the decoded rows;
* every column slice, TEXT included, is a plain value list;
* the layout accounting holds: ``frozen_live + delta_rows`` equals the
  live row count, the delta is shorter than a segment and no segment is
  at least half dead.

Named mutant: ``TableStorage.locate`` ignores a segment's existing
tombstones (the live offset is used as the physical one), so a second
DELETE in one segment tombstones the wrong row; the first example below
kills it at ``segment_rows=3``.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

from tests.sqlengine.reference_engine import reference_execute, snapshot_rows
from tests.sqlengine.reference_storage import FlatStorage

settings.register_profile("segments", max_examples=60, deadline=None)
settings.load_profile("segments")

SEED_ROWS = 20


def _row(i: int, tag: str = None) -> tuple:
    return (i, i % 10, i * 7 % 101, tag if tag is not None else f"k{i % 3}")


def statement():
    ids = st.lists(st.integers(0, 119), min_size=1, max_size=8, unique=True)
    return st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 9)),
        st.tuples(st.just("update"), ids),
        st.tuples(st.just("delete"), ids),
    )


def transaction():
    return st.tuples(
        st.sampled_from(["autocommit", "commit", "rollback"]),
        st.lists(statement(), min_size=1, max_size=4),
    )


QUERIES = [
    "SELECT * FROM t",
    "SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp",
    "SELECT id FROM t WHERE val > 50 ORDER BY id",
    "SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.grp < 3",
    "SELECT tag, COUNT(*), SUM(val) FROM t GROUP BY tag ORDER BY tag",
    "SELECT id FROM t WHERE tag LIKE 'k1%' ORDER BY id",
    "SELECT DISTINCT tag FROM t ORDER BY tag",
    "SELECT id, tag FROM t WHERE tag IN ('k0', 'u5') AND val > 20 ORDER BY id",
]


def _apply(db: Database, model: FlatStorage, kind: str, arg, counter) -> None:
    """Run one statement on *db* and mirror it on *model*."""
    if kind == "insert":
        rows = [_row(counter[0] + i) for i in range(arg)]
        counter[0] += arg
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {g}, {v}, '{s}')" for i, g, v, s in rows)
        )
        model.insert_many(rows)
        return
    in_list = ", ".join(map(str, arg))
    positions = [p for p, row in enumerate(model.iter_rows()) if row[0] in arg]
    if kind == "update":
        db.execute(
            f"UPDATE t SET val = val + 1, tag = 'u' || id WHERE id IN ({in_list})"
        )
        model.update(positions, [
            (i, g, v + 1, f"u{i}")
            for i, g, v, __ in (model.row(p) for p in positions)
        ])
    else:
        db.execute(f"DELETE FROM t WHERE id IN ({in_list})")
        model.delete(positions)


def assert_same_storage(table, model: FlatStorage) -> None:
    width = len(table.columns)
    assert len(table) == len(model)
    for index in range(width):
        column = table.column_data(index)
        assert type(column) is list and column == model.column(index)
    assert [table.row(p) for p in range(len(model))] == list(model.iter_rows())
    assert list(table.iter_rows()) == list(model.iter_rows())
    snapshot = table.pin()
    assert snapshot_rows(snapshot) == list(model.iter_rows())
    total = snapshot.row_count
    cut = max(1, total // 3)
    for index in range(width):
        whole = snapshot.column_slice(index, 0, total)
        assert type(whole) is list and whole == model.column(index)
        # arbitrary partial slices (batch boundaries) agree too
        assert snapshot.column_slice(index, cut, min(total, cut * 2)) == (
            model.column(index)[cut:cut * 2]
        )


class TestSegmentsMatchTheFlatModel:
    @given(
        segment_rows=st.sampled_from([1, 3, 8, 4096]),
        program=st.lists(transaction(), min_size=1, max_size=6),
    )
    @example(  # a second DELETE in one segment (the named mutant)
        segment_rows=3,
        program=[("autocommit", [("delete", [0]), ("delete", [2])])],
    )
    @example(  # rollback of a delete that compacted a segment
        segment_rows=3,
        program=[("rollback", [("delete", [0, 1, 4]), ("update", [5, 7])])],
    )
    def test_every_read_matches_the_flat_model(self, segment_rows, program):
        db = Database(config=EngineConfig(segment_rows=segment_rows))
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, tag TEXT)"
        )
        model = FlatStorage(4)
        counter = [SEED_ROWS]
        seed = [_row(i) for i in range(SEED_ROWS)]
        db.insert_rows("t", seed)
        model.insert_many(seed)
        table = db.table("t")
        for mode, statements in program:
            saved = model.copy()
            if mode != "autocommit":
                db.execute("BEGIN")
            for kind, arg in statements:
                _apply(db, model, kind, arg, counter)
            if mode != "autocommit":
                db.execute(mode.upper())
            if mode == "rollback":
                model = saved
            assert_same_storage(table, model)

        # engine over pinned segments == reference over decoded rows
        for sql in QUERIES:
            expected = reference_execute(db, sql)
            actual = db.execute(sql)
            assert actual.columns == expected.columns, sql
            assert actual.rows == expected.rows, sql

        # accounting: live rows split exactly into frozen + delta, the
        # delta is shorter than a segment, and compaction keeps every
        # frozen segment more than half alive
        stats = table.segment_stats()
        assert stats["frozen_live"] + stats["delta_rows"] == len(model)
        assert stats["delta_rows"] < segment_rows
        for segment in table._storage.segments:
            assert len(segment.tombstones) * 2 < segment.size
