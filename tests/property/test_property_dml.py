"""Property tests for the DML mutation path.

Two invariants under *any* interleaving of INSERT/UPDATE/DELETE:

* the tuple-list storage and the columnar storage of every table stay
  element-for-element identical (they share one mutation path, so a
  divergence means that path wrote one layout and not the other);
* the write-through-maintained inverted index equals a from-scratch
  rebuild over the final catalog (posting lists, value counts, phrase
  results).

Operations are generated as abstract steps and applied through the SQL
front end, so the whole stack (parser → dml executor → catalog →
observers) is exercised, in both execution modes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.inverted import InvertedIndex
from repro.index.maintenance import attach_maintainer
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

settings.register_profile("dml", max_examples=40, deadline=None)
settings.load_profile("dml")

#: a tiny vocabulary so updates/deletes frequently hit indexed values
#: (shared tokens across values exercise posting-list refcounting)
WORDS = ["alpha", "beta", "gamma", "delta", "zurich", "basel", "gold"]

texts = st.one_of(
    st.none(),
    st.builds(
        lambda a, b: f"{WORDS[a]} {WORDS[b]}",
        st.integers(0, len(WORDS) - 1),
        st.integers(0, len(WORDS) - 1),
    ),
)
ints = st.integers(min_value=0, max_value=9)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ints, texts),
        st.tuples(st.just("update_label"), ints, texts),
        st.tuples(st.just("update_grp"), ints, ints),
        st.tuples(st.just("delete"), ints),
        st.tuples(st.just("delete_label"), texts),
    ),
    min_size=0,
    max_size=30,
)


def sql_text(value):
    return "NULL" if value is None else f"'{value}'"


def apply_operations(db: Database, ops) -> None:
    next_id = 1000
    for op in ops:
        kind = op[0]
        if kind == "insert":
            db.execute(
                f"INSERT INTO t VALUES ({next_id}, {op[1]}, "
                f"{sql_text(op[2])})"
            )
            next_id += 1
        elif kind == "update_label":
            db.execute(
                f"UPDATE t SET label = {sql_text(op[2])} WHERE grp = {op[1]}"
            )
        elif kind == "update_grp":
            db.execute(f"UPDATE t SET grp = {op[2]} WHERE grp = {op[1]}")
        elif kind == "delete":
            db.execute(f"DELETE FROM t WHERE grp = {op[1]}")
        else:  # delete_label
            if op[1] is None:
                db.execute("DELETE FROM t WHERE label IS NULL")
            else:
                db.execute(f"DELETE FROM t WHERE label = {sql_text(op[1])}")


def make_db(mode: str) -> Database:
    db = Database(config=EngineConfig(execution_mode=mode))
    db.execute("CREATE TABLE t (id INT, grp INT, label TEXT)")
    db.insert_rows(
        "t",
        [
            (i, i % 10, f"{WORDS[i % len(WORDS)]} {WORDS[(i * 3) % len(WORDS)]}")
            for i in range(25)
        ],
    )
    db.execute("UPDATE t SET label = NULL WHERE id = 7")
    return db


def index_state(index: InvertedIndex) -> dict:
    return {
        "summary": index.size_summary(),
        "lookups": {word: index.lookup(word) for word in WORDS},
        "phrases": {
            f"{a} {b}": index.lookup_phrase(f"{a} {b}")
            for a in WORDS[:3]
            for b in WORDS[:3]
        },
    }


class TestStorageSync:
    @given(ops=operations, mode=st.sampled_from(["row", "batch"]))
    def test_rows_and_columns_stay_identical(self, ops, mode):
        db = make_db(mode)
        apply_operations(db, ops)
        table = db.table("t")
        columns = [table.column_data(i) for i in range(len(table.columns))]
        assert all(len(c) == len(table.rows) for c in columns)
        rebuilt = [
            tuple(column[i] for column in columns)
            for i in range(len(table.rows))
        ]
        assert rebuilt == table.rows

    @given(ops=operations)
    def test_row_and_batch_modes_converge(self, ops):
        row_db, batch_db = make_db("row"), make_db("batch")
        apply_operations(row_db, ops)
        apply_operations(batch_db, ops)
        assert row_db.table("t").rows == batch_db.table("t").rows


class TestMaintainedIndexParity:
    @given(ops=operations, mode=st.sampled_from(["row", "batch"]))
    def test_incremental_equals_rebuild(self, ops, mode):
        db = make_db(mode)
        maintained = InvertedIndex.build(db.catalog)
        attach_maintainer(db.catalog, maintained)
        apply_operations(db, ops)
        rebuilt = InvertedIndex.build(db.catalog)
        assert index_state(maintained) == index_state(rebuilt)
