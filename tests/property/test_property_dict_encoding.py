"""Property tests for dictionary-encoded TEXT column maintenance.

Invariants under *any* interleaving of INSERT/UPDATE/DELETE, applied
through the SQL front end in both execution modes:

* decoding every column's code list reproduces the plain value storage
  element for element (codes, values and the tuple list share one
  mutation path — a divergence means a write missed one layout);
* the dictionary's refcounts equal the actual value frequencies, its
  ``code_of`` map is exactly the inverse of the live slots of
  ``values``, and dead codes are garbage-collected onto the free list
  (value slot cleared, refcount zero) — no leaked entries after any
  UPDATE/DELETE storm;
* a column whose live cardinality outgrows the threshold drops its
  dictionary and the engine keeps producing row-mode-identical results
  from plain batches.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database

settings.register_profile("dict_encoding", max_examples=40, deadline=None)
settings.load_profile("dict_encoding")

#: tiny vocabulary so updates/deletes frequently hit shared codes
WORDS = ["alpha", "beta", "gamma", "delta", "zurich", "basel", "gold"]

texts = st.one_of(st.none(), st.sampled_from(WORDS))
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


def make_db(mode: str, threshold: "int | None" = None) -> Database:
    db = Database(config=EngineConfig(execution_mode=mode, dict_encoding_threshold=threshold))
    db.execute("CREATE TABLE t (id INT, grp INT, label TEXT)")
    db.insert_rows(
        "t",
        [(i, i % 10, WORDS[(i * 3) % len(WORDS)]) for i in range(25)],
    )
    db.execute("UPDATE t SET label = NULL WHERE id = 7")
    return db


def assert_dictionary_consistent(table) -> None:
    """Codes decode to the value store; refcounts/maps are exact."""
    for index in range(len(table.columns)):
        dictionary = table.column_dictionary(index)
        if dictionary is None:
            assert table.column_codes(index) is None
            continue
        codes = table.column_codes(index)
        values = table.column_data(index)
        assert len(codes) == len(values) == len(table.rows)
        decoded = [
            None if code is None else dictionary.values[code]
            for code in codes
        ]
        assert decoded == values
        # refcounts match the actual value frequencies
        frequencies = Counter(value for value in values if value is not None)
        for value, code in dictionary.code_of.items():
            assert dictionary.values[code] == value
            assert dictionary.refcounts[code] == frequencies[value]
        assert set(dictionary.code_of) == set(frequencies)
        # dead codes are collected: slot cleared, refcount 0, free-listed
        live = set(dictionary.code_of.values())
        for code, value in enumerate(dictionary.values):
            if code in live:
                assert value is not None
            else:
                assert value is None
                assert dictionary.refcounts[code] == 0
                assert code in dictionary.free_codes


class TestDictionaryMaintenance:
    @given(ops=operations, mode=st.sampled_from(["row", "batch"]))
    def test_codes_and_refcounts_stay_consistent(self, ops, mode):
        db = make_db(mode)
        apply_operations(db, ops)
        assert_dictionary_consistent(db.table("t"))

    @given(ops=operations)
    def test_encoded_and_unencoded_results_identical(self, ops):
        encoded = make_db("batch")
        unencoded = make_db("batch", threshold=0)
        apply_operations(encoded, ops)
        apply_operations(unencoded, ops)
        assert encoded.table("t").column_dictionary(2) is not None
        assert unencoded.table("t").column_dictionary(2) is None
        for sql in (
            "SELECT id, grp, label FROM t ORDER BY id",
            "SELECT label, count(*) FROM t GROUP BY label "
            "ORDER BY count(*) DESC, label",
            "SELECT DISTINCT label FROM t ORDER BY label",
            "SELECT id FROM t WHERE label = 'alpha' ORDER BY id",
            "SELECT id FROM t WHERE label IN ('beta', 'gold') ORDER BY id",
            "SELECT id FROM t WHERE label LIKE '%a%' ORDER BY id LIMIT 5",
        ):
            assert encoded.execute(sql).rows == unencoded.execute(sql).rows

    @given(ops=operations)
    def test_threshold_overflow_disables_cleanly(self, ops):
        # threshold 3 < vocabulary size: inserts eventually disable the
        # dictionary; results must stay identical to the default engine
        tight = make_db("batch", threshold=3)
        loose = make_db("batch")
        apply_operations(tight, ops)
        apply_operations(loose, ops)
        assert_dictionary_consistent(tight.table("t"))
        sql = "SELECT id, grp, label FROM t ORDER BY id"
        assert tight.execute(sql).rows == loose.execute(sql).rows
