"""Property: a dependency-stamped cache never serves a stale answer.

Any interleaving of searches and writes over one warm engine: every
result a :class:`SearchSession` serves — computed, or from the shared
result cache, through whatever the lookup term memos and the inverted
index's phrase cache still hold — equals a memo-free recompute at that
moment (``stamp_oracle.fresh_answer``).  Writes are drawn to collide
with what the searches read: INSERT / UPDATE / DELETE on several tables
with values from the query vocabulary, numeric-only updates (a table
version moves, no token does), explicit transactions, join
annotations, relevance feedback and CREATE / DROP TABLE.

With ``InvertedIndex.unchanged_since`` stubbed to ``True`` the same
property fails within a few examples (``test_the_oracle_has_teeth``),
so a pass means something.

The three named cases of the design sit below the property.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serving import SearchSession
from repro.core.soda import Soda, SodaConfig
from repro.errors import ReproError
from repro.index.inverted import InvertedIndex
from repro.warehouse.minibank import build_minibank

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from stamp_oracle import answer, fresh_answer, reads_table  # noqa: E402

EXAMPLES = settings(max_examples=150, deadline=None)

#: pool-style texts: entities, entity + value, bare values, business
#: terms, an operator query, a text nothing matches until it is inserted
TEXTS = (
    "Zurich", "customers Zurich", "Sara", "Sara Guttinger", "Credit Suisse",
    "organizations Zurich", "addresses", "currencies", "Swiss Franc",
    "wealthy customers", "trading volume", "Basel", "Qzx", "Qzx Franc",
    "customers salary >= 100000", "financial instruments",
)
#: written values: tokens the texts above probe, plus one they do not
CITIES = ("Zurich", "Basel", "Qzx", "Lugano")
NAMES = ("Sara", "Guttinger", "Qzx", "Mara")
ORGS = ("Credit Suisse", "Qzx Suisse", "Sihl Ventures")
CURRENCIES = ("Swiss Franc", "Qzx Franc", "Zurich Taler")
JOINS = ("j_indiv_name_hist", "j_indiv_domicile", "j_money_trx_ccy")

small = st.integers(0, 3)
writes = st.one_of(
    st.tuples(st.just("insert_address"), st.sampled_from(CITIES)),
    st.tuples(st.just("update_city"), st.sampled_from(CITIES),
              st.sampled_from(CITIES)),
    st.tuples(st.just("delete_city"), st.sampled_from(CITIES)),
    st.tuples(st.just("insert_currency"), small, st.sampled_from(CURRENCIES)),
    st.tuples(st.just("update_currency"), small, st.sampled_from(CURRENCIES)),
    st.tuples(st.just("delete_currency"), small),
    st.tuples(st.just("rename_individual"), st.sampled_from(NAMES),
              st.sampled_from(NAMES)),
    st.tuples(st.just("raise_salary"), small),
    st.tuples(st.just("insert_organization"), st.sampled_from(ORGS)),
    st.tuples(st.just("bump_fi_transaction"), small),
    st.tuples(st.just("sql"), st.sampled_from(("BEGIN", "COMMIT", "ROLLBACK"))),
    st.tuples(st.just("annotate_join"), st.sampled_from(JOINS)),
    st.tuples(st.just("ignore_join"), st.sampled_from(JOINS)),
    st.tuples(st.just("unignore_join"), st.sampled_from(JOINS)),
    st.tuples(st.just("like"), st.sampled_from(TEXTS)),
    st.tuples(st.just("sql"), st.sampled_from((
        "CREATE TABLE scratch (id INTEGER, label TEXT)",
        "INSERT INTO scratch VALUES (1, 'Zurich')",
        "INSERT INTO scratch VALUES (2, 'Sara Guttinger')",
        "DROP TABLE scratch",
    ))),
)


@st.composite
def interleavings(draw):
    """Searches over a few texts and knob settings (so cache keys repeat
    within one example), each preceded by zero to two writes."""
    texts = draw(st.lists(st.sampled_from(TEXTS), min_size=1, max_size=3))
    knobs = draw(st.lists(
        st.tuples(st.booleans(), st.sampled_from((None, 3))),  # execute, limit
        min_size=1, max_size=2,
    ))
    search = st.tuples(
        st.just("search"), st.sampled_from(texts), st.sampled_from(knobs)
    )
    rounds = draw(st.lists(
        st.tuples(st.lists(writes, max_size=2), search), min_size=3, max_size=25
    ))
    return [op for before, query in rounds for op in (*before, query)]


def build_engine():
    return Soda(build_minibank(seed=42, scale=0.25), SodaConfig())


def apply_write(soda: Soda, op: tuple, serial: int) -> None:
    """One write; an operation the engine rejects is simply not applied."""
    database = soda.warehouse.database
    kind = op[0]
    try:
        if kind == "insert_address":
            database.execute(
                f"INSERT INTO addresses VALUES ({9000 + serial}, "
                f"'Teststrasse {serial}', '{op[1]}', 'CH')"
            )
        elif kind == "update_city":
            database.execute(
                f"UPDATE addresses SET city = '{op[2]}' WHERE city = '{op[1]}'"
            )
        elif kind == "delete_city":
            database.execute(f"DELETE FROM addresses WHERE city = '{op[1]}'")
        elif kind == "insert_currency":
            database.execute(
                f"INSERT INTO currencies VALUES ('Q{op[1]}', '{op[2]}')"
            )
        elif kind == "update_currency":
            database.execute(
                f"UPDATE currencies SET currency_nm = '{op[2]}' "
                f"WHERE currency_cd = 'Q{op[1]}'"
            )
        elif kind == "delete_currency":
            database.execute(
                f"DELETE FROM currencies WHERE currency_cd = 'Q{op[1]}'"
            )
        elif kind == "rename_individual":
            database.execute(
                f"UPDATE individuals SET given_nm = '{op[2]}' "
                f"WHERE given_nm = '{op[1]}'"
            )
        elif kind == "raise_salary":
            database.execute(
                f"UPDATE individuals SET salary = salary + 50000 "
                f"WHERE id = {op[1] + 1}"
            )
        elif kind == "insert_organization":
            database.execute(
                f"INSERT INTO organizations VALUES ({9000 + serial}, "
                f"'{op[1]}', 'AG', 1)"
            )
        elif kind == "bump_fi_transaction":
            database.execute(
                f"UPDATE fi_transactions SET amount = amount + 1 "
                f"WHERE id = {op[1] + 1}"
            )
        elif kind == "sql":
            database.execute(op[1])
        elif kind == "like":
            best = soda.search(op[1], execute=False).best
            if best is not None:
                soda.feedback.like(best.sql)
        else:  # annotate_join / ignore_join / unignore_join
            getattr(soda.warehouse, kind)(op[1])
    except ReproError:
        pass


def run_interleaving(soda: Soda, ops) -> int:
    """Apply *ops*; the number of served answers that differ from fresh."""
    stale = 0
    for serial, op in enumerate(ops):
        if op[0] != "search":
            apply_write(soda, op, serial)
            continue
        __, text, (execute, limit) = op
        served = SearchSession(soda, execute=execute, limit=limit).search(text)
        if answer(served) != fresh_answer(soda, text, execute, limit):
            stale += 1
    return stale


@EXAMPLES
@given(ops=interleavings())
def test_every_served_result_equals_a_fresh_compute(ops):
    assert run_interleaving(build_engine(), ops) == 0


def test_the_oracle_has_teeth(monkeypatch):
    # the same check with token validation switched off must find stale
    # answers: cached "Zurich" survives a write that renames Zurich
    monkeypatch.setattr(
        InvertedIndex, "unchanged_since", lambda self, tick, tokens: True
    )
    ops = [
        ("search", "Qzx", (False, None)),
        ("insert_address", "Qzx"),
        ("search", "Qzx", (False, None)),
    ]
    assert run_interleaving(build_engine(), ops) == 1


# ----------------------------------------------------------------------
# the named cases
# ----------------------------------------------------------------------
def test_search_inside_a_transaction_is_never_served_after_rollback():
    soda = build_engine()
    database = soda.warehouse.database
    session = SearchSession(soda)
    before = session.search("Swiss Franc")
    database.execute("BEGIN")
    database.execute(
        "UPDATE currencies SET currency_nm = 'Swiss Franc' "
        "WHERE currency_cd = 'USD'"
    )
    inside = session.search("Swiss Franc")
    assert inside is not before
    assert answer(inside) != answer(before)  # it saw the uncommitted row
    database.execute("ROLLBACK")
    after = session.search("Swiss Franc")
    assert after is not inside
    assert answer(after) == fresh_answer(soda, "Swiss Franc") == answer(before)
    assert session.search("Swiss Franc") is after  # caching resumes


def test_a_text_no_write_touched_is_still_dropped_by_a_transaction():
    # the open-transaction token is part of the global mark: uncommitted
    # state validates nothing, whatever it wrote
    soda = build_engine()
    session = SearchSession(soda, execute=False)
    first = session.search("addresses")
    soda.warehouse.database.execute("BEGIN")
    assert session.search("addresses") is not first
    soda.warehouse.database.execute("COMMIT")


def test_a_compute_that_raced_a_write_is_not_served():
    soda = build_engine()
    database = soda.warehouse.database
    session = SearchSession(soda)
    fired = []

    def write_after_lookup(context, step):
        # between the session's marks and its store: the lookup ran on
        # the old index, the statements will run on the new table
        if step.name == "lookup" and not fired:
            fired.append(True)
            database.execute(
                "INSERT INTO addresses VALUES (9001, 'Racestrasse 1', "
                "'Zurich', 'CH')"
            )
        return False

    soda.pipeline.add_hook(write_after_lookup)
    raced = session.search("Zurich")
    soda.pipeline.remove_hook(write_after_lookup)
    assert fired
    invalidations = session.cache_stats()["invalidations"]
    again = session.search("Zurich")
    assert again is not raced
    assert session.cache_stats()["invalidations"] == invalidations + 1
    assert answer(again) == fresh_answer(soda, "Zurich")
    assert session.search("Zurich") is again


@pytest.mark.parametrize("execute", (True, False))
def test_a_write_to_a_table_no_statement_reads_keeps_the_entry(execute):
    soda = build_engine()
    database = soda.warehouse.database
    session = SearchSession(soda, execute=execute)
    first = session.search("Zurich")
    assert first.statements and not reads_table(first, "currencies")
    database.execute("INSERT INTO currencies VALUES ('QZA', 'qzxqza')")
    database.execute(
        "UPDATE fi_transactions SET amount = amount + 1 WHERE id = 1"
    )
    second = session.search("Zurich")
    assert second is first
    assert answer(second) == fresh_answer(soda, "Zurich", execute)
    assert session.cache_stats()["invalidations"] == 0
