"""Dependency stamps under threads: readers through `SearchSession`, one writer.

While the writer runs, a served answer may legitimately reflect the
state just before or just after a concurrent write, so nothing is
compared then.  The lock is what is left behind: once the writer has
stopped, **every cache entry that still validates equals a fresh
compute** — result-cache entries, lookup term memos and phrase-cache
entries alike (a compute that raced a write must have been stamped
pre-write and must fail validation, never sit there looking current).
Flat and segmented storage, with a shortened switch interval so the
threads interleave inside the mark → compute → store window.  Only the
segmented readers execute their statements: a query pins a snapshot
there, while a flat-storage scan racing a DELETE can tear (README,
"Concurrent storage") — the flat readers search with ``execute=False``,
which still reads the row counts behind ``estimated_rows``.
"""

import sys
import threading
import traceback

import pytest

from repro.core.serving import SearchSession
from repro.core.soda import Soda, SodaConfig
from repro.sqlengine.config import EngineConfig
from repro.warehouse.minibank import build_minibank

from stamp_oracle import answer, fresh_answer, memo_free

TEXTS = (
    "Zurich", "customers Zurich", "Sara Guttinger", "Credit Suisse",
    "organizations Zurich", "currencies", "Swiss Franc", "Basel",
    "wealthy customers", "addresses", "Qzx", "Sara",
)
CITIES = ("Zurich", "Basel", "Qzx")
READERS = 4
WRITES = 600


def writer(database, failures: list) -> None:
    try:
        for step in range(WRITES):
            city = CITIES[step % 3]
            other = CITIES[(step + 1) % 3]
            kind = step % 5
            if kind == 0:
                database.execute(
                    f"INSERT INTO addresses VALUES ({9000 + step}, "
                    f"'Teststrasse {step}', '{city}', 'CH')"
                )
            elif kind == 1:
                database.execute(
                    f"UPDATE addresses SET city = '{other}' "
                    f"WHERE city = '{city}' AND id >= 9000"
                )
            elif kind == 2:
                database.execute(
                    f"INSERT INTO currencies VALUES ('Q{step}', 'Swiss {city}')"
                )
            elif kind == 3:
                database.execute(
                    "UPDATE individuals SET given_nm = 'Sara' "
                    f"WHERE id = {step % 5 + 1}"
                )
            else:
                database.execute("DELETE FROM addresses WHERE id >= 9000")
    except Exception:  # surfaced by the test body
        failures.append(traceback.format_exc())


def reader(soda, stop, offset: int, failures: list, execute: bool) -> None:
    try:
        sessions = (
            SearchSession(soda, execute=execute),
            SearchSession(soda, execute=False, limit=3),
        )
        turn = offset
        while not stop.is_set():
            sessions[turn % 2].search(TEXTS[turn % len(TEXTS)])
            turn += 1
    except Exception:
        failures.append(traceback.format_exc())


@pytest.mark.parametrize("segment_rows", (0, 8), ids=("flat", "segmented"))
def test_entries_that_still_validate_equal_a_fresh_compute(segment_rows):
    warehouse = build_minibank(
        seed=42, scale=0.25,
        engine_config=EngineConfig(segment_rows=segment_rows),
    )
    soda = Soda(warehouse, SodaConfig())
    failures: list = []
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=reader, args=(soda, stop, n, failures, segment_rows > 0)
        )
        for n in range(READERS)
    ]
    write_thread = threading.Thread(
        target=writer, args=(warehouse.database, failures)
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        write_thread.start()
        write_thread.join(timeout=120)
        assert not write_thread.is_alive()
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not failures, "\n".join(failures)

    # quiescent now: whatever validates must be what a recompute says
    probe = SearchSession(soda)
    inverted = warehouse.inverted
    checked = 0
    for (text, execute, limit), (result, stamp) in list(
        soda.result_cache._entries.items()
    ):
        if probe._fresh(stamp):
            assert answer(result) == fresh_answer(soda, text, execute, limit)
            checked += 1
    assert checked  # the storm left valid entries behind to check
    for term, (cached, stamp) in list(soda._lookup._alternatives_cache.items()):
        if stamp.valid(inverted=inverted):
            with memo_free(soda):
                assert list(cached) == soda._lookup.alternatives(term), term
    for phrase, (tick, cached) in list(inverted._phrase_cache.items()):
        if inverted.unchanged_since(tick, phrase.split()):
            with memo_free(soda):
                assert cached == inverted.lookup_phrase(phrase), phrase
    # and the serving path agrees with the oracle on every text
    for text in TEXTS:
        assert answer(probe.search(text)) == fresh_answer(soda, text), text
