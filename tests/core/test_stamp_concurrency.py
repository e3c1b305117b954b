"""Dependency stamps under threads: readers through `SearchSession`, one writer.

While the writer runs, a served answer may legitimately reflect the
state just before or just after a concurrent write, so nothing is
compared then.  The lock is what is left behind: once the writer has
stopped, **every cache entry that still validates equals a fresh
compute** — result-cache entries, lookup term memos and phrase-cache
entries alike (a compute that raced a write must have been stamped
pre-write and must fail validation, never sit there looking current).
The default engine config and 8-row segments, with a shortened switch
interval so the threads interleave inside the mark → compute → store
window.  Every reader executes its statements (each query pins a
snapshot); a second session per reader searches with
``execute=False``, which still reads the row counts behind
``estimated_rows``.

The HTTP variant (PR 21) puts the event loop into the race: two
keep-alive clients whose cached answers the loop validates and serves
itself, while the worker pool computes and stores and one client writes
through ``POST /sql``.
"""

import http.client
import json
import sys
import threading
import time
import traceback
from urllib.parse import quote

import pytest

from repro.core.serving import SearchSession
from repro.core.soda import Soda, SodaConfig
from repro.obs.metrics import registry
from repro.server import SodaServer
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


def writer(execute, failures: list, writes: int = WRITES) -> None:
    """*writes* statements through *execute* (in process, or over HTTP)."""
    try:
        for step in range(writes):
            city = CITIES[step % 3]
            other = CITIES[(step + 1) % 3]
            kind = step % 5
            if kind == 0:
                execute(
                    f"INSERT INTO addresses VALUES ({9000 + step}, "
                    f"'Teststrasse {step}', '{city}', 'CH')"
                )
            elif kind == 1:
                execute(
                    f"UPDATE addresses SET city = '{other}' "
                    f"WHERE city = '{city}' AND id >= 9000"
                )
            elif kind == 2:
                execute(
                    f"INSERT INTO currencies VALUES ('Q{step}', 'Swiss {city}')"
                )
            elif kind == 3:
                execute(
                    "UPDATE individuals SET given_nm = 'Sara' "
                    f"WHERE id = {step % 5 + 1}"
                )
            else:
                execute("DELETE FROM addresses WHERE id >= 9000")
    except Exception:  # surfaced by the test body
        failures.append(traceback.format_exc())


def reader(soda, stop, offset: int, failures: list) -> None:
    try:
        sessions = (
            SearchSession(soda),
            SearchSession(soda, execute=False, limit=3),
        )
        turn = offset
        while not stop.is_set():
            sessions[turn % 2].search(TEXTS[turn % len(TEXTS)])
            turn += 1
    except Exception:
        failures.append(traceback.format_exc())


@pytest.mark.parametrize(
    "config", (EngineConfig(), EngineConfig(segment_rows=8)),
    ids=("default", "segmented"),
)
def test_entries_that_still_validate_equal_a_fresh_compute(config):
    warehouse = build_minibank(seed=42, scale=0.25, engine_config=config)
    soda = Soda(warehouse, SodaConfig())
    failures: list = []
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=reader, args=(soda, stop, n, failures)
        )
        for n in range(READERS)
    ]
    write_thread = threading.Thread(
        target=writer, args=(warehouse.database.execute, failures)
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


# ----------------------------------------------------------------------
# the same race with the event loop in it
# ----------------------------------------------------------------------
HTTP_WRITES = 200
#: the two sets of presentation knobs the in-process readers use
KNOBS = ((True, None), (False, 3))
#: a parked loop answers nothing; a busy one answers well inside this
HEALTHZ_BOUND_S = 5.0


def _path(text: str, execute: bool, limit) -> str:
    path = f"/search?q={quote(text)}&execute={int(execute)}"
    return path if limit is None else f"{path}&limit={limit}"


def _request(connection, method: str, path: str, body=None):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read()


def http_reader(port, stop, offset: int, statuses: list, failures: list):
    try:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        turn = offset
        while not stop.is_set():
            execute, limit = KNOBS[turn % 2]
            status, __ = _request(
                connection, "GET",
                _path(TEXTS[turn % len(TEXTS)], execute, limit),
            )
            statuses.append(status)
            turn += 1
        connection.close()
    except Exception:
        failures.append(traceback.format_exc())


def healthz_prober(port, stop, slowest: list, failures: list):
    try:
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=HEALTHZ_BOUND_S
        )
        while not stop.is_set():
            started = time.perf_counter()
            status, __ = _request(connection, "GET", "/healthz")
            slowest.append(time.perf_counter() - started)
            assert status == 200
            time.sleep(0.005)
        connection.close()
    except Exception:
        failures.append(traceback.format_exc())


def test_http_the_loop_probes_while_workers_store_and_a_client_writes():
    warehouse = build_minibank(
        seed=42, scale=0.25, engine_config=EngineConfig(segment_rows=8)
    )
    soda = Soda(warehouse, SodaConfig())
    server = SodaServer(
        soda, port=0, workers=3, default_limit=None
    ).start_background()
    failures: list = []
    statuses: list = []
    slowest: list = []
    loop_hits = registry().counter("serving.search.loop_hits")
    hits_before = loop_hits.value
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=http_reader,
            args=(server.port, stop, n, statuses, failures),
        )
        for n in range(2)
    ] + [
        threading.Thread(
            target=healthz_prober,
            args=(server.port, stop, slowest, failures),
        )
    ]
    write_connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=60
    )

    def post_sql(statement: str) -> None:
        status, body = _request(
            write_connection, "POST", "/sql", statement.encode()
        )
        statuses.append(status)
        assert status == 200, body

    write_thread = threading.Thread(
        target=writer, args=(post_sql, failures, HTTP_WRITES)
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
    try:
        assert not failures, "\n".join(failures)
        assert statuses and not [s for s in statuses if s >= 500]
        # the loop did serve hits in the middle of all that, and was
        # never parked on a lock: /healthz kept answering
        assert loop_hits.value > hits_before
        assert slowest and max(slowest) < HEALTHZ_BOUND_S
        # quiescent now: the next answer for every text, from the loop
        # or from the pool, is what a recompute says
        for text in TEXTS:
            for execute, limit in KNOBS:
                status, body = _request(
                    write_connection, "GET", _path(text, execute, limit)
                )
                assert status == 200
                served = json.loads(body)
                del served["timings"]
                fresh = fresh_answer(soda, text, execute, limit)
                assert served == json.loads(json.dumps(fresh)), text
    finally:
        write_connection.close()
        server.stop()
