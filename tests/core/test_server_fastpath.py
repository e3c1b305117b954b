"""Result-cache hits answered on the event loop, locked by counters.

A real :class:`~repro.server.SodaServer` over the minibank the perf
ledger's HTTP workloads use (scale 1, the ledger's own pool and Zipf
draw, ``limit=3``), one keep-alive client.  No clocks: every check is a
counter delta or a byte comparison.

* each validated, untraced ``/search`` is **one** result-cache lookup —
  a hit answered on the loop (``serving.search.loop_hits``) or a miss
  computed on the pool (``serving.search.pool_calls``);
* a hit's body is the body that filled its cache entry, byte for byte,
  and is ``json.dumps(result.to_dict(), sort_keys=True)``;
* the loop validates the entry's stamp: one write over ``/sql`` sends
  exactly the answers that read the written table back to the pool.

``test_the_fastpath_has_teeth`` runs the same checks against two
mutants — a probe that skips stamp validation, a pool call that looks
the cache up a second time — and requires them to fail.
"""

import http.client
import json
import random
from urllib.parse import quote

import pytest

from repro.core.serving import SearchSession
from repro.core.soda import Soda, SodaConfig
from repro.obs.metrics import registry
from repro.server import SodaServer
from repro.warehouse.minibank import build_minibank

from stamp_oracle import answer, fresh_answer, load_ledger_workloads, reads_table

ledger = load_ledger_workloads()
#: more distinct texts than the 64-entry result cache holds
POOL_PREFIX = 100
REQUESTS = 600
LIMIT = 3


def timing(headers: dict) -> dict:
    """``Server-Timing`` as ``{name: ms or description}``."""
    parts = {}
    for part in headers["Server-Timing"].split(", "):
        name, __, value = part.partition(";")
        kind, __, value = value.partition("=")
        parts[name] = float(value) if kind == "dur" else value
    return parts


class Client:
    """One keep-alive connection; ``(status, headers, body bytes)``.

    The only thing that fills the server's result cache in this module,
    so :attr:`filled` knows the body every live entry was filled with.
    """

    def __init__(self, server) -> None:
        self._http = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        #: text -> the body its last computed (miss) answer carried
        self.filled: dict = {}

    def search(self, text: str, extra: str = ""):
        self._http.request(
            "GET", f"/search?limit={LIMIT}&q={quote(text)}{extra}"
        )
        status, headers, body = self._answer()
        if status == 200 and timing(headers).get("cache") == "miss":
            self.filled[text] = body
        return status, headers, body

    def sql(self, statement: str):
        self._http.request("POST", "/sql", body=statement.encode())
        return self._answer()

    def _answer(self):
        response = self._http.getresponse()
        return response.status, dict(response.getheaders()), response.read()

    def close(self) -> None:
        self._http.close()


@pytest.fixture(scope="module")
def served():
    warehouse = build_minibank(seed=42, scale=1.0)
    soda = Soda(warehouse, SodaConfig())
    pool = ledger.http_pool(warehouse, ledger.FULL.http_pool)[:POOL_PREFIX]
    server = SodaServer(soda, port=0, workers=2).start_background()
    client = Client(server)
    yield server, pool, client
    client.close()
    server.stop()


COUNTERS = {
    "loop_hits": "serving.search.loop_hits",
    "pool_calls": "serving.search.pool_calls",
    "hits": "serving.result_cache.hits",
    "misses": "serving.result_cache.misses",
}


def counters() -> dict:
    return {
        key: registry().counter(name).value for key, name in COUNTERS.items()
    }


def moved(before: dict) -> dict:
    return {key: value - before[key] for key, value in counters().items()}


def cached_result(server, text: str):
    return server.soda.result_cache._entries[(text, True, LIMIT)][0]


def replay_and_check(server, client, texts) -> dict:
    """Send *texts*; every request counted once, every hit byte-identical."""
    before = counters()
    tagged = {"hit": 0, "miss": 0}
    for text in texts:
        status, headers, body = client.search(text)
        assert status == 200
        tagged[timing(headers)["cache"]] += 1
        assert body == client.filled[text], text
        assert body == json.dumps(
            cached_result(server, text).to_dict(), sort_keys=True
        ).encode()
    delta = moved(before)
    assert delta["hits"] + delta["misses"] == len(texts), delta
    assert delta["loop_hits"] == delta["hits"] == tagged["hit"], delta
    assert delta["pool_calls"] == delta["misses"] == tagged["miss"], delta
    return tagged


def write_and_check(server, client, pool) -> None:
    """One ``currencies`` write sends its readers — only them — to the pool."""
    def reads_currencies(text: str) -> bool:
        client.search(text)
        return reads_table(cached_result(server, text), "currencies")

    reader = next(t for t in pool if reads_currencies(t))
    bystander = next(
        t for t in pool
        if not reads_currencies(t) and cached_result(server, t).statements
    )
    bodies = {}
    for text in (reader, bystander):
        status, headers, bodies[text] = client.search(text)
        assert timing(headers)["cache"] == "hit"
    status, __, body = client.sql(ledger.write_statement(0))
    assert status == 200 and json.loads(body)["rowcount"] == 1
    try:
        before = counters()
        status, headers, body = client.search(reader)
        assert timing(headers)["cache"] == "miss"
        assert body != bodies[reader]  # recomputed: its own timings
        assert moved(before) == {
            "loop_hits": 0, "pool_calls": 1, "hits": 0, "misses": 1,
        }
        before = counters()
        status, headers, body = client.search(bystander)
        assert timing(headers)["cache"] == "hit"
        assert body == bodies[bystander]
        assert moved(before) == {
            "loop_hits": 1, "pool_calls": 0, "hits": 1, "misses": 0,
        }
    finally:  # leave the six-row table as the other tests expect it
        client.sql(ledger.write_statement(2))


def ledger_texts(pool, count: int) -> list:
    return ledger.zipf_sequence(
        random.Random(ledger.UNIVERSE_SEED), pool, count
    )


def test_ledger_shaped_replay_counts_every_search_once(served):
    server, pool, client = served
    for text in pool:  # the ledger's warm pass
        assert client.search(text)[0] == 200
    tagged = replay_and_check(server, client, ledger_texts(pool, REQUESTS))
    # the Zipf head is served from the loop, the tail from the pool
    assert tagged["hit"] > REQUESTS // 2 and tagged["miss"] > 0, tagged


def test_a_write_over_sql_sends_its_readers_back_to_the_pool(served):
    server, pool, client = served
    write_and_check(server, client, pool)


def test_a_traced_search_never_touches_the_cache(served):
    server, pool, client = served
    client.search(pool[0])  # cached now, which a traced request ignores
    before = counters()
    status, headers, body = client.search(pool[0], "&trace=1")
    assert status == 200
    assert json.loads(body)["trace"][0]["name"] == "search"
    assert "cache" not in timing(headers)
    assert moved(before) == {
        "loop_hits": 0, "pool_calls": 1, "hits": 0, "misses": 0,
    }


def test_a_search_inside_a_transaction_is_not_loop_served_after_it(served):
    server, pool, client = served
    text = "currencies"
    assert client.sql("BEGIN")[0] == 200
    try:
        client.sql("INSERT INTO currencies VALUES ('ZZT', 'Txn Thaler')")
        status, __, inside = client.search(text)
        assert status == 200
    finally:
        assert client.sql("ROLLBACK")[0] == 200
    before = counters()
    status, headers, after = client.search(text)
    assert timing(headers)["cache"] == "miss"
    assert moved(before)["loop_hits"] == 0
    payload = json.loads(after)
    del payload["timings"]
    assert payload == fresh_answer(server.soda, text, True, LIMIT)
    assert payload == answer(cached_result(server, text))


def test_server_timing_parts_are_parts_of_the_observed_request(served):
    server, pool, client = served
    seconds = registry().histogram("serving.http.seconds")
    text = "server timing " + pool[1]
    for expected in ("miss", "hit"):
        observed, count = seconds.sum, seconds.count
        status, headers, __ = client.search(text)
        parts = timing(headers)
        assert seconds.count == count + 1
        assert parts.pop("cache") == expected
        assert set(parts) == (
            {"read"} if expected == "hit" else {"read", "admit", "engine"}
        )
        assert all(value >= 0 for value in parts.values())
        assert sum(parts.values()) <= (seconds.sum - observed) * 1e3
    observed = seconds.sum
    status, headers, __ = client.sql("SELECT COUNT(*) FROM currencies")
    parts = timing(headers)
    assert set(parts) == {"read", "admit", "engine"}
    assert sum(parts.values()) <= (seconds.sum - observed) * 1e3
    # errors and the operational routes carry no Server-Timing
    status, headers, __ = client.search(text, "&limit=abc")
    assert status == 400 and "Server-Timing" not in headers


def test_the_fastpath_has_teeth(served, monkeypatch):
    server, pool, client = served
    texts = ledger_texts(pool, 120)
    # mutant 1: the loop probe trusts every entry (no stamp validation)
    with monkeypatch.context() as patch:
        patch.setattr(SearchSession, "_fresh", lambda self, stamp: True)
        with pytest.raises(AssertionError):
            write_and_check(server, client, pool)
    server.soda.result_cache.clear()  # the mutant left stale entries
    # mutant 2: the pool call looks the cache up again after the probe
    compute = SearchSession.compute

    def lookup_twice(self, text):
        self.cached(text)
        return compute(self, text)

    with monkeypatch.context() as patch:
        patch.setattr(SearchSession, "compute", lookup_twice)
        with pytest.raises(AssertionError):
            replay_and_check(server, client, texts)
    # and unmutated, the same two checks pass
    replay_and_check(server, client, texts)
    write_and_check(server, client, pool)
