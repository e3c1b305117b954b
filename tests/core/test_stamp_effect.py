"""The effect of dependency stamps, locked by counters (no clocks).

An in-process replay of what the perf ledger's ``explore_http_rw`` sends
— the minibank at scale 1, the ledger's own 160-text pool and Zipf draw
(``benchmarks/ledger/workloads.py``), ``limit=3``, one ``currencies``
write (its INSERT / UPDATE / DELETE cycle) per 20 requests.  With the
flush-everything engine token this workload read a result-cache hit
ratio of 0.20 and a lookup-memo hit ratio of 0.02; with stamps a write
costs only the answers that read ``currencies``.
"""

import random

import pytest

from repro.core.serving import SearchSession
from repro.core.soda import Soda, SodaConfig
from repro.obs.metrics import registry
from repro.warehouse.minibank import build_minibank

from stamp_oracle import load_ledger_workloads, reads_table

ledger = load_ledger_workloads()
REQUESTS = 2000
WRITE_EVERY = 20  # every 10th request of one of the ledger's two connections


@pytest.fixture()
def engine():
    warehouse = build_minibank(seed=42, scale=1.0)
    soda = Soda(warehouse, SodaConfig())
    pool = ledger.http_pool(warehouse, ledger.FULL.http_pool)
    session = SearchSession(soda, limit=3)
    return soda, pool, session


def counter(name: str) -> int:
    return registry().counter(name).value


def test_ledger_shaped_replay_keeps_its_caches_warm(engine):
    soda, pool, session = engine
    assert len(pool) == 160
    for text in pool:  # the ledger's warm pass
        session.search(text)
    texts = ledger.zipf_sequence(
        random.Random(ledger.UNIVERSE_SEED), pool, REQUESTS
    )
    before = session.cache_stats()
    memo_hits = counter("lookup.memo.hits")
    memo_misses = counter("lookup.memo.misses")
    for position, text in enumerate(texts):
        if position % WRITE_EVERY == WRITE_EVERY - 1:
            soda.warehouse.database.execute(
                ledger.write_statement(position // WRITE_EVERY)
            )
        session.search(text)
    after = session.cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    assert hits + misses == REQUESTS
    assert hits / REQUESTS >= 0.7, (hits, misses)  # parent: 0.20
    memo_hits = counter("lookup.memo.hits") - memo_hits
    memo_misses = counter("lookup.memo.misses") - memo_misses
    assert memo_hits / (memo_hits + memo_misses) >= 0.9  # parent: 0.02
    # the written tokens (qzx..., qzy...) are in no pool text
    assert after["lookup_invalidations"] == 0


def test_one_write_invalidates_exactly_the_entries_that_read_the_table(engine):
    soda, pool, session = engine
    # more distinct texts than the cache holds: keep what fits
    cached = {}
    for text in pool[: soda.result_cache.capacity]:
        cached[text] = session.search(text)
    readers = {
        text for text, result in cached.items()
        if reads_table(result, "currencies")
    }
    assert 0 < len(readers) < len(cached)
    before = session.cache_stats()
    soda.warehouse.database.execute(ledger.write_statement(0))
    served = {text: session.search(text) for text in cached}
    after = session.cache_stats()
    assert {t for t in cached if served[t] is not cached[t]} == readers
    assert after["invalidations"] - before["invalidations"] == len(readers)
    assert after["misses"] - before["misses"] == len(readers)
    assert after["hits"] - before["hits"] == len(cached) - len(readers)
    # mirrored process-wide for /metrics and `repro stats --metrics`
    assert (
        counter("serving.result_cache.invalidations") >= after["invalidations"]
    )


def test_share_of_the_pool_that_depends_on_the_written_table(engine):
    # the property the ledger gain depends on, as ISSUE 17 states it:
    # 19 of the 160 pool texts generate a statement that reads currencies
    soda, pool, session = engine
    dependent = [
        text for text in pool
        if reads_table(session.search(text), "currencies")
    ]
    assert len(dependent) == 19
