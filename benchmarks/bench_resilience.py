"""Resilience benchmarks: load shedding under saturation + deadlines.

PR 10's serving-resilience claim, locked as a benchmark: when offered
load runs at ~2x what the admission gate can carry, the server **sheds
the excess with 429s** instead of queueing unboundedly, and the p99
latency of the *accepted* requests stays bounded by the knobs (queue
wait + one slot's service time), no matter how hard the clients hammer.
A second measurement shows a request deadline cancelling a real search
cooperatively: the structured 503 arrives in a fraction of the time the
full search would have taken.

Saturation is deterministic, not hopeful: a
:class:`~repro.resilience.faults.ServingFaultInjector` pins per-request
service time, so "2x capacity" is arithmetic, not luck.  Results land
in ``BENCH_resilience.json``.  Timing floors relax under
``BENCH_SPEEDUP_MIN`` (noisy CI); the shed/answered correctness asserts
stay hard.  Run with::

    pytest benchmarks/bench_resilience.py -q -s
"""

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from bench_utils import speedup_floor
from repro.core.soda import Soda, SodaConfig
from repro.resilience.faults import ServingFaultInjector
from repro.server import SodaServer
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
from repro.warehouse.minibank import build_minibank

pytestmark = pytest.mark.stress

BENCH_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

#: pinned per-request service time on the engine pool (seconds)
SERVICE_S = 0.05
MAX_INFLIGHT = 2
QUEUE_DEPTH = 2
QUEUE_TIMEOUT_MS = 200.0
#: 2x saturation: twice as many always-busy clients as the gate can
#: hold (in flight + queued)
CLIENT_THREADS = 2 * (MAX_INFLIGHT + QUEUE_DEPTH)
REQUESTS_PER_CLIENT = 8

#: the hard bound on an accepted request: its queue wait is capped at
#: QUEUE_TIMEOUT_MS, then one service slot — plus generous slack for
#: the interpreter and the loopback stack
ACCEPTED_P99_BOUND_S = 1.0

RESULTS: dict = {}


@pytest.fixture(scope="module")
def resilience_soda():
    warehouse = build_minibank(
        seed=42,
        scale=0.25,
        engine_config=EngineConfig(segment_rows=DEFAULT_SEGMENT_ROWS),
    )
    return Soda(warehouse, SodaConfig())


def _request(base: str, path: str):
    started = time.perf_counter()
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            status = response.status
            payload = json.loads(response.read())
    except urllib.error.HTTPError as exc:
        status, payload = exc.code, json.loads(exc.read())
    return status, payload, time.perf_counter() - started


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class TestLoadSheddingUnderSaturation:
    def test_2x_saturation_sheds_and_bounds_accepted_p99(
        self, resilience_soda
    ):
        faults = ServingFaultInjector(delay_s=SERVICE_S)
        server = SodaServer(
            resilience_soda,
            port=0,
            workers=MAX_INFLIGHT,
            max_inflight=MAX_INFLIGHT,
            queue_depth=QUEUE_DEPTH,
            queue_timeout_ms=QUEUE_TIMEOUT_MS,
            faults=faults,
        )
        server.start_background()
        base = f"http://127.0.0.1:{server.port}"
        # one cached text: a result-cache hit is answered on the event
        # loop and takes no admission slot, so it must keep answering
        # while everything else is queued or shed
        status, cached, __elapsed = _request(base, "/search?q=Zurich&limit=2")
        assert status == 200

        outcomes: list = []
        hits: list = []
        lock = threading.Lock()

        def client(worker: int):
            # every request its own text, so every request is an engine
            # call that costs the injected delay (a repeated text would
            # be a loop-served hit and saturate nothing); no-match
            # texts keep the real search time far below SERVICE_S, so
            # the saturation arithmetic stays exact
            for i in range(REQUESTS_PER_CLIENT):
                outcome = _request(
                    base, f"/search?q=saturate+{worker}+{i}&limit=2"
                )
                hit = _request(base, "/search?q=Zurich&limit=2")
                with lock:
                    outcomes.append(outcome)
                    hits.append(hit)

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        try:
            status, payload, __elapsed = _request(base, "/healthz")
            assert status == 200
            admission = payload["admission"]
        finally:
            server.stop()

        statuses = sorted({status for status, __, __e in outcomes})
        accepted = [e for status, __, e in outcomes if status == 200]
        shed = [
            (status, payload)
            for status, payload, __ in outcomes
            if status == 429
        ]
        total = CLIENT_THREADS * REQUESTS_PER_CLIENT
        assert len(outcomes) == total

        # hard correctness: overload degrades into 200s and 429s only —
        # no 500s, no hung requests, and every shed response is
        # structured with a Retry-After hint in the body
        assert set(statuses) <= {200, 429}, statuses
        assert shed, "2x saturation produced no shedding"
        assert accepted, "the server shed everything"
        for __, payload in shed:
            assert payload["kind"] == "load_shed"
            assert payload["reason"] in ("queue_full", "queue_timeout")
        # the admission gate agrees with the client-side tally
        assert admission["shed"] >= len(shed)
        # and through all of it the cached text answered, every time,
        # with the body that filled the cache
        assert len(hits) == total
        assert all(
            status == 200 and payload == cached
            for status, payload, __e in hits
        )

        p50 = _percentile(accepted, 0.50)
        p99 = _percentile(accepted, 0.99)
        RESULTS["saturation"] = {
            "client_threads": CLIENT_THREADS,
            "requests": total,
            "max_inflight": MAX_INFLIGHT,
            "queue_depth": QUEUE_DEPTH,
            "queue_timeout_ms": QUEUE_TIMEOUT_MS,
            "service_s": SERVICE_S,
            "wall_seconds": wall,
            "accepted": len(accepted),
            "shed_429": len(shed),
            "shed_fraction": len(shed) / total,
            "accepted_p50_seconds": p50,
            "accepted_p99_seconds": p99,
            "accepted_p99_bound_seconds": ACCEPTED_P99_BOUND_S,
        }
        print(
            f"\n2x saturation: {total} requests from {CLIENT_THREADS} "
            f"clients in {wall:.2f}s — {len(accepted)} accepted, "
            f"{len(shed)} shed (429), accepted p50 {p50 * 1e3:.0f} ms, "
            f"p99 {p99 * 1e3:.0f} ms (bound {ACCEPTED_P99_BOUND_S:.1f}s)"
        )
        # the locked claim: accepted-request p99 is bounded by the
        # admission knobs.  BENCH_SPEEDUP_MIN < 1 widens the bound on
        # noisy runners; the shed/no-500 asserts above never relax.
        bound = ACCEPTED_P99_BOUND_S / speedup_floor(1.0)
        assert p99 <= bound, (
            f"accepted p99 {p99:.3f}s exceeds the {bound:.3f}s bound — "
            "requests are queueing unboundedly"
        )
        # written here too so a skipped deadline test still leaves the
        # saturation lock on disk
        BENCH_OUTPUT.write_text(json.dumps(RESULTS, indent=2) + "\n")


class TestDeadlineCancellation:
    def test_deadline_503_beats_running_the_search_out(
        self, resilience_soda
    ):
        server = SodaServer(resilience_soda, port=0, workers=2)
        server.start_background()
        base = f"http://127.0.0.1:{server.port}"
        try:
            # an uncached multi-term search (~8ms of pipeline at this
            # scale) with a 2ms budget: the pipeline must unwind
            # cooperatively, not run to completion
            status, payload, elapsed = _request(
                base, "/search?q=customers+Zurich+gold&timeout_ms=2"
            )
            if status == 200:  # a machine fast enough to beat 2ms
                pytest.skip("search completed inside the 2ms budget")
            assert status == 503
            assert payload["kind"] == "deadline_exceeded"
            assert payload["where"]
            # the same text without a deadline still works (clean unwind)
            status, __, full_elapsed = _request(
                base, "/search?q=customers+Zurich+gold&timeout_ms=60000"
            )
            assert status == 200
        finally:
            server.stop()
        RESULTS["deadline"] = {
            "timeout_ms": 2,
            "cancelled_after_seconds": elapsed,
            "full_search_seconds": full_elapsed,
            "where": payload["where"],
        }
        print(
            f"deadline: 2ms budget cancelled at {payload['where']!r} in "
            f"{elapsed * 1e3:.0f} ms (full search: "
            f"{full_elapsed * 1e3:.0f} ms)"
        )

        BENCH_OUTPUT.write_text(json.dumps(RESULTS, indent=2) + "\n")
        print(f"  -> {BENCH_OUTPUT.name} written")
