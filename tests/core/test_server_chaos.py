"""Chaos under sustained mixed load: the server degrades, never dies.

A few seconds of hostile traffic — engine faults injected mid-stream,
saturating bursts, malformed and stalled clients interleaved with
honest searches — against one server.  The invariant is not that every
request succeeds (they must not: that's what shedding and the breaker
are for) but that **every request gets a structured answer** from the
known status set and the server is still healthy and stoppable at the
end.

Marked ``stress``: `make test-stress` runs these on their own; they
also run in the tier-1 suite (a couple of seconds, bounded by design).
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.soda import Soda, SodaConfig
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import ServingFaultInjector
from repro.server import SodaServer
from repro.warehouse.minibank import build_minibank

pytestmark = pytest.mark.stress

#: every answer the server may give under this storm — anything else
#: (or a hung connection) fails the test
EXPECTED_STATUSES = {200, 400, 404, 408, 413, 429, 500, 503}

CLIENTS = 6
ROUNDS = 10


@pytest.fixture(scope="module")
def chaos_soda():
    warehouse = build_minibank(seed=42, scale=0.25)
    return Soda(warehouse, SodaConfig())


def test_fault_storm_yields_structured_answers_only(chaos_soda):
    faults = ServingFaultInjector(delay_s=0.01)
    server = SodaServer(
        chaos_soda,
        port=0,
        workers=2,
        max_inflight=2,
        queue_depth=2,
        queue_timeout_ms=100.0,
        read_timeout_s=0.3,
        breaker=CircuitBreaker(failure_threshold=3, cooldown_s=0.1),
        faults=faults,
    )
    server.start_background()
    base = f"http://127.0.0.1:{server.port}"
    outcomes: list = []
    errors: list = []
    lock = threading.Lock()

    def http(path):
        try:
            with urllib.request.urlopen(base + path, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def client(worker: int) -> None:
        for i in range(ROUNDS):
            step = worker * ROUNDS + i
            try:
                if step % 7 == 3:
                    faults.fail_requests(2)  # trip the breaker mid-stream
                if step % 5 == 4:
                    # a malformed client on a raw socket
                    with socket.create_connection(
                        ("127.0.0.1", server.port), timeout=30
                    ) as sock:
                        sock.sendall(b"BOGUS\r\n\r\n")
                        sock.recv(4096)
                    continue
                if step % 6 == 5:
                    # a stalled (slowloris) client: half a request line
                    with socket.create_connection(
                        ("127.0.0.1", server.port), timeout=30
                    ) as sock:
                        sock.sendall(b"GET /sear")
                        sock.settimeout(30)
                        sock.recv(4096)  # the 408 arrives, or "" on close
                    continue
                if step % 3 == 0:
                    status, payload = http(
                        f"/search?q=chaos+{step % 4}&timeout_ms=5000"
                    )
                elif step % 3 == 1:
                    status, payload = http("/search?q=Zurich&limit=2")
                else:
                    status, payload = http("/healthz")
                with lock:
                    outcomes.append((status, payload.get("kind")))
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client, args=(n,)) for n in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "clients hung"

    try:
        assert not errors, errors[:5]
        assert outcomes
        bad = [s for s, __ in outcomes if s not in EXPECTED_STATUSES]
        assert not bad, f"unexpected statuses: {sorted(set(bad))}"
        # after the storm the server still serves: let any breaker
        # cooldown lapse, then demand a healthy answer
        import time

        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline:
            # a search doubles as the half-open probe that closes a
            # tripped breaker once its cooldown has lapsed
            search_status, __p = http("/search?q=Zurich&limit=2")
            status, payload = http("/healthz")
            if (
                search_status == 200
                and status == 200
                and payload["status"] == "ok"
            ):
                break
            time.sleep(0.05)
        assert search_status == 200
        assert status == 200
        assert payload["status"] == "ok"
    finally:
        report = server.stop()
    assert report["stopped"], report
