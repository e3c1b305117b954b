"""Serving resilience: deadlines, shedding, breaker, limits, drain.

Every test runs a real server on an ephemeral port, with a
:class:`~repro.resilience.faults.ServingFaultInjector` standing in for
a slow or failing engine — each degraded behaviour is *provoked*, not
awaited.  The raw-socket helpers exist because the interesting clients
(slowloris, oversize, malformed) are exactly the ones ``urllib``
refuses to be.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.soda import Soda, SodaConfig
from repro.index.snapshot import load_snapshot
from repro.obs.metrics import registry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import ServingFaultInjector
from repro.server import SodaServer
from repro.warehouse.minibank import build_minibank


@pytest.fixture(scope="module")
def soda():
    warehouse = build_minibank(seed=42, scale=0.25)
    return Soda(warehouse, SodaConfig())


@pytest.fixture
def make_server(soda):
    """Start a server with the given resilience knobs; always stopped."""
    servers = []

    def factory(**kwargs):
        server = SodaServer(soda, port=0, **kwargs)
        servers.append(server)
        return server.start_background()

    yield factory
    for server in servers:
        server.stop()


def _get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def _raw(server, data: bytes, hold_open: bool = False) -> bytes:
    """Send raw bytes; collect the response until the server closes."""
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=30
    ) as sock:
        sock.sendall(data)
        if hold_open:
            sock.settimeout(30)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
    return b"".join(chunks)


def _parse(blob: bytes):
    head, __, body = blob.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, __, value = line.partition(b": ")
        headers[name.decode().lower()] = value.decode()
    return status, headers, json.loads(body) if body else None


# ----------------------------------------------------------------------
# satellite: per-connection limits (slowloris, oversize, malformed)
# ----------------------------------------------------------------------
class TestConnectionLimits:
    def test_stalled_client_gets_408_not_a_held_slot(self, make_server):
        server = make_server(read_timeout_s=0.2)
        started = time.perf_counter()
        # a slowloris client: half a request line, then silence
        blob = _raw(server, b"GET /search?q=Zu", hold_open=True)
        status, __, payload = _parse(blob)
        assert status == 408
        assert payload["kind"] == "read_timeout"
        assert "stalled client" in payload["error"]
        # the server answered at its read timeout, not ours
        assert time.perf_counter() - started < 10
        # and the connection slot is free: a normal request succeeds
        status, __, payload = _get(server, "/healthz")
        assert status == 200

    def test_oversize_request_line_is_413(self, make_server):
        server = make_server()
        target = "/search?q=" + "x" * 10_000
        blob = _raw(server, f"GET {target} HTTP/1.1\r\n\r\n".encode())
        status, __, payload = _parse(blob)
        assert status == 413
        assert payload["kind"] == "oversize"

    def test_oversize_headers_are_413(self, make_server):
        server = make_server()
        headers = "".join(f"X-Pad-{i}: {'y' * 500}\r\n" for i in range(40))
        blob = _raw(
            server, f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
        )
        status, __, payload = _parse(blob)
        assert status == 413
        assert payload["kind"] == "oversize"

    def test_oversize_body_is_rejected_before_reading_it(self, make_server):
        server = make_server()
        request = (
            b"POST /sql HTTP/1.1\r\n"
            b"Content-Length: 10485760\r\n\r\n"  # 10 MiB never sent
        )
        blob = _raw(server, request, hold_open=True)
        status, __, payload = _parse(blob)
        assert status == 413
        assert payload["kind"] == "oversize"

    def test_malformed_request_line_is_400(self, make_server):
        server = make_server()
        blob = _raw(server, b"NONSENSE\r\n\r\n")
        status, __, payload = _parse(blob)
        assert status == 400
        assert payload["kind"] == "malformed_request"

    def test_bad_content_length_is_400(self, make_server):
        server = make_server()
        blob = _raw(
            server,
            b"POST /sql HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        )
        status, __, payload = _parse(blob)
        assert status == 400
        assert payload["kind"] == "malformed_request"

    def test_negative_content_length_is_400(self, make_server):
        # readexactly(-5) raises ValueError, which used to kill the
        # connection task: a logged traceback and an empty reply
        server = make_server()
        blob = _raw(
            server,
            b"POST /sql HTTP/1.1\r\nContent-Length: -5\r\n\r\nSELECT 1",
        )
        status, __, payload = _parse(blob)
        assert status == 400
        assert payload["kind"] == "malformed_request"
        assert payload["error"] == "bad Content-Length header"

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /search?q=cut+off+head HTTP/1.1\r\nHost: x\r\n",
            b"GET /search?q=cut+off+head HTTP/1.1\r\nHost: x",
            b"GET /search?q=cut+off",
        ],
        ids=["after-a-header", "inside-a-header", "inside-the-request-line"],
    )
    def test_request_cut_off_mid_head_is_not_executed(self, make_server, head):
        # EOF inside the head used to read as the blank line: a full
        # search ran for a client that had already gone
        server = make_server()
        searches = registry().counter("pipeline.searches")
        before = searches.value
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(head)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""  # closed, nothing answered
        # the connection is gone; a later request sees a quiet engine
        status, __, __ = _get(server, "/healthz")
        assert status == 200
        assert searches.value == before

    def test_clean_close_between_requests_is_silent(self, make_server):
        server = make_server()
        errors = registry().counter("serving.http.errors")
        before = errors.value
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(request)
            status, __, __ = _parse(sock.recv(65536))
            assert status == 200
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""
        assert errors.value == before

    def test_bare_lf_request_is_answered(self, make_server):
        server = make_server()
        blob = _raw(server, b"GET /healthz HTTP/1.1\nConnection: close\n\n")
        status, __, payload = _parse(blob)
        assert status == 200
        assert payload["status"] == "ok"

    def test_one_timeout_scope_covers_the_whole_request(self, make_server):
        # a client that sends another header just inside the timeout
        # used to restart the clock with every line, forever
        server = make_server(read_timeout_s=0.4)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            sock.settimeout(0.15)  # the pause between two drips
            for step in range(20):  # 3 s of dripping against 0.4 s
                try:
                    blob = sock.recv(65536)
                    break
                except socket.timeout:
                    sock.sendall(f"X-Drip-{step}: y\r\n".encode())
            else:
                pytest.fail("no 408 while the client kept dripping")
        status, __, payload = _parse(blob)
        assert status == 408
        assert payload["kind"] == "read_timeout"
        assert payload["error"] == (
            "timed out after 0.4s waiting for request headers "
            "(stalled client)"
        )

    def test_stalled_body_is_408(self, make_server):
        server = make_server(read_timeout_s=0.2)
        blob = _raw(
            server,
            b"POST /sql HTTP/1.1\r\nContent-Length: 50\r\n\r\nSELECT",
            hold_open=True,
        )
        status, __, payload = _parse(blob)
        assert status == 408
        assert payload["error"] == (
            "timed out after 0.2s reading the request body (stalled client)"
        )


# ----------------------------------------------------------------------
# tentpole: request deadlines with cooperative cancellation
# ----------------------------------------------------------------------
class TestRequestDeadlines:
    def test_deadline_503_and_the_engine_stays_consistent(
        self, soda, make_server
    ):
        faults = ServingFaultInjector(delay_s=0.05)
        server = make_server(faults=faults)
        fingerprint = soda.warehouse.database.catalog.fingerprint()
        status, headers, payload = _get(
            server, "/search?q=deadline+test+alpha&timeout_ms=20"
        )
        assert status == 503
        assert payload["kind"] == "deadline_exceeded"
        assert payload["timeout_ms"] == 20
        assert payload["elapsed_ms"] >= 20
        assert payload["where"]  # names the cooperative checkpoint
        assert "deadline" in payload["error"]
        assert headers.get("Retry-After")
        # cooperative unwind: no pins leaked, no state mutated
        assert soda.warehouse.database.catalog.fingerprint() == fingerprint
        # and the very next request (within budget) succeeds
        faults.set_delay(0.0)
        status, __, payload = _get(
            server, "/search?q=deadline+test+alpha&timeout_ms=30000"
        )
        assert status == 200

    def test_engine_config_default_applies_without_client_opt_in(self, soda):
        faults = ServingFaultInjector(delay_s=0.05)
        server = SodaServer(
            soda, port=0, request_timeout_ms=20, faults=faults
        )
        server.start_background()
        try:
            status, __, payload = _get(server, "/search?q=deadline+beta")
            assert status == 503
            assert payload["kind"] == "deadline_exceeded"
        finally:
            server.stop()

    def test_client_timeout_overrides_the_default(self, make_server):
        # server default would cancel everything; the client opts out
        server = make_server(request_timeout_ms=1)
        status, __, payload = _get(
            server, "/search?q=deadline+gamma&timeout_ms=30000"
        )
        assert status == 200

    @pytest.mark.parametrize("bad", ["abc", "0", "-5", "nan", "inf"])
    def test_bad_timeout_ms_is_400(self, make_server, bad):
        server = make_server()
        status, __, payload = _get(server, f"/healthz?x=1")
        assert status == 200  # warm up
        status, __, payload = _get(
            server, f"/search?q=Zurich&timeout_ms={bad}"
        )
        assert status == 400
        assert "timeout_ms" in payload["error"]

    def test_fractional_timeout_ms_is_accepted(self, make_server):
        # Deadline and request_timeout_ms take floats; the wire
        # parameter must too
        server = make_server()
        status, __, __ = _get(
            server, "/search?q=Zurich&timeout_ms=2500.5"
        )
        assert status == 200


# ----------------------------------------------------------------------
# tentpole: admission control + load shedding
# ----------------------------------------------------------------------
@pytest.mark.stress
class TestLoadShedding:
    def test_saturation_sheds_429_with_retry_after(self, make_server):
        faults = ServingFaultInjector(delay_s=0.3)
        server = make_server(
            workers=2,
            max_inflight=1,
            queue_depth=0,
            queue_timeout_ms=200.0,
            faults=faults,
        )
        results = []

        def client(i):
            results.append(
                _get(server, f"/search?q=shed+test+{i}&timeout_ms=30000")
            )

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = sorted(status for status, __, __ in results)
        assert 200 in statuses  # someone was served
        assert 429 in statuses  # someone was shed
        shed = next(r for r in results if r[0] == 429)
        __, headers, payload = shed
        assert payload["kind"] == "load_shed"
        assert payload["reason"] in ("queue_full", "queue_timeout")
        assert headers.get("Retry-After")

    def test_healthz_reports_admission_occupancy(self, make_server):
        server = make_server(max_inflight=3, queue_depth=7)
        status, __, payload = _get(server, "/healthz")
        assert status == 200
        admission = payload["admission"]
        assert admission["max_concurrent"] == 3
        assert admission["queue_depth"] == 7


# ----------------------------------------------------------------------
# tentpole: circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trip_fast_fail_and_recover(self, make_server):
        faults = ServingFaultInjector()
        server = make_server(
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.2),
            faults=faults,
        )
        # two injected engine failures -> 500s, breaker trips
        faults.fail_requests(2)
        for i in range(2):
            status, __, payload = _get(server, f"/search?q=breaker+{i}")
            assert status == 500
            assert payload["kind"] == "engine_failure"
            assert "injected" in payload["error"]
        # open: fast-fail without touching the engine
        calls_before = faults.calls
        status, headers, payload = _get(server, "/search?q=breaker+open")
        assert status == 503
        assert payload["kind"] == "circuit_open"
        assert payload["breaker"]["state"] == "open"
        assert headers.get("Retry-After")
        assert faults.calls == calls_before  # the engine was not called
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "open"
        # cooldown -> half-open probe -> success closes the breaker
        time.sleep(0.25)
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "degraded"
        status, __, __ = _get(server, "/search?q=breaker+probe")
        assert status == 200
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "ok"
        assert payload["breaker"]["state"] == "closed"

    def test_deadline_exceeded_probe_does_not_wedge_the_breaker(
        self, make_server
    ):
        # A slow engine is exactly what trips the breaker, so the
        # half-open probe is likely to exceed its deadline too.  The
        # probe slot must be released on that path or every later
        # allow() returns False and the server 503s until restart.
        faults = ServingFaultInjector()
        server = make_server(
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.2),
            faults=faults,
        )
        faults.fail_requests(2)
        for i in range(2):
            status, __, __ = _get(server, f"/search?q=wedge+{i}")
            assert status == 500
        time.sleep(0.25)  # cooldown -> half-open
        faults.set_delay(0.05)
        status, __, payload = _get(
            server, "/search?q=wedge+probe&timeout_ms=20"
        )
        assert status == 503
        assert payload["kind"] == "deadline_exceeded"
        # the slot is free again: a healthy probe closes the breaker
        faults.set_delay(0.0)
        status, __, __ = _get(server, "/search?q=wedge+recovered")
        assert status == 200
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "ok"

    @pytest.mark.parametrize("bad", ["timeout_ms=abc", "limit=abc"])
    def test_rejected_probe_releases_the_slot(self, make_server, bad):
        # the probe dies before the engine runs (a parameter error the
        # loop-side validation raises) — again no verdict, again the
        # slot must come back
        faults = ServingFaultInjector()
        server = make_server(
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.2),
            faults=faults,
        )
        faults.fail_requests(2)
        for i in range(2):
            status, __, __ = _get(server, f"/search?q=reject+{i}")
            assert status == 500
        time.sleep(0.25)  # cooldown -> half-open
        status, __, __ = _get(server, f"/search?q=reject+probe&{bad}")
        assert status == 400
        # no verdict: the breaker is still feeling the engine out
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "degraded"
        status, __, __ = _get(server, "/search?q=reject+recovered")
        assert status == 200
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "ok"

    def test_client_errors_do_not_trip_the_breaker(self, make_server):
        server = make_server(
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=60)
        )
        for __ in range(5):
            status, __unused, __p = _get(server, "/search")  # missing q
            assert status == 400
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "ok"  # 400s prove the engine answers


# ----------------------------------------------------------------------
# PR 21: what a result-cache hit answered on the event loop is, and is
# not, subject to
# ----------------------------------------------------------------------
def _tripped(make_server, **kwargs):
    """A server whose breaker two injected failures just opened."""
    faults = ServingFaultInjector()
    server = make_server(
        breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.2),
        faults=faults,
        **kwargs,
    )
    status, __, __ = _get(server, "/search?q=Zurich")  # fills the cache
    assert status == 200
    faults.fail_requests(2)
    for i in range(2):
        status, __, __ = _get(server, f"/search?q=trip+{i}")
        assert status == 500
    return server, faults


class TestLoopServedHits:
    def test_a_hit_takes_no_slot_and_is_never_shed(self, make_server):
        faults = ServingFaultInjector()
        server = make_server(
            workers=1, max_inflight=1, queue_depth=1,
            queue_timeout_ms=30000.0, faults=faults,
        )
        status, __, first = _get(server, "/search?q=Zurich&limit=2")
        assert status == 200
        faults.set_delay(2.0)
        holders = [
            threading.Thread(
                target=_get, args=(server, f"/search?q=slot+holder+{i}")
            )
            for i in range(2)
        ]
        try:
            for thread in holders:
                thread.start()
            # every slot held, the queue full, and the holder's engine
            # call counted: the slot is taken on the loop, but the
            # injector sees the call later, on the worker thread
            deadline = time.perf_counter() + 10
            while time.perf_counter() < deadline:
                admission = _get(server, "/healthz")[2]["admission"]
                settled = (admission["active"], admission["waiting"]) == (1, 1)
                if settled and faults.calls == 2:  # cache fill + holder
                    break
                time.sleep(0.01)
            assert (admission["active"], admission["waiting"]) == (1, 1)
            calls = faults.calls
            assert calls == 2
            status, headers, payload = _get(
                server, "/search?q=not+cached+yet"
            )
            assert status == 429
            assert payload["kind"] == "load_shed"
            assert headers.get("Retry-After")
            status, headers, payload = _get(server, "/search?q=Zurich&limit=2")
            assert status == 200
            assert payload == first  # the cached body, timings and all
            assert "cache;desc=hit" in headers["Server-Timing"]
            # not an engine call: the injector never saw it
            assert faults.calls == calls
            admission = _get(server, "/healthz")[2]["admission"]
            assert admission["shed"] == 1  # the uncached one only
        finally:
            faults.set_delay(0.0)
            for thread in holders:
                thread.join(timeout=30)

    def test_an_open_breaker_fast_fails_hits_too(self, make_server):
        server, __ = _tripped(make_server)
        hits = registry().counter("serving.search.loop_hits")
        before = hits.value
        status, headers, payload = _get(server, "/search?q=Zurich")
        assert status == 503
        assert payload["kind"] == "circuit_open"
        assert headers.get("Retry-After")
        assert hits.value == before  # the cache was not even asked

    def test_a_hit_is_a_half_open_probe_that_closes_the_breaker(
        self, make_server
    ):
        server, faults = _tripped(make_server)
        time.sleep(0.25)  # cooldown -> half-open
        calls = faults.calls
        status, headers, __ = _get(server, "/search?q=Zurich")
        assert status == 200
        assert "cache;desc=hit" in headers["Server-Timing"]
        assert faults.calls == calls
        # it claimed the probe slot, answered, and released it
        status, __, payload = _get(server, "/healthz")
        assert payload["status"] == "ok"
        assert payload["breaker"]["state"] == "closed"

    @pytest.mark.parametrize(
        "query, body",
        [
            ("", b'{"error": "missing query parameter \'q\'", '
                 b'"kind": "bad_request"}'),
            ("q=Zurich&limit=abc",
             b'{"error": "bad limit \'abc\'", "kind": "bad_request"}'),
            ("q=Zurich&limit=-1",
             b'{"error": "limit must be >= 0", "kind": "bad_request"}'),
            ("q=Zurich&timeout_ms=abc",
             b'{"error": "bad timeout_ms \'abc\'", "kind": "bad_request"}'),
        ],
    )
    def test_loop_side_validation_keeps_its_400_bodies(
        self, make_server, query, body
    ):
        server = make_server()
        blob = _raw(
            server,
            f"GET /search?{query} HTTP/1.1\r\nConnection: close\r\n\r\n"
            .encode(),
        )
        head, __, sent = blob.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert sent == body


# ----------------------------------------------------------------------
# satellite: idempotent stop(); tentpole: graceful drain
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_stop_on_a_never_started_server_is_a_noop(self, soda):
        server = SodaServer(soda, port=0)
        assert server.stop() == {"stopped": True, "stuck_threads": []}

    def test_stop_is_idempotent(self, soda):
        server = SodaServer(soda, port=0)
        server.start_background()
        first = server.stop()
        second = server.stop()
        assert first["stopped"] and second["stopped"]

    def test_start_background_is_idempotent(self, soda):
        server = SodaServer(soda, port=0)
        try:
            assert server.start_background() is server
            port = server.port
            assert server.start_background() is server
            assert server.port == port  # same listener, not a second bind
        finally:
            server.stop()

    def test_concurrent_stops_are_safe(self, soda):
        server = SodaServer(soda, port=0)
        server.start_background()
        reports = []
        threads = [
            threading.Thread(target=lambda: reports.append(server.stop()))
            for __ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(report["stopped"] for report in reports)

    def test_drain_finishes_inflight_requests(self, soda):
        faults = ServingFaultInjector(delay_s=0.3)
        server = SodaServer(
            soda, port=0, faults=faults, drain_timeout_s=10.0
        )
        server.start_background()
        outcome = {}

        def client():
            outcome["result"] = _get(
                server, "/search?q=drain+test&timeout_ms=30000"
            )

        thread = threading.Thread(target=client)
        thread.start()
        time.sleep(0.1)  # let the request reach the engine pool
        report = server.stop()
        thread.join(timeout=30)
        assert report["stopped"]
        status, __, __ = outcome["result"]
        assert status == 200  # the in-flight request completed

    def test_server_restarts_after_stop(self, soda):
        server = SodaServer(soda, port=0)
        server.start_background()
        status, __, __ = _get(server, "/search?q=Zurich")
        assert status == 200
        server.stop()
        server.start_background()
        try:
            status, __, __ = _get(server, "/healthz")
            assert status == 200
            # engine routes run on the worker pool, which the previous
            # stop shut down — the restart must serve them too
            status, __, payload = _get(server, "/search?q=Zurich")
            assert status == 200
            status, __, payload = _get(server, "/healthz")
            assert payload["status"] == "ok"  # no breaker fallout
        finally:
            server.stop()


# ----------------------------------------------------------------------
# the index snapshot is saved once, on drain
# ----------------------------------------------------------------------
class TestSnapshotOnDrain:
    @pytest.fixture
    def own_soda(self):
        """A warehouse of its own: the test writes to it."""
        warehouse = build_minibank(seed=42, scale=0.1)
        return Soda(warehouse, SodaConfig())

    def test_stop_saves_the_state_after_the_last_write(self, own_soda, tmp_path):
        path = tmp_path / "index.json.gz"
        catalog = own_soda.warehouse.database.catalog
        before = catalog.fingerprint()
        server = SodaServer(own_soda, port=0, snapshot_path=path)
        server.start_background()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/sql",
                data=b"INSERT INTO currencies VALUES ('QQZ', 'qqzdrain')",
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            assert not path.exists()  # saved on drain, not before
        finally:
            server.stop()
        snapshot = load_snapshot(path)
        assert snapshot.fingerprint == catalog.fingerprint() != before
        assert snapshot.inverted.lookup_phrase("qqzdrain")
        # the strict loader accepts it: name, fingerprint and digest match
        own_soda.warehouse.load_index_snapshot(path)
        path.unlink()
        server.stop()  # idempotent: the serve already ended and saved
        assert not path.exists()

    def test_a_never_started_server_writes_nothing(self, soda, tmp_path):
        path = tmp_path / "index.json.gz"
        report = SodaServer(soda, port=0, snapshot_path=path).stop()
        assert report["stopped"]
        assert not path.exists()
