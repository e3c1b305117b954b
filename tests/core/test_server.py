"""The asyncio HTTP front end: /search, /sql, /metrics, /healthz.

A real server on an ephemeral port, real ``urllib`` clients, a
warehouse with the default engine config — the same
stack ``repro serve`` runs.  One server per module; the write tests
use their own private warehouse.
"""

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.soda import Soda, SodaConfig
from repro.server import SodaServer
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS
from repro.warehouse.minibank import build_minibank


@pytest.fixture(scope="module")
def server():
    warehouse = build_minibank(seed=42, scale=0.25)
    soda = Soda(warehouse, SodaConfig())
    server = SodaServer(soda, port=0, workers=4)
    server.start_background()
    yield server
    server.stop()


def _get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(server, path, body: bytes):
    url = f"http://127.0.0.1:{server.port}{path}"
    request = urllib.request.Request(url, data=body)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestSearchEndpoint:
    def test_get_search_returns_the_wire_shape(self, server):
        status, payload = _get(server, "/search?q=Zurich&limit=2")
        assert status == 200
        assert payload["query"]["text"] == "Zurich"
        assert len(payload["statements"]) <= 2
        best = payload["statements"][0]
        assert best["sql"].startswith("SELECT")
        assert best["snippet"]["rows"]
        assert "soda_total" in payload["timings"]

    def test_post_search_json_body(self, server):
        body = json.dumps(
            {"query": "Sara Guttinger", "limit": 1, "execute": False}
        ).encode()
        status, payload = _post(server, "/search", body)
        assert status == 200
        assert len(payload["statements"]) <= 1
        assert payload["statements"][0]["snippet"] is None

    def test_search_matches_cli_json_contract(self, server):
        """The server answers with SearchResult.to_dict verbatim."""
        status, payload = _get(server, "/search?q=Zurich&limit=2")
        expected = (
            server.soda.search("Zurich", execute=True).to_dict(limit=2)
        )
        del payload["timings"], expected["timings"]  # wall-clock differs
        assert payload == expected

    def test_trace_flag_attaches_the_span_tree(self, server):
        status, payload = _get(server, "/search?q=Zurich&trace=1&limit=1")
        assert status == 200
        assert payload["trace"][0]["name"] == "search"

    def test_repeated_searches_hit_the_shared_cache(self, server):
        before = server.soda.result_cache.stats()["hits"]
        _get(server, "/search?q=gold%20agreement&limit=3")
        _get(server, "/search?q=gold%20agreement&limit=3")
        assert server.soda.result_cache.stats()["hits"] > before

    def test_missing_query_is_400(self, server):
        status, payload = _get(server, "/search")
        assert status == 400
        assert "q" in payload["error"]

    def test_bad_limit_is_400(self, server):
        status, __ = _get(server, "/search?q=Zurich&limit=banana")
        assert status == 400


class TestSqlEndpoint:
    def test_select(self, server):
        status, payload = _post(
            server, "/sql", b"SELECT COUNT(*) FROM currencies"
        )
        assert status == 200
        assert payload["columns"] == ["count(*)"]
        assert payload["rows"][0][0] > 0

    def test_write_then_read_back(self, server):
        status, payload = _post(
            server, "/sql",
            b"INSERT INTO currencies VALUES ('QQQ', 'Server Coin')",
        )
        assert status == 200
        assert payload["rowcount"] == 1
        __, readback = _post(
            server, "/sql",
            b"SELECT currency_nm FROM currencies WHERE currency_cd = 'QQQ'",
        )
        assert readback["rows"] == [["Server Coin"]]

    def test_sql_error_is_400_with_message(self, server):
        status, payload = _post(server, "/sql", b"SELEC nonsense")
        assert status == 400
        assert "error" in payload

    def test_empty_body_is_400(self, server):
        status, __ = _post(server, "/sql", b"")
        assert status == 400


class TestOperationalEndpoints:
    def test_healthz_reports_the_engine_config(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["engine_config"]["segment_rows"] == (
            DEFAULT_SEGMENT_ROWS
        )
        assert payload["tables"] > 0

    def test_healthz_engine_config_has_exactly_the_three_settings(
        self, server
    ):
        __, payload = _get(server, "/healthz")
        assert payload["engine_config"] == {
            "plan_cache_size": 128,
            "segment_rows": DEFAULT_SEGMENT_ROWS,
            "request_timeout_ms": None,
        }

    def test_metrics_includes_serving_counters(self, server):
        _get(server, "/search?q=Zurich")
        status, payload = _get(server, "/metrics")
        assert status == 200
        assert payload["serving.http.requests"]["value"] > 0
        assert "serving.result_cache.hits" in payload
        assert "serving.result_cache.invalidations" in payload
        assert "serving.search.loop_hits" in payload
        assert "serving.search.pool_calls" in payload
        assert "lookup.memo.invalidations" in payload
        assert "plan_cache.entries" in payload

    def test_metrics_prometheus_format(self, server):
        status, payload = _get(server, "/metrics?format=prometheus")
        assert status == 200
        assert "serving_http_requests" in payload["prometheus"]

    def test_unknown_route_is_404(self, server):
        status, payload = _get(server, "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_wrong_method_is_404(self, server):
        status, __ = _get(server, "/sql")  # GET on a POST-only route
        assert status == 404


class TestConcurrentClients:
    def test_parallel_searches_and_writes_all_succeed(self, server):
        statuses: list = []
        lock = threading.Lock()

        def search_client(text: str) -> None:
            status, __ = _get(
                server, f"/search?q={urllib.parse.quote(text)}&limit=2"
            )
            with lock:
                statuses.append(status)

        def write_client(step: int) -> None:
            status, __ = _post(
                server, "/sql",
                f"INSERT INTO currencies VALUES "
                f"('W{step:02d}', 'Load Coin {step}')".encode(),
            )
            with lock:
                statuses.append(status)

        threads = [
            threading.Thread(target=search_client, args=(text,))
            for text in ["Zurich", "Sara", "gold agreement", "Zurich"] * 3
        ] + [
            threading.Thread(target=write_client, args=(n,)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert statuses and set(statuses) == {200}
