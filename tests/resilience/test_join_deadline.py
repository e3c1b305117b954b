"""A fan-out join is cancellable between its output batches.

A join's gather used to be one uninterruptible stretch between two
scan-boundary checks; the engine now calls ``deadline.check("join")``
per ``BATCH_SIZE`` output rows.  No sleeping: the injected clock
advances one millisecond per reading, the scans below the join read it
a handful of times, the join over a hundred times — so a 50 ms budget
can only run out inside the join.
"""

import json
import urllib.error
import urllib.request

import pytest

import repro.server as server_module
from repro.core.soda import Soda, SodaConfig
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    deadline_scope,
)
from repro.server import SodaServer
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.planner import BATCH_SIZE
from repro.sqlengine.segments import current_pins
from repro.warehouse.minibank import build_minibank

#: 200 x 100 x 200 rows over 6 currencies: ~111k joined rows, >100 batches
FAN_OUT = (
    "SELECT a.id, b.id, c.id "
    "FROM money_transactions a, payment_orders b, trade_orders c "
    "WHERE a.currency_cd = b.currency_cd AND b.currency_cd = c.currency_cd"
)
LEFT_FAN_OUT = (
    "SELECT a.id, b.id, c.id FROM money_transactions a "
    "LEFT JOIN payment_orders b ON a.currency_cd = b.currency_cd "
    "LEFT JOIN trade_orders c ON b.currency_cd = c.currency_cd"
)


def millisecond_ticks():
    """A clock that is one millisecond later every time it is read."""
    now = [0.0]

    def clock() -> float:
        now[0] += 0.001
        return now[0]

    return clock


@pytest.fixture(scope="module")
def warehouse():
    return build_minibank(
        seed=42, scale=1.0, engine_config=EngineConfig(segment_rows=64)
    )


class TestEngine:
    @pytest.mark.parametrize("sql", [FAN_OUT, LEFT_FAN_OUT])
    def test_deadline_fires_inside_the_join(self, warehouse, sql):
        database = warehouse.database
        expected = len(database.execute(sql).rows)
        assert expected > 5 * BATCH_SIZE
        with deadline_scope(Deadline(50, clock=millisecond_ticks())):
            with pytest.raises(DeadlineExceeded) as caught:
                database.execute(sql)
        assert caught.value.where == "join"
        # the unwind released the execution's snapshot pins, and the
        # same statement runs to completion afterwards
        assert current_pins() is None
        assert len(database.execute(sql).rows) == expected

    def test_a_budget_the_join_fits_is_not_cut_short(self, warehouse):
        database = warehouse.database
        with deadline_scope(Deadline(60_000, clock=millisecond_ticks())):
            rows = database.execute(FAN_OUT + " LIMIT 5000").rows
        assert len(rows) == 5000


def _post_sql(server, sql: str, query: str = ""):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/sql{query}", data=sql.encode()
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_http_503_mid_join_leaves_the_worker_clean(warehouse, monkeypatch):
    monkeypatch.setattr(
        server_module,
        "Deadline",
        lambda timeout_ms: Deadline(timeout_ms, clock=millisecond_ticks()),
    )
    # one engine worker: the requests after the 503 run on the thread
    # the cancelled join ran on
    server = SodaServer(
        Soda(warehouse, SodaConfig()), port=0, workers=1
    ).start_background()
    try:
        status, payload = _post_sql(server, FAN_OUT, "?timeout_ms=50")
        assert status == 503
        assert payload["kind"] == "deadline_exceeded"
        assert payload["where"] == "join"
        # a pin the cancelled join left installed on that thread would
        # hide this write from the read that follows it
        before = _post_sql(server, "SELECT count(*) FROM payment_orders")
        status, payload = _post_sql(
            server, "INSERT INTO payment_orders VALUES (900001, 'CHF', 1.0)"
        )
        assert (status, payload["rowcount"]) == (200, 1)
        after = _post_sql(server, "SELECT count(*) FROM payment_orders")
        assert after[1]["rows"][0][0] == before[1]["rows"][0][0] + 1
    finally:
        server.stop()
        warehouse.database.execute(
            "DELETE FROM payment_orders WHERE id = 900001"
        )
