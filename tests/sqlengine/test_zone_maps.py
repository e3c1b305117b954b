"""Zone maps on frozen segments: what a scan skips, locked by counters.

A frozen segment memoises, per INTEGER/REAL column, the ``(min, max)``
of its physical values on first use.  A batch scan never slices a grid
batch whose rows all lie in segments a ``col <op> number`` conjunct
excludes.  These tests lock the effect with ``engine.rows_scanned`` and
``engine.segments_skipped`` (never with clocks), the cases that must
not skip, and the EXPLAIN / EXPLAIN ANALYZE renderings of both the
skip and the LEFT JOIN null-side pushdown.
"""

import re

import pytest

from repro.obs.metrics import registry
from repro.sqlengine.config import EngineConfig
from repro.sqlengine.database import Database
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner.physical import BATCH_SIZE
from repro.sqlengine.planner.stats import predicate_selectivity
from repro.sqlengine.segments import FrozenSegment

from tests.sqlengine.reference_engine import reference_execute

#: 80 frozen segments of 256 rows end on a batch boundary; the delta
#: holds the remaining 100 rows
FROZEN = 20_480
DELTA = 100


def make_db(segment_rows=256):
    db = Database(config=EngineConfig(segment_rows=segment_rows))
    db.create_table(
        "facts",
        [("id", "INT"), ("dim_id", "INT"), ("amount", "REAL"), ("qty", "INT")],
    )
    db.create_table("dims", [("id", "INT"), ("region", "TEXT")])
    db.insert_rows("dims", [(i, f"region {i % 4}") for i in range(50)])
    db.insert_rows(
        "facts",
        [(i, i % 50, float(i % 997), i % 7) for i in range(FROZEN + DELTA)],
    )
    return db


@pytest.fixture(scope="module")
def db():
    return make_db()


def moved(counter_name, fn):
    counter = registry().counter(counter_name)
    before = counter.value
    result = fn()
    return result, counter.value - before


class TestPointLookup:
    @pytest.mark.parametrize("k", [0, 255, 256, 12_345, FROZEN - 1, FROZEN + 7])
    def test_scans_at_most_one_batch_plus_delta(self, db, k):
        result, scanned = moved(
            "engine.rows_scanned",
            lambda: db.execute(f"SELECT id, qty FROM facts WHERE id = {k}"),
        )
        assert result.rows == [(k, k % 7)]
        assert scanned <= BATCH_SIZE + DELTA

    def test_segments_skipped_counter(self, db):
        __, skipped = moved(
            "engine.segments_skipped",
            lambda: db.execute("SELECT id FROM facts WHERE id = 5000"),
        )
        # the batch holding id 5000 spans four segments; the other 76
        # lie wholly in skipped batches
        assert skipped == FROZEN // 256 - BATCH_SIZE // 256

    def test_range_and_flipped_operands(self, db):
        sql = "SELECT count(*) FROM facts WHERE 19000 <= id AND id < 19100"
        result, scanned = moved("engine.rows_scanned", lambda: db.execute(sql))
        assert result.rows == [(100,)]
        assert scanned <= 2 * BATCH_SIZE + DELTA

    def test_nothing_matches(self, db):
        result, scanned = moved(
            "engine.rows_scanned",
            lambda: db.execute("SELECT id FROM facts WHERE id > 10000000"),
        )
        assert result.rows == []
        assert scanned == DELTA  # only the delta is read


class TestNeverSkipped:
    def full_scan(self, db, sql):
        __, scanned = moved("engine.rows_scanned", lambda: db.execute(sql))
        return scanned == FROZEN + DELTA

    def test_maybe_raising_predicate_disables_skipping(self, db):
        # 1 / qty raises where qty = 0: skipping could hide that error
        assert self.full_scan(
            db, "SELECT id FROM facts WHERE id = 7 AND 1 / (qty + 1) > 0"
        )

    def test_text_and_non_literal_tests_do_not_skip(self, db):
        assert self.full_scan(db, "SELECT id FROM facts WHERE id = qty")
        assert self.full_scan(db, "SELECT id FROM facts WHERE id + 0 = 7")

    def test_a_default_database_skips_segments(self):
        """Every table has zones: a point read on a default ``Database``
        of 20k rows (four frozen 4096-row segments and a delta) reads
        the one segment holding its row, and the delta."""
        db = Database()
        db.create_table("facts", [("id", "INT"), ("x", "REAL")])
        db.insert_rows("facts", [(i, float(i % 97)) for i in range(20_000)])
        rows, skipped = moved(
            "engine.segments_skipped",
            lambda: db.execute("SELECT id FROM facts WHERE id = 5000").rows,
        )
        assert rows == [(5000,)]
        assert skipped == 3


class TestSkippedBesideSafeSetsAndRanges:
    """The scan skips when the compiler calls its whole filter safe, so
    an IN list or a BETWEEN that cannot raise leaves the zone test on.
    (The hand-kept analysis the compiler replaced had no case for
    either, and turned skipping off beside them.)"""

    @pytest.mark.parametrize("other", ["qty IN (1, 2)", "qty BETWEEN 1 AND 3"])
    def test_scans_one_batch_plus_delta(self, db, other):
        sql = f"SELECT id FROM facts WHERE id = 5000 AND {other}"
        result, scanned = moved("engine.rows_scanned", lambda: db.execute(sql))
        assert result.rows == reference_execute(db, sql).rows == [(5000,)]
        assert scanned <= BATCH_SIZE + DELTA


class TestSkippingMatchesTheReference:
    @pytest.mark.parametrize("sql", [
        "SELECT id, qty FROM facts WHERE id = 7",
        "SELECT count(*), sum(amount) FROM facts WHERE id >= 20000",
        "SELECT id FROM facts WHERE amount > 995 AND id < 3000",
        "SELECT f.id, d.region FROM facts f, dims d "
        "WHERE f.dim_id = d.id AND f.id BETWEEN 12000 AND 12010",
    ])
    def test_same_rows(self, db, sql):
        # the reference reads every decoded row; the scan skips segments
        assert db.execute(sql).rows == reference_execute(db, sql).rows


class TestZoneMemo:
    def test_lazy_and_conservative(self):
        segment = FrozenSegment(((3, None, 9), (1.5, 2.5, None)), 3)
        assert segment._zones == {}  # nothing computed at freeze
        assert segment.zone(0) == (3, 9)
        assert segment.zone(1) == (1.5, 2.5)
        segment.tombstones.add(0)  # dead rows still bound the zone
        assert segment.zone(0) == (3, 9)

    def test_nan_and_all_null_columns_have_no_zone(self):
        segment = FrozenSegment(((None, None), (float("nan"), 1.0)), 2)
        assert segment.zone(0) is None
        assert segment.zone(1) is None

    def test_ingest_computes_no_zone(self):
        fresh = make_db()
        segments = fresh.table("facts")._storage.segments
        assert len(segments) == FROZEN // 256
        assert all(segment._zones == {} for segment in segments)


ACTUALS = re.compile(r"self=\d+\.\d{3}ms")


class TestExplain:
    def test_analyze_reports_skipped_segments(self, db):
        rendered = ACTUALS.sub(
            "self=Xms",
            db.explain("SELECT id FROM facts WHERE id = 5000", analyze=True),
        )
        assert rendered.splitlines()[-1] == (
            "└─ scan facts as facts (20580 rows) filter: (id = 5000) "
            "[~1 rows] [cols: id] "
            "(actual rows=1, batches=1, skipped=76, self=Xms)"
        )

    def test_analyze_without_skips_has_no_skipped_field(self, db):
        rendered = db.explain(
            "SELECT id FROM facts WHERE qty = 3", analyze=True
        )
        assert "skipped=" not in rendered

    def test_left_join_right_scan_shows_pushed_filter_and_estimate(self, db):
        sql = (
            "SELECT d.id, f.id FROM dims d LEFT JOIN facts f "
            "ON f.dim_id = d.id AND f.amount > 990 WHERE d.id < 3"
        )
        pushed = parse_select(sql).joins[0].condition.right
        stats = db.planner.statistics.table_stats("facts")
        estimate = int(round((FROZEN + DELTA)
                             * predicate_selectivity(pushed, stats)))
        assert db.explain(sql).splitlines() == [
            "project d.id, f.id",
            "└─ left join f on (f.dim_id = d.id) [~4 rows]",
            "   ├─ scan dims as d (50 rows) filter: (d.id < 3) [~4 rows] "
            "[cols: id]",
            "   └─ scan facts as f (20580 rows) filter: (f.amount > 990) "
            f"[~{estimate} rows] [cols: id, dim_id]",
        ]

    def test_whole_condition_pushed_renders_true(self, db):
        sql = (
            "SELECT d.id, f.id FROM dims d LEFT JOIN facts f "
            "ON f.amount > 996.5 WHERE d.id < 2"
        )
        lines = db.explain(sql).splitlines()
        assert lines[1] == "└─ left join f on TRUE [~3 rows]"
        assert "filter: (f.amount > 996.5)" in lines[3]
        # every left row is still padded
        assert sorted(db.execute(sql).rows) == [(0, None), (1, None)]
