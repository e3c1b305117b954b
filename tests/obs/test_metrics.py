"""Tests for the metrics registry: metric types, snapshots, exports."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_snapshot_and_reset(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter._snapshot() == 3
        counter._reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == 12.0


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_snapshot_shape(self):
        histogram = Histogram("h")
        histogram.observe(4.0)
        assert histogram._snapshot() == {
            "count": 1, "sum": 4.0, "mean": 4.0, "min": 4.0, "max": 4.0,
        }


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg
        assert "b" not in reg

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("x")

    def test_reset_zeroes_in_place_so_handles_survive(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        histogram = reg.histogram("h")
        counter.inc(7)
        histogram.observe(1.0)
        reg.reset()
        assert counter.value == 0
        assert histogram.count == 0
        assert reg.counter("c") is counter  # same object, not replaced
        counter.inc()
        assert reg.counter("c").value == 1

    def test_reset_zeroes_a_registered_gauge(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        gauge.set(4.5)
        reg.reset()
        assert gauge.value == 0.0
        assert reg.gauge("g") is gauge

    def test_to_dict_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.gauge("b.gauge").set(2)
        reg.counter("a.counter").inc()
        snapshot = reg.to_dict()
        assert list(snapshot) == ["a.counter", "b.gauge"]
        assert snapshot["a.counter"] == {"kind": "counter", "value": 1}
        assert snapshot["b.gauge"] == {"kind": "gauge", "value": 2}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        assert json.loads(reg.to_json()) == {
            "a": {"kind": "counter", "value": 3}
        }

    def test_enabled_flag_defaults_true(self):
        assert MetricsRegistry().enabled is True
        assert MetricsRegistry(enabled=False).enabled is False


class TestPrometheusRendering:
    def test_names_are_prefixed_and_flattened(self):
        reg = MetricsRegistry()
        reg.counter("plan_cache.hits").inc(4)
        rendered = reg.render_prometheus()
        assert "# TYPE repro_plan_cache_hits counter" in rendered
        assert "repro_plan_cache_hits 4" in rendered

    def test_histogram_renders_as_summary(self):
        reg = MetricsRegistry()
        histogram = reg.histogram("step.seconds")
        histogram.observe(0.5)
        histogram.observe(1.5)
        rendered = reg.render_prometheus()
        assert "# TYPE repro_step_seconds summary" in rendered
        assert "repro_step_seconds_count 2" in rendered
        assert "repro_step_seconds_sum 2.0" in rendered

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestProcessRegistry:
    def test_registry_is_a_singleton(self):
        assert registry() is registry()

    def test_engine_layers_registered_on_import(self):
        import repro.sqlengine.planner.physical  # noqa: F401

        reg = registry()
        for name in (
            "engine.rows_scanned",
            "engine.rows_filtered",
            "engine.rows_joined",
            "engine.batches_produced",
            "engine.segments_skipped",
        ):
            assert name in reg
